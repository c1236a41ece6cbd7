"""Differential tests: the set-level hom search and congruence closure against
the brute-force scans in oracles.py, on random magmas of size 0-3, and the
monoid table check against the triple loop, on perturbed tables of size 1-8."""

from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from univhopf.errors import InputError, PreconditionError
from univhopf.finmonoid import (
    FinMonoid,
    congruence_closure,
    is_congruence,
)
from univhopf.setsuniversal import (
    omega_congruence_closure,
    universal_acting_group_sets,
)
from univhopf.signature import (
    FinSetMagma,
    OmegaSignature,
    composition_table,
    enumerate_set_homs,
    omega_automorphisms,
    set_magma_from_monoid_table,
)

from helpers import cyclic_monoid, full_transformation_monoid, klein_four
from oracles import (
    fixed_point_closure,
    permutation_scan_automorphisms,
    product_scan_homs,
    scan_validate_monoid,
)

# (name, arity in, arity out); a carrier of size 0 cannot carry the constant
OPS = (("c", 0, 1), ("u", 1, 2), ("m", 2, 1), ("t", 3, 2))


@st.composite
def magmas(draw, count=1):
    """count random magmas over one random sub-signature of OPS."""
    sizes = [draw(st.integers(0, 3)) for _ in range(count)]
    ops = tuple(
        op for op in OPS if draw(st.booleans()) and (op[1] > 0 or 0 not in sizes)
    )
    signature = OmegaSignature(ops)
    out = []
    for n in sizes:
        tables = {}
        for name, s, t in ops:
            element = st.integers(0, n - 1) if n else st.nothing()
            outputs = st.tuples(*[element] * t)
            tables[name] = {
                args: draw(outputs) for args in product(range(n), repeat=s)
            }
        out.append(FinSetMagma(signature, n, tables))
    return out


@st.composite
def magma_with_pairs(draw):
    [magma] = draw(magmas())
    n = magma.size
    if not n:
        return magma, []
    element = st.integers(0, n - 1)
    return magma, draw(st.lists(st.tuples(element, element), max_size=3))


@settings(deadline=None)
@given(magmas(count=2))
def test_homs_match_product_scan(pair):
    a, b = pair
    assert enumerate_set_homs(a, b) == product_scan_homs(a, b)


@settings(deadline=None)
@given(magmas())
def test_automorphisms_match_permutation_scan(one):
    [a] = one
    perms, table = omega_automorphisms(a)
    assert perms == permutation_scan_automorphisms(a)
    assert perms[0] == tuple(range(a.size))
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            assert perms[table[i][j]] == tuple(p[x] for x in q)


@settings(deadline=None)
@given(magmas())
def test_acting_all_is_the_automorphism_group(one):
    [a] = one
    perms, table = omega_automorphisms(a)
    members, group = universal_acting_group_sets(a, "all")
    assert members == perms
    assert group.table == tuple(tuple(row) for row in table)
    assert group.unit == 0
    # the explicit map set of every self-map gives the same group
    every_map = list(product(range(a.size), repeat=a.size))
    assert universal_acting_group_sets(a, every_map) == (members, group)


@settings(deadline=None)
@given(magma_with_pairs())
def test_closure_matches_fixed_point(case):
    magma, pairs = case
    assert omega_congruence_closure(magma, pairs) == fixed_point_closure(magma, pairs)


MONOIDS = {
    "C5": cyclic_monoid(5),
    "C6": cyclic_monoid(6),
    "Klein": klein_four(),
    "T2": full_transformation_monoid(2),
    "T3": full_transformation_monoid(3),
}


@pytest.mark.parametrize("name", sorted(MONOIDS))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_monoid_closure_is_the_magma_closure(name, data):
    m = MONOIDS[name]
    element = st.integers(0, m.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3))
    magma = set_magma_from_monoid_table(m.table, m.unit)
    congruence = congruence_closure(m, pairs)
    closure = congruence.class_of
    assert is_congruence(m, congruence)
    assert all(closure[x] == closure[y] for x, y in pairs)
    assert closure == omega_congruence_closure(magma, pairs)
    if m.size <= 6:  # the fixed point scans all pairs of pairs: too slow on T3
        assert closure == fixed_point_closure(magma, pairs)


def _closure(generators, k):
    """The self-maps of range(k) that the generators and the identity generate."""
    maps = {tuple(range(k))}
    frontier = list(maps)
    while frontier:
        f = frontier.pop()
        for g in generators:
            fg = tuple(f[x] for x in g)
            if fg not in maps:
                maps.add(fg)
                frontier.append(fg)
    return sorted(maps)


@st.composite
def monoid_tables(draw):
    """(table, unit) of a monoid of size 1-8, its elements renumbered at
    random, then possibly one entry changed: a transformation monoid, or a
    random table with a two-sided unit, which is seldom associative."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        point_map = st.tuples(*[st.integers(0, k - 1)] * k)
        maps = _closure(draw(st.lists(point_map, max_size=2)), k)
        assume(len(maps) <= 8)
        n, unit = len(maps), maps.index(tuple(range(k)))
        rows = composition_table(maps)
    else:
        n, unit = draw(st.integers(1, 8)), 0
        element = st.integers(0, n - 1)
        rows = [[j if i == 0 else i if j == 0 else draw(element) for j in range(n)]
                for i in range(n)]
    new = draw(st.permutations(range(n)))  # old element -> new element
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[new[i]][new[j]] = new[rows[i][j]]
    if draw(st.booleans()):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[a][b] = draw(st.integers(0, n - 1) | st.integers(-1, n))
    return tuple(map(tuple, table)), new[unit]


def _rejection(call, *args):
    """The type and message of what call(*args) raised, or None."""
    try:
        call(*args)
    except (InputError, PreconditionError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=600, deadline=None)
@given(monoid_tables())
def test_monoid_validation_matches_triple_loop(case):
    """The same verdict and message, the first failing (a, b, c) included."""
    assert _rejection(FinMonoid, *case) == _rejection(scan_validate_monoid, *case)
