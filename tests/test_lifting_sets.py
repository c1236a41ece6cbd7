"""The lifting theorem on the set side, coaction half: the universal coacting
quotient of a monoid along a labelling psi is the lift of a locally initial
object along a functor.

X is the thin category of the partitions of the monoid's carrier, with an
arrow p -> q when p refines q; every object of a thin category is locally
initial.  Y is its full subcategory of congruences and G the inclusion.  The
lift of x0 = the partition by psi's values is the initial congruence among
those x0 refines, the least congruence containing the kernel of psi: the
class map that universal_coacting_sets returns.
"""

from itertools import product

import pytest

from univhopf.finmonoid import monoid_from_rows
from univhopf.lio import FiniteCategory, lift_initial_object
from univhopf.setsuniversal import SetComodFrame, universal_coacting_sets
from univhopf.signature import set_magma_from_monoid_table

from helpers import (
    cyclic_monoid,
    full_subcategory_inclusion,
    full_transformation_monoid,
)


def monogenic_monoid(index: int, period: int):
    """{1, a, ..., a^(index+period-1)} with a^(index+period) = a^index."""
    n = index + period

    def power(k):
        return k if k < n else index + (k - index) % period

    return monoid_from_rows([[power(i + j) for j in range(n)] for i in range(n)], 0)


def partitions(n: int):
    """Every partition of 0..n-1 as a class map, classes numbered by first
    appearance (restricted growth strings)."""
    out = [()]
    for _ in range(n):
        out = [p + (c,) for p in out for c in range(max(p, default=-1) + 2)]
    return out


def refines(p, q) -> bool:
    return all(q[a] == q[b] for a in range(len(p)) for b in range(a) if p[a] == p[b])


def refinement_category(parts) -> FiniteCategory:
    """The thin category on the partitions, p -> q when p refines q."""
    morphs = [
        (x, y) for x, p in enumerate(parts) for y, q in enumerate(parts) if refines(p, q)
    ]
    idx = {m: i for i, m in enumerate(morphs)}
    incoming = {}
    for f, (x, y) in enumerate(morphs):
        incoming.setdefault(y, []).append(f)
    compose = {
        (g, f): idx[(morphs[f][0], z)]
        for g, (y, z) in enumerate(morphs)
        for f in incoming[y]
    }
    return FiniteCategory(
        len(parts),
        tuple(x for x, _ in morphs),
        tuple(y for _, y in morphs),
        tuple(idx[(x, x)] for x in range(len(parts))),
        compose,
    )


def is_congruence(m, p) -> bool:
    rng = range(m.size)
    return all(
        p[m.mul(a, c)] == p[m.mul(b, c)] and p[m.mul(c, a)] == p[m.mul(c, b)]
        for a in rng
        for b in rng
        if p[a] == p[b]
        for c in rng
    )


def first_appearance(psi):
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in psi)


MONOIDS = {
    "Z4": cyclic_monoid(4),
    "Z5": cyclic_monoid(5),
    "monogenic(2,2)": monogenic_monoid(2, 2),
    "monogenic(3,2)": monogenic_monoid(3, 2),
    "T2": full_transformation_monoid(2),
}


@pytest.mark.parametrize("name", MONOIDS)
def test_universal_coacting_quotient_is_the_lifted_initial_object(name):
    m = MONOIDS[name]
    n = m.size
    parts = partitions(n)
    x = refinement_category(parts)
    congruences = [i for i, p in enumerate(parts) if is_congruence(m, p)]
    inclusion = full_subcategory_inclusion(x, congruences)
    object_of = {p: i for i, p in enumerate(parts)}
    magma = set_magma_from_monoid_table(m.table, m.unit)
    mismatches = []
    for psi in product(range(n), repeat=n):
        y0 = lift_initial_object(inclusion, object_of[first_appearance(psi)])
        _, class_of = universal_coacting_sets(SetComodFrame(magma, psi, n))
        if y0 is None or parts[congruences[y0]] != tuple(class_of):
            mismatches.append(psi)
    assert not mismatches, mismatches[:5]


def test_refinement_category_sizes():
    # Bell numbers of objects; 358 refinement pairs on 5 points
    assert [len(partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]
    assert refinement_category(partitions(5)).num_morphisms == 358
    assert is_congruence(MONOIDS["Z4"], (0, 1, 0, 1))
    assert not is_congruence(MONOIDS["Z4"], (0, 0, 1, 1))
