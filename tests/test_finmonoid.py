from itertools import product

import pytest

from univhopf.errors import InputError, PreconditionError
from univhopf.finmonoid import (
    Congruence,
    FinMonoid,
    congruence_closure,
    grothendieck_group,
    is_congruence,
    is_group,
    monoid_from_rows,
    quotient_monoid,
    unit_group,
)
from univhopf.grouppres import todd_coxeter_order

from helpers import (
    chain_monoid_a3_eq_a,
    cyclic_monoid,
    full_transformation_monoid,
    klein_four,
)


def test_non_associative_table_rejected():
    with pytest.raises(PreconditionError):
        monoid_from_rows([[0, 1, 2], [1, 0, 0], [2, 0, 1]], 0)
    with pytest.raises(PreconditionError):
        monoid_from_rows([[1, 0], [0, 1]], 0)  # 0 is not an identity


def test_empty_pairs_give_discrete_congruence():
    z4 = cyclic_monoid(4)
    c = congruence_closure(z4, [])
    assert c.num_classes == 4


def test_congruence_z4_half():
    z4 = cyclic_monoid(4)
    c = congruence_closure(z4, [(0, 2)])
    assert c.class_of == (0, 1, 0, 1)


def test_congruence_z4_collapse():
    z4 = cyclic_monoid(4)
    c = congruence_closure(z4, [(0, 1)])
    assert c.num_classes == 1


def test_quotient_discrete_is_isomorphic_copy():
    z4 = cyclic_monoid(4)
    q, proj = quotient_monoid(z4, congruence_closure(z4, []))
    assert q.table == z4.table and proj == (0, 1, 2, 3)


def test_quotient_z4_mod_two_is_z2():
    z4 = cyclic_monoid(4)
    q, proj = quotient_monoid(z4, congruence_closure(z4, [(0, 2)]))
    assert q.table == ((0, 1), (1, 0))
    assert proj == (0, 1, 0, 1)


def test_quotient_full_collapse_trivial():
    z4 = cyclic_monoid(4)
    q, _ = quotient_monoid(z4, congruence_closure(z4, [(0, 1)]))
    assert q.size == 1


def test_quotient_rejects_a_partition_that_is_not_translation_closed():
    # {0, 1} is a class, but adding 1 sends it to {1, 2}, which is split
    with pytest.raises(PreconditionError):
        quotient_monoid(cyclic_monoid(4), Congruence((0, 0, 1, 2)))


def test_congruence_classes_are_numbered_zero_to_k_minus_one():
    # {a, a^2} is a class of the chain monoid {1, a, a^2} with a^3 = a; a
    # negative or skipped class number leaves the quotient without a class
    for class_of in ((0, -1, -1), (0, 2, 2)):
        with pytest.raises(InputError):
            Congruence(class_of)
    q, proj = quotient_monoid(chain_monoid_a3_eq_a(), Congruence((1, 0, 0)))
    assert q == monoid_from_rows([[0, 0], [0, 1]], 1)
    assert proj == (1, 0, 0)


def _all_congruences(m: FinMonoid):
    """All translation-closed partitions, by brute force over class labels."""
    n = m.size
    seen = set()
    out = []
    for labels in product(range(n), repeat=n):
        # normalize to first-appearance labelling
        relabel = {}
        norm = []
        for x in labels:
            relabel.setdefault(x, len(relabel))
            norm.append(relabel[x])
        norm = tuple(norm)
        if norm in seen:
            continue
        seen.add(norm)
        c = Congruence(norm)
        if is_congruence(m, c):
            out.append(c)
    return out


@pytest.mark.parametrize(
    "monoid", [cyclic_monoid(4), chain_monoid_a3_eq_a(), cyclic_monoid(5)]
)
def test_congruence_closure_is_least(monoid):
    n = monoid.size
    congruences = _all_congruences(monoid)
    for pairs in [[(0, 1)], [(0, n - 1)], [(1, 2)], [(0, 1), (1, 2)]]:
        closure = congruence_closure(monoid, pairs)
        assert all(closure.class_of[a] == closure.class_of[b] for a, b in pairs)
        for c in congruences:
            if all(c.class_of[a] == c.class_of[b] for a, b in pairs):
                # any congruence containing the pairs refines the closure
                assert all(
                    c.class_of[x] == c.class_of[y]
                    for x in range(n)
                    for y in range(n)
                    if closure.class_of[x] == closure.class_of[y]
                )


def test_is_group():
    assert is_group(cyclic_monoid(3))
    assert is_group(monoid_from_rows([[0]], 0))
    assert not is_group(full_transformation_monoid(2))


def test_unit_group_of_group_is_itself():
    k4 = klein_four()
    g, members = unit_group(k4)
    assert g.table == k4.table and members == (0, 1, 2, 3)


def test_unit_group_idempotent_monoid():
    m = monoid_from_rows([[0, 1], [1, 1]], 0)  # 1*1 = 1 = a^2 = a
    g, members = unit_group(m)
    assert g.size == 1 and members == (0,)


@pytest.mark.parametrize("points,order", [(2, 2), (3, 6)])
def test_unit_group_full_transformation_monoid(points, order):
    t = full_transformation_monoid(points)
    g, members = unit_group(t)
    assert g.size == order
    assert is_group(g)
    # every element outside has no two-sided inverse
    outside = set(range(t.size)) - set(members)
    for x in outside:
        assert not any(
            t.mul(x, y) == t.unit and t.mul(y, x) == t.unit for y in range(t.size)
        )


def test_grothendieck_trivial_monoid():
    p = grothendieck_group(monoid_from_rows([[0]], 0))
    assert todd_coxeter_order(p) == 1


def test_grothendieck_chain_monoid_is_z2():
    p = grothendieck_group(chain_monoid_a3_eq_a())
    assert todd_coxeter_order(p) == 2


def test_grothendieck_of_group_is_the_group():
    z2 = cyclic_monoid(2)
    assert todd_coxeter_order(grothendieck_group(z2)) == 2
    assert todd_coxeter_order(grothendieck_group(klein_four())) == 4


def test_grothendieck_enumeration_terminates_small_monoids():
    monoids = [
        cyclic_monoid(k) for k in range(1, 9)
    ] + [
        full_transformation_monoid(2),
        chain_monoid_a3_eq_a(),
        klein_four(),
    ]
    for m in monoids:
        assert m.size <= 8
        order = todd_coxeter_order(grothendieck_group(m))
        assert order is not None
