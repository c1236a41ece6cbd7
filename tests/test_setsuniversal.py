from itertools import product

import pytest

from univhopf.errors import PreconditionError, ResourceLimitError
from univhopf.finmonoid import Congruence, is_congruence, monoid_from_rows
from univhopf.grouppres import todd_coxeter_order
from univhopf.setsuniversal import (
    SetComodFrame,
    is_tensor_epimorphism_sets,
    omega_congruence_closure,
    sets_support_of_map,
    universal_acting_group_sets,
    universal_coacting_group_sets,
    universal_coacting_sets,
    universal_measuring_comonoid_sets,
)
from univhopf.signature import set_magma_from_monoid_table

from helpers import cyclic_set_magma, klein_set_magma


def test_injective_labelling_gives_isomorphic_quotient():
    for magma in (cyclic_set_magma(4), klein_set_magma()):
        frame = SetComodFrame(magma, tuple(range(magma.size)), magma.size)
        quotient, projection = universal_coacting_sets(frame)
        assert quotient.size == magma.size
        assert sorted(projection) == list(range(magma.size))
        assert quotient.tables == {
            name: {
                tuple(projection[x] for x in key): tuple(projection[y] for y in out)
                for key, out in magma.tables[name].items()
            }
            for name in magma.tables
        }


def test_constant_labelling_gives_trivial_quotient():
    z4 = cyclic_set_magma(4)
    quotient, _ = universal_coacting_sets(SetComodFrame(z4, (0, 0, 0, 0), 1))
    assert quotient.size == 1


def test_z4_identifying_zero_and_two():
    z4 = cyclic_set_magma(4)
    quotient, projection = universal_coacting_sets(SetComodFrame(z4, (0, 1, 0, 3), 4))
    assert quotient.size == 2
    assert projection == (0, 1, 0, 1)


def test_non_monoid_magma_rejected():
    from univhopf.signature import FinSetMagma, OmegaSignature

    sig = OmegaSignature((("mu", 2, 1), ("unit", 0, 1)))
    tables = {
        "mu": {(i, j): ((i + j) % 3,) for i in range(3) for j in range(3)},
        "unit": {(): (1,)},  # 1 is not an identity for addition mod 3
    }
    bad = FinSetMagma(sig, 3, tables)
    with pytest.raises(PreconditionError):
        SetComodFrame(bad, (0, 1, 2), 3)


def test_quotient_is_universal_among_kernel_collapses():
    # exhaustively: every congruence identifying the kernel pairs factors
    # through the closure, for all labellings of small cyclic monoids
    for n in (3, 4, 5):
        magma = cyclic_set_magma(n)
        monoid = monoid_from_rows(
            [[(i + j) % n for j in range(n)] for i in range(n)], 0
        )
        for psi in product(range(2), repeat=n):
            frame = SetComodFrame(magma, psi, 2)
            _, projection = universal_coacting_sets(frame)
            kernel = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if psi[a] == psi[b]
            ]
            seen = set()
            for labels in product(range(n), repeat=n):
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
                if not is_congruence(monoid, c):
                    continue
                if all(c.class_of[a] == c.class_of[b] for a, b in kernel):
                    # c refines to a map from the closure's classes
                    assert all(
                        c.class_of[x] == c.class_of[y]
                        for x in range(n)
                        for y in range(n)
                        if projection[x] == projection[y]
                    )


def test_omega_closure_respects_every_operation():
    z4 = cyclic_set_magma(4)
    closure = omega_congruence_closure(z4, [(0, 2)])
    assert closure == (0, 1, 0, 1)
    collapse = omega_congruence_closure(z4, [(0, 1)])
    assert collapse == (0, 0, 0, 0)


def test_universal_coacting_group():
    z4 = cyclic_set_magma(4)
    pres = universal_coacting_group_sets(SetComodFrame(z4, (0, 1, 2, 3), 4))
    assert todd_coxeter_order(pres) == 4
    chain = set_magma_from_monoid_table([[0, 1, 2], [1, 2, 1], [2, 1, 2]], 0)
    pres2 = universal_coacting_group_sets(SetComodFrame(chain, (0, 1, 2), 3))
    assert todd_coxeter_order(pres2) == 2
    pres3 = universal_coacting_group_sets(SetComodFrame(z4, (0, 0, 0, 0), 1))
    assert todd_coxeter_order(pres3) == 1


def test_measuring_comonoid_all_maps():
    z2 = cyclic_set_magma(2)
    homs = universal_measuring_comonoid_sets(z2, z2)
    assert homs == [(0, 0), (0, 1)]


def test_measuring_comonoid_explicit_sets():
    z2 = cyclic_set_magma(2)
    assert universal_measuring_comonoid_sets(z2, z2, maps=[]) == []
    assert universal_measuring_comonoid_sets(z2, z2, maps=[(0, 1)]) == [(0, 1)]
    assert universal_measuring_comonoid_sets(z2, z2, maps=[(1, 0)]) == []


def test_measuring_cap():
    k4 = klein_set_magma()
    with pytest.raises(ResourceLimitError):
        universal_measuring_comonoid_sets(k4, k4, cap=10)


def test_acting_group_on_klein_four():
    members, group = universal_acting_group_sets(klein_set_magma())
    assert group.size == 6
    # every member acts by automorphisms
    from univhopf.signature import is_set_homomorphism

    k4 = klein_set_magma()
    for f in members:
        assert is_set_homomorphism(f, k4, k4)
        assert sorted(f) == [0, 1, 2, 3]
    # every excluded map is non-invertible or not a homomorphism
    for f in product(range(4), repeat=4):
        if tuple(f) in members:
            continue
        invertible = sorted(f) == [0, 1, 2, 3]
        assert not invertible or not is_set_homomorphism(f, k4, k4)


def test_acting_group_bound_is_the_permutation_count():
    # 9^9 self-maps exceed the default cap, 9! permutations do not
    members, group = universal_acting_group_sets(cyclic_set_magma(9))
    assert group.size == 6 and members[0] == tuple(range(9))
    assert sorted(members) == members


def test_acting_group_cap_bounds_the_permutations():
    # 4! = 24 permutations exceed a cap of 10
    with pytest.raises(ResourceLimitError):
        universal_acting_group_sets(klein_set_magma(), cap=10)


def test_acting_group_identity_only():
    k4 = klein_set_magma()
    members, group = universal_acting_group_sets(k4, maps=[tuple(range(4))])
    assert group.size == 1 and members == [(0, 1, 2, 3)]


def test_acting_group_trivial_monoid():
    one = set_magma_from_monoid_table([[0]], 0)
    _, group = universal_acting_group_sets(one)
    assert group.size == 1


def test_acting_group_requires_submonoid():
    k4 = klein_set_magma()
    with pytest.raises(PreconditionError):
        universal_acting_group_sets(k4, maps=[(1, 0, 3, 2)])  # no identity
    with pytest.raises(PreconditionError):
        # identity plus one map whose square is missing
        universal_acting_group_sets(k4, maps=[(0, 1, 2, 3), (1, 2, 3, 0)])


def test_sets_support_and_tensor_epimorphism():
    used, corestricted = sets_support_of_map((2, 0, 2), 4)
    assert used == [0, 2] and corestricted == (1, 0, 1)
    assert not is_tensor_epimorphism_sets((2, 0, 2), 4)
    assert is_tensor_epimorphism_sets((1, 0), 2)
