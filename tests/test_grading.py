from fractions import Fraction

import pytest

from univhopf.errors import PreconditionError
from univhopf.grading import (
    Grading,
    equivalent,
    grading_support,
    universal_group_of_grading,
    validate_grading,
)
from univhopf.grouppres import (
    abelian_invariants,
    free_reduce_word,
    tietze_simplify,
    todd_coxeter_order,
)
from univhopf.finmonoid import monoid_from_rows
from univhopf.signature import FinVectMagma, unital_signature

from helpers import (
    coarsen_by_map,
    corpus_gradings,
    dual_numbers,
    dual_numbers_grading,
    make_vect_magma,
    pauli_algebra,
    pauli_grading,
    split_quadratic,
    trivial_grading,
    two_product_grading,
)
from oracles import solve

F = Fraction


def z2_monoid():
    return monoid_from_rows([[0, 1], [1, 0]], 0)


def test_trivial_grading_is_valid():
    for algebra in (dual_numbers(), pauli_algebra(), split_quadratic()):
        ok, witness = validate_grading(trivial_grading(algebra))
        assert ok and witness is None


def test_pauli_grading_is_valid():
    ok, witness = validate_grading(pauli_grading())
    assert ok, witness


def test_same_component_with_group_law_is_invalid():
    # 1 and x both of degree "one" under a Z2 law: 1*1 lands wrong
    with pytest.raises(PreconditionError, match=r"^invalid grading: \{'op': 'mu'"):
        Grading(dual_numbers(), ("zero", "one"), (1, 1), z2_monoid(), (0, 1))


def test_support_drops_unused_labels():
    g = Grading(dual_numbers(), ("a", "unused", "b"), (0, 2))
    assert grading_support(g) == ("a", "b")


def test_support_trivial_and_pauli():
    assert grading_support(trivial_grading(dual_numbers())) == ("t",)
    assert grading_support(pauli_grading()) == ("e", "x", "y", "z")


def test_universal_group_trivial_grading_collapses():
    pres, gen_map = universal_group_of_grading(trivial_grading(dual_numbers()))
    assert gen_map == {"t": 0}
    simplified, _ = tietze_simplify(pres)
    assert simplified.num_gens == 0 and simplified.relators == ()
    assert todd_coxeter_order(pres) == 1


def test_universal_group_dual_numbers_is_free_rank_one():
    pres, gen_map = universal_group_of_grading(dual_numbers_grading())
    assert abelian_invariants(pres) == [0]
    simplified, _ = tietze_simplify(pres)
    assert simplified.num_gens == 1 and simplified.relators == ()
    assert set(gen_map) == {"0", "1"}


@pytest.mark.parametrize("zero", [0, F(0)])
def test_a_stored_zero_coefficient_is_no_structure(zero):
    # x * x = 0 * 1 written out: the universal group of deg 1 = 0, deg x = 1
    # stays Z, where counting the entry as structure gave Z/2
    plain = dual_numbers()
    tensors = {name: dict(t) for name, t in plain.tensors.items()}
    tensors["mu"][((0,), (1, 1))] = zero
    algebra = FinVectMagma(plain.signature, 2, plain.basis_labels, tensors)
    assert algebra.tensors == plain.tensors
    pres, _ = universal_group_of_grading(Grading(algebra, ("0", "1"), (0, 1)))
    assert abelian_invariants(pres) == [0]


def test_universal_group_pauli():
    pres, _ = universal_group_of_grading(pauli_grading())
    assert abelian_invariants(pres) == [2, 2]
    assert todd_coxeter_order(pres) == 4


def test_relators_come_from_component_products():
    pres, gen_map = universal_group_of_grading(pauli_grading())
    # every pair of support labels multiplies nontrivially in the Pauli
    # grading, so there are relators mentioning each pair
    g = {v: k for k, v in gen_map.items()}
    seen_pairs = set()
    for w in pres.relators:
        assert free_reduce_word(w) == w
        if len(w) == 3:
            seen_pairs.add((abs(w[0]) - 1, abs(w[1]) - 1))
    assert len(seen_pairs) > 8


def test_canonical_map_satisfies_every_relator():
    # each nonzero component product A^(h) A^(s) <= A^(t) contributes the
    # word h s t^-1, which must appear among the freely reduced relators
    for grading in (pauli_grading(), dual_numbers_grading()):
        pres, gen_map = universal_group_of_grading(grading)
        alg = grading.algebra
        assign = grading.assignment
        labels = grading.labels
        for (out, inp), _ in alg.tensors["mu"].items():
            h = gen_map[labels[assign[inp[0]]]]
            s = gen_map[labels[assign[inp[1]]]]
            t = gen_map[labels[assign[out[0]]]]
            word = free_reduce_word((h + 1, s + 1, -(t + 1)))
            assert word == () or word in pres.relators


def test_invalid_grading_rejected_by_universal_group():
    with pytest.raises(PreconditionError):
        universal_group_of_grading(
            Grading(dual_numbers(), ("zero", "one"), (1, 1), z2_monoid(), (0, 1))
        )


def test_coarsen_identity_map():
    g = dual_numbers_grading()
    out = coarsen_by_map(g, {"0": "0", "1": "1"})
    assert out.labels == g.labels and out.assignment == g.assignment


def test_coarsen_z_to_z2():
    g = dual_numbers_grading()
    out = coarsen_by_map(
        g,
        {"0": "even", "1": "odd"},
        target_group=z2_monoid(),
        target_label_elems=(0, 1),
    )
    ok, _ = validate_grading(out)
    assert ok and out.group is not None


def test_coarsen_merging_pauli_labels_fails():
    with pytest.raises(PreconditionError):
        coarsen_by_map(pauli_grading(), {"e": "m", "x": "m", "y": "y", "z": "z"})


def test_coarsening_raises_what_the_grading_constructor_raises():
    label_map = {"e": "m", "x": "m", "y": "y", "z": "z"}
    with pytest.raises(PreconditionError) as coarsened:
        coarsen_by_map(pauli_grading(), label_map)
    with pytest.raises(PreconditionError) as built:
        Grading(pauli_algebra(), ("m", "y", "z"), (0, 0, 1, 2))
    assert str(coarsened.value) == str(built.value)
    assert str(built.value).startswith("invalid grading: {'op': 'mu'")


def test_coarsen_checks_group_homomorphism():
    # Pauli labels enumerate Z2 x Z2; collapsing to Z2 by x,y -> odd is fine
    k4 = monoid_from_rows([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], 0)
    g = Grading(pauli_algebra(), ("e", "x", "y", "z"), (0, 1, 2, 3), k4, (0, 1, 2, 3))
    out = coarsen_by_map(
        g,
        {"e": "even", "x": "odd", "y": "odd", "z": "even"},
        target_group=z2_monoid(),
        target_label_elems=(0, 1),
    )
    assert out.group is not None
    # but the map x -> odd, y -> even, z -> even is not a homomorphism
    with pytest.raises(PreconditionError):
        coarsen_by_map(
            g,
            {"e": "even", "x": "odd", "y": "even", "z": "even"},
            target_group=z2_monoid(),
            target_label_elems=(0, 1),
        )


def test_functoriality_of_coarsening_on_dual_numbers():
    fine = dual_numbers_grading()
    coarse = coarsen_by_map(
        fine,
        {"0": "even", "1": "odd"},
        target_group=z2_monoid(),
        target_label_elems=(0, 1),
    )
    p_fine, map_fine = universal_group_of_grading(fine)
    p_coarse, map_coarse = universal_group_of_grading(coarse)
    # the induced generator map sends each finer relator to an abelian
    # consequence of the coarser relators
    label_map = {"0": "even", "1": "odd"}
    coarse_rows = []
    for w in p_coarse.relators:
        row = [0] * p_coarse.num_gens
        for letter in w:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        coarse_rows.append(tuple(F(v) for v in row))
    fine_labels = {v: k for k, v in map_fine.items()}
    for w in p_fine.relators:
        exps = [0] * p_coarse.num_gens
        for letter in w:
            target = map_coarse[label_map[fine_labels[abs(letter) - 1]]]
            exps[target] += 1 if letter > 0 else -1
        if not coarse_rows:
            assert all(v == 0 for v in exps)
            continue
        cols = tuple(zip(*coarse_rows))
        solution = solve(tuple(tuple(c) for c in cols), tuple(F(v) for v in exps))
        assert solution is not None
        assert all(v.denominator == 1 for v in solution)


def test_unused_labels_do_not_change_the_universal_group():
    g1 = dual_numbers_grading()
    g2 = Grading(dual_numbers(), ("0", "1", "ghost"), (0, 1))
    p1, m1 = universal_group_of_grading(g1)
    p2, m2 = universal_group_of_grading(g2)
    assert grading_support(g1) == grading_support(g2)
    assert p1.relators == p2.relators and p1.num_gens == p2.num_gens
    assert m1 == m2


def test_equivalence_verdicts():
    assert equivalent(dual_numbers_grading(), dual_numbers_grading()) == "yes"
    assert equivalent(pauli_grading(), trivial_grading(pauli_algebra())) == "no"
    # split quadratic graded by Z2 has universal group Z2, not Z
    split = Grading(split_quadratic(), ("0", "1"), (0, 1))
    pres, _ = universal_group_of_grading(split)
    assert todd_coxeter_order(pres) == 2
    assert equivalent(dual_numbers_grading(), split) == "no"


# (first, second, verdict), beyond the pairs above: each step of equivalent
# decides at least one pair
EQUIVALENCE_TABLE = [
    ("pauli", "grading_Z2xZ2", "yes"),  # two gradings, one simplified presentation
    ("grading_D4", "grading_D4", "yes"),
    ("grading_Z16", "degree_grading_Z", "no"),  # abelian invariants [16] and [0]
    ("grading_Z2xZ2", "grading_D4", "no"),  # invariants [2, 2]; orders 4 and 8
    ("split", "grading_D5", "no"),  # invariants [2]; orders 2 and 10
    ("grading_D5", "grading_S3", "no"),  # invariants [2]; orders 10 and 6
    ("dual", "degree_grading_Z", "yes"),  # both simplify to Z = <x | >
]


@pytest.mark.parametrize("first, second, verdict", EQUIVALENCE_TABLE)
def test_equivalence_verdicts_on_fixture_pairs(first, second, verdict):
    gradings = {
        "dual": dual_numbers_grading(),
        "split": Grading(split_quadratic(), ("0", "1"), (0, 1)),
        "pauli": pauli_grading(),
        **corpus_gradings(),
    }
    assert equivalent(gradings[first], gradings[second]) == verdict
    assert equivalent(gradings[second], gradings[first]) == verdict


def square_zero_grading() -> Grading:
    """Q[x, y]/(x, y)^2 graded by its basis 1, x, y: the universal group is
    free on g_x and g_y."""
    mu = [((0,), (0, 0), 1), ((1,), (0, 1), 1), ((1,), (1, 0), 1)]
    mu += [((2,), (0, 2), 1), ((2,), (2, 0), 1)]
    algebra = make_vect_magma(
        unital_signature(), 3, ("1", "x", "y"), {"mu": mu, "unit": [((0,), (), 1)]}
    )
    return Grading(algebra, ("1", "x", "y"), (0, 1, 2))


def exterior_pair_grading() -> Grading:
    """Q[x, y]/(x^2, y^2) graded by its basis 1, x, y, xy: the universal
    group is Z^2, since g_x g_y = g_xy = g_y g_x."""
    mu = [((0,), (0, 0), 1)]
    mu += [((i,), (0, i), 1) for i in (1, 2, 3)] + [((i,), (i, 0), 1) for i in (1, 2, 3)]
    mu += [((3,), (1, 2), 1), ((3,), (2, 1), 1)]
    algebra = make_vect_magma(
        unital_signature(), 4, ("1", "x", "y", "xy"), {"mu": mu, "unit": [((0,), (), 1)]}
    )
    return Grading(algebra, ("1", "x", "y", "xy"), (0, 1, 2, 3))


def test_equivalence_of_infinite_groups_runs_one_smith_form_each(monkeypatch):
    import univhopf.grading as grading

    calls = []

    def counted(pres):
        calls.append(pres)
        return abelian_invariants(pres)

    def refuse(*_):
        raise AssertionError("todd_coxeter_order called on groups proven infinite")

    monkeypatch.setattr(grading, "abelian_invariants", counted)
    monkeypatch.setattr(grading, "todd_coxeter_order", refuse)
    # F2 and Z^2: invariants [0, 0] each, and the presentations differ
    pair = (square_zero_grading(), exterior_pair_grading())
    assert equivalent(*pair) == "unknown"
    assert len(calls) == 2


def test_every_binary_operation_gives_relators():
    grading = two_product_grading()
    assert validate_grading(grading) == (True, None)
    pres, gen_of_label = universal_group_of_grading(grading)
    assert gen_of_label == {"a": 0, "b": 1, "c": 2}
    # a a b^-1 from mu and a a c^-1 from nu
    assert pres.relators == ((1, 1, -2), (1, 1, -3))
