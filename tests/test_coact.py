from fractions import Fraction
from itertools import product
from random import Random

import pytest

from univhopf._linalg import rank
from univhopf.coact import (
    FDAlgebra,
    FDCoalgebra,
    MatrixPresentation,
    cosupport_of_map,
    factor_through_universal,
    family_map,
    group_algebra,
    group_like_coalgebra,
    is_comeasuring,
    is_tensor_epimorphism,
    manin_end_presentation,
    support_of_comodule,
    support_of_map,
    tambara_presentation,
    tensor_valued_map,
)
from univhopf.errors import InputError, PreconditionError
from univhopf.finmonoid import monoid_from_rows
from univhopf.grading import Grading
from univhopf.ncalg import NCPoly, complete_rules_up_to, dim_normal_words, reduce_normal_form
from univhopf.signature import FinVectMagma, OmegaSignature, make_vect_magma, unital_signature

from oracles import comeasuring_oracle, coords_in_span, mat_mul
from helpers import random_q_algebra, random_unital_magma
from helpers import (
    compose_with_matrix,
    dual_numbers,
    dual_numbers_grading,
    fd_algebra,
    fd_coalgebra,
    grading_coaction,
    klein_four,
    pauli_algebra,
    pauli_coaction,
    rational_line,
    trivial_grading,
)

F = Fraction


# ---------------------------------------------------------------------------
# supports of maps


def test_support_of_zero_map():
    rho = tensor_valued_map(2, 2, 3, [[[0] * 3] * 2] * 2)
    basis, corestricted = support_of_map(rho)
    assert basis == () and corestricted.dim_coeff == 0


def test_support_of_rank_one_coefficients():
    rho = tensor_valued_map(
        2, 2, 3, [[[1, 2, 0], [0, 0, 0]], [[2, 4, 0], [3, 6, 0]]]
    )
    basis, corestricted = support_of_map(rho)
    assert len(basis) == 1
    assert is_tensor_epimorphism(corestricted)


def test_pauli_coaction_support_is_whole_group_algebra():
    rho = pauli_coaction()
    basis, _ = support_of_map(rho)
    assert len(basis) == 4
    assert is_tensor_epimorphism(rho)


def test_corestriction_is_tensor_epimorphism():
    rng = Random(11)
    for _ in range(20):
        dim_in = rng.randrange(1, 4)
        dim_out = rng.randrange(1, 4)
        dim_q = rng.randrange(1, 5)
        rho = tensor_valued_map(
            dim_in,
            dim_out,
            dim_q,
            [
                [[rng.randrange(-2, 3) for _ in range(dim_q)] for _ in range(dim_in)]
                for _ in range(dim_out)
            ],
        )
        _, corestricted = support_of_map(rho)
        assert is_tensor_epimorphism(corestricted)


def test_zero_map_into_nonzero_space_is_not_tensor_epi():
    rho = tensor_valued_map(1, 1, 2, [[[0, 0]]])
    assert not is_tensor_epimorphism(rho)


def test_epimorphism_composition_law():
    # for a tensor epimorphism rho, (id (x) tau) rho is a tensor epimorphism
    # iff tau is surjective
    rng = Random(5)
    for _ in range(60):
        dim_in = rng.randrange(1, 5)
        dim_out = rng.randrange(1, 5)
        dim_q = rng.randrange(1, 5)
        raw = tensor_valued_map(
            dim_in,
            dim_out,
            dim_q,
            [
                [[rng.randrange(-2, 3) for _ in range(dim_q)] for _ in range(dim_in)]
                for _ in range(dim_out)
            ],
        )
        _, rho = support_of_map(raw)  # tensor epimorphism by construction
        rows = rng.randrange(1, 5)
        tau = tuple(
            tuple(F(rng.randrange(-2, 3)) for _ in range(rho.dim_coeff))
            for _ in range(rows)
        )
        surjective = rank(tau) == rows
        assert is_tensor_epimorphism(compose_with_matrix(rho, tau)) == surjective


def test_support_invariant_under_injective_postcomposition():
    rng = Random(23)
    rho = tensor_valued_map(2, 2, 2, [[[1, 0], [0, 1]], [[1, 1], [0, 0]]])
    basis, _ = support_of_map(rho)
    # embed Q into a larger space by an injective matrix
    inj = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    assert rank(inj) == 2
    bigger = compose_with_matrix(rho, inj)
    big_basis, _ = support_of_map(bigger)
    # the supports correspond along the embedding
    mapped = [tuple(sum(inj[r][c] * b[c] for c in range(2)) for r in range(3)) for b in basis]
    from univhopf._linalg import row_space_basis

    assert row_space_basis(mapped) == big_basis


# ---------------------------------------------------------------------------
# comodule supports


def test_trivial_coaction_support_is_one_dimensional():
    c = group_like_coalgebra(4)
    rho = tensor_valued_map(
        2, 2, 4, [[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]
    )
    basis, support_coalg, corestricted = support_of_comodule(rho, c)
    assert len(basis) == 1
    assert support_coalg.delta[0] == {(0, 0): F(1)}


def test_pauli_comodule_support_is_group_like_span():
    basis, support_coalg, _ = support_of_comodule(
        pauli_coaction(), group_like_coalgebra(4)
    )
    assert len(basis) == 4
    assert all(support_coalg.delta[i] == {(i, i): F(1)} for i in range(4))


def test_corner_coalgebra_comodule_support():
    corner = fd_coalgebra(
        [[((0, 0), 1)], [((1, 1), 1)], [((0, 2), 1), ((2, 1), 1)]],
        [1, 1, 0],
    )
    rho = tensor_valued_map(
        2, 2, 3, [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0]]]
    )
    basis, support_coalg, _ = support_of_comodule(rho, corner)
    assert len(basis) == 2
    assert support_coalg.dim == 2


def test_non_comodule_rejected():
    c = group_like_coalgebra(2)
    rho = tensor_valued_map(2, 2, 2, [[[1, 1], [0, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(PreconditionError):
        support_of_comodule(rho, c)


# ---------------------------------------------------------------------------
# cosupports


def test_cosupport_of_zero_family():
    fam = family_map(2, 2, [])
    assert cosupport_of_map(fam) == ()


def test_cosupport_of_scalar_action():
    fam = family_map(2, 2, [[[1, 0], [0, 1]]])
    basis = cosupport_of_map(fam)
    assert basis == (((F(1), F(0)), (F(0), F(1))),)


def test_cosupport_of_regular_dual_number_action():
    # left multiplication by 1 and by x on Q[x]/(x^2)
    mult_by_x = [[0, 0], [1, 0]]
    fam = family_map(2, 2, [[[1, 0], [0, 1]], mult_by_x])
    basis = cosupport_of_map(fam)
    assert len(basis) == 2
    # contains the identity and is closed under matrix composition
    flat = [tuple(x for row in m for x in row) for m in basis]
    ident = (F(1), F(0), F(0), F(1))
    assert coords_in_span(tuple(flat), ident) is not None
    for a in basis:
        for b in basis:
            prod = mat_mul(a, b)
            flat_prod = tuple(x for row in prod for x in row)
            assert coords_in_span(tuple(flat), flat_prod) is not None


# ---------------------------------------------------------------------------
# comeasurings: coordinate formula vs direct matrix evaluation


def test_comeasuring_formula_matches_direct_evaluation():
    rng = Random(42)
    agreements = 0
    positives = 0
    for trial in range(60):
        dim_a = rng.randrange(1, 3)
        dim_b = rng.randrange(1, 3)
        q_alg = random_q_algebra(rng)
        a = random_unital_magma(rng, dim_a)
        b = random_unital_magma(rng, dim_b)
        rho = tensor_valued_map(
            dim_a,
            dim_b,
            q_alg.dim,
            [
                [[rng.randrange(-1, 2) for _ in range(q_alg.dim)] for _ in range(dim_a)]
                for _ in range(dim_b)
            ],
        )
        got, _ = is_comeasuring(rho, q_alg, a, b)
        want = comeasuring_oracle(rho, q_alg, a, b)
        assert got == want, (trial, got, want)
        agreements += 1
        positives += got
    assert agreements == 60


def test_comeasuring_oracle_agrees_on_engineered_positives():
    # grading coactions are honest comeasurings: both paths must accept
    cases = [
        (pauli_coaction(), group_algebra(klein_four()), pauli_algebra()),
        (
            grading_coaction(dual_numbers_grading(), (0, 1)),
            group_algebra(monoid_from_rows([[0, 1], [1, 0]], 0)),
            dual_numbers(),
        ),
    ]
    for rho, q_alg, alg in cases:
        ok, witness = is_comeasuring(rho, q_alg, alg, alg)
        assert ok, witness
        assert comeasuring_oracle(rho, q_alg, alg, alg)


def test_identity_coaction_into_scalars():
    q1 = fd_algebra([[[1]]], [1])
    a = dual_numbers()
    rho = tensor_valued_map(2, 2, 1, [[[1], [0]], [[0], [1]]])
    ok, witness = is_comeasuring(rho, q1, a, a)
    assert ok, witness


def test_perturbed_coaction_fails_with_witness():
    rho = pauli_coaction()
    entries = [list(map(list, row)) for row in rho.entries]
    entries[0][0][1] = 1  # pollute the unit coefficient
    bad = tensor_valued_map(4, 4, 4, entries)
    q_alg = group_algebra(klein_four())
    ok, witness = is_comeasuring(bad, q_alg, pauli_algebra(), pauli_algebra())
    assert not ok and witness[0] in ("mu", "unit")
    assert not comeasuring_oracle(bad, q_alg, pauli_algebra(), pauli_algebra())


# ---------------------------------------------------------------------------
# Tambara and Manin presentations


def test_tambara_of_scalars():
    mp = tambara_presentation(rational_line(), rational_line())
    assert mp.algebra.num_gens == 1
    # relations u^2 = u and u = 1 present the scalars
    system = complete_rules_up_to(mp.algebra, 4)
    assert reduce_normal_form(NCPoly.gen(0), system) == NCPoly.one()


def test_tambara_dual_numbers_relation_count():
    a = dual_numbers()
    mp = tambara_presentation(a, a)
    n = a.dim
    assert mp.algebra.num_gens == n * n
    assert len(mp.algebra.relations) == n * n * n + n


def test_tambara_identity_signature_has_no_relations():
    sig = OmegaSignature((("f", 1, 1),))
    a = make_vect_magma(sig, 2, ("a", "b"), {"f": [((0,), (0,), 1), ((1,), (1,), 1)]})
    mp = tambara_presentation(a, a)
    assert mp.algebra.relations == ()


def test_tambara_relations_reduce_to_zero_in_own_quotient():
    a = dual_numbers()
    mp = tambara_presentation(a, a)
    system = complete_rules_up_to(mp.algebra, 4)
    for rel in mp.algebra.relations:
        assert reduce_normal_form(rel, system).is_zero()


def test_tambara_rejects_zero_dimensional_input():
    sig = unital_signature()
    with pytest.raises(PreconditionError):
        zero = FinVectMagma(sig, 0, (), {"mu": {}, "unit": {}})
        tambara_presentation(zero, zero)


def test_manin_end_dual_numbers_presents_free_algebra_on_b():
    me = manin_end_presentation(dual_numbers_grading())
    assert me.algebra.num_gens == 2
    system = complete_rules_up_to(me.algebra, 6)
    assert system.confluent_up_to
    for d in range(0, 7):
        assert dim_normal_words(system, d) == 1


def test_manin_end_trivial_grading_equals_tambara():
    a = dual_numbers()
    me = manin_end_presentation(trivial_grading(a))
    tp = tambara_presentation(a, a)
    assert [r.terms for r in me.algebra.relations] == [
        r.terms for r in tp.algebra.relations
    ]


def test_manin_end_component_algebra():
    # Q x Q graded componentwise; the unit is inhomogeneous, so the grading
    # only exists for the product-only signature
    qq = make_vect_magma(
        OmegaSignature((("mu", 2, 1),)),
        2,
        ("p", "q"),
        {"mu": [((0,), (0, 0), 1), ((1,), (1, 1), 1)]},
    )
    grading = Grading(qq, ("left", "right"), (0, 1))
    me = manin_end_presentation(grading)
    assert me.algebra.num_gens == 2
    # the product relations force both generators to be idempotent
    idempotents = [
        NCPoly.monomial((g, g)) - NCPoly.gen(g) for g in range(2)
    ]
    assert all(p in me.algebra.relations for p in idempotents)
    system = complete_rules_up_to(me.algebra, 4)
    for g in range(2):
        sq = NCPoly.monomial((g, g))
        assert reduce_normal_form(sq, system) == NCPoly.gen(g)


def test_factor_through_universal_laurent_window():
    # coaction of Q[x]/(x^2) into the group algebra of Z: products of the
    # q-coefficients stay within exponents -2..2, so the cyclic group of
    # order 5 carries the evaluation faithfully
    z5 = monoid_from_rows([[(i + j) % 5 for j in range(5)] for i in range(5)], 0)
    q_alg = group_algebra(z5)
    rho = grading_coaction(dual_numbers_grading(), (0, 1))
    rho5 = tensor_valued_map(
        2,
        2,
        5,
        [
            [list(q) + [0, 0, 0] for q in row]
            for row in rho.entries
        ],
    )
    for mp in (
        manin_end_presentation(dual_numbers_grading()),
        tambara_presentation(dual_numbers(), dual_numbers()),
    ):
        report = factor_through_universal(mp, rho5, q_alg)
        assert report.ok, report.failures


def test_factor_through_universal_trivial_coaction():
    q1 = fd_algebra([[[1]]], [1])
    rho = tensor_valued_map(2, 2, 1, [[[1], [0]], [[0], [1]]])
    mp = tambara_presentation(dual_numbers(), dual_numbers())
    report = factor_through_universal(mp, rho, q1)
    assert report.ok


def test_factor_through_universal_detects_corruption():
    z5 = monoid_from_rows([[(i + j) % 5 for j in range(5)] for i in range(5)], 0)
    q_alg = group_algebra(z5)
    bad = tensor_valued_map(
        2, 2, 5, [[[1, 1, 0, 0, 0], [0] * 5], [[0] * 5, [0, 1, 0, 0, 0]]]
    )
    mp = tambara_presentation(dual_numbers(), dual_numbers())
    report = factor_through_universal(mp, bad, q_alg)
    assert not report.ok and report.failures


def test_factor_through_universal_frame_mismatch():
    z2 = monoid_from_rows([[0, 1], [1, 0]], 0)
    q_alg = group_algebra(z2)
    # off-block coefficient nonzero against the Manin frame
    rho = tensor_valued_map(2, 2, 2, [[[1, 0], [0, 1]], [[0, 0], [0, 1]]])
    me = manin_end_presentation(dual_numbers_grading())
    with pytest.raises(PreconditionError):
        factor_through_universal(me, rho, q_alg)


def test_grading_coaction_support_spans_used_labels_only():
    # Q[x]/(x^3) graded mod 2: three basis vectors but only two labels, so
    # the coaction support is the two-dimensional span of the used
    # group-likes
    trunc = make_vect_magma(
        unital_signature(),
        3,
        ("1", "x", "x2"),
        {
            "mu": [
                ((0,), (0, 0), 1),
                ((1,), (0, 1), 1),
                ((1,), (1, 0), 1),
                ((2,), (0, 2), 1),
                ((2,), (2, 0), 1),
                ((2,), (1, 1), 1),
            ],
            "unit": [((0,), (), 1)],
        },
    )
    grading = Grading(trunc, ("even", "odd"), (0, 1, 0))
    from univhopf.grading import validate_grading

    ok, witness = validate_grading(grading)
    assert ok, witness
    rho = grading_coaction(grading, (0, 1))
    basis, support_coalg, _ = support_of_comodule(rho, group_like_coalgebra(2))
    assert len(basis) == 2
    assert all(support_coalg.delta[i] == {(i, i): F(1)} for i in range(2))
    ok, _ = is_comeasuring(rho, group_algebra(monoid_from_rows([[0, 1], [1, 0]], 0)), trunc, trunc)
    assert ok


def test_structure_shapes_are_validated():
    one = (F(1),)
    bad = (
        lambda: FDCoalgebra(1, ({(0, 0): 1},), one),  # inexact coefficient
        lambda: FDCoalgebra(1, ({(0, 1): F(1)},), one),
        lambda: FDCoalgebra(1, ({(0, 0): F(1)},), (F(1), F(0))),
        lambda: FDAlgebra(1, (((F(1), F(0)),),), one),
        lambda: FDAlgebra(1, ((one,),), (F(1), F(0))),
        lambda: FDAlgebra(1, (((1.0,),),), (1.0,)),  # float constants
        lambda: FDAlgebra(1, ((one,),), (1.0,)),
        lambda: FDCoalgebra(1, ({(0, 0): F(1)},), (1.0,)),
    )
    for build in bad:
        with pytest.raises(InputError):
            build()
    # int constants stay accepted
    FDAlgebra(1, (((1,),),), (1,))
    FDCoalgebra(1, ({(0, 0): F(1)},), (1,))


def test_matrix_frame_keeps_one_generator_per_position():
    mp = manin_end_presentation(trivial_grading(pauli_algebra()))
    assert mp.pos == {(i, j): g for g, (_, i, j) in enumerate(mp.gen_index)}
    assert len(mp.pos) == mp.algebra.num_gens == 16
    # a non-square Tambara frame has no blocks and every (i, j) still once
    wide = tambara_presentation(rational_line(), dual_numbers())
    assert wide.blocks == () and sorted(wide.pos) == [(0, 0), (1, 0)]


def test_matrix_frame_rejects_an_index_that_misplaces_generators():
    mp = tambara_presentation(dual_numbers(), dual_numbers())
    a, index, blocks = mp.algebra, mp.gen_index, mp.blocks
    own = "matrix index must put each generator at its own (i, j)"
    fill = "matrix index does not fill its distinct square blocks"
    bad = [
        (index[:3], blocks, own),
        (index[:3] + index[:1], blocks, own),
        (index[:3] + (("", 1, 2),), blocks, fill),
        (index[:3] + (("ghost", 1, 1),), blocks, fill),
        (index, (("", (0,)),), fill),
        (index, (("", (0, 1)), ("", (0, 1))), fill),
    ]
    for gen_index, frame_blocks, message in bad:
        with pytest.raises(InputError) as err:
            MatrixPresentation(a, gen_index, frame_blocks)
        assert str(err.value) == message
    # without blocks only the positions are checked
    assert MatrixPresentation(a, index[:3] + (("", 1, 2),), ()).pos[(1, 2)] == 3
