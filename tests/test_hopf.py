from fractions import Fraction
from random import Random

import pytest

from univhopf.coact import manin_end_presentation, tambara_presentation
from univhopf.errors import InputError, PreconditionError
from univhopf.finmonoid import (
    full_transformation_monoid,
    grothendieck_group,
    monoid_from_rows,
)
from univhopf.grouppres import todd_coxeter_order
from univhopf.hopf import (
    BialgebraPresentation,
    FinDimHopf,
    HopfPresentation,
    WellDefinedVerdict,
    _reduce_tensor_square,
    check_comap_well_defined,
    check_hopf_axioms_fd,
    dg_hopf_fixture,
    group_algebra_hopf,
    hopf_envelope_presentation,
    sets_cofree_hopf,
    skew_primitive_hopf,
    universal_bialgebra_structure,
)
from univhopf.ncalg import (
    AlgebraPresentation,
    NCPoly,
    complete_rules_up_to,
    dim_normal_words,
    reduce_normal_form,
)

from helpers import chain_monoid_a3_eq_a, dual_numbers, dual_numbers_grading, klein_four

F = Fraction


def z2():
    return monoid_from_rows([[0, 1], [1, 0]], 0)


# ---------------------------------------------------------------------------
# finite-dimensional checker


def test_group_algebra_passes_all_axioms():
    for g in (z2(), klein_four()):
        report = check_hopf_axioms_fd(group_algebra_hopf(g))
        assert report.all_pass, report.results


def test_four_dimensional_skew_primitive_hopf_passes():
    h = skew_primitive_hopf(2)
    assert h.dim == 4
    report = check_hopf_axioms_fd(h)
    assert report.all_pass, report.results


def test_skew_primitive_hopf_rejects_odd_order():
    with pytest.raises(PreconditionError):
        skew_primitive_hopf(3)


def test_negated_antipode_entry_fails_with_witness():
    h = skew_primitive_hopf(2)
    rows = [list(r) for r in h.antipode]
    found = next(
        (i, j) for i in range(4) for j in range(4) if rows[i][j] != 0
    )
    rows[found[0]][found[1]] = -rows[found[0]][found[1]]
    bad = FinDimHopf(h.dim, h.mult, h.unit, h.delta, h.counit, tuple(map(tuple, rows)))
    report = check_hopf_axioms_fd(bad)
    failed = report.failed()
    assert failed and all("antipode" in name for name in failed)
    witnesses = [w for name, ok, w in report.results if not ok]
    assert all(w is not None for w in witnesses)


def test_fin_dim_hopf_rejects_a_negative_delta_index():
    # C2 with Delta e_1 = e_{-1} (x) e_{-1}: the index -1 must not wrap
    h = group_algebra_hopf(z2())
    delta = (h.delta[0], {(-1, -1): F(1)})
    with pytest.raises(InputError, match="comultiplication index out of range"):
        FinDimHopf(h.dim, h.mult, h.unit, delta, h.counit, h.antipode)


@pytest.mark.parametrize("name", ["multiplication", "unit", "counit", "antipode"])
def test_a_float_hopf_constant_is_rejected(name):
    h = group_algebra_hopf(z2())
    mult, unit, counit, antipode = h.mult, h.unit, h.counit, h.antipode
    if name == "multiplication":
        mult = ((mult[0][0], (0.0, 1.0)), mult[1])
    elif name == "unit":
        unit = (1.0, F(0))
    elif name == "counit":
        counit = (F(1), 1.0)
    else:
        antipode = (antipode[0], (F(0), 1.0))
    with pytest.raises(InputError, match=f"non-exact {name} constant"):
        FinDimHopf(h.dim, mult, unit, h.delta, counit, antipode)


# ---------------------------------------------------------------------------
# universal bialgebra structure


def test_one_by_one_block_is_group_like():
    from helpers import rational_line

    mp = tambara_presentation(rational_line(), rational_line())
    bial = universal_bialgebra_structure(mp)
    assert bial.delta[0] == NCPoly.monomial((0, 1))
    assert bial.counit[0] == 1


def test_manin_end_generators_are_group_like():
    me = manin_end_presentation(dual_numbers_grading())
    bial = universal_bialgebra_structure(me)
    k = me.algebra.num_gens
    for g in range(k):
        assert bial.delta[g] == NCPoly.monomial((g, k + g))
        assert bial.counit[g] == 1


def test_two_by_two_block_coproducts_are_two_term_sums():
    a = dual_numbers()
    mp = tambara_presentation(a, a)
    bial = universal_bialgebra_structure(mp)
    assert all(len(d.terms) == 2 for d in bial.delta)
    # Kronecker counit
    for g, (_, i, j) in enumerate(mp.gen_index):
        assert bial.counit[g] == (1 if i == j else 0)


def test_matrix_coproduct_is_coassociative_symbolically():
    a = dual_numbers()
    mp = tambara_presentation(a, a)
    n = a.dim
    # (Delta (x) id) Delta u_ij = sum_{k,l} u_il (x) u_lk (x) u_kj
    # (id (x) Delta) Delta u_ij = sum_{k,l} u_ik (x) u_kl (x) u_lj
    lhs_terms = {
        (i, j): sorted((i, l, l, k, k, j) for k in range(n) for l in range(n))
        for i in range(n)
        for j in range(n)
    }
    rhs_terms = {
        (i, j): sorted((i, k, k, l, l, j) for k in range(n) for l in range(n))
        for i in range(n)
        for j in range(n)
    }
    assert lhs_terms == rhs_terms
    # counit identities on generators
    bial = universal_bialgebra_structure(mp)
    k_gens = mp.algebra.num_gens
    pos = {(i, j): g for g, (_, i, j) in enumerate(mp.gen_index)}
    for (i, j), g in pos.items():
        collapsed = NCPoly.zero()
        for w, c in bial.delta[g].sorted_terms():
            left_gen = w[0]
            right_gen = w[1] - k_gens
            collapsed = collapsed + NCPoly.gen(right_gen).scale(
                c * bial.counit[left_gen]
            )
        assert collapsed == NCPoly.gen(g)


def test_universal_structure_requires_square_blocks():
    from helpers import rational_line

    mp = tambara_presentation(dual_numbers(), rational_line())
    with pytest.raises(PreconditionError):
        universal_bialgebra_structure(mp)


# ---------------------------------------------------------------------------
# well-definedness of the coproduct on relations


def test_well_defined_for_manin_end():
    bial = universal_bialgebra_structure(manin_end_presentation(dual_numbers_grading()))
    verdict = check_comap_well_defined(bial, 4)
    assert verdict.status == "pass", verdict


def test_well_defined_for_tambara_dual_numbers():
    a = dual_numbers()
    bial = universal_bialgebra_structure(tambara_presentation(a, a))
    verdict = check_comap_well_defined(bial, 4)
    assert verdict.status == "pass", verdict


def test_sabotaged_coproduct_fails():
    a = dual_numbers()
    mp = tambara_presentation(a, a)
    bial = universal_bialgebra_structure(mp)
    k = mp.algebra.num_gens
    broken = list(bial.delta)
    broken[0] = NCPoly.monomial((0, k + 1))  # u00 (x) u01
    bad = BialgebraPresentation(bial.algebra, tuple(broken), bial.counit)
    verdict = check_comap_well_defined(bad, 4)
    assert verdict.status == "fail" and verdict.witness is not None


def test_matrix_frame_must_present_the_algebra():
    bial = universal_bialgebra_structure(tambara_presentation(dual_numbers(), dual_numbers()))
    free = AlgebraPresentation(bial.algebra.num_gens, bial.algebra.gen_labels, ())
    with pytest.raises(InputError, match="matrix frame presents a different algebra"):
        BialgebraPresentation(free, bial.delta, bial.counit, bial.matrix)


def test_well_definedness_completes_only_the_base_algebra(monkeypatch):
    import univhopf.hopf as hopf

    completed = []

    def recorded(pres, bound):
        completed.append(pres.num_gens)
        return complete_rules_up_to(pres, bound)

    monkeypatch.setattr(hopf, "complete_rules_up_to", recorded)
    bial = universal_bialgebra_structure(tambara_presentation(dual_numbers(), dual_numbers()))
    assert check_comap_well_defined(bial, 4).status == "pass"
    assert completed == [bial.algebra.num_gens]


def _primitive(*relations):
    """The presentation of the relations in a, b, both primitive."""
    pres = AlgebraPresentation(2, ("a", "b"), relations)
    delta = (NCPoly.gen(0) + NCPoly.gen(2), NCPoly.gen(1) + NCPoly.gen(3))
    return BialgebraPresentation(pres, delta, (F(0), F(0)))


def test_b_minus_aab_with_primitive_generators_fails_at_bound_3():
    # the base has no overlap, so it is confluent at 3 and decides the
    # image of degree 3
    bial = _primitive(NCPoly.gen(1) - NCPoly.monomial((0, 0, 1)))
    system = complete_rules_up_to(bial.algebra, 3)
    assert system.confluent_up_to and system.overlaps_skipped == 0
    # -(a^2 (x) b + 2 ab (x) a + 2 a (x) ab + b (x) a^2), with a' = 2, b' = 3
    witness = NCPoly({(0, 0, 3): -1, (0, 1, 2): -2, (0, 2, 3): -2, (1, 2, 2): -1})
    assert check_comap_well_defined(bial, 3) == WellDefinedVerdict("fail", (0, witness))


def test_homogeneous_base_decides_despite_skipped_overlaps():
    # bb -> ab skips 3 overlaps at bound 3 and is confluent up to it
    bial = _primitive(NCPoly.monomial((0, 1)) - NCPoly.monomial((1, 1)))
    system = complete_rules_up_to(bial.algebra, 3)
    assert system.confluent_up_to and system.overlaps_skipped == 3
    # a (x) b + b (x) a - 2 b (x) b
    witness = NCPoly({(0, 3): 1, (1, 2): 1, (1, 3): -2})
    assert check_comap_well_defined(bial, 3) == WellDefinedVerdict("fail", (0, witness))


def test_a_base_not_confluent_at_the_bound_stays_inconclusive():
    # a^3 and a - baa: at bound 3 the completion skips the overlaps that
    # derive a -> 0, and the image of a - baa keeps a nonzero normal form
    # though it lies in the ideal, as bound 4 shows
    a, b = NCPoly.gen(0), NCPoly.gen(1)
    bial = _primitive(a * a * a, a - b * a * a)
    assert not complete_rules_up_to(bial.algebra, 3).confluent_up_to
    verdict = check_comap_well_defined(bial, 3)
    assert verdict.status == "inconclusive" and not verdict.witness[1].is_zero()
    assert check_comap_well_defined(bial, 4).status == "pass"


def test_a_collapsed_base_reduces_every_image_to_zero():
    # a - 1 and a - 2 put 1 in the ideal: the base is the single rule 1 -> 0
    a, one = NCPoly.gen(0), NCPoly.one()
    system = complete_rules_up_to(AlgebraPresentation(1, ("a",), (a - one, a - one.scale(2))), 3)
    assert system.rules == (((), NCPoly.zero()),)
    image = NCPoly({(): 1, (0, 1): 2, (1, 0, 1): -1})
    assert _reduce_tensor_square(image, system).is_zero()


def test_a_single_letter_leading_word_rewrites_both_factors():
    # a -> 1 in a, b, with a' = 2, b' = 3: a b' a' b is ab (x) ba and
    # b a b' is ba (x) b, each b (x) b in normal form
    system = complete_rules_up_to(_primitive(NCPoly.gen(0) - NCPoly.one()).algebra, 3)
    image = NCPoly({(0, 3, 2, 1): 1, (1, 0, 3): 2})
    assert _reduce_tensor_square(image, system) == NCPoly({(1, 3): 3})


def test_interleavings_of_one_pair_of_factors_add_up():
    # in the free algebra a b' and b' a are both a (x) b
    system = complete_rules_up_to(AlgebraPresentation(2, ("a", "b"), ()), 3)
    image = NCPoly({(0, 3): 1, (3, 0): -1, (3, 1, 0): 2})
    assert _reduce_tensor_square(image, system) == NCPoly({(1, 0, 3): 2})


# ---------------------------------------------------------------------------
# Hopf envelopes


def group_like_bialgebra():
    algebra = AlgebraPresentation(
        1, ("g",), (NCPoly.monomial((0, 0)) - NCPoly.one(),)
    )
    return BialgebraPresentation(algebra, (NCPoly.monomial((0, 1)),), (F(1),))


def test_envelope_of_manin_end_is_laurent():
    bial = universal_bialgebra_structure(manin_end_presentation(dual_numbers_grading()))
    env = hopf_envelope_presentation(bial, 1, 4)
    system = complete_rules_up_to(env.algebra, 4)
    assert system.confluent_up_to
    leads = {lw for lw, _ in system.rules}
    # generator order: a0, b0, a1, b1; the Laurent pair is (b0 b1, b1 b0)
    assert (1, 3) in leads and (3, 1) in leads
    for d in range(1, 5):
        assert dim_normal_words(system, d) == 2


def test_envelope_of_group_algebra_collapses():
    env = hopf_envelope_presentation(group_like_bialgebra(), 1, 4)
    system = complete_rules_up_to(env.algebra, 4)
    assert reduce_normal_form(NCPoly.gen(1), system) == NCPoly.gen(0)
    assert dim_normal_words(system, 1) == 1


def test_envelope_level_zero_is_the_input():
    bial = universal_bialgebra_structure(manin_end_presentation(dual_numbers_grading()))
    env = hopf_envelope_presentation(bial, 0, 4)
    assert env.levels == 0 and env.degree_bound == 4
    assert env.algebra.relations == bial.algebra.relations
    assert env.antipode == (None, None)


def test_envelope_prefix_property():
    bial = universal_bialgebra_structure(manin_end_presentation(dual_numbers_grading()))
    smaller = hopf_envelope_presentation(bial, 1, 4)
    larger = hopf_envelope_presentation(bial, 2, 4)
    k = len(smaller.algebra.gen_labels)
    assert larger.algebra.gen_labels[:k] == smaller.algebra.gen_labels
    r = len(smaller.algebra.relations)
    assert larger.algebra.relations[:r] == smaller.algebra.relations


def test_envelope_level_two_generators_redundant_for_group_likes():
    env = hopf_envelope_presentation(group_like_bialgebra(), 2, 4)
    system = complete_rules_up_to(env.algebra, 4)
    # the antipode squares to the identity on group-likes
    assert reduce_normal_form(NCPoly.gen(2), system) == NCPoly.gen(0)


def test_envelope_antipode_levels_and_metadata():
    bial = universal_bialgebra_structure(manin_end_presentation(dual_numbers_grading()))
    env = hopf_envelope_presentation(bial, 2, 6)
    assert env.level_of_gen == (0, 0, 1, 1, 2, 2)
    assert env.base_gen_of == (0, 1, 0, 1, 0, 1)
    k = 2
    for g, image in enumerate(env.antipode):
        if env.level_of_gen[g] < 2:
            assert image == NCPoly.gen(g + k)
        else:
            assert image is None


def test_envelope_matrix_block_convolution_relations():
    # on a 2x2 block the generator-level relations are
    # sum_k S(u_ik) u_kj = delta_ij, read off mechanically from Delta
    a = dual_numbers()
    bial = universal_bialgebra_structure(tambara_presentation(a, a))
    env = hopf_envelope_presentation(bial, 1, 4)
    k = bial.algebra.num_gens  # 4 generators u00 u01 u10 u11
    base_relations = len(bial.algebra.relations)
    conv = env.algebra.relations[2 * base_relations :]
    assert len(conv) == 2 * k
    # first convolution relation is for u00: u00^(1) u00^(0) + u01^(1) u10^(0) - 1
    want = (
        NCPoly.monomial((k + 0, 0))
        + NCPoly.monomial((k + 1, 2))
        - NCPoly.one()
    )
    assert conv[0] == want
    # and for u01: u00^(1) u01^(0) + u01^(1) u11^(0) - 0
    want_01 = NCPoly.monomial((k + 0, 1)) + NCPoly.monomial((k + 1, 3))
    assert conv[2] == want_01


def test_envelope_convolution_identity_on_degree_two_products():
    # the coequalizer relations are imposed on generators; check they then
    # hold on products, by reducing S*id of a random degree-2 element
    bial = universal_bialgebra_structure(manin_end_presentation(dual_numbers_grading()))
    env = hopf_envelope_presentation(bial, 1, 4)
    system = complete_rules_up_to(env.algebra, 4)
    k = bial.algebra.num_gens
    total = env.algebra.num_gens
    rng = Random(3)
    for _ in range(10):
        w = (rng.randrange(k), rng.randrange(k))  # level-0 degree-2 word
        # Delta(w) in the envelope tensor square
        image = NCPoly.one()
        for g in w:
            image = image * env.bialgebra.delta[g]
        s_conv = NCPoly.zero()
        for word, c in image.sorted_terms():
            left = tuple(x for x in word if x < total)
            right = tuple(x - total for x in word if x >= total)
            s_left = tuple(x + k for x in reversed(left))
            s_conv = s_conv + NCPoly.monomial(s_left + right, c)
        eps = F(1)
        for g in w:
            eps *= env.bialgebra.counit[g]
        value = s_conv - NCPoly.one().scale(eps)
        assert reduce_normal_form(value, system).is_zero()


# ---------------------------------------------------------------------------
# set-based envelopes and the differential graded fixture


def test_sets_hopf_envelope_is_group_completion():
    assert todd_coxeter_order(grothendieck_group(chain_monoid_a3_eq_a())) == 2
    assert todd_coxeter_order(grothendieck_group(monoid_from_rows([[0]], 0))) == 1
    assert todd_coxeter_order(grothendieck_group(klein_four())) == 4


def test_sets_cofree_hopf_is_unit_group():
    assert sets_cofree_hopf(full_transformation_monoid(2)).size == 2
    assert sets_cofree_hopf(klein_four()).size == 4
    idem = monoid_from_rows([[0, 1], [1, 1]], 0)
    assert sets_cofree_hopf(idem).size == 1


def test_dg_fixture_all_axioms_pass():
    report = dg_hopf_fixture(5)
    assert report.all_pass
    assert report.window == 5
    for name, verified, _, ok in report.results:
        assert ok and verified > 0, (name, verified)


def test_dg_fixture_antipode_cancellation_on_v():
    # the antipode identity on v is a two-term cancellation; the fixture must
    # verify it (v = exponent 0, odd part) rather than skip it
    report = dg_hopf_fixture(2)
    anti = [r for r in report.results if r[0].startswith("antipode")]
    assert anti and all(r[3] for r in anti)
    assert all(r[1] > 0 for r in anti)


def test_dg_fixture_counit_values():
    report = dg_hopf_fixture(1)
    assert report.all_pass


def test_well_definedness_inconclusive_below_image_degree():
    # a degree-4 relation has a degree-8 coproduct image: undecidable at 4,
    # decided at 8
    g4 = AlgebraPresentation(
        1, ("g",), (NCPoly.monomial((0, 0, 0, 0)) - NCPoly.one(),)
    )
    bial = BialgebraPresentation(g4, (NCPoly.monomial((0, 1)),), (F(1),))
    assert check_comap_well_defined(bial, 4).status == "inconclusive"
    assert check_comap_well_defined(bial, 8).status == "pass"


def test_envelope_delta_encoding_on_odd_levels():
    # a coproduct image with a two-letter side: the odd level flips the
    # factors and reads each side in the reversed multiplication
    free = AlgebraPresentation(2, ("x", "y"), ())
    delta_x = NCPoly.monomial((0, 1, 2 + 1))  # (x y) tensor y
    delta_y = NCPoly.monomial((1, 2 + 1))  # y tensor y
    bial = BialgebraPresentation(free, (delta_x, delta_y), (F(1), F(1)))
    env = hopf_envelope_presentation(bial, 1, 4)
    total = env.algebra.num_gens  # 4
    # level 0 keeps the word, normalized left-then-right
    assert env.bialgebra.delta[0] == NCPoly.monomial((0, 1, total + 1))
    # level 1: left part is the flipped right side, right part the reversed
    # left side: y^(1) tensor (y^(1) x^(1))
    assert env.bialgebra.delta[2] == NCPoly.monomial((3, total + 3, total + 2))
    assert env.bialgebra.delta[3] == NCPoly.monomial((3, total + 3))


def test_skew_primitive_hopf_higher_even_order():
    h = skew_primitive_hopf(4)
    assert h.dim == 8
    report = check_hopf_axioms_fd(h)
    assert report.all_pass, report.results


def test_hopf_presentation_rejects_a_truncation_that_does_not_fit():
    bial = universal_bialgebra_structure(manin_end_presentation(dual_numbers_grading()))
    with pytest.raises(InputError, match="levels must be nonnegative"):
        HopfPresentation(bial, -1, 4)
    with pytest.raises(InputError, match="not a multiple of levels"):
        HopfPresentation(bial, 2, 4)  # 2 generators on 3 levels
    one_level = HopfPresentation(bial, 1, 4)
    assert one_level.antipode == (NCPoly.gen(1), None)
    assert one_level.level_of_gen == (0, 1) and one_level.base_gen_of == (0, 0)


def test_hopf_data_shapes_are_checked_at_construction():
    h = group_algebra_hopf(z2())
    with pytest.raises(InputError, match="antipode matrix shape mismatch"):
        FinDimHopf(h.dim, h.mult, h.unit, h.delta, h.counit, h.antipode[:1])
    assert check_hopf_axioms_fd(h).all_pass and set(h.maps) == {
        "mul", "unit", "delta", "eps", "antipode"
    }
