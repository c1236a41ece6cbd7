"""Acceptance suite: one test per criterion, each printing a PASS line with
its number when it holds (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value is either fixed by a worked example or recomputed here
through an independent oracle (brute force, matrix evaluation, exhaustive
scan); tolerances are exact equality throughout, as all arithmetic is
rational.
"""

import io
import json
import time
from fractions import Fraction
from itertools import product
from random import Random

from univhopf import documents as docs
from univhopf._linalg import rank
from univhopf.cli import run
from univhopf.coact import (
    cosupport_of_map,
    factor_through_universal,
    is_comeasuring,
    is_tensor_epimorphism,
    manin_end_presentation,
    support_of_comodule,
    support_of_map,
    tambara_presentation,
)
from univhopf.finmonoid import (
    grothendieck_group,
    unit_group,
)
from univhopf.grading import grading_support, universal_group_of_grading
from univhopf.grouppres import abelian_invariants, tietze_simplify, todd_coxeter_order
from univhopf.hopf import (
    check_comap_well_defined,
    dg_hopf_fixture,
    hopf_envelope_presentation,
    universal_bialgebra_structure,
)
from univhopf.lio import (
    absolute_value,
    compare_by_absolute_value,
    identity_functor,
    lift_initial_object,
    locally_initial_objects,
    random_category,
)
from univhopf.ncalg import NCPoly, complete_rules_up_to, dim_normal_words
from univhopf.setsuniversal import (
    SetComodFrame,
    universal_acting_group_sets,
    universal_coacting_sets,
)
from univhopf.signature import unital_signature

from helpers import (
    family_map,
    compose_with_matrix,
    chain_monoid_a3_eq_a,
    dual_numbers_grading,
    full_transformation_monoid,
    group_algebra,
    group_algebra_hopf,
    group_like_coalgebra,
    make_vect_magma,
    random_q_algebra,
    random_unital_magma,
    cyclic_monoid,
    cyclic_set_magma,
    dual_numbers,
    grading_coaction,
    klein_four,
    klein_set_magma,
    pauli_algebra,
    pauli_coaction,
    pauli_grading,
    rational_line,
    serialize_again,
    serialize_frame_sets,
    serialize_grading,
    split_quadratic,
    tensor_valued_map,
    thin_chain_category,
    trivial_grading,
    two_incomparable_lio_category,
)
from oracles import comeasuring_oracle, coords_in_span, mat_mul

F = Fraction


def _report(number, message):
    print(f"PASS  criterion {number:2}: {message}")


def test_criterion_01_pauli_universal_group():
    start = time.perf_counter()
    pres, _ = universal_group_of_grading(pauli_grading())
    invariants = abelian_invariants(pres)
    order = todd_coxeter_order(pres)
    elapsed = time.perf_counter() - start
    assert invariants == [2, 2]
    assert order == 4
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"Pauli universal group: invariants [2, 2], order 4 in {elapsed:.3f}s")


def test_criterion_02_trivial_gradings_collapse():
    for algebra in (rational_line(), dual_numbers(), split_quadratic(), pauli_algebra()):
        pres, _ = universal_group_of_grading(trivial_grading(algebra))
        simplified, _ = tietze_simplify(pres)
        assert simplified.num_gens == 0 and simplified.relators == ()
        assert todd_coxeter_order(pres) == 1
    _report(2, "trivial gradings of all unital test algebras give the trivial group")


def test_criterion_03_dual_numbers_universal_group_is_free_rank_one():
    grading = dual_numbers_grading()
    assert grading_support(grading) == ("0", "1")
    pres, _ = universal_group_of_grading(grading)
    assert abelian_invariants(pres) == [0]
    simplified, _ = tietze_simplify(pres)
    assert simplified.num_gens == 1 and simplified.relators == ()
    _report(3, "deg-one grading of the dual numbers has free universal group of rank 1")


def test_criterion_04_manin_end_and_envelope_of_dual_numbers():
    me = manin_end_presentation(dual_numbers_grading())
    system = complete_rules_up_to(me.algebra, 6)
    assert system.confluent_up_to
    for degree in range(0, 7):
        assert dim_normal_words(system, degree) == 1
    bial = universal_bialgebra_structure(me)
    # the surviving generator is group-like
    k = me.algebra.num_gens
    for g in range(k):
        assert bial.delta[g] == {((g,), (g,)): 1}
        assert bial.counit[g] == 1
    env = hopf_envelope_presentation(bial, 1, 4)
    env_system = complete_rules_up_to(env.algebra, 4)
    assert env_system.confluent_up_to
    rules = dict(env_system.rules)
    # generators are a^(0), b^(0), a^(1), b^(1); the b-pair inverts
    assert rules[(1, 3)] == NCPoly.one()
    assert rules[(3, 1)] == NCPoly.one()
    for degree in range(1, 5):
        assert dim_normal_words(env_system, degree) == 2
    _report(4, "Manin end is free on one group-like; its envelope is the Laurent algebra")


def test_criterion_05_grothendieck_of_chain_monoid():
    pres = grothendieck_group(chain_monoid_a3_eq_a())
    assert todd_coxeter_order(pres) == 2
    _report(5, "group completion of {1, a, a^2; a^3 = a} has order 2")


def test_criterion_06_unit_groups_of_transformation_monoids():
    for points, expected in ((2, 2), (3, 6)):
        group, _ = unit_group(full_transformation_monoid(points))
        assert group.size == expected
    _report(6, "unit groups of the full transformation monoids on 2, 3 points: 2, 6")


def test_criterion_07_identity_frame_quotient_is_isomorphic():
    from univhopf.signature import set_magma_from_monoid_table

    magmas = [
        cyclic_set_magma(1),
        cyclic_set_magma(4),
        klein_set_magma(),
        set_magma_from_monoid_table([[0, 1, 2], [1, 2, 1], [2, 1, 2]], 0),
        set_magma_from_monoid_table(
            [list(r) for r in full_transformation_monoid(2).table],
            full_transformation_monoid(2).unit,
        ),
    ]
    for magma in magmas:
        frame = SetComodFrame(magma, tuple(range(magma.size)), magma.size)
        quotient, projection = universal_coacting_sets(frame)
        assert quotient.size == magma.size
        assert sorted(projection) == list(range(magma.size))
    _report(7, "identity-framed universal coaction is a bijective quotient")


def test_criterion_08_acting_group_on_klein_four():
    members, group = universal_acting_group_sets(klein_set_magma())
    assert group.size == 6
    # oracle: brute-force automorphism enumeration
    from univhopf.signature import omega_automorphisms

    perms, _ = omega_automorphisms(klein_set_magma())
    assert sorted(perms) == sorted(members)
    _report(8, "universal acting group on the Klein four group has order 6")


def test_criterion_09_dg_hopf_fixture():
    report = dg_hopf_fixture(5)
    assert report.window == 5
    assert report.all_pass
    for name, verified, _, ok in report.results:
        assert ok and verified > 0, name
    _report(9, "differential graded Hopf fixture passes all axioms on |k| <= 5")


def test_criterion_10_comeasuring_formula_against_matrix_oracle():
    rng = Random(2718)
    trials = 0
    for _ in range(60):
        dim_a = rng.randrange(1, 3)
        dim_b = rng.randrange(1, 3)
        q_alg = random_q_algebra(rng)
        if q_alg.dim > 3:
            continue
        a = random_unital_magma(rng, dim_a)
        b = random_unital_magma(rng, dim_b)
        rho = tensor_valued_map(
            dim_a,
            dim_b,
            q_alg.dim,
            [
                [
                    [F(rng.randrange(-2, 3), rng.choice((1, 1, 2))) for _ in range(q_alg.dim)]
                    for _ in range(dim_a)
                ]
                for _ in range(dim_b)
            ],
        )
        got, _ = is_comeasuring(rho, q_alg, a, b)
        assert got == comeasuring_oracle(rho, q_alg, a, b)
        trials += 1
    # engineered positives keep the agreement from being vacuous
    positives = [
        (pauli_coaction(), group_algebra(klein_four()), pauli_algebra()),
        (
            grading_coaction(dual_numbers_grading(), (0, 1)),
            group_algebra(cyclic_monoid(2)),
            dual_numbers(),
        ),
    ]
    for rho, q_alg, alg in positives:
        ok, _ = is_comeasuring(rho, q_alg, alg, alg)
        assert ok and comeasuring_oracle(rho, q_alg, alg, alg)
    assert trials >= 50
    _report(10, f"coordinate comeasuring formula matches matrix oracle on {trials} instances")


def test_criterion_11_factorization_through_the_universal_presentations():
    # coaction of the dual numbers into the group algebra of Z; all products
    # of the q-coefficients stay within exponents -2..2, so the order-5
    # cyclic group algebra realizes the Laurent evaluation exactly
    z5 = cyclic_monoid(5)
    q_alg = group_algebra(z5)
    rho = tensor_valued_map(
        2,
        2,
        5,
        [[[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]], [[0, 0, 0, 0, 0], [0, 1, 0, 0, 0]]],
    )
    for mp in (
        tambara_presentation(dual_numbers(), dual_numbers()),
        manin_end_presentation(dual_numbers_grading()),
    ):
        report = factor_through_universal(mp, rho, q_alg)
        assert report.ok, report.failures
    _report(11, "grading coaction into the Laurent group algebra kills every relation")


def test_criterion_12_support_theorems_in_coordinates():
    # (a) the Pauli comodule support is the full group-like span
    basis, support_coalg, _ = support_of_comodule(
        pauli_coaction(), group_like_coalgebra(4)
    )
    assert len(basis) == 4
    assert all(support_coalg.delta[i] == {(i, i): F(1)} for i in range(4))
    # (b) epimorphism <-> tensor epimorphism on 200 random instances
    rng = Random(314)
    checked = 0
    while checked < 200:
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
        _, rho = support_of_map(raw)
        if rho.dim_coeff == 0:
            continue
        rows = rng.randrange(1, 5)
        tau = tuple(
            tuple(F(rng.randrange(-2, 3)) for _ in range(rho.dim_coeff))
            for _ in range(rows)
        )
        surjective = rank(tau) == rows
        assert is_tensor_epimorphism(compose_with_matrix(rho, tau)) == surjective
        checked += 1
    # (c) the cosupport of the regular dual-number action is unital and
    # closed under composition
    fam = family_map(2, 2, [[[1, 0], [0, 1]], [[0, 0], [1, 0]]])
    basis_mats = cosupport_of_map(fam)
    assert len(basis_mats) == 2
    flat = tuple(tuple(x for row in m for x in row) for m in basis_mats)
    assert coords_in_span(flat, (F(1), F(0), F(0), F(1))) is not None
    for m1 in basis_mats:
        for m2 in basis_mats:
            prod = mat_mul(m1, m2)
            assert coords_in_span(flat, tuple(x for r in prod for x in r)) is not None
    _report(12, "support and cosupport theorems verified in coordinates (a, b, c)")


def test_criterion_13_comultiplication_well_defined_on_tambara_relations():
    fixtures = [
        rational_line(),
        dual_numbers(),
        split_quadratic(),
        make_vect_magma(  # Q x Q with its inhomogeneous unit
            unital_signature(),
            2,
            ("p", "q"),
            {
                "mu": [((0,), (0, 0), 1), ((1,), (1, 1), 1)],
                "unit": [((0,), (), 1), ((1,), (), 1)],
            },
        ),
    ]
    for algebra in fixtures:
        assert algebra.dim <= 2
        bial = universal_bialgebra_structure(tambara_presentation(algebra, algebra))
        verdict = check_comap_well_defined(bial, 4)
        assert verdict.status == "pass", (algebra.basis_labels, verdict)
    _report(13, "matrix comultiplication is well defined on all Tambara fixtures at degree 4")


def test_criterion_14_lio_engine_on_random_categories():
    start = time.perf_counter()
    rng = Random(60902)
    for trial in range(500):
        cat = random_category(rng)
        assert cat.num_objects <= 6 and cat.num_morphisms <= 25
        lio, _ = locally_initial_objects(cat)
        for x in range(cat.num_objects):
            a = absolute_value(cat, x)
            if a is not None:
                assert a in lio
        for x0 in lio:
            a = absolute_value(cat, x0)
            assert a is not None and cat.hom(a, x0) and cat.hom(x0, a)
        functor = identity_functor(cat)
        for y1 in range(cat.num_objects):
            for y2 in range(cat.num_objects):
                a1 = absolute_value(cat, y1)
                a2 = absolute_value(cat, y2)
                got = compare_by_absolute_value(functor, y1, y2)
                if a1 is None or a2 is None:
                    assert got == "undefined"
                    continue
                ge = bool(cat.hom(a1, a2))
                le = bool(cat.hom(a2, a1))
                want = (
                    "equivalent"
                    if ge and le
                    else "finer" if ge else "coarser" if le else "incomparable"
                )
                assert got == want
        for x0 in lio:
            members = [y for y in range(cat.num_objects) if cat.hom(x0, y)]
            direct = next(
                (
                    y
                    for y in members
                    if all(len(cat.hom(y, z)) == 1 for z in members)
                ),
                None,
            )
            assert lift_initial_object(functor, x0) == direct
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(14, f"locally-initial-object laws hold on 500 random categories in {elapsed:.2f}s")


def _acceptance_cli_invocations(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(docs.document_to_json(doc), encoding="utf-8")
        return str(path)

    pauli = write("pauli.json", serialize_grading(pauli_grading()))
    grad = write("grad.json", serialize_grading(dual_numbers_grading()))
    dual = write("dual.json", docs.serialize_vect_magma(dual_numbers()))
    m3 = write("m3.json", docs.serialize_monoid_table(chain_monoid_a3_eq_a()))
    t2 = write("t2.json", docs.serialize_monoid_table(full_transformation_monoid(2)))
    z2 = write("z2.json", docs.serialize_set_magma(cyclic_set_magma(2)))
    k4 = write("k4.json", docs.serialize_set_magma(klein_set_magma()))
    frame = write(
        "frame.json",
        serialize_frame_sets(SetComodFrame(cyclic_set_magma(4), (0, 1, 2, 3), 4)),
    )
    hopf = write("hopf.json", docs.serialize_hopf_fd(group_algebra_hopf(cyclic_monoid(2))))
    cat = write("cat.json", docs.serialize_category(two_incomparable_lio_category()))
    functor_doc = write(
        "functor.json",
        docs.serialize_functor(identity_functor(thin_chain_category(3))),
    )
    rho = grading_coaction(dual_numbers_grading(), (0, 1))
    comeas = write(
        "comeas.json",
        docs.serialize_tensor_map(
            docs.TensorMapDoc(
                rho,
                source=dual_numbers(),
                target=dual_numbers(),
                coeff_algebra=split_quadratic(),
            )
        ),
    )
    support = write(
        "support.json",
        docs.serialize_tensor_map(
            docs.TensorMapDoc(
                tensor_valued_map(
                    2, 2, 3, [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [2, 0, 0]]]
                )
            )
        ),
    )
    fam = write(
        "fam.json",
        docs.serialize_family_map(
            family_map(2, 2, [[[1, 0], [0, 1]], [[0, 0], [1, 0]]])
        ),
    )
    me_doc = docs.serialize_bialgebra_presentation(
        universal_bialgebra_structure(manin_end_presentation(dual_numbers_grading()))
    )
    me = write("me.json", me_doc)
    return [
        ["universal-group", pauli],
        ["support", support],
        ["cosupport", fam],
        ["tambara", dual, dual],
        ["manin-end", grad],
        ["manin-aut", grad, "--antipode-levels", "1", "--degree-bound", "4"],
        ["hopf-envelope", me, "--antipode-levels", "1", "--degree-bound", "4"],
        ["grothendieck", m3],
        ["unit-group", t2],
        ["coact-sets", frame],
        ["meas-sets", z2, z2],
        ["act-group-sets", k4],
        ["lio", cat],
        ["lio", functor_doc],
        ["check-hopf", hopf],
        ["check-comeasuring", comeas],
    ]


def test_criterion_15_cli_determinism(tmp_path):
    invocations = _acceptance_cli_invocations(tmp_path)
    for argv in invocations:
        out1, err1 = io.StringIO(), io.StringIO()
        out2, err2 = io.StringIO(), io.StringIO()
        code1 = run(argv, stdout=out1, stderr=err1)
        code2 = run(argv, stdout=out2, stderr=err2)
        assert code1 == code2 == 0, (argv, code1, err1.getvalue())
        assert out1.getvalue() == out2.getvalue(), argv
        # outputs are re-parseable documents, and without their summary they
        # serialize again byte-identically
        docs.parse_input_document(out1.getvalue())
        doc = json.loads(out1.getvalue())
        doc.pop("summary", None)
        text = docs.document_to_json(doc)
        kind, value = docs.parse_input_document(text)
        assert docs.document_to_json(serialize_again(kind, value)) == text, argv
    _report(15, f"{len(invocations)} command invocations re-ran byte-identically")
