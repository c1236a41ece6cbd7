"""Differential tests: the sparse axiom checker against the dense per-axiom
Hopf checker in oracles.py, on single-entry perturbations of small Hopf
algebras, and on a differential graded structure with a wrong antipode;
and the verdicts and normal forms of check_comap_well_defined against the
tensor-square presentation in oracles.py, its truncated ideal and its
completion, on small presentations whose generators are primitive or
group-like."""

from fractions import Fraction
from math import prod

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from univhopf.coact import FDAlgebra, FDCoalgebra, check_axioms
from univhopf.errors import PreconditionError
from univhopf.hopf import (
    BialgebraPresentation,
    FinDimHopf,
    _dg_antipode,
    _dg_delta,
    _dg_mul,
    _reduce_tensor_square,
    check_comap_well_defined,
    check_hopf_axioms_fd,
    group_algebra_hopf,
    skew_primitive_hopf,
)
from univhopf.ncalg import AlgebraPresentation, NCPoly, complete_rules_up_to, nc_evaluate

from helpers import cyclic_monoid, klein_four
from oracles import (
    BudgetExceeded,
    dense_hopf_axioms,
    reduce_mod_pivots,
    scan_completion,
    scan_reduce,
    tensor_square_presentation,
    truncated_ideal_pivots,
)

F = Fraction

BASES = (
    group_algebra_hopf(cyclic_monoid(2)),
    group_algebra_hopf(cyclic_monoid(3)),
    group_algebra_hopf(cyclic_monoid(4)),
    group_algebra_hopf(klein_four()),
    skew_primitive_hopf(2),
)
PARTS = ("mult", "unit", "delta", "counit", "antipode")


@st.composite
def perturbed(draw, parts=PARTS):
    """One base Hopf algebra with one entry of one structure map replaced."""
    h = draw(st.sampled_from(BASES))
    index = st.integers(0, h.dim - 1)
    value = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
    mult = [list(row) for row in h.mult]
    unit = list(h.unit)
    delta = [dict(row) for row in h.delta]
    counit = list(h.counit)
    antipode = [list(row) for row in h.antipode]
    part = draw(st.sampled_from(parts))
    if part == "mult":
        i, j, k = draw(index), draw(index), draw(index)
        product = list(mult[i][j])
        product[k] = value
        mult[i][j] = tuple(product)
    elif part == "unit":
        unit[draw(index)] = value
    elif part == "delta":
        row = delta[draw(index)]
        key = (draw(index), draw(index))
        row.pop(key, None)
        if value:
            row[key] = value
    elif part == "counit":
        counit[draw(index)] = value
    else:
        antipode[draw(index)][draw(index)] = value
    return FinDimHopf(
        h.dim,
        tuple(map(tuple, mult)),
        tuple(unit),
        tuple(delta),
        tuple(counit),
        tuple(map(tuple, antipode)),
    )


def first_failures(h):
    return {name: w for name, ok, w in dense_hopf_axioms(h).results if not ok}


def raised(build):
    try:
        build()
    except PreconditionError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(perturbed())
def test_checker_matches_dense_oracle(h):
    assert check_hopf_axioms_fd(h).results == dense_hopf_axioms(h).results


@settings(max_examples=150, deadline=None)
@given(perturbed(parts=("mult", "unit")))
def test_fd_algebra_reports_the_oracle_first_failure(h):
    oracle = first_failures(h)
    if "associativity" in oracle:
        want = "algebra is not associative at ({},{},{})".format(
            *oracle["associativity"]
        )
    elif "unit" in oracle:
        want = "unit laws fail"
    else:
        want = None
    assert raised(lambda: FDAlgebra(h.dim, h.mult, h.unit)) == want


@settings(max_examples=150, deadline=None)
@given(perturbed(parts=("delta", "counit")))
def test_fd_coalgebra_reports_the_oracle_first_failure(h):
    oracle = first_failures(h)
    coassoc, counit = oracle.get("coassociativity"), oracle.get("counit")
    if coassoc is not None and (counit is None or coassoc <= counit):
        want = f"comultiplication is not coassociative at {coassoc}"
    elif counit is not None:
        want = f"counit laws fail at basis vector {counit}"
    else:
        want = None
    assert raised(lambda: FDCoalgebra(h.dim, h.delta, h.counit)) == want


def test_window_skips_exactly_the_instances_that_leave_it():
    # x^a x^b = x^(a+b) on the window {1, x}: an instance is skipped when a
    # power it reaches is x^2 or higher; in Q[x]/(x^2) that product vanishes
    # and touches nothing, so no instance is skipped
    for mul, verified in (
        (lambda a, b: {a + b: F(1)}, 4),
        (lambda a, b: {a + b: F(1)} if a + b < 2 else {}, 8),
    ):
        assoc, unit = check_axioms(
            (0, 1), mul=mul, unit={0: F(1)}, inside=lambda a: a < 2
        )
        assert assoc == ("associativity", verified, 8 - verified, ())
        assert unit == ("unit", 2, 0, ())
    # a basis or unit key outside the window skips every instance it is in
    def truncated(a, b):
        return {a + b: F(1)} if a + b < 2 else {}

    assoc, unit = check_axioms(
        (0, 1, 2), mul=truncated, unit={0: F(1)}, inside=lambda a: a < 2
    )
    assert assoc[1:3] == (8, 19) and unit[1:3] == (2, 1)
    _, unit = check_axioms(
        (0, 1), mul=truncated, unit={0: F(1), 2: F(0)}, inside=lambda a: a < 2
    )
    assert unit[1:3] == (0, 2)


def test_dg_structure_with_flipped_antipode_fails_inside_the_window():
    window = 3
    basis = [(k, l) for k in range(-window, window + 1) for l in (0, 1)]

    def flipped(x):
        image = _dg_antipode(x)
        return {key: -c for key, c in image.items()} if x[1] else image

    results = check_axioms(
        basis,
        mul=_dg_mul,
        unit={(0, 0): F(1)},
        delta=_dg_delta,
        eps=lambda x: F(1 - x[1]),
        antipode=flipped,
        inside=lambda x: abs(x[0]) <= window,
    )
    for name, verified, skipped, failures in results:
        assert verified > 0, name
        if name.startswith("antipode"):
            # S(v) = +c^{-1} v leaves 2c^{-1}v and 2v instead of eps(v) = 0
            assert (0, 1) in failures, name
            assert all(l == 1 for _, l in failures), failures
            assert verified + skipped == len(basis)
        else:
            assert not failures, name


# ---------------------------------------------------------------------------
# coproducts on relations, against the tensor-square presentation

ORACLE_STEPS = 3_000
COEFFS = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2)])


def words(num_gens, min_len, max_len):
    return st.lists(st.integers(0, num_gens - 1), min_size=min_len, max_size=max_len).map(
        tuple
    )


@st.composite
def bialgebras(draw):
    """One or two generators, each primitive or group-like, and one or two
    relations of degree at most 3 with their counit subtracted: random
    polynomials, or uv - c vu for words u and v, which is well defined for
    some c."""
    k = draw(st.integers(1, 2))
    group_like = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    delta = tuple(
        NCPoly.monomial((g, k + g)) if gl else NCPoly.gen(g) + NCPoly.gen(k + g)
        for g, gl in enumerate(group_like)
    )
    counit = tuple(F(gl) for gl in group_like)
    relations = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            terms = st.dictionaries(words(k, 0, 3), COEFFS, min_size=1, max_size=3)
            rel = NCPoly(draw(terms))
        else:
            u = draw(words(k, 1, 2))
            v = draw(words(k, 1, 3 - len(u)))
            rel = NCPoly.monomial(u + v) - NCPoly.monomial(v + u, draw(COEFFS))
        eps = sum(c * prod(counit[g] for g in w) for w, c in rel.terms.items())
        rel = rel - NCPoly.one().scale(eps)
        if not rel.is_zero():
            relations.append(rel)
    assume(relations)
    algebra = AlgebraPresentation(k, ("a", "b")[:k], tuple(relations))
    return BialgebraPresentation(algebra, delta, counit)


def _verdict(bial, bound):
    """The verdict at bound, on inputs whose completion the linear-scan
    oracle finishes."""
    try:
        scan_completion(bial.algebra, bound, ORACLE_STEPS)
    except BudgetExceeded:
        assume(False)
    verdict = check_comap_well_defined(bial, bound)
    event(verdict.status)
    return verdict


def _homogeneous(pres):
    return all(len({len(w) for w in r.terms}) == 1 for r in pres.relations)


def _square_pivots(pres, bound):
    return truncated_ideal_pivots(tensor_square_presentation(pres), bound)


@settings(max_examples=150, deadline=None)
@given(bial=bialgebras(), bound=st.integers(3, 4))
def test_a_pass_lies_in_the_truncated_square_ideal(bial, bound):
    # the ideal of a homogeneous presentation is spanned up to degree D by
    # its products u r v of degree at most D; that of another may not be:
    # a^2 and a^3 + a put a, and so a (x) a, in it, but a (x) a is a sum of
    # such products only from degree 4 on.  There the products are taken
    # over the oracle's completed rules, which hold every reduction step of
    # degree at most D.
    if _verdict(bial, bound).status != "pass":
        return
    pres = bial.algebra
    if not _homogeneous(pres):
        rules, _, _ = scan_completion(pres, bound, ORACLE_STEPS)
        rules = tuple(NCPoly.monomial(lw) - rhs for lw, rhs in rules)
        pres = AlgebraPresentation(pres.num_gens, pres.gen_labels, rules)
    pivots = _square_pivots(pres, bound)
    for rel in bial.algebra.relations:
        assert not reduce_mod_pivots(nc_evaluate(rel, bial.delta).terms, pivots), rel


@settings(max_examples=150, deadline=None)
@given(bial=bialgebras(), bound=st.integers(3, 4))
def test_a_fail_witness_lies_outside_the_truncated_square_ideal(bial, bound):
    verdict = _verdict(bial, bound)
    if verdict.status != "fail":
        return
    _, witness = verdict.witness
    assert reduce_mod_pivots(witness.terms, _square_pivots(bial.algebra, bound)), witness


@settings(max_examples=150, deadline=None)
@given(bial=bialgebras(), bound=st.integers(3, 4))
def test_a_confluent_square_completion_gives_the_factor_normal_form(bial, bound):
    _verdict(bial, bound)
    square = tensor_square_presentation(bial.algebra)
    try:
        rules, closed, skipped = scan_completion(square, bound, ORACLE_STEPS)
    except BudgetExceeded:
        assume(False)
    assume(closed and (skipped == 0 or _homogeneous(square)))
    system = complete_rules_up_to(bial.algebra, bound)
    for rel in bial.algebra.relations:
        image = nc_evaluate(rel, bial.delta)
        if image.degree() <= bound:
            assert _reduce_tensor_square(image, system) == scan_reduce(image, rules), rel
