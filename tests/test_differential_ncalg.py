"""Differential tests: the indexed, heap-ordered reducer and the completion
built on it against the linear-scan reducer and completion in oracles.py,
on random rule lists and small presentations over 2-3 generators.
Interreduction's substring factor test against the slice scan it replaced;
the coefficient types that come out; and the normal-word counts of a
confluent completion against the rank modulo a prime of the products
u r v, which does not use the completion."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from univhopf.documents import format_rational
from univhopf.ncalg import (
    AlgebraPresentation,
    NCPoly,
    _add_and_interreduce,
    _reduce,
    _rule_index,
    complete_rules_up_to,
    deglex_key,
    dim_normal_words,
    reduce_normal_form,
)

from oracles import (
    BudgetExceeded,
    scan_completion,
    scan_reduce,
    slice_scan_add_and_interreduce,
    reduce_mod_pivots,
    truncated_ideal_pivots,
    truncated_ideal_rank_mod_p,
)
from helpers import corpus_membership_answers, is_exact_coefficient

F = Fraction
ORACLE_STEPS = 3_000
COEFFS = st.sampled_from([F(1), F(-1), F(2), F(-3), F(1, 2)])


def words(num_gens, min_len, max_len):
    return st.lists(st.integers(0, num_gens - 1), min_size=min_len, max_size=max_len).map(
        tuple
    )


@st.composite
def polys(draw, num_gens, max_len, max_terms=4, min_len=0):
    terms = draw(
        st.dictionaries(words(num_gens, min_len, max_len), COEFFS, min_size=1, max_size=max_terms)
    )
    return NCPoly(terms)


@st.composite
def rule_lists(draw):
    """Rules lw -> rhs with rhs deglex-smaller, leading words drawn from a
    small pool so that duplicates and rules sharing a position occur."""
    num_gens = draw(st.integers(2, 3))
    pool = draw(st.lists(words(num_gens, 1, 3), min_size=1, max_size=4))
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        lw = draw(st.sampled_from(pool))
        smaller = words(num_gens, 0, len(lw)).filter(lambda w: deglex_key(w) < deglex_key(lw))
        rhs = draw(st.dictionaries(smaller, COEFFS, max_size=3))
        rules.append((lw, NCPoly(rhs)))
    return num_gens, rules


@st.composite
def presentations(draw, min_gens=2):
    num_gens = draw(st.integers(min_gens, 3))
    relations = draw(st.lists(polys(num_gens, 3, max_terms=3), min_size=1, max_size=3))
    labels = tuple("abc"[:num_gens])
    return AlgebraPresentation(num_gens, labels, tuple(relations))


def _oracle_completion(pres, bound):
    """The reference completion, rejecting inputs on which it gives up (the
    new completion takes the same steps with the same coefficients, so it is
    called only after this)."""
    try:
        return scan_completion(pres, bound, ORACLE_STEPS)
    except BudgetExceeded:
        assume(False)


def _homogeneous(pres):
    return all(len({len(w) for w in r.terms}) == 1 for r in pres.relations)


def test_first_listed_rule_wins_at_a_position():
    # x and xy both start at position 0 of xy: the first listed one rewrites
    y, two = NCPoly.gen(1), NCPoly.one().scale(2)
    xy = NCPoly.monomial((0, 1))
    assert _reduce(xy, _rule_index([((0,), NCPoly.one()), ((0, 1), two)])) == y
    assert _reduce(xy, _rule_index([((0, 1), two), ((0,), NCPoly.one())])) == two
    assert _reduce(xy, _rule_index([((0,), two), ((0,), NCPoly.one())])) == y.scale(2)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), case=rule_lists())
def test_indexed_reduction_matches_linear_scan(data, case):
    num_gens, rules = case
    p = data.draw(polys(num_gens, 5))
    assert _reduce(p, _rule_index(rules)) == scan_reduce(p, rules)


@settings(max_examples=100, deadline=None)
@given(pres=presentations(), bound=st.integers(3, 5))
def test_completion_matches_linear_scan(pres, bound):
    rules, closed, skipped = _oracle_completion(pres, bound)
    system = complete_rules_up_to(pres, bound)
    assert system.rules == rules
    assert system.overlaps_skipped == skipped
    assert system.confluent_up_to == (closed and (skipped == 0 or _homogeneous(pres)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), pres=presentations())
def test_certified_system_reduces_like_a_higher_bound(data, pres):
    bound = 3
    _oracle_completion(pres, bound)
    _oracle_completion(pres, bound + 2)
    system = complete_rules_up_to(pres, bound)
    assume(system.confluent_up_to)
    higher = complete_rules_up_to(pres, bound + 2)
    for _ in range(3):
        p = data.draw(polys(pres.num_gens, bound))
        assert reduce_normal_form(p, system) == reduce_normal_form(p, higher)


@st.composite
def pending_lists(draw):
    """Two batches of polynomials over 2-3 generators whose indices start at
    0, 255 or 1000, the second batch interreduced into the rules of the first."""
    num_gens = draw(st.integers(2, 3))
    offset = draw(st.sampled_from([0, 255, 1000]))
    batches = []
    for _ in range(2):
        batch = draw(st.lists(polys(num_gens, 3), max_size=5))
        batches.append([NCPoly({tuple(g + offset for g in w): c for w, c in p.terms.items()})
                        for p in batch])
    return batches


def _interreduce_both(rules, pending):
    """The rule lists that the substring test and the slice scan build."""
    ours, scanned = list(rules), list(rules)
    _add_and_interreduce(ours, list(pending))
    slice_scan_add_and_interreduce(scanned, list(pending))
    return ours, scanned


@settings(max_examples=300, deadline=None)
@given(batches=pending_lists())
def test_interreduction_matches_the_slice_scan(batches):
    first, second = batches
    rules, scanned = _interreduce_both([], first)
    assert rules == scanned
    rules, scanned = _interreduce_both(rules, second)
    assert rules == scanned


def test_constant_relation_requeues_every_rule():
    rules = [((0, 1), NCPoly.gen(1).scale(2)), ((0, 0), NCPoly.one())]
    ours, scanned = _interreduce_both(rules, [NCPoly.one().scale(3)])
    assert ours == scanned == [((), NCPoly.zero())]


def test_a_factor_never_straddles_two_words_of_a_rule():
    # words (0, 1) and (2,) of one rule; the new leading word (1, 2) is in
    # neither, though it is in their concatenation
    rule = ((0, 1), NCPoly.gen(2))
    new = NCPoly.monomial((1, 2)) - NCPoly.gen(0)
    ours, scanned = _interreduce_both([rule], [new])
    assert ours == scanned == [rule, ((1, 2), NCPoly.gen(0))]


def test_generators_from_256_on_are_distinct_letters():
    # chr(256 + 1) is one letter, not chr(0 + 1) or a pair of bytes
    big = ((256, 256), NCPoly.gen(256))
    ours, scanned = _interreduce_both([big], [NCPoly.gen(0)])
    assert ours == scanned == [big, ((0,), NCPoly.zero())]
    ours, scanned = _interreduce_both([big, ((300, 301), NCPoly.gen(300))], [NCPoly.gen(301)])
    assert ours == scanned
    assert ours == [big, ((301,), NCPoly.zero()), ((300,), NCPoly.zero())]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), pres=presentations(min_gens=1), bound=st.integers(3, 5))
def test_coefficients_are_int_when_integral(data, pres, bound):
    _oracle_completion(pres, bound)
    system = complete_rules_up_to(pres, bound)
    outputs = [rhs for _, rhs in system.rules]
    for _ in range(3):
        p = data.draw(polys(pres.num_gens, bound))
        outputs += [p, reduce_normal_form(p, system)]
    assert all(is_exact_coefficient(c) for poly in outputs for c in poly.terms.values())


def test_an_integral_rational_prints_as_its_int():
    assert format_rational(3) == format_rational(F(3)) == "3"
    assert format_rational(-1) == format_rational(F(-1)) == "-1"


def _confluent_completion(pres, degree):
    """The completion at degree; only a confluent one's normal words are
    independent modulo the ideal, so only its count is bounded."""
    _oracle_completion(pres, degree)
    system = complete_rules_up_to(pres, degree)
    assume(system.confluent_up_to)
    return system


def _count_and_bound(pres, system):
    """Normal words of length at most the system's bound d, and the number of
    such words minus the rank modulo a prime of the products u r v."""
    degree = system.degree_bound
    count = sum(dim_normal_words(system, k) for k in range(degree + 1))
    words = sum(pres.num_gens**k for k in range(degree + 1))
    return count, words - truncated_ideal_rank_mod_p(pres, degree)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pres=presentations())
def test_normal_word_count_is_bounded_by_the_truncated_ideal(data, pres):
    # at most 127 words of length <= degree over 2 generators, 121 over 3
    degree = data.draw(st.integers(3, 6 if pres.num_gens == 2 else 4))
    count, bound = _count_and_bound(pres, _confluent_completion(pres, degree))
    assert count <= bound
    if _homogeneous(pres):
        assert count == bound


@st.composite
def homogeneous_presentations(draw):
    num_gens = draw(st.integers(2, 3))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(2, 3))
        relations.append(draw(polys(num_gens, length, max_terms=3, min_len=length)))
    return AlgebraPresentation(num_gens, tuple("abc"[:num_gens]), tuple(relations))


@settings(max_examples=100, deadline=None)
@given(pres=homogeneous_presentations())
def test_normal_word_count_equals_the_truncated_ideal_bound_when_homogeneous(pres):
    degree = 5 if pres.num_gens == 2 else 4
    count, bound = _count_and_bound(pres, _confluent_completion(pres, degree))
    assert count == bound


def _rel(*terms):
    """One relation in generators a, b: the sum of c * word over (word, c)."""
    poly = NCPoly({tuple("ab".index(x) for x in w): c for w, c in terms})
    return AlgebraPresentation(2, ("a", "b"), (poly,))


def test_quantum_plane_normal_words_fill_the_truncated_ideal_bound():
    # xy - 2yx: the normal words x^i y^j give k + 1 words in degree k
    pres = _rel(("ab", 1), ("ba", -2))
    system = complete_rules_up_to(pres, 6)
    assert system.confluent_up_to
    count, bound = _count_and_bound(pres, system)
    assert count == bound == sum(k + 1 for k in range(7))


def test_certain_non_members_stay_outside_the_truncated_ideal():
    # a "certain" verdict of non-membership must survive the products u r v
    # of one degree more than the polynomial's, on instances of at most 400
    # words in that degree
    checked = skipped = 0
    for seed in (42, 7):
        for pres, poly, answer in corpus_membership_answers(seed):
            if answer.member or not answer.certain:
                continue
            degree = poly.degree() + 1
            if pres.num_gens**degree > 400:
                skipped += 1
                continue
            pivots = truncated_ideal_pivots(pres, degree)
            assert reduce_mod_pivots(poly.terms, pivots), poly
            checked += 1
    assert (checked, skipped) == (77, 23)
