import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from univhopf.errors import InputError
from univhopf.ncalg import (
    AlgebraPresentation,
    IdealMembership,
    NCPoly,
    RewriteSystem,
    complete_rules_up_to,
    dim_normal_words,
    ideal_member_up_to,
    reduce_normal_form,
)

from oracles import embed_tensor, nc_evaluate, tensor_square_presentation

F = Fraction
x = NCPoly.gen(0)
y = NCPoly.gen(1)
one = NCPoly.one()


def _pres(num_gens, labels, *relations):
    return AlgebraPresentation(num_gens, labels, tuple(relations))


IDEMPOTENT = _pres(1, ("x",), x * x - x)
INVERSES = _pres(2, ("x", "y"), x * y - one, y * x - one)
COMMUTING = _pres(2, ("x", "y"), y * x - x * y)


def test_reduce_zero():
    system = complete_rules_up_to(IDEMPOTENT, 4)
    assert reduce_normal_form(NCPoly.zero(), system).is_zero()


def test_reduce_power_by_idempotent_rule():
    system = complete_rules_up_to(IDEMPOTENT, 4)
    assert reduce_normal_form(NCPoly.monomial((0, 0, 0)), system) == x


def test_reduce_with_inverse_rules():
    system = complete_rules_up_to(INVERSES, 4)
    assert reduce_normal_form(NCPoly.monomial((0, 1, 0)), system) == x


def test_reduction_is_idempotent_and_linear():
    system = complete_rules_up_to(INVERSES, 4)
    p = NCPoly.monomial((0, 1, 0)) + NCPoly.monomial((1,), F(3, 2))
    q = NCPoly.monomial((1, 0, 1))
    rp = reduce_normal_form(p, system)
    assert reduce_normal_form(rp, system) == rp
    left = reduce_normal_form(p + q.scale(F(5)), system)
    right = reduce_normal_form(p, system) + reduce_normal_form(q, system).scale(F(5))
    assert left == right


def test_completion_empty_presentation():
    system = complete_rules_up_to(_pres(2, ("x", "y")), 4)
    assert system.rules == () and system.confluent_up_to


def test_completion_inverse_pair():
    system = complete_rules_up_to(INVERSES, 4)
    assert system.confluent_up_to and len(system.rules) == 2


def test_completion_commuting_pair():
    system = complete_rules_up_to(COMMUTING, 4)
    assert system.confluent_up_to and len(system.rules) == 1


def test_completion_rejects_low_degree_bound():
    with pytest.raises(InputError):
        complete_rules_up_to(INVERSES, 1)


def test_ideal_membership():
    system = complete_rules_up_to(IDEMPOTENT, 4)
    assert ideal_member_up_to(x * x - x, system).member
    verdict = ideal_member_up_to(x, system)
    assert not verdict.member and verdict.certain
    assert ideal_member_up_to(NCPoly.zero(), system).member


def test_normal_form_uniqueness_when_confluent():
    system = complete_rules_up_to(INVERSES, 6)
    rng = Random(7)
    words = [(0,), (1,), (0, 1), (1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 0, 1)]
    for _ in range(25):
        p = NCPoly.zero()
        for w in rng.sample(words, 3):
            p = p + NCPoly.monomial(w, rng.randrange(-3, 4))
        shift = NCPoly.monomial((0, 1)) - one  # lies in the ideal
        q = p + shift * NCPoly.monomial(rng.choice(words), rng.randrange(-2, 3))
        assert reduce_normal_form(p, system) == reduce_normal_form(q, system)


def test_dim_normal_words():
    free = complete_rules_up_to(_pres(2, ("x", "y")), 6)
    assert dim_normal_words(free, 2) == 4
    commuting = complete_rules_up_to(COMMUTING, 6)
    assert dim_normal_words(commuting, 2) == 3
    nilpotent = complete_rules_up_to(_pres(1, ("x",), x * x), 6)
    assert dim_normal_words(nilpotent, 2) == 0
    inverses = complete_rules_up_to(INVERSES, 6)
    for d in range(1, 7):
        assert dim_normal_words(inverses, d) == 2


def test_tensor_square_presentation_shapes():
    ts1 = tensor_square_presentation(_pres(1, ("x",)))
    assert ts1.num_gens == 2 and len(ts1.relations) == 1
    ts2 = tensor_square_presentation(INVERSES)
    assert ts2.num_gens == 4
    assert len(ts2.relations) == 2 * 2 + 4


def test_tensor_square_commutators_put_left_first():
    ts = tensor_square_presentation(_pres(2, ("x", "y")))
    system = complete_rules_up_to(ts, 4)
    # right-copy letter before a left-copy letter rewrites to left-first order
    p = NCPoly.monomial((2, 0))
    assert reduce_normal_form(p, system) == NCPoly.monomial((0, 2))


def test_embed_tensor():
    p = embed_tensor(x, y, 2)
    assert p == NCPoly.monomial((0, 3))


def test_nc_evaluate_substitution():
    p = x * y - one
    swapped = nc_evaluate(p, [y, x])
    assert swapped == y * x - one
    collapsed = nc_evaluate(p, [one, one])
    assert collapsed.is_zero()


def test_zero_relation_rejected():
    with pytest.raises(InputError):
        _pres(1, ("x",), NCPoly.zero())


def test_degree_bound_enforced_on_queries():
    system = complete_rules_up_to(IDEMPOTENT, 3)
    with pytest.raises(InputError):
        ideal_member_up_to(NCPoly.monomial((0, 0, 0, 0)), system)
    with pytest.raises(InputError):
        dim_normal_words(system, 4)


def test_bounded_completion_does_not_certify_skipped_overlaps():
    # the overlap aab.b = a.abb has length 4: at bound 3 it is skipped, and
    # the algebra it collapses (a = b = 1) must not be certified
    a, b = x, y
    pres = _pres(2, ("a", "b"), a * a * b - a, a * b * b - one)
    low = complete_rules_up_to(pres, 3)
    assert low.overlaps_skipped == 1 and not low.confluent_up_to
    verdict = ideal_member_up_to(a * b - a, low)
    assert not verdict.member and not verdict.certain
    high = complete_rules_up_to(pres, 4)
    assert high.overlaps_skipped == 0 and high.confluent_up_to
    assert ideal_member_up_to(a * b - a, high) == IdealMembership(True, True)


def test_homogeneous_relations_are_certified_despite_skipped_overlaps():
    # x^3 = 0 overlaps itself beyond bound 3, but degree <= 3 is exact
    system = complete_rules_up_to(_pres(1, ("x",), x * x * x), 3)
    assert system.overlaps_skipped == 2 and system.confluent_up_to
    assert [dim_normal_words(system, d) for d in range(4)] == [1, 1, 1, 0]


def test_a_second_completion_returns_the_kept_system():
    pres = _pres(2, ("x", "y"), x * y - one, y * x - one)
    system = complete_rules_up_to(pres, 4)
    assert complete_rules_up_to(pres, 4) is system


def test_each_bound_and_each_instance_keeps_its_own_system():
    pres = _pres(2, ("x", "y"), x * y - one, y * x - one)
    low, high = complete_rules_up_to(pres, 3), complete_rules_up_to(pres, 5)
    assert (low.degree_bound, high.degree_bound) == (3, 5)
    assert complete_rules_up_to(pres, 3) is low
    # an equal presentation, built separately, completes on its own
    twin = _pres(2, ("x", "y"), x * y - one, y * x - one)
    assert twin == pres and hash(twin) == hash(pres) and repr(twin) == repr(pres)
    again = complete_rules_up_to(twin, 3)
    assert again is not low and again.rules == low.rules


def test_overlaps_skipped_defaults_to_zero():
    system = RewriteSystem(1, (((0, 0), x),), 4, True)
    assert system.overlaps_skipped == 0
    assert reduce_normal_form(NCPoly.monomial((0, 0, 0)), system) == x


def test_a_chain_of_thousands_of_rules_reduces_without_recursion():
    # x_i -> x_(i-1): x_2999 takes 2,999 rewrites, more than Python's
    # default recursion limit of 1,000 frames
    n = 3000
    rules = tuple(((i,), NCPoly.gen(i - 1)) for i in range(1, n))
    system = RewriteSystem(n, rules, 1, True)
    assert reduce_normal_form(NCPoly.gen(n - 1), system) == x


@pytest.mark.parametrize(
    "rules, message",
    [
        ((((0, 1), x), ((0, 1), one)), "factor of another"),  # a repeated leading word
        ((((0,), one), ((0, 1), x)), "factor of another"),  # x is a factor of xy
        ((((1, 0, 1), x), ((0,), one)), "factor of another"),  # ... and of yxy, inside it
        ((((), NCPoly.zero()), ((0,), one)), "factor of another"),  # 1 beside another rule
        ((((-1,), one), ((0,), one)), "out of range"),  # would be the separator NUL
        ((((-2,), one),), "out of range"),
        ((((2,), one),), "out of range"),
        ((((1,), NCPoly.monomial((-2,))),), "out of range"),  # no letter at all
        ((((0, 1), NCPoly.monomial((2,))),), "out of range"),
    ],
)
def test_a_rewrite_system_is_reduced(rules, message):
    with pytest.raises(InputError, match=message):
        RewriteSystem(2, rules, 4, True)


COLLAPSE_SCRIPT = """
from univhopf.ncalg import AlgebraPresentation, NCPoly, complete_rules_up_to, dim_normal_words
a, one = NCPoly.gen(0), NCPoly.one()
for relations in [(a - one, a - one.scale(2)), (one, one.scale(2))]:
    system = complete_rules_up_to(AlgebraPresentation(1, ("a",), relations), 3)
    print(system.rules, system.confluent_up_to, [dim_normal_words(system, d) for d in range(4)])
"""


def test_two_constants_in_the_ideal_complete_to_the_zero_algebra():
    # each input once made completion loop forever, so it runs in a
    # subprocess with a timeout
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", COLLAPSE_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["(((), NCPoly(0)),) True [0, 0, 0, 0]"] * 2


def test_a_constant_relation_puts_1_in_the_ideal():
    system = complete_rules_up_to(_pres(2, ("x", "y"), one.scale(2)), 3)
    assert system.rules == (((), NCPoly.zero()),) and system.confluent_up_to
    assert ideal_member_up_to(one, system) == IdealMembership(True, True)
    assert reduce_normal_form(x * y - one.scale(3), system).is_zero()
    assert [dim_normal_words(system, d) for d in range(4)] == [0, 0, 0, 0]
