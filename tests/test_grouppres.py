import re

import pytest

from univhopf.errors import InputError
from univhopf.finmonoid import grothendieck_group
from univhopf.grading import equivalent
from univhopf.grouppres import (
    _COLUMN_CHECK_COSETS,
    GroupPresentation,
    _check_closed,
    abelian_invariants,
    free_reduce_word,
    invert_word,
    presentation,
    tietze_simplify,
    todd_coxeter_order,
)

from helpers import (
    chain_monoid_a3_eq_a,
    corpus_group_presentations,
    cyclic_monoid,
    dual_numbers_grading,
    full_transformation_monoid,
    klein_four,
)


def test_free_reduce_cancels_adjacent_inverses():
    assert free_reduce_word((1, -1)) == ()
    assert free_reduce_word((1, 2, -2, 1)) == (1, 1)
    assert free_reduce_word((1, 2, 1)) == (1, 2, 1)
    # idempotent
    for w in [(1, -1, 2, -2), (1, 2, -2, -1, 3)]:
        assert free_reduce_word(free_reduce_word(w)) == free_reduce_word(w)


def test_invert_word():
    assert invert_word((1, -2, 3)) == (-3, 2, -1)


def test_presentation_rejects_out_of_range_letters():
    with pytest.raises(InputError):
        GroupPresentation(1, ((2,),))
    with pytest.raises(InputError):
        GroupPresentation(1, ((0,),))


@pytest.mark.parametrize("relators", [((1.5, 2),), ((True, True),), (("a",),), ((1, 2.0),)])
def test_presentation_rejects_letters_that_are_not_ints(relators):
    # a float, bool or str letter passed the range check and then failed
    # as a list index (or, as True, counted as generator 1)
    with pytest.raises(InputError, match="relator letters must be ints"):
        GroupPresentation(2, relators)


def test_abelian_invariants_free_group():
    assert abelian_invariants(presentation(2, [])) == [0, 0]


def test_abelian_invariants_trivial_group():
    assert abelian_invariants(presentation(1, [(1,)])) == []


def test_abelian_invariants_klein():
    p = presentation(2, [(1, 1), (2, 2), (1, 2, -1, -2)])
    assert abelian_invariants(p) == [2, 2]


def test_abelian_invariants_mixed():
    # Z6 x Z: <a, b | a^6>
    p = presentation(2, [(1,) * 6])
    assert abelian_invariants(p) == [6, 0]
    # Z4 x Z2 as <a,b | a^4, b^2, [a,b]> has chain [2, 4]
    p2 = presentation(2, [(1,) * 4, (2, 2), (1, 2, -1, -2)])
    assert abelian_invariants(p2) == [2, 4]


KNOWN_ORDERS = [
    (presentation(0, []), 1),
    (presentation(1, [(1,)]), 1),
    (presentation(1, [(1, 1)]), 2),
    (presentation(1, [(1,) * 6]), 6),
    # S3
    (presentation(2, [(1, 1), (2, 2), (1, 2, 1, 2, 1, 2)]), 6),
    # quaternion group
    (presentation(2, [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)]), 8),
    # Z2 x Z2
    (presentation(2, [(1, 1), (2, 2), (1, 2, -1, -2)]), 4),
]


@pytest.mark.parametrize("pres,order", KNOWN_ORDERS)
def test_todd_coxeter_known_orders(pres, order):
    assert todd_coxeter_order(pres) == order


def test_todd_coxeter_unknown_on_infinite_groups():
    assert todd_coxeter_order(presentation(1, []), coset_limit=100) is None
    assert todd_coxeter_order(presentation(2, [(1, 2, -1, -2)]), coset_limit=300) is None


def test_todd_coxeter_deterministic():
    pres = presentation(2, [(1, 1), (2, 2), (1, 2, 1, 2, 1, 2)])
    assert todd_coxeter_order(pres) == todd_coxeter_order(pres)


def test_tietze_single_generator_relator():
    simplified, images = tietze_simplify(presentation(1, [(1,)]))
    assert simplified.num_gens == 0 and simplified.relators == ()
    assert images == ((),)


def test_tietze_eliminates_generator_pair():
    simplified, images = tietze_simplify(presentation(2, [(1, 2)]))
    assert simplified.num_gens == 1 and simplified.relators == ()
    assert images == ((1,), (-1,))


def test_tietze_trivial_grading_presentation():
    p = presentation(2, [(1, 1, -1), (1, 2, -2), (2, 1, -2)])
    simplified, _ = tietze_simplify(p)
    assert simplified.num_gens == 1 and simplified.relators == ()


@pytest.mark.parametrize(
    "pres",
    [
        presentation(2, [(1, 1), (2, 2), (1, 2, 1, 2, 1, 2)]),
        presentation(2, [(1, 2)]),
        presentation(3, [(1,), (2, 3, -2, -3), (3, 3)]),
        presentation(2, [(1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)]),
    ],
)
def test_tietze_preserves_abelian_invariants_and_order(pres):
    simplified, _ = tietze_simplify(pres)
    assert abelian_invariants(simplified) == abelian_invariants(pres)
    order = todd_coxeter_order(pres, coset_limit=5000)
    if order is not None:
        assert todd_coxeter_order(simplified, coset_limit=5000) == order


def test_monoid_completions_never_unknown_at_default_limits():
    for m in [cyclic_monoid(k) for k in (1, 2, 3, 6, 8)] + [
        chain_monoid_a3_eq_a(),
        klein_four(),
        full_transformation_monoid(2),
    ]:
        assert todd_coxeter_order(grothendieck_group(m)) is not None


def test_tietze_rewrite_branch_shortens_relators():
    # a^2 shortens b a a b to b b; invariants are untouched
    p = presentation(2, [(2, 1, 1, 2), (1, 1)])
    simplified, _ = tietze_simplify(p)
    assert (2, 2) in simplified.relators
    assert all(len(w) <= 2 for w in simplified.relators)
    assert abelian_invariants(simplified) == abelian_invariants(p) == [2, 2]


@pytest.mark.parametrize(
    "family, shape",
    [
        ("grading_Z16", (1, 1, 16)),
        ("grading_D5", (2, 4, 18)),
        ("grading_Z3xZ3", (2, 5, 22)),
        ("grothendieck_product", (2, 3, 9)),
        ("coxeter_S6", (5, 15, 58)),
    ],
)
def test_tietze_output_shape_on_grading_groups(family, shape):
    # (generators, relators, letters), pinned from the elimination strategy
    # as it stands: a new strategy must change these numbers on purpose
    simplified, _ = tietze_simplify(corpus_group_presentations()[family])
    letters = sum(map(len, simplified.relators))
    assert (simplified.num_gens, len(simplified.relators), letters) == shape


def test_tietze_simplifies_every_cyclic_grading_to_one_power():
    families = corpus_group_presentations()
    cyclic = [f for f in families if re.fullmatch(r"grading_Z\d+", f)]
    assert len(cyclic) == 10
    for family in cyclic:
        n = int(family.removeprefix("grading_Z"))
        simplified, _ = tietze_simplify(families[family])
        assert (simplified.num_gens, simplified.relators) == (1, ((1,) * n,)), family


def test_tietze_output_is_never_longer_than_its_input():
    for family, pres in corpus_group_presentations().items():
        simplified, _ = tietze_simplify(pres)
        assert sum(map(len, simplified.relators)) <= sum(map(len, pres.relators)), family


def test_tietze_makes_no_elimination_that_lengthens_the_presentation():
    # b = a^3 from a b^-1 a a turns b^3 into a^9: 9 letters against 7
    pres = presentation(2, [(2, 2, 2), (1, -2, 1, 1)])
    assert tietze_simplify(pres) == (pres, ((1,), (2,)))


def test_tietze_rejects_bad_effort():
    with pytest.raises(InputError):
        tietze_simplify(presentation(1, [(1, 1)]), effort=0)
    with pytest.raises(InputError):
        equivalent(dual_numbers_grading(), dual_numbers_grading(), effort=0)


def test_todd_coxeter_rejects_bad_limit():
    with pytest.raises(InputError):
        todd_coxeter_order(presentation(1, [(1, 1)]), coset_limit=0)


def test_smith_form_properties_on_random_matrices():
    from math import gcd
    from random import Random

    from univhopf.grouppres import _smith_diagonal

    rng = Random(1234)
    for _ in range(40):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        diag = _smith_diagonal(rows, n)
        # divisibility chain
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0), (rows, diag)
        # first invariant is the gcd of all entries
        entries = [x for row in rows for x in row]
        g = 0
        for x in entries:
            g = gcd(g, abs(x))
        if any(entries):
            assert diag[0] == g
        # square nonsingular case: product of invariants is |det|
        if n == m == 3:
            det = (
                rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
            )
            if det != 0:
                prod = 1
                for d in diag:
                    prod *= d
                assert prod == abs(det), (rows, diag, det)


def test_coset_enumeration_agrees_with_smith_form_on_abelian_groups():
    # for a presentation with all commutators imposed, the group is the
    # abelianization, so the enumeration must count the invariant product
    from random import Random

    rng = Random(4321)
    for _ in range(15):
        n = rng.randrange(1, 3)
        relators = []
        for i in range(n):
            for j in range(i + 1, n):
                relators.append((i + 1, j + 1, -(i + 1), -(j + 1)))
        for _ in range(n):
            word = []
            for g in range(n):
                e = rng.randrange(1, 5)
                word.extend([g + 1] * e)
            relators.append(tuple(word))
        pres = presentation(n, relators)
        invariants = abelian_invariants(pres)
        if 0 in invariants:
            continue
        expected = 1
        for d in invariants:
            expected *= d
        assert todd_coxeter_order(pres, coset_limit=20000) == expected


def test_one_smith_form_per_presentation(monkeypatch):
    from univhopf import grouppres

    calls = []
    smith = grouppres._smith_diagonal
    monkeypatch.setattr(
        grouppres, "_smith_diagonal", lambda rows, n: calls.append(n) or smith(rows, n)
    )
    z6 = presentation(2, [(1, 1), (2, 2, 2), (1, 2, -1, -2)])
    invariants = abelian_invariants(z6)
    assert invariants == [6] and todd_coxeter_order(z6) == 6
    invariants.append(0)  # each call returns its own list
    assert abelian_invariants(z6) == [6] and len(calls) == 1
    # an equal presentation is another object with its own Smith form
    again = presentation(2, [(1, 1), (2, 2, 2), (1, 2, -1, -2)])
    assert again == z6 and todd_coxeter_order(again) == 6 and len(calls) == 2


def _cyclic_table(n):
    """The coset table of Z_n = <a | a^n> over the trivial subgroup: column
    0 is a, column 1 its inverse."""
    return [[(c + 1) % n, (c - 1) % n] for c in range(n)]


@pytest.mark.parametrize("n", [3, _COLUMN_CHECK_COSETS, _COLUMN_CHECK_COSETS + 5])
def test_closing_check_names_the_coset_that_fails(n):
    # small tables are walked, larger ones checked by whole columns first;
    # either way the error names the first failing coset
    assert _check_closed(_cyclic_table(n), list(range(n)), [(0,) * n, (0, 1)]) == n
    table = _cyclic_table(n)
    table[n - 1][0] = n - 1  # a^n now ends at n - 1 from every coset
    with pytest.raises(RuntimeError, match="^relator does not close at coset 0$"):
        _check_closed(table, list(range(n)), [(0,) * n])
    fixed = [[c, c] for c in range(n)]  # every coset fixed by both columns
    table = [row[:] for row in fixed]
    table[2][0] = 1
    with pytest.raises(RuntimeError, match="^relator does not close at coset 2$"):
        _check_closed(table, list(range(n)), [(1,), (0,)])
    table = [row[:] for row in fixed]
    table[2][1] = None
    with pytest.raises(RuntimeError, match="^coset table not closed at coset 2$"):
        _check_closed(table, list(range(n)), [(1,), (0,)])


def test_closing_check_renumbers_around_dead_cosets():
    # coset n is dead (merged into 0): live entries must avoid it
    n = _COLUMN_CHECK_COSETS + 1
    table = _cyclic_table(n) + [[None, None]]
    parent = list(range(n)) + [0]
    assert _check_closed(table, parent, [(0,) * n, (1, 0)]) == n
    table = [[c, c] for c in range(n)] + [[None, None]]
    table[4][1] = n
    with pytest.raises(RuntimeError, match="^coset table not closed at coset 4$"):
        _check_closed(table, parent, [(0,), (1,)])
