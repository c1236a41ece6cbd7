"""Differential tests: tietze_simplify, which eliminates generators through
an index of the relators each one occurs in and renumbers them once at the
end, against the naive loop in oracles.py, which renumbers after every
elimination and scans every pair of relators through all rotations for
each shortening, on random presentations and on the benchmark's group
presentations; properties of its output (same abelian invariants, same
order wherever coset enumeration closes, generator images that kill every
original relator, no more letters than the input); _first_shortening on
hand-made ties of the rewrite order; todd_coxeter_order, Felsch's strategy
answering at once when the abelianization has a free factor, against the
HLT enumeration in oracles.py, from which it may only move from "unknown"
to the order, and against the group ring presented to ncalg, whose normal
words (none shared with coset enumeration) number the group's elements;
the one-loop Smith diagonal against the staged one it replaced."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from univhopf.grouppres import (
    _Alphabet,
    _cyclic_reduce,
    _first_shortening,
    _smith_diagonal,
    abelian_invariants,
    free_reduce_word,
    invert_word,
    presentation,
    tietze_simplify,
    todd_coxeter_order,
)
from univhopf.ncalg import AlgebraPresentation, NCPoly, complete_rules_up_to, dim_normal_words

from helpers import corpus_group_presentations
from oracles import enumerate_todd_coxeter, scan_tietze, staged_smith_diagonal


@st.composite
def presentations(draw):
    num = draw(st.integers(1, 4))
    letter = st.sampled_from([x for g in range(1, num + 1) for x in (g, -g)])
    relators = draw(st.lists(st.lists(letter, max_size=8), max_size=6))
    return presentation(num, relators)


@settings(max_examples=600, deadline=None)
@given(presentations(), st.sampled_from([1, 3, 50]))
def test_random_presentations_match_the_scan(pres, effort):
    assert tietze_simplify(pres, effort) == scan_tietze(pres, effort)


@pytest.mark.parametrize("family", sorted(corpus_group_presentations()))
def test_corpus_presentations_match_the_scan(family):
    pres = corpus_group_presentations()[family]
    assert tietze_simplify(pres) == scan_tietze(pres)


def images_of(word, images):
    return free_reduce_word(
        [y for x in word for y in (images[x - 1] if x > 0 else invert_word(images[-x - 1]))]
    )


@settings(max_examples=300, deadline=None)
@given(presentations(), st.sampled_from([1, 3, 50]))
def test_simplified_presentations_present_the_same_group(pres, effort):
    simplified, images = tietze_simplify(pres, effort)
    assert sum(map(len, simplified.relators)) <= sum(map(len, pres.relators))
    invariants = abelian_invariants(simplified)
    assert invariants == abelian_invariants(pres)
    # each original relator maps to a word that is trivial in the new group:
    # adding those words as relators leaves the abelianization (a finitely
    # generated abelian group, so Hopfian) and any finite order unchanged
    killed = presentation(
        simplified.num_gens,
        simplified.relators + tuple(images_of(w, images) for w in pres.relators),
    )
    assert abelian_invariants(killed) == invariants
    order = todd_coxeter_order(simplified, 2000)
    reference = todd_coxeter_order(pres, 2000)
    event("unknown" if order is None else "closed")
    if order is not None:
        assert todd_coxeter_order(killed, 2000) == order
        if reference is not None:
            assert reference == order


@st.composite
def cyclic_words(draw):
    """Cyclically reduced words in 2 generators, half of them with as many
    inverse letters as others, where the key must look at both orientations."""
    letters = draw(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8))
    if draw(st.booleans()):
        letters += [-x for x in letters]
    return _cyclic_reduce(free_reduce_word(draw(st.permutations(letters))))


@settings(max_examples=500, deadline=None)
@given(cyclic_words(), cyclic_words(), st.integers(0, 15), st.booleans())
def test_relator_keys_name_the_class_of_conjugates_and_inverses(u, v, shift, invert):
    # Tietze keeps one relator per key, so a key must be shared by exactly
    # the cyclic conjugates of a relator and of its inverse
    a = _Alphabet(2)

    def key(w):
        return a.form("".join(map(a.char.__getitem__, w)))[1]

    def conjugates(w):
        return {b[t:] + b[:t] for b in (w, invert_word(w)) for t in range(max(len(w), 1))}

    if u:
        t = shift % len(u)
        conjugate = u[t:] + u[:t]
        assert key(invert_word(conjugate) if invert else conjugate) == key(u)
    assert (key(u) == key(v)) == (v in conjugates(u))


# Each case pins the first rewrite of _first_shortening, where a wrong
# order in the index picks another one.
TIES = [
    # the shortest relator a^3 has its piece a^2 in itself (j = 1, first in
    # j order) and in b a a b b: only the latter may be rewritten
    (
        [(2, 2, 2, 2, 2), (1, 1, 1), (2, 1, 1, 2, 2)],
        (2, (2, -1, 2, 2)),
    ),
    # rotations 0 and 2 of a b a b give one piece, and so do 1 and 3
    ([(1, 2, 1, 2), (2, 1, 2, 2, 2)], (1, (-1, 2, 2))),
    # a a b hits the same relator with rotation 1 (a b) at start 1, rotation
    # 2 (b a) at start 0 and rotation 0 (a a) at start 4: rotation 0 wins
    ([(1, 1, 2), (2, 1, 2, 2, 1, 1, 2, 2)], (1, (2, 1, 2, 2, 2))),
    # a a b at start 3 against its inverse's piece b^-1 a^-1 at start 0: the
    # relator's rotations come before its inverse's
    ([(1, 1, 2), (-2, -1, 2, 1, 1, 2)], (1, (-2, -1, 2))),
]


@pytest.mark.parametrize("relators, first", TIES)
def test_rewrite_order_ties(relators, first):
    assert _first_shortening(relators) == first
    pres = presentation(2, relators)
    assert tietze_simplify(pres, effort=1) == scan_tietze(pres, effort=1)
    assert tietze_simplify(pres) == scan_tietze(pres)


@st.composite
def coset_presentations(draw):
    """Random relators, with a power of every generator added half the time,
    so that free abelian factors, other infinite groups and finite groups
    all occur."""
    num = draw(st.integers(1, 3))
    letter = st.sampled_from([x for g in range(1, num + 1) for x in (g, -g)])
    relators = draw(st.lists(st.lists(letter, max_size=6), max_size=4))
    if draw(st.booleans()):
        relators += [(g,) * draw(st.integers(1, 4)) for g in range(1, num + 1)]
    return presentation(num, relators)


@settings(max_examples=400, deadline=None)
@given(coset_presentations(), st.integers(1, 200))
def test_coset_order_matches_the_full_enumeration(pres, coset_limit):
    # Felsch defines fewer cosets than HLT, so within one limit an answer may
    # only move from "unknown" to the order HLT finds with room to spare
    order = todd_coxeter_order(pres, coset_limit)
    reference = enumerate_todd_coxeter(pres, coset_limit)
    if 0 in abelian_invariants(pres):
        event("free abelian factor")
        assert order is None
        return
    event("unknown" if order is None else "closed")
    if reference is not None:
        assert order == reference
    elif order is not None:
        event("closed where the full enumeration is unknown")
        assert order == enumerate_todd_coxeter(pres, 10_000)


def test_relator_scan_at_coset_0_closes_within_one_coset():
    # HLT defines the coset 0·x before it scans x at coset 0
    pres = presentation(1, [(1,)])
    assert todd_coxeter_order(pres, coset_limit=1) == 1
    assert enumerate_todd_coxeter(pres, coset_limit=1) is None


@pytest.mark.parametrize(
    "family, order",
    [("coxeter_S4", 24), ("coxeter_S5", 120), ("coxeter_S6", 720), ("grading_Z16", 16)],
)
def test_enumeration_defines_only_the_cosets_the_group_needs(family, order):
    pres = corpus_group_presentations()[family]
    assert todd_coxeter_order(pres, coset_limit=order) == order
    assert todd_coxeter_order(pres, coset_limit=order - 1) is None


def group_ring(pres):
    """k[G] as an algebra presentation: one letter per generator and one per
    inverse of a generator that is not an involution (g^2 a relator),
    x X - 1 and X x - 1 for each such pair, and w - 1 for each relator."""
    letter, num = {}, 0
    for g in range(1, pres.num_gens + 1):
        involution = (g, g) in pres.relators
        letter[g], letter[-g] = num, num if involution else num + 1
        num += 1 if involution else 2
    one, relations = NCPoly.one(), []
    for g in range(1, pres.num_gens + 1):
        if letter[-g] != letter[g]:
            x, inverse = NCPoly.gen(letter[g]), NCPoly.gen(letter[-g])
            relations += [x * inverse - one, inverse * x - one]
    relations += [NCPoly.monomial(tuple(letter[x] for x in w)) - one for w in pres.relators]
    return AlgebraPresentation(num, tuple(f"x{i}" for i in range(num)), tuple(relations))


SMALL_FINITE = {
    family: (simple, order)
    for family, pres in sorted(corpus_group_presentations().items())
    if (order := todd_coxeter_order(simple := tietze_simplify(pres)[0])) is not None
    and order <= 24
}


@pytest.mark.parametrize("family", sorted(SMALL_FINITE))
def test_group_ring_normal_words_count_the_group(family):
    # a complete rewriting system of k[G] whose words all reduce at the
    # bound has one normal word per group element, the elements of G
    # being a basis of k[G]
    simple, order = SMALL_FINITE[family]
    bound = max(map(len, simple.relators), default=0) + 2
    system = complete_rules_up_to(group_ring(simple), bound)
    assert system.confluent_up_to
    assert dim_normal_words(system, bound) == 0
    assert sum(dim_normal_words(system, d) for d in range(bound)) == order


@st.composite
def integer_matrices(draw):
    """Up to 6 x 6 with entries -9..9, some rows and columns zeroed."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    zero_rows = draw(st.sets(st.integers(0, 5)))
    zero_cols = draw(st.sets(st.integers(0, 5)))
    rows = [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(r)]
        for i, r in enumerate(rows)
    ]
    return rows, ncols


@settings(max_examples=1000, deadline=None)
@given(integer_matrices())
def test_smith_diagonal_matches_the_staged_one(matrix):
    rows, ncols = matrix
    assert _smith_diagonal(rows, ncols) == staged_smith_diagonal(rows, ncols)


FREE_GROUP_SCRIPT = """
from univhopf.grouppres import presentation, todd_coxeter_order
print(todd_coxeter_order(presentation(3, []), 10**6))
"""


def test_free_group_answers_without_enumerating():
    # a full enumeration would fill a million cosets; the timeout keeps that
    # from eating memory if the abelianization shortcut is ever lost
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", FREE_GROUP_SCRIPT],
        capture_output=True,
        text=True,
        timeout=1,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None\n"


TRIANGLE_GROUP_SCRIPT = """
from univhopf.grouppres import presentation, todd_coxeter_order
print(todd_coxeter_order(presentation(2, [(1, 1), (2, 2, 2), (1, 2) * 7])))
"""


def test_infinite_triangle_group_runs_into_the_default_limit():
    # <a, b | a^2, b^3, (ab)^7> is infinite and perfect, so no shortcut
    # applies; the timeout keeps a deduction storm from going unnoticed
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", TRIANGLE_GROUP_SCRIPT],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "None\n"
