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
to the order; the one-loop Smith diagonal against the staged one it
replaced."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from univhopf.grouppres import (
    _first_shortening,
    _smith_diagonal,
    abelian_invariants,
    free_reduce_word,
    invert_word,
    presentation,
    tietze_simplify,
    todd_coxeter_order,
)

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


@pytest.mark.parametrize(
    "family", ["grading_Z16", "grading_D5", "grading_Z3xZ3", "grothendieck_product"]
)
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
