"""Differential tests: tietze_simplify, which finds each rewrite through an
index of relator factors, against the pairwise rotation scan in oracles.py,
on random presentations, on the benchmark's group presentations and on
hand-made ties of the rewrite order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univhopf.grouppres import presentation, tietze_simplify

from helpers import corpus_group_presentations
from oracles import scan_tietze


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


# Each case pins the first rewrite of the scan (effort 1), where a wrong
# order in the index picks another one.
TIES = [
    # the shortest relator a^3 has its piece a^2 in itself (j = 1, first in
    # j order) and in b a a b b: only the latter may be rewritten
    (
        [(2, 2, 2, 2, 2), (1, 1, 1), (2, 1, 1, 2, 2)],
        ((2, 2, 2, 2, 2), (1, 1, 1), (2, -1, 2, 2)),
    ),
    # rotations 0 and 2 of a b a b give one piece, and so do 1 and 3
    ([(1, 2, 1, 2), (2, 1, 2, 2, 2)], ((1, 2, 1, 2), (-1, 2, 2))),
    # a a b hits the same relator with rotation 1 (a b) at start 1, rotation
    # 2 (b a) at start 0 and rotation 0 (a a) at start 4: rotation 0 wins
    ([(1, 1, 2), (2, 1, 2, 2, 1, 1, 2, 2)], ((1, 1, 2), (2, 1, 2, 2, 2))),
    # a a b at start 3 against its inverse's piece b^-1 a^-1 at start 0: the
    # relator's rotations come before its inverse's
    ([(1, 1, 2), (-2, -1, 2, 1, 1, 2)], ((1, 1, 2), (-2, -1, 2))),
]


@pytest.mark.parametrize("relators, first", TIES)
def test_rewrite_order_ties(relators, first):
    pres = presentation(2, relators)
    assert tietze_simplify(pres, effort=1)[0].relators == first
    assert tietze_simplify(pres, effort=1) == scan_tietze(pres, effort=1)
    assert tietze_simplify(pres) == scan_tietze(pres)
