"""Free associative algebras over Q on finitely many generators, finitely
presented quotients, and degree-bounded rewriting.

Monomials are tuples of generator indices ordered by deglex (length first,
then lexicographically by declaration order).  Completion closes overlap
ambiguities among leading words up to a degree bound only; ideal membership
beyond the bound is reported as uncertain unless the bounded system is
confluent.

Reduction looks rules up by leading word: a dict probed with the factors of
a word at the distinct leading-word lengths only, the first position and
then the lowest-listed rule winning.  Terms are rewritten from a max-heap in
decreasing deglex order, so a word found irreducible is final.

A bounded system is flagged confluent only when its last overlap pass
produced no new rule and either skipped no overlap for the bound (then
every ambiguity resolves, and the rules are a complete system by
Bergman's diamond lemma) or every relation is homogeneous (then rules
above the bound never reduce a polynomial within it).  The overlaps that
pass skipped are reported as ``RewriteSystem.overlaps_skipped``.
"""

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from ._linalg import exact, frac
from .errors import InputError

DEFAULT_DEGREE_BOUND = 6
_COMPLETION_PASS_CAP = 50

Word = tuple[int, ...]


def deglex_key(w: Word):
    return (len(w), w)


class NCPoly:
    """A noncommutative polynomial: finite map from words to nonzero
    rationals, ``int`` when integral."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            c = exact(c if isinstance(c, int) else frac(c))
            if c != 0:
                clean[tuple(w)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, terms: dict) -> "NCPoly":
        """Wrap terms whose keys are tuples and whose coefficients are
        already nonzero rationals, ``int`` when integral, skipping
        normalisation."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly._trusted({(): 1})

    @staticmethod
    def gen(i: int) -> "NCPoly":
        return NCPoly._trusted({(i,): 1})

    @staticmethod
    def monomial(w, c=1) -> "NCPoly":
        return NCPoly({tuple(w): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return _nonzero(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return _nonzero(out)

    def __neg__(self) -> "NCPoly":
        return NCPoly._trusted({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "NCPoly":
        c = exact(c if isinstance(c, int) else frac(c))
        if not c:
            return NCPoly._trusted({})
        return _nonzero({w: c * x for w, x in self.terms.items()})

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return _nonzero(out)

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def leading_word(self) -> Word:
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self.terms, key=deglex_key)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: deglex_key(t[0]), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = [f"{c}*{'.'.join(map(str, w)) or '1'}" for w, c in self.sorted_terms()]
        return "NCPoly(" + " + ".join(bits) + ")"


def _nonzero(terms: dict) -> NCPoly:
    return NCPoly._trusted({w: exact(c) for w, c in terms.items() if c})


def nc_evaluate(p: NCPoly, images) -> NCPoly:
    """Evaluate p by substituting images[g] (an NCPoly) for each generator g."""
    out = NCPoly.zero()
    for w, c in p.sorted_terms():
        term = NCPoly.one()
        for g in w:
            term = term * images[g]
        out = out + term.scale(c)
    return out


@dataclass(frozen=True)
class AlgebraPresentation:
    num_gens: int
    gen_labels: tuple[str, ...]
    relations: tuple[NCPoly, ...]

    def __post_init__(self):
        if len(self.gen_labels) != self.num_gens:
            raise InputError("generator label count does not match")
        for rel in self.relations:
            if rel.is_zero():
                raise InputError("zero relation")
            for w in rel.terms:
                if any(g < 0 or g >= self.num_gens for g in w):
                    raise InputError("generator index out of range in relation")


@dataclass(frozen=True, eq=False)
class RewriteSystem:
    num_gens: int
    rules: tuple[tuple[Word, NCPoly], ...]  # leading word -> lower remainder
    degree_bound: int
    confluent_up_to: bool
    overlaps_skipped: int = 0  # by the degree bound, in the last overlap pass
    _index: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for lw, rhs in self.rules:
            if lw in seen:
                raise InputError("duplicate leading word")
            seen.add(lw)
            for w in rhs.terms:
                if deglex_key(w) >= deglex_key(lw):
                    raise InputError("rule right side is not deglex-smaller")
        object.__setattr__(self, "_index", _rule_index(self.rules))


def _rule_index(rules):
    """Leading word -> (first list index, rhs), and the distinct leading-word
    lengths in increasing order."""
    table = {}
    for i, (lw, rhs) in enumerate(rules):
        table.setdefault(lw, (i, rhs))
    return table, sorted({len(lw) for lw in table})


def _redex(word: Word, index):
    """(start, end, rhs) of the first position holding a leading word, the
    lowest-listed rule winning a tie at that position; None if the word is
    irreducible.  The empty word is probed at position 0 too, where only the
    empty leading word of a constant relation matches it: once the ideal
    contains 1, every word rewrites to 0."""
    table, lengths = index
    n = len(word)
    for pos in range(max(n, 1)):
        best = None
        for length in lengths:
            end = pos + length
            if end > n:
                break
            hit = table.get(word[pos:end])
            if hit is not None and (best is None or hit[0] < best[0]):
                best = (hit[0], end, hit[1])
        if best is not None:
            return pos, best[1], best[2]
    return None


def _heap_key(w: Word):
    # heapq pops its smallest entry first: this key pops the deglex-largest
    return (-len(w), tuple(-g for g in w), w)


def _reduce(p: NCPoly, index) -> NCPoly:
    """Rewrite the deglex-largest reducible term until none is left.

    Terms leave a max-heap in decreasing deglex order.  Every replacement
    term is smaller than the word it replaces, so a popped irreducible word
    is final."""
    pending = dict(p.terms)
    heap = [_heap_key(w) for w in pending]
    heapq.heapify(heap)
    out = {}
    while heap:
        w = heapq.heappop(heap)[2]
        c = pending.pop(w)
        if not c:
            continue
        hit = _redex(w, index)
        if hit is None:
            out[w] = exact(c)
            continue
        start, end, rhs = hit
        prefix, suffix = w[:start], w[end:]
        for v, d in rhs.terms.items():
            u = prefix + v + suffix
            if u in pending:
                pending[u] += c * d
            else:
                pending[u] = c * d
                heapq.heappush(heap, _heap_key(u))
    return NCPoly._trusted(out)


def reduce_normal_form(p: NCPoly, system: RewriteSystem) -> NCPoly:
    """Rewrite until no term contains a rule's leading word; terminates since
    every step is deglex-decreasing."""
    return _reduce(p, system._index)


def _orient(p: NCPoly) -> tuple[Word, NCPoly]:
    lw = p.leading_word()
    lc = p.terms[lw]
    rest = NCPoly._trusted({w: c for w, c in p.terms.items() if w != lw})
    return lw, rest.scale(Fraction(-1) / lc)


def _text(words) -> str:
    """The words as one string: generator g is chr(g + 1), words joined by NUL."""
    return "\0".join(["".join([chr(g + 1) for g in w]) for w in words])


def _add_and_interreduce(rules: list, pending: list) -> None:
    """Drain pending polynomials into the rule list, keeping it inter-reduced.

    A rule goes back to pending when the new leading word is a factor of one
    of its words: a substring of its _text, since NUL is in no word's text, so
    no factor straddles two words.  The empty word is a factor of every rule.
    """
    index = _rule_index(rules)
    texts = [_text(chain((lw,), rhs.terms)) for lw, rhs in rules]
    while pending:
        p = _reduce(pending.pop(0), index)
        if p.is_zero():
            continue
        lw, rhs = _orient(p)
        factor = _text((lw,))
        keep, keep_texts = [], []
        for rule, text in zip(rules, texts):
            if factor in text:
                pending.append(NCPoly.monomial(rule[0]) - rule[1])
            else:
                keep.append(rule)
                keep_texts.append(text)
        keep.append((lw, rhs))
        keep_texts.append(_text(chain((lw,), rhs.terms)))
        rules[:], texts = keep, keep_texts
        index = _rule_index(rules)


def _overlaps(rules):
    """(lw1, rhs1, lw2, rhs2, k) for every proper overlap of a suffix of lw1
    with a prefix of lw2 of length k, ordered by lw1, then lw2, then k."""
    by_prefix = {}
    for j, (lw2, _) in enumerate(rules):
        for k in range(1, len(lw2)):
            by_prefix.setdefault(lw2[:k], []).append(j)
    for lw1, rhs1 in rules:
        hits = sorted(
            (j, k) for k in range(1, len(lw1)) for j in by_prefix.get(lw1[len(lw1) - k :], ())
        )
        for j, k in hits:
            yield lw1, rhs1, rules[j][0], rules[j][1], k


def _is_homogeneous(p: NCPoly) -> bool:
    return len({len(w) for w in p.terms}) <= 1


def complete_rules_up_to(
    pres: AlgebraPresentation, degree_bound: int = DEFAULT_DEGREE_BOUND
) -> RewriteSystem:
    """Close overlap ambiguities among leading words up to the degree bound.

    Deterministic for a fixed generator order.  The result is flagged
    confluent when a full overlap pass produced no new rule and either that
    pass skipped no overlap for the bound, or every relation is homogeneous
    (then the rules of degree at most the bound are exact).
    """
    max_rel_deg = max((r.degree() for r in pres.relations), default=0)
    if degree_bound < max_rel_deg:
        raise InputError(
            f"degree bound {degree_bound} is below the maximal relation degree {max_rel_deg}"
        )
    rules: list[tuple[Word, NCPoly]] = []
    pending = [NCPoly(r.terms) for r in pres.relations]
    _add_and_interreduce(rules, pending)
    confluent = False
    skipped = 0
    for _ in range(_COMPLETION_PASS_CAP):
        rules.sort(key=lambda r: deglex_key(r[0]))
        index = _rule_index(rules)
        new_polys = []
        skipped = 0
        for lw1, rhs1, lw2, rhs2, k in _overlaps(rules):
            if len(lw1) + len(lw2) - k > degree_bound:
                skipped += 1
                continue
            # superposition lw1 . lw2[k:] = lw1[:-k] . lw2
            tail, head = lw2[k:], lw1[: len(lw1) - k]
            s = {v + tail: c for v, c in rhs1.terms.items()}
            for v, c in rhs2.terms.items():
                s[head + v] = s.get(head + v, 0) - c
            s = _reduce(_nonzero(s), index)
            if not s.is_zero():
                new_polys.append(s)
        if not new_polys:
            confluent = skipped == 0 or all(map(_is_homogeneous, pres.relations))
            break
        _add_and_interreduce(rules, new_polys)
    rules.sort(key=lambda r: deglex_key(r[0]))
    return RewriteSystem(pres.num_gens, tuple(rules), degree_bound, confluent, skipped)


@dataclass(frozen=True)
class IdealMembership:
    member: bool
    certain: bool  # a "no" is definite only for a confluent bounded system


def ideal_member_up_to(p: NCPoly, system: RewriteSystem) -> IdealMembership:
    if p.degree() > system.degree_bound:
        raise InputError("polynomial degree exceeds the rewrite system's bound")
    nf = reduce_normal_form(p, system)
    if nf.is_zero():
        return IdealMembership(True, True)
    return IdealMembership(False, system.confluent_up_to)


def dim_normal_words(system: RewriteSystem, degree: int) -> int:
    """Number of degree-d words containing no leading word as a factor."""
    if degree > system.degree_bound:
        raise InputError("degree exceeds the rewrite system's bound")
    table, lengths = system._index

    def ends_reducible(word):
        n = len(word)
        return any(word[n - length :] in table for length in lengths if length <= n)

    count = 0
    stack = [] if ends_reducible(()) else [()]
    while stack:
        w = stack.pop()
        if len(w) == degree:
            count += 1
            continue
        for g in range(system.num_gens):
            nxt = w + (g,)
            if not ends_reducible(nxt):
                stack.append(nxt)
    return count
