"""Free associative algebras over Q on finitely many generators, finitely
presented quotients, and degree-bounded rewriting.

Monomials are tuples of generator indices ordered by deglex (length first,
then lexicographically by declaration order).  Completion closes overlap
ambiguities among leading words up to a degree bound only; ideal membership
beyond the bound is reported as uncertain unless the bounded system is
confluent.

Inside the rewriting core a word is a string: generator g is the letter
chr(g + 1), so string order is generator order, deglex is (len(w), w) on
strings too, slices, dict probes and factor tests run in C, and NUL is in
no word.  Words are converted once at the boundary: completion converts the
relations in and its rules out, and a ``RewriteSystem`` converts its rules
into a string index once.  ``NCPoly``, ``RewriteSystem.rules``, documents
and ``hopf`` keep tuple words; inside completion a polynomial is a plain
dict {string word: coefficient}.

A rewrite system is reduced: no leading word is a factor of another, so one
rule at most matches at a position and normal forms do not depend on the
order of the rules.  Reduction probes a dict of leading words with a word's
factors at the leading-word lengths, first position first.

Reduction is linear: the normal form of a sum of c w is the sum of the
c nf(w), and nf(w) depends only on w and the rules, not on the polynomial
that w came in.  So a word's normal form is computed once per rule index
and kept in a memo that goes with that index: a fresh one for each overlap
pass, whose index is fixed; one that interreduction clears whenever it
changes its index; and one owned by each ``RewriteSystem``, keyed by tuple
words, which every ``reduce_normal_form`` on it reuses.  No memo outlives
its index, so a hit is exactly what computing the normal form again would
give.

A bounded system is flagged confluent only when its last overlap pass
produced no new rule and either skipped no overlap for the bound (then
every ambiguity resolves, and the rules are a complete system by
Bergman's diamond lemma) or every relation is homogeneous (then rules
above the bound never reduce a polynomial within it).  The overlaps that
pass skipped are reported as ``RewriteSystem.overlaps_skipped``.

Each overlap is reduced once.  From the second pass on, a pass reduces only
the overlaps in which some rule, compared by leading word and right side,
was not in the previous pass's list; the overlaps skipped for the bound are
still counted over all pairs.  An overlap of two rules that were both in the
previous list was reduced there, and its remainder went to interreduction.
Every rule that interreduction removed was re-queued and reduced by the
rules that replaced it.  So the overlap's S-polynomial is still a sum of
terms c u r v with u lw(r) v below the overlap word: the ambiguity stays
resolvable relative to deglex, which is all that Bergman's diamond lemma
asks of it.  When the new overlaps all reduce to 0, every ambiguity within
the bound is resolvable, and the old ones would reduce to 0 as well.  This
is Buchberger's criterion as organised by Gebauer and Möller (1988).
Interreduction keeps its rule index in place across a drain.

Completion takes the relations, and each pass's overlap remainders, in
increasing deglex order of their leading words (a stable sort).  A new
leading word is then rarely a factor of an earlier rule, so few rules go
back to pending, and the order of the relations matters only among
relations with one leading word.

A presentation may carry a seed: a reduced system and polynomials that
together generate its ideal.  ``hopf`` gives a Hopf envelope the complete
system of its base (confluent with no overlap skipped, so the reduced
Groebner basis of the base ideal in every degree) on level 0, with the
lifts of those rules to the other levels and the convolution identities as
the polynomials.  Completion at the seed's bound starts from the seed's
rules, takes in its polynomials, and lets the rules stand as the first
pass's previous list, so an overlap of two base rules that are still
unchanged is not reduced again.  That is sound by the argument above: the
base completion resolved every such overlap by the base rules, and each
base rule that interreduction removed was re-queued and reduced by the
rules that replaced it, so the overlap stays resolvable relative to deglex
(Bergman).  At another bound, completion starts from the relations.

A presentation keeps the system it was completed to, per degree bound, in a
private field: completing the same instance again returns that system, so
``hopf.check_comap_well_defined`` reuses a completion its caller made.  An
equal presentation built separately completes on its own.
"""

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction

from ._linalg import check_exact, exact
from .errors import InputError

DEFAULT_DEGREE_BOUND = 6
_COMPLETION_PASS_CAP = 50

Word = tuple[int, ...]


def deglex_key(w: Word):
    return (len(w), w)


class NCPoly:
    """A noncommutative polynomial: finite map from words to nonzero
    rationals, ``int`` when integral, built from ints and Fractions only."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            check_exact("polynomial coefficient", (c,))
            if c:
                clean[tuple(w)] = exact(c)
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
        check_exact("scalar", (c,))
        c = exact(c)
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


@dataclass(frozen=True)
class AlgebraPresentation:
    num_gens: int
    gen_labels: tuple[str, ...]
    relations: tuple[NCPoly, ...]
    # degree bound -> the RewriteSystem complete_rules_up_to returned
    _completions: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (degree bound, rules, polynomials): completion at that bound starts
    # from these reduced rules and takes in these polynomials, not the
    # relations, which generate the same ideal with the rules
    _seed: tuple | None = field(default=None, repr=False, compare=False, kw_only=True)

    def __post_init__(self):
        if len(self.gen_labels) != self.num_gens:
            raise InputError("generator label count does not match")
        for rel in self.relations:
            if rel.is_zero():
                raise InputError("zero relation")
            for w in rel.terms:
                if any(g < 0 or g >= self.num_gens for g in w):
                    raise InputError("generator index out of range in relation")


def _to_str(w: Word) -> str:
    """A tuple word as a string word: generator g is the letter chr(g + 1)."""
    return "".join([chr(g + 1) for g in w])


def _to_tuple(s: str) -> Word:
    return tuple([ord(x) - 1 for x in s])


@dataclass(frozen=True, eq=False)
class RewriteSystem:
    num_gens: int
    rules: tuple[tuple[Word, NCPoly], ...]  # leading word -> lower remainder
    degree_bound: int
    confluent_up_to: bool
    overlaps_skipped: int = 0  # by the degree bound, in the last overlap pass
    _index: tuple = field(init=False, repr=False, compare=False)
    # tuple word -> its normal form, a dict of tuple words
    _normal_forms: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(not 0 <= g < self.num_gens for lw, _ in self.rules for g in lw):
            raise InputError("generator index out of range in a leading word")
        if any(not 0 <= g < self.num_gens for _, rhs in self.rules for w in rhs.terms for g in w):
            raise InputError("generator index out of range in a rule right side")
        leading = [_to_str(lw) for lw, _ in self.rules]
        # reduced: each leading word occurs once in the text of all of them
        text = "\0".join(leading)
        for lw, (word, rhs) in zip(leading, self.rules):
            if text.count(lw) != 1:
                raise InputError("a leading word is a factor of another")
            for w in rhs.terms:
                if deglex_key(w) >= deglex_key(word):
                    raise InputError("rule right side is not deglex-smaller")
        table = {
            lw: {_to_str(w): c for w, c in rhs.terms.items()}
            for lw, (_, rhs) in zip(leading, self.rules)
        }
        object.__setattr__(self, "_index", (table, _lengths(table)))
        object.__setattr__(self, "_normal_forms", {})


def _lengths(table) -> list:
    """The distinct leading-word lengths of a rule table, in increasing order."""
    return sorted({len(lw) for lw in table})


def _redex(word: str, index):
    """(start, end, rhs) of the first position holding a leading word, which
    in a reduced system is the only one there; None if the word is
    irreducible.  The empty word is probed at position 0 too, where only the
    empty leading word of a constant relation matches it: once the ideal
    contains 1, every word rewrites to 0."""
    table, lengths = index
    n = len(word)
    for pos in range(n or 1):
        for length in lengths:
            end = pos + length
            if end > n:
                break
            rhs = table.get(word[pos:end])
            if rhs is not None:
                return pos, end, rhs
    return None


def _linear(terms: dict, memo: dict) -> dict:
    """The sum of c * memo[w] over the terms c w, zeros dropped."""
    out = {}
    for w, c in terms.items():
        for v, d in memo[w].items():
            out[v] = out.get(v, 0) + c * d
    return {v: exact(x) for v, x in out.items() if x}


def _fill(words: list, index, memo: dict) -> None:
    """Put the normal form of each word into memo, with that of every word
    met on the way; the list of words is used up.  A word's rewrite is
    expanded on an explicit stack, not by recursion, since a chain of
    single-term rules may be thousands long; every replacement word is
    deglex-smaller, so the stack empties."""
    todo = words
    replaced = {}  # word -> its one-step rewrite {replacement word: coefficient}
    while todo:
        w = todo[-1]
        if w in memo:
            todo.pop()
            continue
        step = replaced.get(w)
        if step is None:
            hit = _redex(w, index)
            if hit is None:
                memo[w] = {w: 1}
                todo.pop()
                continue
            start, end, rhs = hit
            prefix, suffix = w[:start], w[end:]
            step = replaced[w] = {prefix + v + suffix: d for v, d in rhs.items()}
            missing = [u for u in step if u not in memo]
            if missing:
                todo += missing
                continue
        todo.pop()
        memo[w] = _linear(step, memo)


def _reduce(p: dict, index, memo: dict) -> dict:
    """The normal form of a polynomial of string words, by linearity: the
    sum of its words' normal forms, each found in memo or computed into it."""
    missing = [w for w in p if w not in memo]
    if missing:
        _fill(missing, index, memo)
    return _linear(p, memo)


def word_normal_forms(words, system: RewriteSystem) -> dict:
    """The system's memo {tuple word: its normal form, a dict of tuple words},
    holding at least the given words; callers only read it.  Each missing
    normal form is computed once and kept, so later calls reuse it."""
    memo = system._normal_forms
    missing = {w: _to_str(w) for w in words if w not in memo}
    if missing:
        found = {}  # string word -> normal form, for this call
        _fill(list(missing.values()), system._index, found)
        for w, s in missing.items():
            memo[w] = {_to_tuple(v): c for v, c in found[s].items()}
    return memo


def reduce_normal_form(p: NCPoly, system: RewriteSystem) -> NCPoly:
    """Rewrite until no term contains a rule's leading word; terminates since
    every step is deglex-decreasing.  By linearity, the sum of the c nf(w)
    over the terms c w of p, from ``word_normal_forms``."""
    return NCPoly._trusted(_linear(p.terms, word_normal_forms(p.terms, system)))


def _orient(p: dict) -> tuple[str, dict]:
    """A nonzero polynomial of string words as the rule lw -> rhs."""
    lw = max(p, key=deglex_key)
    lc = p[lw]
    if lc == 1:
        return lw, {w: -c for w, c in p.items() if w != lw}
    if lc == -1:
        return lw, {w: c for w, c in p.items() if w != lw}
    f = Fraction(-1) / lc
    return lw, {w: exact(f * c) for w, c in p.items() if w != lw}


def _add_and_interreduce(rules: list, pending: list) -> None:
    """Drain pending polynomials into the rule list, keeping it inter-reduced.
    Rules and polynomials are on string words.  The rules must form a
    reduced system, and they still do after: a new leading word is
    irreducible by the rules, since its polynomial was reduced by them, and
    every rule that contains it goes back to pending.

    A rule goes back to pending when the new leading word is a factor of one
    of its words: a substring of its words joined by NUL, which is in no
    word, so no factor straddles two words.  The empty word is a factor of
    every rule.  The index is updated in place, and the rule and text lists
    are rebuilt only when some rule goes back to pending.  A length whose
    last rule went back stays listed: it costs _redex a missed probe.  The
    memo of normal forms is cleared whenever the index changes.
    """
    table = dict(rules)
    lengths = _lengths(table)
    index = table, lengths
    texts = ["\0".join([lw, *rhs]) for lw, rhs in rules]
    memo = {}
    while pending:
        p = _reduce(pending.pop(0), index, memo)
        if not p:
            continue
        lw, rhs = _orient(p)
        requeued = [i for i, text in enumerate(texts) if lw in text]
        if requeued:
            for i in requeued:
                old_lw, old_rhs = rules[i]
                pending.append({old_lw: 1, **{w: -c for w, c in old_rhs.items()}})
                del table[old_lw]
            gone = set(requeued)
            rules[:] = [r for i, r in enumerate(rules) if i not in gone]
            texts = [t for i, t in enumerate(texts) if i not in gone]
        table[lw] = rhs
        if len(lw) not in lengths:
            insort(lengths, len(lw))
        rules.append((lw, rhs))
        texts.append("\0".join([lw, *rhs]))
        memo.clear()


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


def _str_terms(p: NCPoly) -> dict:
    return {_to_str(w): c for w, c in p.terms.items()}


def _leading_key(p: dict):
    """The deglex key of the leading word of a polynomial of string words."""
    return max(map(deglex_key, p))


def _is_homogeneous(p: NCPoly) -> bool:
    return len({len(w) for w in p.terms}) <= 1


def complete_rules_up_to(
    pres: AlgebraPresentation, degree_bound: int = DEFAULT_DEGREE_BOUND
) -> RewriteSystem:
    """Close overlap ambiguities among leading words up to the degree bound.

    Deterministic for a fixed generator order.  The result is flagged
    confluent when a full overlap pass produced no new rule and either that
    pass skipped no overlap for the bound, or every relation is homogeneous
    (then the rules of degree at most the bound are exact).  A second call
    on the same presentation and bound returns the same system.
    """
    kept = pres._completions.get(degree_bound)
    if kept is not None:
        return kept
    max_rel_deg = max((r.degree() for r in pres.relations), default=0)
    if degree_bound < max_rel_deg:
        raise InputError(
            f"degree bound {degree_bound} is below the maximal relation degree {max_rel_deg}"
        )
    if pres._seed is not None and pres._seed[0] == degree_bound:
        _, start, intake = pres._seed
        rules = [(_to_str(lw), _str_terms(rhs)) for lw, rhs in start]
    else:
        rules, intake = [], pres.relations
    # the seed's rules stand as the previous pass's: their overlaps resolve
    previous = dict(rules)
    _add_and_interreduce(rules, sorted(map(_str_terms, intake), key=_leading_key))
    confluent = False
    skipped = 0
    for _ in range(_COMPLETION_PASS_CAP):
        rules.sort(key=lambda r: deglex_key(r[0]))
        table = dict(rules)
        index, memo = (table, _lengths(table)), {}
        fresh = {lw for lw, rhs in rules if rhs != previous.get(lw)}
        previous = table
        new_polys = []
        skipped = 0
        for lw1, rhs1, lw2, rhs2, k in _overlaps(rules):
            if len(lw1) + len(lw2) - k > degree_bound:
                skipped += 1
                continue
            if lw1 not in fresh and lw2 not in fresh:
                continue  # reduced in the previous pass
            # superposition lw1 . lw2[k:] = lw1[:-k] . lw2
            tail, head = lw2[k:], lw1[: len(lw1) - k]
            s = {v + tail: c for v, c in rhs1.items()}
            for v, c in rhs2.items():
                s[head + v] = s.get(head + v, 0) - c
            s = _reduce(s, index, memo)
            if s:
                new_polys.append(s)
        if not new_polys:
            confluent = skipped == 0 or all(map(_is_homogeneous, pres.relations))
            break
        new_polys.sort(key=_leading_key)
        _add_and_interreduce(rules, new_polys)
    rules.sort(key=lambda r: deglex_key(r[0]))
    out = tuple(
        (_to_tuple(lw), NCPoly._trusted({_to_tuple(w): c for w, c in rhs.items()}))
        for lw, rhs in rules
    )
    system = RewriteSystem(pres.num_gens, out, degree_bound, confluent, skipped)
    pres._completions[degree_bound] = system
    return system


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

    letters = [chr(g + 1) for g in range(system.num_gens)]
    count = 0
    stack = [] if ends_reducible("") else [""]
    while stack:
        w = stack.pop()
        if len(w) == degree:
            count += 1
            continue
        for x in letters:
            nxt = w + x
            if not ends_reducible(nxt):
                stack.append(nxt)
    return count
