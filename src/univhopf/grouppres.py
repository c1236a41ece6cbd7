"""Finitely presented groups.

Words are tuples of nonzero ints: letter ``+(g+1)`` is generator ``g``,
``-(g+1)`` its inverse.  All group-level questions here are bounded
semi-decisions; ``todd_coxeter_order`` answers ``None`` (Unknown) when the
coset enumeration (Felsch's strategy: a new coset only where no relator
scan deduces the entry) does not close within its limit, and at once,
without enumerating, when the abelianization has a free factor (a 0 among
the abelian invariants), since the group is then infinite.
``tietze_simplify`` eliminates generators that occur once in a relator,
shortest relator first, while the presentation stays no longer than its
input, and shortens relators by pieces of others when it cannot; at most
``effort`` passes.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError

DEFAULT_COSET_LIMIT = 100_000
DEFAULT_TIETZE_EFFORT = 50

Word = tuple[int, ...]


def free_reduce_word(w) -> Word:
    """Cancel adjacent x x^-1 pairs; idempotent."""
    out: list[int] = []
    for letter in w:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(w) -> Word:
    return tuple(-x for x in reversed(w))


@dataclass(frozen=True)
class GroupPresentation:
    num_gens: int
    relators: tuple[Word, ...]
    gen_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.gen_labels is not None and len(self.gen_labels) != self.num_gens:
            raise InputError("generator label count does not match")
        for w in self.relators:
            for x in w:
                if x == 0 or abs(x) > self.num_gens:
                    raise InputError(f"letter {x} out of range in relator {w}")
            if free_reduce_word(w) != tuple(w):
                raise InputError(f"relator {w} is not freely reduced")

    @cached_property
    def _invariants(self) -> tuple[int, ...]:
        # abelian_invariants, one Smith form per presentation
        rows = []
        for w in self.relators:
            exps = [0] * self.num_gens
            for x in w:
                exps[abs(x) - 1] += 1 if x > 0 else -1
            rows.append(exps)
        diag = _smith_diagonal(rows, self.num_gens)
        nonzero = [d for d in diag if d != 0]
        return tuple(d for d in nonzero if d != 1) + (0,) * (self.num_gens - len(nonzero))


def presentation(num_gens, relators, gen_labels=None) -> GroupPresentation:
    """Build a presentation, freely reducing relators and dropping trivial ones."""
    reduced = dict.fromkeys(map(free_reduce_word, relators))
    reduced.pop((), None)
    return GroupPresentation(
        num_gens, tuple(reduced), tuple(gen_labels) if gen_labels else None
    )


# ---------------------------------------------------------------------------
# abelian invariants via the Smith normal form of the exponent matrix


def _smith_diagonal(rows, ncols):
    """Diagonal of the Smith normal form of an integer matrix (list of rows).

    Each step pivots on an entry of least absolute value and clears its
    column and row.  A remainder left by clearing, or an entry the pivot
    does not divide (moved into the pivot row and reduced there), gives a
    smaller pivot on the next step; otherwise the pivot is a diagonal entry
    and its row and column are dropped.
    """
    m = [list(r) for r in rows]
    diag = []
    while True:
        flat = [abs(x) for row in m for x in row]
        least = min(filter(None, flat), default=0)
        if not least:
            return diag
        pi, pj = divmod(flat.index(least), ncols)
        p, prow = m[pi][pj], m[pi]
        for i, row in enumerate(m):
            if i != pi and row[pj]:
                q = row[pj] // p
                m[i] = [a - q * b for a, b in zip(row, prow)]
        for j in range(ncols):
            if j != pj and prow[j]:
                q = prow[j] // p
                for row in m:
                    row[j] -= q * row[pj]
        if any(prow[j] for j in range(ncols) if j != pj) or any(
            row[pj] for i, row in enumerate(m) if i != pi
        ):
            continue
        # a unit pivot divides every entry
        bad = least > 1 and next(
            ((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x % p),
            None,
        )
        if bad:
            # column pj is zero off the pivot, so only the pivot row changes
            m[pi] = [a + b for a, b in zip(prow, m[bad[0]])]
            m[pi][bad[1]] %= p
            continue
        diag.append(least)
        m = [row[:pj] + row[pj + 1:] for i, row in enumerate(m) if i != pi and any(row)]
        ncols -= 1


def abelian_invariants(pres: GroupPresentation) -> list[int]:
    """Invariant factors of the abelianization; 0 marks a free factor.

    Finite factors come first in their divisibility chain, then one 0 per
    infinite cyclic factor.  The Smith form is computed once per
    presentation object; each call returns a fresh list.
    """
    return list(pres._invariants)


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration over the trivial subgroup (Felsch strategy)


def _cyclic_reduce(w: Word) -> Word:
    """The cyclically reduced core of a freely reduced word: a conjugate."""
    i = 0
    while 2 * i + 1 < len(w) and w[i] == -w[-1 - i]:
        i += 1
    return w[i : len(w) - i]


def todd_coxeter_order(
    pres: GroupPresentation, coset_limit: int = DEFAULT_COSET_LIMIT
) -> int | None:
    """Exact group order, or None if enumeration does not close within the limit.

    None comes at once, without enumerating, when the abelianization has a
    free factor: the group is then infinite, so no coset table over the
    trivial subgroup closes within any limit.  Otherwise Felsch's strategy
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 5.2):
    the relators are scanned at coset 0, and then each new coset fills the
    first undefined entry, in coset order and then column order.  Scans
    never define cosets; every entry they deduce or a coincidence moves is
    a deduction, whose cyclic relator conjugates through it are scanned
    before the next definition.  The order is deterministic, so infinite
    groups run into the limit instead of closing.  ``coset_limit`` caps
    the cosets defined, coset 0 included.
    """
    if coset_limit < 1:
        raise InputError("coset limit must be at least 1")
    if pres.num_gens == 0:
        return 1
    if 0 in abelian_invariants(pres):
        return None
    ncols = 2 * pres.num_gens
    # letter g+1 is column 2g and its inverse column 2g+1, so d ^ 1 inverts d
    rels = [
        tuple(2 * x - 2 if x > 0 else -2 * x - 1 for x in _cyclic_reduce(w))
        for w in pres.relators
    ]
    # the cyclic conjugates of the relators and their inverses, by first column
    starts: list[list[tuple[int, ...]]] = [[] for _ in range(ncols)]
    for w in dict.fromkeys(
        v[t:] + v[:t]
        for r in rels
        for v in (r, tuple(d ^ 1 for d in reversed(r)))
        for t in range(len(v))
    ):
        starts[w[0]].append(w)
    table = [[None] * ncols]
    parent = [0]  # union-find over cosets; a coset is live when it is its own root
    deductions: list[tuple[int, int]] = []

    def rep(c: int) -> int:
        r = c
        while parent[r] != r:
            r = parent[r]
        while parent[c] != r:
            parent[c], c = r, parent[c]
        return r

    def coincidence(a: int, b: int) -> None:
        # Holt's COINCIDENCE: the larger coset dies, and the entries of each
        # dead coset move onto the live one, each move a deduction
        queue: list[int] = []

        def merge(k: int, l: int) -> None:
            k, l = rep(k), rep(l)
            if k != l:
                if l < k:
                    k, l = l, k
                parent[l] = k
                queue.append(l)

        merge(a, b)
        for g in queue:
            for x, d in enumerate(table[g]):
                if d is None:
                    continue
                table[d][x ^ 1] = None
                m, n = rep(g), rep(d)
                if table[m][x] is not None:
                    merge(n, table[m][x])
                elif table[n][x ^ 1] is not None:
                    merge(m, table[n][x ^ 1])
                else:
                    table[m][x], table[n][x ^ 1] = n, m
                    deductions.append((m, x))

    def scan(a: int, words: list[tuple[int, ...]]) -> None:
        # each word read forward from a to its first gap, then backward from
        # a to that gap: a single gap is filled as a deduction, and a walk
        # that ends at another coset, or whose ends meet across a defined
        # entry, is a coincidence; stop once a dies
        for w in words:
            f = a
            for i, x in enumerate(w):
                n = table[f][x]
                if n is None:
                    break
                f = n
            else:
                if f != a:
                    coincidence(f, a)
                    if parent[a] != a:
                        return
                continue
            b = a
            for j in range(len(w) - 1, i, -1):
                b = table[b][w[j] ^ 1]
                if b is None:
                    break  # a second gap
            else:
                n = table[b][x ^ 1]
                if n is None:
                    table[f][x], table[b][x ^ 1] = b, f
                    deductions.append((f, x))
                else:
                    coincidence(f, n)
                    if parent[a] != a:
                        return

    # every cycle through the entry (c, x) is a conjugate starting with x
    # read at c, since the conjugates are closed under inversion
    scan(0, rels)
    c = 0  # no live coset before c has an undefined entry
    while True:
        while deductions:
            a, x = deductions.pop()
            if parent[a] == a:
                scan(a, starts[x])
        while c < len(table) and (parent[c] != c or None not in table[c]):
            c += 1
        if c == len(table):
            break
        if len(table) >= coset_limit:
            return None
        x = table[c].index(None)
        table[c][x] = len(table)
        table.append([None] * ncols)
        table[-1][x ^ 1] = c
        parent.append(len(parent))
        deductions.append((c, x))

    live = [c for c in range(len(table)) if parent[c] == c]
    # closed-table sanity sweep
    for c in live:
        if any(n is None or parent[n] != n for n in table[c]):
            raise RuntimeError(f"coset table not closed at coset {c}")
        for w in rels:
            x = c
            for d in w:
                x = table[x][d]
            if x != c:
                raise RuntimeError(f"relator does not close at coset {c}")
    return len(live)


# ---------------------------------------------------------------------------
# Tietze simplification


def _first_shortening(relators: list[Word]) -> tuple[int, Word] | None:
    """The first rewrite of relator j by a majority piece of relator i != j,
    in the order (i by length then index, j, rotation of relator i then of
    its inverse, start), as (j, rewritten relator j); None if there is none.

    The piece of a length-n relator has length n//2 + 1 and is replaced by the
    inverse of its complement, which is shorter, so every occurrence shortens
    relator j.  Every relator here has length at least 2.  The factors of
    each piece length are indexed once per call, with their (j, start) in order.
    """
    index: dict[int, dict[Word, list[tuple[int, int]]]] = {}
    for i in sorted(range(len(relators)), key=lambda i: (len(relators[i]), i)):
        rel = relators[i]
        n, k = len(rel), len(rel) // 2 + 1
        if k not in index:
            index[k] = {}
            for j, w in enumerate(relators):
                for s in range(len(w) - k + 1):
                    index[k].setdefault(w[s : s + k], []).append((j, s))
        best = None
        for r, rot in enumerate(
            b[t:] + b[:t] for b in (rel, invert_word(rel)) for t in range(n)
        ):
            hit = next((h for h in index[k].get(rot[:k], ()) if h[0] != i), None)
            if hit is not None and (best is None or (hit[0], r) < best[:2]):
                best = (hit[0], r, hit[1], rot)
        if best is not None:
            j, _, s, rot = best
            w = relators[j]
            return j, free_reduce_word(w[:s] + invert_word(rot[k:]) + w[s + k :])
    return None


def _relator_form(w: Word) -> tuple[Word, Word]:
    """A freely reduced relator as Tietze keeps it: its cyclically reduced
    core, inverted when most letters are inverses, and a key shared by the
    cyclic conjugates of it and of its inverse (their least rotation)."""
    w = _cyclic_reduce(w)
    if not w:
        return w, w
    inverse = invert_word(w)
    if 2 * sum(x < 0 for x in w) > len(w):
        w, inverse = inverse, w
    least = min(min(w), -max(w))  # the least rotation starts with it
    return w, min(b[t:] + b[:t] for b in (w, inverse) for t, x in enumerate(b) if x == least)


def tietze_simplify(
    pres: GroupPresentation, effort: int = DEFAULT_TIETZE_EFFORT
) -> tuple[GroupPresentation, tuple[Word, ...]]:
    """Best-effort simplification to a presentation of an isomorphic group.

    Generator elimination after Havas, Kenne, Richardson and Robertson, "A
    Tietze transformation program" (1984).  Relators are kept in
    ``_relator_form``, and of those with one key only the first.  Each of at
    most ``effort`` passes eliminates generators one by one: a generator
    that occurs once in a relator is replaced, in the relators that contain
    it, by the rest of that relator, taking the shortest such relator first
    (then the earliest) and the highest-numbered such generator in it.  The
    pass eliminates no further once there is none, or once that elimination
    would make the total relator length exceed the input's, so no output is
    longer than its input.  A pass that eliminates nothing shortens one
    relator by the majority piece of a cyclic conjugate of another (or of
    its inverse) instead, and the run stops at a pass that can do neither.
    Generators are renumbered once, at the end.  Returns the new
    presentation together with the image of each original generator as a
    word in the new generators.
    """
    if effort < 1:
        raise InputError("Tietze effort must be at least 1")
    budget = sum(map(len, pres.relators))
    rels: list[tuple[Word, Word] | None] = []  # (form, key) by position
    where: dict[Word, int] = {}  # key -> position
    touching: list[set[int]] = [set() for _ in range(pres.num_gens)]
    eliminated: list[tuple[int, Word]] = []  # (generator, image) in order

    def drop(q: int) -> None:
        w, k = rels[q]
        rels[q] = None
        del where[k]
        for x in w:
            touching[abs(x) - 1].discard(q)

    def put(q: int, form: tuple[Word, Word]) -> None:
        # position q is empty; the earlier of two relators with one key stays
        p = where.get(form[1], q)
        if form[0] and p >= q:
            if p > q:
                drop(p)
            rels[q], where[form[1]] = form, q
            for x in form[0]:
                touching[abs(x) - 1].add(q)

    def eliminate() -> bool:
        # the first candidate, if its elimination keeps the total length
        # within the budget
        order = sorted((len(r[0]), q) for q, r in enumerate(rels) if r)
        for _, q in order:
            w = rels[q][0]
            gens = [abs(x) - 1 for x in w]
            once = [g for g in gens if gens.count(g) == 1]
            if once:
                break
        else:
            return False
        gen = max(once)
        i = gens.index(gen)
        rest = w[i + 1 :] + w[:i]  # w[i] rest = 1 is a conjugate of w
        image = rest if w[i] < 0 else invert_word(rest)
        inverse = invert_word(image)
        others = sorted(touching[gen] - {q})
        new = [
            _relator_form(free_reduce_word([
                y for x in rels[p][0]
                for y in ((x,) if abs(x) - 1 != gen else image if x > 0 else inverse)
            ]))
            for p in others
        ]
        gone = {q, *others}
        kept = {k: len(v) for v, k in new if v and where.get(k, q) in gone}
        total = sum(n for n, _ in order)
        if total - sum(len(rels[p][0]) for p in gone) + sum(kept.values()) > budget:
            return False
        for p in gone:
            drop(p)
        for p, form in zip(others, new):
            put(p, form)
        eliminated.append((gen, image))
        return True

    for w in pres.relators:
        rels.append(None)
        put(len(rels) - 1, _relator_form(w))
    for _ in range(effort):
        if eliminate():
            while eliminate():
                pass
            continue
        # bounded rewriting: shorten one relator by a piece of another
        live = [q for q, r in enumerate(rels) if r]
        hit = _first_shortening([rels[q][0] for q in live])
        if hit is None:
            break
        drop(live[hit[0]])
        put(live[hit[0]], _relator_form(hit[1]))

    gone = {g for g, _ in eliminated}
    number = {g: i + 1 for i, g in enumerate(g for g in range(pres.num_gens) if g not in gone)}
    images = {g: (n,) for g, n in number.items()}
    # an image mentions only generators kept or eliminated after it
    for g, image in reversed(eliminated):
        images[g] = free_reduce_word(
            [y for x in image for y in (images[x - 1] if x > 0 else invert_word(images[-x - 1]))]
        )
    relators = tuple(
        tuple(number[x - 1] if x > 0 else -number[-x - 1] for x in r[0]) for r in rels if r
    )
    return GroupPresentation(len(number), relators), tuple(images[g] for g in range(pres.num_gens))
