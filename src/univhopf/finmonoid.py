"""Finite monoids by multiplication table: the monoid a unital magma carries,
congruences, quotients, inverses, unit groups and group completions."""

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import InputError, PreconditionError
from .signature import (
    FinSetMagma,
    omega_congruence_closure,
    quotient_magma,
    set_magma_from_monoid_table,
)


@dataclass(frozen=True)
class FinMonoid:
    table: tuple[tuple[int, ...], ...]
    unit: int

    def __post_init__(self):
        n = len(self.table)
        rng = range(n)
        if n == 0:
            raise InputError(
                "multiplication table is empty; a monoid needs at least its unit"
            )
        if any(len(row) != n for row in self.table):
            raise InputError("multiplication table is not square")
        try:  # each distinct entry once; an unhashable one is no index
            entries = set(chain.from_iterable(self.table))
        except TypeError:
            entries = (None,)
        if not all(map(rng.__contains__, entries)):
            raise InputError("table entry out of range")
        if self.unit not in rng:
            raise InputError("unit index out of range")
        e = self.unit
        if any(self.table[e][x] != x or self.table[x][e] != x for x in rng):
            raise PreconditionError("unit element is not a two-sided identity")
        # one row per (a, b): (ab)c over all c is the row of ab, and a(bc)
        # is row a read through row b, one itemgetter call.  Rows are made
        # tuples to compare with itemgetter's; one element is associative,
        # and a one-item itemgetter returns no tuple
        rows = tuple(map(tuple, self.table))
        through = [itemgetter(*row) for row in rows] if n > 1 else ()
        for a, row in enumerate(rows):
            for b, (ab, read) in enumerate(zip(row, through)):
                lhs, rhs = rows[ab], read(row)
                if lhs != rhs:
                    c = next(c for c in rng if lhs[c] != rhs[c])
                    raise PreconditionError(
                        f"table is not associative at ({a}, {b}, {c})"
                    )

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


def monoid_from_rows(rows, unit: int) -> FinMonoid:
    return FinMonoid(tuple(tuple(r) for r in rows), unit)


def monoid_of_magma(magma: FinSetMagma) -> FinMonoid:
    """Extract and validate the monoid carried by a mu/unit-style magma: its
    signature's first binary product and first unit (``unital_ops``)."""
    mu_name, unit_name = magma.signature.unital_ops()
    if mu_name is None or unit_name is None:
        raise PreconditionError(
            "the signature does not include a binary product and a unit"
        )
    n = magma.size
    rows = [[magma.apply(mu_name, (i, j))[0] for j in range(n)] for i in range(n)]
    unit = magma.apply(unit_name, ())[0]
    try:
        return monoid_from_rows(rows, unit)
    except InputError as exc:
        raise PreconditionError(f"the carrier is not a monoid: {exc}") from exc


@dataclass(frozen=True)
class Congruence:
    """A translation-closed equivalence, stored as a class index per element;
    the classes are numbered 0..k-1 with each number used."""

    class_of: tuple[int, ...]

    def __post_init__(self):
        if set(self.class_of) != set(range(self.num_classes)):
            raise InputError("congruence classes must be numbered 0..k-1, each used")

    @property
    def num_classes(self) -> int:
        return max(self.class_of) + 1 if self.class_of else 0


def congruence_closure(m: FinMonoid, pairs) -> Congruence:
    """Least translation-closed equivalence on m containing the given pairs:
    the operation-respecting closure of the pairs in m's mu/unit magma."""
    magma = set_magma_from_monoid_table(m.table, m.unit)
    return Congruence(omega_congruence_closure(magma, pairs))


def is_congruence(m: FinMonoid, c: Congruence) -> bool:
    cls = c.class_of
    n = m.size
    return all(
        cls[m.mul(a, x)] == cls[m.mul(b, x)] and cls[m.mul(x, a)] == cls[m.mul(x, b)]
        for a in range(n)
        for b in range(n)
        if cls[a] == cls[b]
        for x in range(n)
    )


def quotient_monoid(m: FinMonoid, c: Congruence):
    """Quotient table on congruence classes; returns (monoid, projection)."""
    if len(c.class_of) != m.size:
        raise InputError("congruence size does not match the monoid")
    if not is_congruence(m, c):
        raise PreconditionError("partition is not translation-closed")
    magma = set_magma_from_monoid_table(m.table, m.unit)
    return monoid_of_magma(quotient_magma(magma, c.class_of)), tuple(c.class_of)


def inverses(m: FinMonoid) -> dict:
    """Each two-sided invertible element mapped to its inverse, in
    increasing order of the element."""
    e, t, rng = m.unit, m.table, range(m.size)
    found = ((x, next((y for y in rng if t[x][y] == e == t[y][x]), None)) for x in rng)
    return {x: y for x, y in found if y is not None}


def is_group(m: FinMonoid) -> bool:
    return len(inverses(m)) == m.size


def unit_group(m: FinMonoid):
    """The group of two-sided invertible elements; returns (group, inclusion)."""
    members = list(inverses(m))
    pos = {x: i for i, x in enumerate(members)}
    table = tuple(tuple(pos[m.mul(x, y)] for y in members) for x in members)
    g = FinMonoid(table, pos[m.unit])
    if not is_group(g):
        raise RuntimeError("the invertible elements do not form a group")
    return g, tuple(members)


def grothendieck_group(m: FinMonoid):
    """Group completion: one generator per element, one relator per product.

    Returns a presentation with generators g_0..g_{n-1}, relators
    g_i g_j g_{ij}^{-1} for every product and the relator g_e.
    """
    from .grouppres import GroupPresentation, free_reduce_word

    n = m.size
    relators = [(m.unit + 1,)]
    for i in range(n):
        for j in range(n):
            w = free_reduce_word((i + 1, j + 1, -(m.mul(i, j) + 1)))
            if w:
                relators.append(w)
    return GroupPresentation(n, tuple(relators))


