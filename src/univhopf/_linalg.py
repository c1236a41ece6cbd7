"""Exact linear algebra over the rationals: the vectors and matrices built
here are tuples (of tuples) of Fraction.  ``exact`` turns an integral
rational into the equal ``int``, the form in which ncalg keeps integral
polynomial coefficients and coact's sparse structure tables (and the
products computed on them) keep integral constants: an ``int`` compares and
hashes equal to its Fraction and is far cheaper to add and multiply.

``check_exact`` is the one test of an exact scalar, called by every entry
point that takes rational data: an ``int`` or a Fraction, nothing else."""

from fractions import Fraction

from .errors import InputError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def check_exact(what, xs):
    """Raise InputError("non-exact <what>") unless every x in xs is an int or
    a Fraction."""
    for x in xs:
        if not isinstance(x, (int, Fraction)):
            raise InputError(f"non-exact {what}")


def exact(x):
    """x as an int when it is integral, else x unchanged."""
    return x.numerator if x.denominator == 1 else x


def vec(xs) -> Vec:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in xs)


def rref(rows) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(vec(r)) for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(vec(m[i]) for i in range(r)), tuple(pivots)


def row_space_basis(vectors) -> Mat:
    """Canonical (RREF) basis of the span of the given vectors."""
    basis, _ = rref(vectors)
    return basis


def rank(vectors) -> int:
    return len(row_space_basis(vectors))

