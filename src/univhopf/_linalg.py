"""Exact linear algebra over the rationals: the vectors and matrices built
here are tuples (of tuples) of Fraction.  ``exact`` turns an integral
rational into the equal ``int``, the form in which ncalg keeps integral
polynomial coefficients and coact's sparse structure tables (and the
products computed on them) keep integral constants: an ``int`` compares and
hashes equal to its Fraction and is far cheaper to add and multiply."""

from fractions import Fraction

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def exact(x):
    """x as an int when it is integral, else x unchanged."""
    return x.numerator if x.denominator == 1 else x


def vec(xs) -> Vec:
    return tuple(frac(x) for x in xs)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


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


def solve(a: Mat, b: Vec) -> Vec | None:
    """One exact solution x of a·x = b, or None if inconsistent."""
    if not a:
        return () if all(x == 0 for x in b) else None
    ncols = len(a[0])
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    reduced, pivots = rref(aug)
    for row in reduced:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, p in zip(reduced, pivots):
        if p == ncols:
            return None
        x[p] = row[-1]
    return tuple(x)
