"""Supports and cosupports of linear maps, comodule support extraction,
comeasuring verification, the Tambara / Manin universal presentations, and
the one sparse checker of the (co)algebra, bialgebra and Hopf axioms.

A map rho: A -> B (x) Q is stored by its coefficient vectors q[beta][alpha]
in Q, meaning rho(a_alpha) = sum_beta b_beta (x) q[beta][alpha].  Its support
is the row space of the q's; rho is a tensor epimorphism exactly when that
row space is all of Q.  The support basis is in RREF, so a vector's
coordinates in it are its entries at the pivot columns.  The comodule axioms
are the coalgebra axioms of k (+) V (+) C, checked by the same checker.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from ._linalg import Vec, check_exact, exact, rank, row_space_basis, rref
from .errors import InputError, PreconditionError
from .grading import Grading, grading_support
from .ncalg import AlgebraPresentation, NCPoly
from .signature import FinVectMagma, coordinate_identities


@dataclass(frozen=True, eq=False)
class TensorValuedMap:
    dim_in: int  # dim A
    dim_out: int  # dim B
    dim_coeff: int  # dim Q
    entries: tuple  # entries[beta][alpha] is a Q-vector

    def __post_init__(self):
        if len(self.entries) != self.dim_out:
            raise InputError("entry rows do not match the target dimension")
        for row in self.entries:
            if len(row) != self.dim_in:
                raise InputError("entry columns do not match the source dimension")
            for q in row:
                if len(q) != self.dim_coeff:
                    raise InputError("coefficient vector length does not match Q")
                check_exact("coefficient", q)

    def q(self, beta: int, alpha: int) -> Vec:
        return self.entries[beta][alpha]


def _all_coefficients(rho: TensorValuedMap):
    return [
        rho.entries[beta][alpha]
        for beta in range(rho.dim_out)
        for alpha in range(rho.dim_in)
    ]


def support_of_map(rho: TensorValuedMap):
    """Row-reduced basis of span{q[beta][alpha]} plus the corestriction.

    Returns (basis, corestricted) where basis rows are vectors in Q and the
    corestricted map has coefficients written in that basis: in an RREF
    basis they are the entries of q at the pivot columns.
    """
    basis, pivots = rref(_all_coefficients(rho))
    new_entries = []
    for beta in range(rho.dim_out):
        row = []
        for alpha in range(rho.dim_in):
            q = rho.entries[beta][alpha]
            coords = tuple(q[p] for p in pivots)
            if q != tuple(
                sum(x * b[j] for x, b in zip(coords, basis)) for j in range(len(q))
            ):
                raise RuntimeError(f"coefficient ({beta},{alpha}) is outside the support")
            row.append(coords)
        new_entries.append(tuple(row))
    return basis, TensorValuedMap(
        rho.dim_in, rho.dim_out, len(basis), tuple(new_entries)
    )


def is_tensor_epimorphism(rho: TensorValuedMap) -> bool:
    """True iff the q-coefficients span all of Q."""
    return rank(_all_coefficients(rho)) == rho.dim_coeff


# ---------------------------------------------------------------------------
# one sparse checker for the (co)algebra, bialgebra and Hopf axioms


class _Outside(Exception):
    """An axiom instance touched a basis key outside the window."""


def _add_scaled(acc: dict, terms: dict, c) -> None:
    for key, x in terms.items():
        acc[key] = acc.get(key, 0) + c * x


def _nonzero(d: dict) -> dict:
    return {key: x for key, x in d.items() if x}


def check_axioms(
    basis, mul=None, unit=None, delta=None, eps=None, antipode=None, inside=None
):
    """Check, instance by instance, every axiom that the given maps define.

    The basis is a sequence of hashable keys.  mul(a, b), delta(a) and
    antipode(a) return sparse {key: coefficient} dicts (delta's keys are
    pairs of basis keys), unit is such a dict and eps(a) a scalar.  With mul
    (and unit): associativity and unit; with delta (and eps): coassociativity
    and counit; with all four: both multiplicativity axioms; with the
    antipode too: both antipode axioms.

    An instance is skipped exactly when a basis key that it touches, in its
    inputs (the unit's keys included where the axiom uses it), intermediate
    values or results, is not inside(key); without inside nothing is
    skipped.  Returns (name, verified, skipped, failures)
    per axiom, the failures in basis order as (i, j, k), i, (i, j) or "unit".
    """
    basis = tuple(basis)
    results = []

    def guarded(f, pairs=False):
        # f memoised, raising _Outside when its value touches an outside key
        if f is None or inside is None:
            return f
        memo = {}

        def call(*args):
            if args not in memo:
                out = f(*args)
                keys = [x for key in out for x in key] if pairs else out
                memo[args] = out if all(map(inside, keys)) else None
            out = memo[args]
            if out is None:
                raise _Outside
            return out

        return call

    m, d, s = guarded(mul), guarded(delta, pairs=True), guarded(antipode)

    def run(name, check, arity, unit_check=None, uses_unit=False):
        verified = skipped = 0
        failures = []
        extra = [()] if unit_check else []
        for args in [*product(basis, repeat=arity), *extra]:
            touched = (*args, *unit) if uses_unit or not args else args
            try:
                if inside is not None and not all(map(inside, touched)):
                    raise _Outside
                ok = check(*args) if args else unit_check()
            except _Outside:
                skipped += 1
                continue
            verified += 1
            if not ok:
                failures.append(args[0] if arity == 1 else args or "unit")
        results.append((name, verified, skipped, tuple(failures)))

    def associative(i, j, k):
        lhs, rhs = {}, {}
        for a, c in m(i, j).items():
            _add_scaled(lhs, m(a, k), c)
        for b, c in m(j, k).items():
            _add_scaled(rhs, m(i, b), c)
        return _nonzero(lhs) == _nonzero(rhs)

    def unital(i):
        left, right = {}, {}
        for u, c in unit.items():
            _add_scaled(left, m(u, i), c)
            _add_scaled(right, m(i, u), c)
        return _nonzero(left) == _nonzero(right) == {i: 1}

    def coassociative(i):
        left, right = {}, {}
        for (j, k), c in d(i).items():
            for (a, b), x in d(j).items():
                left[(a, b, k)] = left.get((a, b, k), 0) + c * x
            for (a, b), x in d(k).items():
                right[(j, a, b)] = right.get((j, a, b), 0) + c * x
        return _nonzero(left) == _nonzero(right)

    def counital(i):
        left, right = {}, {}
        for (j, k), c in d(i).items():
            left[k] = left.get(k, 0) + c * eps(j)
            right[j] = right.get(j, 0) + c * eps(k)
        return _nonzero(left) == _nonzero(right) == {i: 1}

    def delta_multiplicative(i, j):
        lhs, rhs = {}, {}
        for p, c in m(i, j).items():
            _add_scaled(lhs, d(p), c)
        for (p, q), c in d(i).items():
            for (r, t), x in d(j).items():
                right = m(q, t)
                for a, y in m(p, r).items():
                    for b, z in right.items():
                        rhs[(a, b)] = rhs.get((a, b), 0) + c * x * y * z
        return _nonzero(lhs) == _nonzero(rhs)

    def delta_unital():
        lhs = {}
        for u, c in unit.items():
            _add_scaled(lhs, d(u), c)
        square = {(a, b): x * y for a, x in unit.items() for b, y in unit.items()}
        return _nonzero(lhs) == _nonzero(square)

    def eps_multiplicative(i, j):
        return sum(c * eps(p) for p, c in m(i, j).items()) == eps(i) * eps(j)

    def eps_unital():
        return sum(c * eps(u) for u, c in unit.items()) == 1

    def convolution(i, left):
        # (S * id)(e_i) for left, (id * S)(e_i) otherwise, against eps(e_i) 1
        acc = {}
        for (j, k), c in d(i).items():
            for a, x in s(j if left else k).items():
                _add_scaled(acc, m(a, k) if left else m(j, a), c * x)
        return _nonzero(acc) == _nonzero({u: eps(i) * x for u, x in unit.items()})

    if mul is not None:
        run("associativity", associative, 3)
        if unit is not None:
            run("unit", unital, 1, uses_unit=True)
    if delta is not None:
        run("coassociativity", coassociative, 1)
        if eps is not None:
            run("counit", counital, 1)
    if None not in (mul, unit, delta, eps):
        run("comultiplication multiplicative", delta_multiplicative, 2, delta_unital)
        run("counit multiplicative", eps_multiplicative, 2, eps_unital)
        if antipode is not None:
            run("antipode left", lambda i: convolution(i, True), 1, uses_unit=True)
            run("antipode right", lambda i: convolution(i, False), 1, uses_unit=True)
    return tuple(results)


def _sparse(x) -> dict:
    """A coefficient vector as {index: coefficient}, zeros dropped and an
    integral coefficient as an int."""
    return {i: exact(c) for i, c in enumerate(x) if c}


def sparse_maps(n, mult=None, unit=None, delta=None, counit=None, antipode=None):
    """check_axioms keyword arguments for dense structure constants on the
    basis 0..n-1; S(e_j) is column j of the antipode matrix.

    Raises InputError unless the given constants fit dimension n: mult[i][j],
    unit and counit are n-vectors, delta[i] maps index pairs in range to
    coefficients and antipode is n x n, every constant an int or a
    Fraction.  The maps hold the constants with zeros dropped and
    integral ones as ints.
    """

    def square(rows):
        return len(rows) == n and all(len(row) == n for row in rows)

    maps = {}
    if mult is not None:
        if not square(mult):
            raise InputError("multiplication table shape mismatch")
        if any(len(p) != n for row in mult for p in row):
            raise InputError("product vector length mismatch")
        check_exact("multiplication constant", (c for row in mult for p in row for c in p))
        table = [[_sparse(p) for p in row] for row in mult]
        maps["mul"] = lambda i, j: table[i][j]
    for name, v in (("unit", unit), ("counit", counit)):
        if v is not None and len(v) != n:
            raise InputError(f"{name} vector length mismatch")
    if unit is not None:
        check_exact("unit constant", unit)
        maps["unit"] = _sparse(unit)
    if delta is not None:
        if len(delta) != n:
            raise InputError("coalgebra data shape mismatch")
        for row in delta:
            for j, k in row:
                if not (0 <= j < n and 0 <= k < n):
                    raise InputError("comultiplication index out of range")
            check_exact("comultiplication coefficient", row.values())
        rows = [{jk: exact(c) for jk, c in row.items() if c} for row in delta]
        maps["delta"] = rows.__getitem__
    if counit is not None:
        check_exact("counit constant", counit)
        maps["eps"] = tuple(map(exact, counit)).__getitem__
    if antipode is not None:
        if not square(antipode):
            raise InputError("antipode matrix shape mismatch")
        check_exact("antipode constant", (c for row in antipode for c in row))
        maps["antipode"] = [_sparse(column) for column in zip(*antipode)].__getitem__
    return maps


# ---------------------------------------------------------------------------
# finite-dimensional algebras / coalgebras


@dataclass(frozen=True, eq=False)
class FDAlgebra:
    """Structure constants on the basis 0..dim-1, checked associative and
    unital at construction on the ``sparse_maps`` tables, which are kept
    and do every multiplication."""

    dim: int
    mult: tuple  # mult[i][j] is the product vector e_i e_j
    unit: Vec
    _maps: dict = field(init=False, repr=False)

    def __post_init__(self):
        maps = sparse_maps(self.dim, mult=self.mult, unit=self.unit)
        object.__setattr__(self, "_maps", maps)
        (_, _, _, assoc), (_, _, _, unital) = check_axioms(range(self.dim), **maps)
        if assoc:
            raise PreconditionError(
                "algebra is not associative at ({},{},{})".format(*assoc[0])
            )
        if unital:
            raise PreconditionError("unit laws fail")

    def multiply(self, x: Vec, y: Vec) -> Vec:
        return self.product_of((x, y))

    def product_of(self, vectors) -> Vec:
        """The product of the vectors in order (the unit for none), its
        integral coefficients as ints.  Raises InputError unless every vector
        has dim entries, each an int or a Fraction."""
        factors = []
        for x in vectors:
            if len(x) != self.dim:
                raise InputError("vector length mismatch")
            check_exact("vector entry", x)
            factors.append(_sparse(x))
        return _dense(self._product(factors), self.dim)

    def _product(self, factors) -> dict:
        """The product of sparse vectors in order, zeros dropped."""
        mul = self._maps["mul"]
        factors = iter(factors)
        out = next(factors, self._maps["unit"])
        for y in factors:
            acc = {}
            for i, a in out.items():
                for j, b in y.items():
                    _add_scaled(acc, mul(i, j), a * b)
            out = _nonzero(acc)
        return out


def _dense(x: dict, n: int) -> tuple:
    return tuple(exact(x.get(k, 0)) for k in range(n))


@dataclass(frozen=True, eq=False)
class FDCoalgebra:
    """Structure constants on the basis 0..dim-1, checked coassociative and
    counital at construction on the ``sparse_maps`` tables, which are kept."""

    dim: int
    delta: tuple  # delta[i] is a dict {(j, k): coefficient}
    counit: Vec
    _maps: dict = field(init=False, repr=False)

    def __post_init__(self):
        maps = sparse_maps(self.dim, delta=self.delta, counit=self.counit)
        object.__setattr__(self, "_maps", maps)
        (_, _, _, coassoc), (_, _, _, counital) = check_axioms(range(self.dim), **maps)
        # the smallest failing basis vector; coassociativity first on a tie
        i = min(coassoc[:1] + counital[:1], default=None)
        if i is not None and coassoc[:1] == (i,):
            raise PreconditionError(f"comultiplication is not coassociative at {i}")
        if i is not None:
            raise PreconditionError(f"counit laws fail at basis vector {i}")


# ---------------------------------------------------------------------------
# comodules and their supports


def comodule_axiom_failures(rho: TensorValuedMap, c: FDCoalgebra):
    """The (axiom, alpha) pairs at which rho is not a C-comodule structure.

    rho is one exactly when k (+) V (+) C, with Delta t = t (x) t,
    Delta v = t (x) v + rho(v), eps(t) = 1, eps(v) = 0 and C as given, is
    a coalgebra, so check_axioms checks the counit and coassociativity
    axioms there at the basis vectors v_alpha of V.
    """
    if rho.dim_in != rho.dim_out:
        raise InputError("a comodule structure needs a square map")
    if rho.dim_coeff != c.dim:
        raise InputError("coefficient space does not match the coalgebra")
    n = rho.dim_in  # V on the keys 0..n-1, C on n..n+dim-1, k on "t"
    delta = {"t": {("t", "t"): Fraction(1)}}
    for alpha in range(n):
        delta[alpha] = {("t", alpha): Fraction(1)}
        for beta in range(n):
            for j, x in enumerate(rho.q(beta, alpha)):
                if x:
                    delta[alpha][(beta, n + j)] = x
    for j, row in enumerate(c.delta):
        delta[n + j] = {(n + a, n + b): x for (a, b), x in row.items()}
    eps = {"t": 1, **dict.fromkeys(range(n), 0)}
    eps.update((n + j, x) for j, x in enumerate(c.counit))
    results = check_axioms(range(n), delta=delta.__getitem__, eps=eps.__getitem__)
    return [(name, alpha) for name, _, _, failures in results for alpha in failures]


def support_of_comodule(rho: TensorValuedMap, c: FDCoalgebra):
    """Support subcoalgebra of a comodule structure.

    Returns (basis, coalgebra on the support, corestricted map).  The
    comodule axioms are verified first; failure of the Delta-closure of the
    support afterwards would contradict the supporting theorem, so it raises
    RuntimeError (corrupted input) rather than returning a verdict.  In the
    RREF basis b_i with pivots p_i, the coordinate of Delta(b) at
    b_i (x) b_k is its entry at (p_i, p_k).
    """
    failures = comodule_axiom_failures(rho, c)
    if failures:
        raise PreconditionError(f"not a comodule structure: {failures[:3]}")
    basis, corestricted = support_of_map(rho)
    pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
    delta, eps = c._maps["delta"], c._maps["eps"]
    delta0 = []
    for b in basis:
        image = {}
        for j, x in enumerate(b):
            if x:
                _add_scaled(image, delta(j), x)
        image = _nonzero(image)
        coords, rebuilt = {}, {}
        for (i, p), (k, r) in product(enumerate(pivots), repeat=2):
            x = image.get((p, r))
            if x:
                coords[(i, k)] = x
                pairs = product(enumerate(basis[i]), enumerate(basis[k]))
                _add_scaled(rebuilt, {(j, l): y * z for (j, y), (l, z) in pairs}, x)
        if _nonzero(rebuilt) != image:
            raise RuntimeError(
                "support is not closed under comultiplication; input data corrupt"
            )
        delta0.append(coords)
    eps0 = tuple(sum(x * eps(j) for j, x in enumerate(b)) for b in basis)
    support_coalg = FDCoalgebra(len(basis), tuple(delta0), eps0)
    if comodule_axiom_failures(corestricted, support_coalg):
        raise RuntimeError("corestriction to the support is not a comodule")
    return basis, support_coalg, corestricted


# ---------------------------------------------------------------------------
# cosupports


@dataclass(frozen=True, eq=False)
class FamilyMap:
    """A map P (x) A -> B as a dim(P)-indexed family of matrices A -> B."""

    dim_p: int
    dim_in: int
    dim_out: int
    matrices: tuple  # one dim_out x dim_in matrix per P basis vector

    def __post_init__(self):
        if len(self.matrices) != self.dim_p:
            raise InputError("family size does not match dim P")
        for m in self.matrices:
            if len(m) != self.dim_out or any(len(r) != self.dim_in for r in m):
                raise InputError("family matrix shape mismatch")
        check_exact("family matrix entry", (x for m in self.matrices for r in m for x in r))


def cosupport_of_map(psi: FamilyMap):
    """Row-reduced basis of the span of the acting matrices, as matrices."""
    flat = [
        tuple(x for row in m for x in row) for m in psi.matrices
    ]
    basis = row_space_basis(flat)
    return tuple(
        tuple(
            b[r * psi.dim_in : (r + 1) * psi.dim_in] for r in range(psi.dim_out)
        )
        for b in basis
    )


# ---------------------------------------------------------------------------
# comeasurings in coordinates


def _evaluate(terms, values, q_alg: FDAlgebra) -> dict:
    """The sum of c * values[k1] ... values[kn] in Q over the terms
    (c, (k1, ..., kn)), c an int when integral, the values sparse
    (``_sparse``) and so the sum, which may keep zero coefficients; an empty
    product is the unit of Q."""
    total = {}
    for c, keys in terms:
        _add_scaled(total, q_alg._product(values[k] for k in keys), c)
    return total


def is_comeasuring(
    rho: TensorValuedMap, q_alg: FDAlgebra, a: FinVectMagma, b: FinVectMagma
):
    """Whether every coordinate identity (signature.coordinate_identities)
    holds in Q at rho's coefficients; returns (ok, witness or None), the
    witness being the first failing (name, I, J).  The identities are framed
    by the (i, j) whose coefficient vector is nonzero: a term with a zero
    coefficient adds nothing, so a skipped identity holds and the first
    failing one is the same as over the full matrix."""
    if a.signature != b.signature:
        raise InputError("magmas do not share a signature")
    if rho.dim_in != a.dim or rho.dim_out != b.dim or rho.dim_coeff != q_alg.dim:
        raise InputError("dimension mismatch between the map and its spaces")
    q = {
        (i, j): x
        for i in range(rho.dim_out)
        for j in range(rho.dim_in)
        if (x := _sparse(rho.q(i, j)))
    }
    for name, big_i, big_j, terms in coordinate_identities(a, b, q):
        if any(_evaluate(terms, q, q_alg).values()):
            return False, (name, big_i, big_j)
    return True, None


# ---------------------------------------------------------------------------
# generic-matrix universal presentations


@dataclass(frozen=True, eq=False)
class MatrixPresentation:
    """An algebra presentation whose generators carry matrix indices.

    ``gen_index[g] = (block, i, j)`` with i over the target basis and j over
    the source basis; the single-block case uses block "".  ``blocks`` lists
    the basis indices of each block, in generator declaration order.

    Raises InputError unless every generator has its own (i, j) and, when
    there are blocks, the generators are exactly the pairs inside each
    block, the blocks having distinct labels; ``pos`` maps each (i, j) to
    its generator.
    """

    algebra: AlgebraPresentation
    gen_index: tuple  # (block label, i, j) per generator
    blocks: tuple  # (block label, (basis indices...)) pairs
    pos: dict = field(init=False, repr=False)

    def __post_init__(self):
        pos = {(i, j): g for g, (_, i, j) in enumerate(self.gen_index)}
        if not len(pos) == len(self.gen_index) == self.algebra.num_gens:
            raise InputError("matrix index must put each generator at its own (i, j)")
        square = [(b, i, j) for b, ms in self.blocks for i in ms for j in ms]
        if self.blocks and (
            sorted(self.gen_index) != sorted(square)
            or len(dict(self.blocks)) != len(self.blocks)
        ):
            raise InputError("matrix index does not fill its distinct square blocks")
        object.__setattr__(self, "pos", pos)


def _coordinate_relations(a, b, pos):
    """Relation polynomials of the universal comeasuring presentation: the
    coordinate identities framed by pos, which maps each (i, j) whose q_ij
    may be nonzero to its generator; every other q_ij is forced to zero
    (off-block pairs).  Zero polynomials are dropped and repeats removed,
    first occurrences kept in order.
    """
    relations = {}
    for _, _, _, terms in coordinate_identities(a, b, pos):
        words = {}
        for c, pairs in terms:
            word = tuple(pos[ij] for ij in pairs)
            words[word] = words.get(word, 0) + c
        poly = NCPoly(words)
        if not poly.is_zero():
            relations.setdefault(poly)
    return list(relations)


def tambara_presentation(a: FinVectMagma, b: FinVectMagma) -> MatrixPresentation:
    """Universal comeasuring algebra from A to B on generic-matrix generators."""
    if a.signature != b.signature:
        raise InputError("magmas do not share a signature")
    if a.dim < 1 or b.dim < 1:
        raise PreconditionError("zero-dimensional inputs are rejected")
    gen_index = tuple(("", i, j) for i in range(b.dim) for j in range(a.dim))
    labels = tuple(f"u[{i},{j}]" for _, i, j in gen_index)
    pos = {(i, j): g for g, (_, i, j) in enumerate(gen_index)}
    relations = _coordinate_relations(a, b, pos)
    algebra = AlgebraPresentation(len(gen_index), labels, tuple(relations))
    # matrix comultiplication needs a square frame; leave blocks empty otherwise
    blocks = (("", tuple(range(a.dim))),) if a.dim == b.dim else ()
    return MatrixPresentation(algebra, gen_index, blocks)


def manin_end_presentation(grading: Grading) -> MatrixPresentation:
    """Block-diagonal Tambara presentation of a graded algebra.

    Generators exist only for basis pairs inside one grading component; the
    relations are the Tambara relations of the grading-preserving coaction.
    """
    a = grading.algebra
    if a.dim < 1:
        raise PreconditionError("zero-dimensional inputs are rejected")
    supp = grading_support(grading)
    label_of = [grading.label_of_basis(i) for i in range(a.dim)]
    members = {l: tuple(i for i in range(a.dim) if label_of[i] == l) for l in supp}
    gen_index = tuple((l, i, j) for l in supp for i in members[l] for j in members[l])
    labels = tuple(f"u({k})[{i},{j}]" for k, i, j in gen_index)
    pos = {(i, j): g for g, (_, i, j) in enumerate(gen_index)}
    relations = _coordinate_relations(a, a, pos)
    algebra = AlgebraPresentation(len(gen_index), labels, tuple(relations))
    blocks = tuple((label, members[label]) for label in supp)
    return MatrixPresentation(algebra, gen_index, blocks)


@dataclass(frozen=True)
class FactorizationReport:
    ok: bool
    assignment: tuple  # generator -> Q vector
    failures: tuple  # (relation index, nonzero value) pairs


def factor_through_universal(
    mp: MatrixPresentation, rho: TensorValuedMap, q_alg: FDAlgebra
) -> FactorizationReport:
    """Evaluate the presentation's relations at the q-coefficients of rho.

    All relations vanishing is the computational content of the factorization
    through the universal object; the generator assignment u_{ij} -> q_{ij}
    is unique by construction.
    """
    if rho.dim_coeff != q_alg.dim:
        raise InputError("coefficient space does not match the algebra")
    for beta in range(rho.dim_out):
        for alpha in range(rho.dim_in):
            if (beta, alpha) not in mp.pos and any(
                x != 0 for x in rho.q(beta, alpha)
            ):
                raise PreconditionError(
                    f"frame mismatch: coefficient ({beta},{alpha}) must vanish"
                )
    assignment = tuple(rho.q(i, j) for _, i, j in mp.gen_index)
    values = [_sparse(q) for q in assignment]
    failures = []
    for idx, rel in enumerate(mp.algebra.relations):
        value = _evaluate(((c, w) for w, c in rel.sorted_terms()), values, q_alg)
        if any(value.values()):
            failures.append((idx, _dense(value, q_alg.dim)))
    return FactorizationReport(not failures, assignment, tuple(failures))
