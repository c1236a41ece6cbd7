"""Bialgebra and Hopf layers.

Finite-dimensional data and the differential graded fixture are checked by
the one sparse axiom checker, ``coact.check_axioms``.

Presentation-level data carries comultiplication images inside the
tensor-square algebra of the presentation: the left copy is generators
0..k-1, the right copy k..2k-1, read back only by ``_split_tensor_word``.

The Hopf envelope is computed as a truncated presentation: one copy of the
input bialgebra per level 0..N, multiplication reversed on odd levels and
comultiplication flipped on odd levels, the antipode moving level n to level
n+1, and the convolution identities imposed on generators of levels below N.
Every output records its (levels, degree) truncation; claims about the
envelope are meaningful up to that truncation only.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from ._linalg import Vec, unit_vec
from .errors import InputError, PreconditionError
from .finmonoid import FinMonoid, inverses, unit_group
from .coact import (
    MatrixPresentation,
    check_axioms,
    group_algebra,
    group_like_coalgebra,
    sparse_maps,
)
from .ncalg import (
    AlgebraPresentation,
    NCPoly,
    RewriteSystem,
    complete_rules_up_to,
    nc_evaluate,
    reduce_normal_form,
)

DEFAULT_ANTIPODE_LEVELS = 3


# ---------------------------------------------------------------------------
# finite-dimensional Hopf data


@dataclass(frozen=True, eq=False)
class FinDimHopf:
    """Structure constants on the basis 0..dim-1, shape-checked at
    construction by ``coact.sparse_maps``, whose maps are kept.  The axioms
    are not checked, so that the axiom checker can report their failures."""

    dim: int
    mult: tuple  # mult[i][j] is the product vector e_i e_j
    unit: Vec
    delta: tuple  # delta[i] is {(j, k): coefficient}
    counit: Vec
    antipode: tuple  # matrix rows; S(x)_i = sum_j antipode[i][j] x_j
    maps: dict = field(init=False, repr=False)  # check_axioms keyword arguments

    def __post_init__(self):
        structure = (self.mult, self.unit, self.delta, self.counit, self.antipode)
        object.__setattr__(self, "maps", sparse_maps(self.dim, *structure))


@dataclass(frozen=True)
class AxiomReport:
    results: tuple  # (axiom name, ok, witness or None)

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failed(self):
        return [name for name, ok, _ in self.results if not ok]


def check_hopf_axioms_fd(h: FinDimHopf) -> AxiomReport:
    """Exact verification of every Hopf axiom, with a basis witness per failure."""
    results = check_axioms(range(h.dim), **h.maps)
    rows = ((name, not f, f[0] if f else None) for name, _, _, f in results)
    return AxiomReport(tuple(rows))


def group_algebra_hopf(g: FinMonoid) -> FinDimHopf:
    """Group algebra with group-like basis and inversion antipode."""
    n = g.size
    inv = inverses(g)
    if len(inv) != n:
        raise PreconditionError("group algebra Hopf structure needs a group")
    a, c = group_algebra(g), group_like_coalgebra(n)
    # S e_x = e_{x^-1}: row i of the matrix is e_{i^-1}, inversion being an involution
    antipode = tuple(unit_vec(n, y) for y in inv.values())
    return FinDimHopf(n, a.mult, a.unit, c.delta, c.counit, antipode)


# The skew-primitive structure on keys (k, l) for c^k v^l, k any integer and
# l in {0, 1}: vc = -cv, v^2 = 0, Delta c = c (x) c, Delta v = c (x) v +
# v (x) 1, S(c) = c^{-1}, S(v) = -c^{-1} v.


def _dg_mul(x, y):
    (k1, l1), (k2, l2) = x, y
    if l1 + l2 >= 2:
        return {}
    return {(k1 + k2, l1 + l2): Fraction(-1 if (l1 * k2) % 2 else 1)}


def _dg_delta(x):
    k, l = x
    if l == 0:
        return {((k, 0), (k, 0)): Fraction(1)}
    return {((k + 1, 0), (k, 1)): Fraction(1), ((k, 1), (k, 0)): Fraction(1)}


def _dg_antipode(x):
    k, l = x
    if l == 0:
        return {(-k, 0): Fraction(1)}
    return {(-k - 1, 1): Fraction(-1 if k % 2 == 0 else 1)}


def skew_primitive_hopf(order: int) -> FinDimHopf:
    """Hopf algebra on c^k v^l with c of finite even order: vc = -cv, v^2 = 0,
    the coproduct of v being c (x) v + v (x) 1.  order = 2 is the classical
    4-dimensional example.  This is the quotient c^order = 1 of the structure
    that dg_hopf_fixture checks, on the basis index k + order * l."""
    m = order
    if m < 2 or m % 2:
        raise PreconditionError("the sign rule vc = -cv forces an even order")
    keys = [(k, l) for l in (0, 1) for k in range(m)]
    n = len(keys)

    def idx(key):
        return key[0] % m + m * key[1]

    def dense(terms):
        out = [Fraction(0)] * n
        for key, c in terms.items():
            out[idx(key)] += c
        return tuple(out)

    return FinDimHopf(
        n,
        tuple(tuple(dense(_dg_mul(x, y)) for y in keys) for x in keys),
        dense({(0, 0): Fraction(1)}),
        tuple(
            {(idx(a), idx(b)): c for (a, b), c in _dg_delta(x).items()} for x in keys
        ),
        tuple(Fraction(1 - l) for _, l in keys),
        tuple(zip(*(dense(_dg_antipode(x)) for x in keys))),
    )


# ---------------------------------------------------------------------------
# presentation-level bialgebras


@dataclass(frozen=True, eq=False)
class BialgebraPresentation:
    """A presented algebra with generator-level coalgebra data.

    ``delta[g]`` is the coproduct of generator g written in the tensor-square
    algebra of ``algebra``, whose left copy is generators 0..k-1 and right
    copy k..2k-1; ``counit[g]`` is rational.  ``matrix`` is the generic-matrix
    presentation of ``algebra`` it was built on, if any.
    Well-definedness on the relations is a checked property, not assumed.
    """

    algebra: AlgebraPresentation
    delta: tuple  # NCPoly over 2k generators, one per generator
    counit: tuple  # Fraction per generator
    matrix: MatrixPresentation | None = None  # the matrix frame it came from

    def __post_init__(self):
        k = self.algebra.num_gens
        if self.matrix is not None and self.matrix.algebra != self.algebra:
            raise InputError("matrix frame presents a different algebra")
        if len(self.delta) != k or len(self.counit) != k:
            raise InputError("coalgebra data must cover every generator")
        for p in self.delta:
            for w in p.terms:
                if any(g < 0 or g >= 2 * k for g in w):
                    raise InputError("coproduct image uses unknown generators")


def universal_bialgebra_structure(mp: MatrixPresentation) -> BialgebraPresentation:
    """Matrix comultiplication on a generic-matrix presentation.

    Delta(u_{ij}) sums u_{il} (x) u_{lj} over the block of (i, j);
    eps(u_{ij}) is the Kronecker delta.
    """
    if not mp.blocks:
        raise PreconditionError("presentation does not carry square matrix blocks")
    k = mp.algebra.num_gens
    members, pos = dict(mp.blocks), mp.pos
    delta = tuple(
        NCPoly({(pos[(i, l)], k + pos[(l, j)]): 1 for l in members[block]})
        for block, i, j in mp.gen_index
    )
    counit = tuple(Fraction(1 if i == j else 0) for _, i, j in mp.gen_index)
    return BialgebraPresentation(mp.algebra, delta, counit, mp)


@dataclass(frozen=True)
class WellDefinedVerdict:
    status: str  # "pass" | "fail" | "inconclusive"
    witness: tuple | None  # (relation index, offending normal form or scalar)


def _split_tensor_word(word, total_gens: int):
    """The left and right factors of a word of the tensor square, whose
    letters below total_gens are the left copy and the rest the right copy
    shifted by total_gens; the copies commute, so their order is lost."""
    left = [g for g in word if g < total_gens]
    right = [g - total_gens for g in word if g >= total_gens]
    return tuple(left), tuple(right)


def _regroup(terms) -> dict:
    """{b: the sum of c * a} over the items ((a, b), c)."""
    out = {}
    for (a, b), c in terms:
        row = out.setdefault(b, {})
        row[a] = row.get(a, 0) + c
    return {b: NCPoly(row) for b, row in out.items()}


def _reduce_tensor_square(p: NCPoly, system: RewriteSystem) -> NCPoly:
    """p in A (x) A reduced factor by factor with the system of A: the left
    factors per right word, then the right factors per left normal word.
    The normal words of A (x) A are the pairs of normal words of A
    (Bergman's diamond lemma), each written left word then shifted right
    word."""
    k = system.num_gens
    lefts = _regroup((_split_tensor_word(w, k), c) for w, c in p.terms.items())
    rights = _regroup(
        ((right, left), c)
        for right, poly in lefts.items()
        for left, c in reduce_normal_form(poly, system).terms.items()
    )
    out = {}
    for left, poly in rights.items():
        for right, c in reduce_normal_form(poly, system).terms.items():
            out[left + tuple(g + k for g in right)] = c
    return NCPoly._trusted(out)


def check_comap_well_defined(
    b: BialgebraPresentation, degree_bound: int
) -> WellDefinedVerdict:
    """Push every relation through Delta and eps and reduce in the tensor square.

    The images are reduced factor by factor with the algebra's own bounded
    completion (``_reduce_tensor_square``).  Every rule lies in the ideal,
    so normal form 0 passes.  A nonzero one refutes well-definedness only
    when the completion is confluent up to the bound and the image stays
    within it: then both factors of every word do, and the pairs of normal
    words are independent in A (x) A.
    """
    system = complete_rules_up_to(b.algebra, degree_bound)
    inconclusive = None
    for idx, rel in enumerate(b.algebra.relations):
        eps_value = sum(c * prod(b.counit[g] for g in w) for w, c in rel.terms.items())
        if eps_value != 0:
            return WellDefinedVerdict("fail", (idx, eps_value))
        image = nc_evaluate(rel, b.delta)
        if image.degree() > degree_bound:
            inconclusive = (idx, None)
            continue
        nf = _reduce_tensor_square(image, system)
        if not nf.is_zero():
            if system.confluent_up_to:
                return WellDefinedVerdict("fail", (idx, nf))
            inconclusive = (idx, nf)
    if inconclusive is not None:
        return WellDefinedVerdict("inconclusive", inconclusive)
    return WellDefinedVerdict("pass", None)


# ---------------------------------------------------------------------------
# Hopf envelopes


@dataclass(frozen=True, eq=False)
class HopfPresentation:
    """Truncated antipode-level presentation of a Hopf envelope: with k
    generators per level 0..levels, generator n*k + g is g^(n), and the
    antipode sends g^(n) to g^(n+1) (None on the top level).  Raises
    InputError unless levels, degree_bound >= 0 and levels + 1 divides the generator count."""

    bialgebra: BialgebraPresentation
    levels: int
    degree_bound: int

    def __post_init__(self):
        if self.levels < 0:
            raise InputError("levels must be nonnegative")
        if self.algebra.num_gens % (self.levels + 1):
            raise InputError("generator count is not a multiple of levels + 1")
        if self.degree_bound < 0:
            raise InputError("degree bound must be nonnegative")

    @property
    def algebra(self) -> AlgebraPresentation:
        return self.bialgebra.algebra

    @property
    def _k(self) -> int:  # generators per level
        return self.algebra.num_gens // (self.levels + 1)

    @property
    def antipode(self) -> tuple:
        k, total = self._k, self.algebra.num_gens
        return tuple(NCPoly.gen(g + k) if g + k < total else None for g in range(total))

    @property
    def level_of_gen(self) -> tuple:
        return tuple(g // self._k for g in range(self.algebra.num_gens))

    @property
    def base_gen_of(self) -> tuple:
        return tuple(g % self._k for g in range(self.algebra.num_gens))


def hopf_envelope_presentation(
    b: BialgebraPresentation, levels: int, degree_bound: int
) -> HopfPresentation:
    """Levels 0..N of the envelope with convolution relations on generators.

    Odd levels carry the reversed multiplication and the flipped coproduct
    (the base is symmetric, so twisting twice is the identity); the antipode
    sends level n generators to level n+1 and is extended antimultiplicatively,
    which justifies imposing the convolution identities on generators only.
    """
    if levels < 0:
        raise InputError("levels must be nonnegative")
    k = b.algebra.num_gens
    total = k * (levels + 1)

    def lift_word(word, n):
        shifted = tuple(g + n * k for g in word)
        return tuple(reversed(shifted)) if n % 2 else shifted

    def lift_poly(p, n):
        return NCPoly({lift_word(w, n): c for w, c in p.terms.items()})

    def lift_delta_word(word, n):
        # left then right (interleavings agree modulo the tensor-square
        # commutators); odd levels flip the tensor factors
        left, right = _split_tensor_word(word, k)
        if n % 2:
            left, right = right, left
        return lift_word(left, n) + tuple(total + g for g in lift_word(right, n))

    labels = tuple(
        f"{label}^({n})" for n in range(levels + 1) for label in b.algebra.gen_labels
    )
    relations = []
    delta = []
    for n in range(levels + 1):
        relations.extend(lift_poly(rel, n) for rel in b.algebra.relations)
        delta.extend(
            NCPoly({lift_delta_word(w, n): c for w, c in p.terms.items()}) for p in b.delta
        )
        if n >= 1:
            # convolution identities for the level below, now that its
            # antipode images exist
            prev = n - 1
            for g in range(k):
                env_gen = prev * k + g
                image = delta[env_gen]
                s_conv = NCPoly.zero()
                conv_s = NCPoly.zero()
                for w, c in image.sorted_terms():
                    left, right = _split_tensor_word(w, total)
                    s_left = tuple(x + k for x in reversed(left))
                    s_right = tuple(x + k for x in reversed(right))
                    s_conv = s_conv + NCPoly.monomial(s_left + right, c)
                    conv_s = conv_s + NCPoly.monomial(left + s_right, c)
                eps_term = NCPoly.one().scale(b.counit[g])
                relations.append(s_conv - eps_term)
                relations.append(conv_s - eps_term)

    algebra = AlgebraPresentation(total, labels, tuple(relations))
    bial = BialgebraPresentation(algebra, tuple(delta), tuple(b.counit) * (levels + 1))
    return HopfPresentation(bial, levels, degree_bound)


def sets_cofree_hopf(m: FinMonoid) -> FinMonoid:
    """The cofree side in the set-based world: the group of invertible elements."""
    g, _ = unit_group(m)
    return g


# ---------------------------------------------------------------------------
# the differential graded fixture


@dataclass(frozen=True)
class DgHopfReport:
    window: int
    results: tuple  # (axiom, verified count, skipped count, ok)

    @property
    def all_pass(self) -> bool:
        return all(ok for _, _, _, ok in self.results)


def dg_hopf_fixture(window: int) -> DgHopfReport:
    """Verify the Hopf axioms of the chain-complex classifying Hopf algebra
    (the skew-primitive structure of _dg_mul, _dg_delta and _dg_antipode,
    with eps(c^k) = 1 and eps(c^k v) = 0) on the basis elements c^k v^l with
    |k| <= window.

    Window rule: an axiom instance is skipped exactly when some basis element
    it touches, in its inputs, intermediate values or results, has
    |k| > window; every other instance is verified exactly.
    """
    if window < 1:
        raise InputError("window must be at least 1")
    results = check_axioms(
        [(k, l) for k in range(-window, window + 1) for l in (0, 1)],
        mul=_dg_mul,
        unit={(0, 0): Fraction(1)},
        delta=_dg_delta,
        eps=lambda x: Fraction(1 - x[1]),
        antipode=_dg_antipode,
        inside=lambda x: abs(x[0]) <= window,
    )
    rows = ((name, verified, skipped, not f) for name, verified, skipped, f in results)
    return DgHopfReport(window, tuple(rows))
