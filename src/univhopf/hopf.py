"""Bialgebra and Hopf layers.

Finite-dimensional data and the differential graded fixture are checked by
the one sparse axiom checker, ``coact.check_axioms``.

Presentation-level data carries each comultiplication image in A (x) A as
a dict {(left word, right word): coefficient} over the pairs of words of A,
a product of pairs being the pair of concatenations; no other module reads
inside that encoding.

The Hopf envelope is computed as a truncated presentation: one copy of the
input bialgebra per level 0..N, multiplication reversed on odd levels and
comultiplication flipped on odd levels, the antipode moving level n to level
n+1, and the convolution identities imposed on generators of levels below N.
Every output records its (levels, degree) truncation; claims about the
envelope are meaningful up to that truncation only.  When the caller has
completed the base at the envelope's degree bound to a system that skipped
no overlap, the envelope's presentation carries that system as the seed of
its completion: the base rules stand on level 0, and the completion takes in
their lifts to levels 1..N and the convolution identities, so it does not
rebuild what the base's completion found (see ``ncalg``).  The relations,
which documents serialize, are the same either way.

``check_comap_well_defined`` reduces an image in A (x) A by linearity: the
normal form of c (l, r) is c nf(l) (x) nf(r), with each word's normal form
computed once per system.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

from ._linalg import Vec, check_exact, exact
from .errors import InputError, PreconditionError
from .coact import MatrixPresentation, check_axioms, sparse_maps
from .ncalg import (
    AlgebraPresentation,
    NCPoly,
    RewriteSystem,
    complete_rules_up_to,
    word_normal_forms,
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

    ``delta[g]`` is the coproduct of generator g, a dict {(left word, right
    word): coefficient} over words of ``algebra``, kept with zeros dropped
    and integral coefficients as ``int``; ``counit[g]`` is rational, kept as
    ``int`` when integral.  Raises
    InputError on a coefficient or counit value that is not an ``int`` or a
    ``Fraction``, or a key that is not a pair of words in the generators.
    ``matrix`` is the generic-matrix presentation of ``algebra`` it was
    built on, if any.  Well-definedness on the relations is a checked
    property, not assumed.
    """

    algebra: AlgebraPresentation
    delta: tuple  # {(left word, right word): coefficient}, one per generator
    counit: tuple  # int or Fraction per generator
    matrix: MatrixPresentation | None = None  # the matrix frame it came from

    def __post_init__(self):
        k = self.algebra.num_gens
        if self.matrix is not None and self.matrix.algebra != self.algebra:
            raise InputError("matrix frame presents a different algebra")
        if len(self.delta) != k or len(self.counit) != k:
            raise InputError("coalgebra data must cover every generator")
        check_exact("counit value", self.counit)
        for image in self.delta:
            if not isinstance(image, dict):
                raise InputError("coproduct image is not a dict of word pairs")
            for key in image:
                if not isinstance(key, tuple) or list(map(type, key)) != [tuple, tuple]:
                    raise InputError("coproduct image key is not a pair of words")
                if any(not isinstance(g, int) or not 0 <= g < k for g in key[0] + key[1]):
                    raise InputError("coproduct image uses unknown generators")
            check_exact("coproduct coefficient", image.values())
        delta = tuple({key: exact(c) for key, c in d.items() if c} for d in self.delta)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "counit", tuple(map(exact, self.counit)))


def universal_bialgebra_structure(mp: MatrixPresentation) -> BialgebraPresentation:
    """Matrix comultiplication on a generic-matrix presentation.

    Delta(u_{ij}) sums u_{il} (x) u_{lj} over the block of (i, j);
    eps(u_{ij}) is the Kronecker delta.
    """
    if not mp.blocks:
        raise PreconditionError("presentation does not carry square matrix blocks")
    members, pos = dict(mp.blocks), mp.pos
    delta = tuple(
        {((pos[(i, l)],), (pos[(l, j)],)): 1 for l in members[block]}
        for block, i, j in mp.gen_index
    )
    counit = tuple(Fraction(1 if i == j else 0) for _, i, j in mp.gen_index)
    return BialgebraPresentation(mp.algebra, delta, counit, mp)


@dataclass(frozen=True)
class WellDefinedVerdict:
    status: str  # "pass" | "fail" | "inconclusive"
    witness: tuple | None  # (relation index, offending pair dict or scalar)


def _image(rel: NCPoly, delta) -> dict:
    """Delta(rel) in A (x) A as a pair dict, zeros dropped: each word's
    image is the product of its letters' images, (a, b)(c, d) = (ac, bd)."""
    out = {}
    for w, c in rel.terms.items():
        terms = [(((), ()), c)]
        for g in w:
            image = delta[g].items()
            terms = [((a + e, b + f), x * y) for (a, b), x in terms for (e, f), y in image]
        for key, x in terms:
            out[key] = out.get(key, 0) + x
    return {key: exact(x) for key, x in out.items() if x}


def _reduce_tensor_square(image: dict, system: RewriteSystem) -> dict:
    """A pair dict of A (x) A reduced with the system of A, zeros dropped.
    The normal words of A (x) A are the pairs of normal words of A
    (Bergman's diamond lemma), and reduction is linear, so the normal form
    of the sum of c (l, r) is the sum of c nf(l) (x) nf(r), read from the
    system's normal forms of words."""
    nf = word_normal_forms({w for pair in image for w in pair}, system)
    out = {}
    for (left, right), c in image.items():
        for u, x in nf[left].items():
            for v, y in nf[right].items():
                out[(u, v)] = out.get((u, v), 0) + c * x * y
    return {key: exact(x) for key, x in out.items() if x}


def check_comap_well_defined(
    b: BialgebraPresentation, degree_bound: int
) -> WellDefinedVerdict:
    """Push every relation through Delta and eps and reduce in the tensor square.

    The images are reduced with the algebra's own bounded completion, one
    normal form per word of a factor (``_reduce_tensor_square``).  Every
    rule lies in the ideal, so normal form 0 passes.  A nonzero one refutes
    well-definedness only when the completion is confluent up to the bound
    and the image (each pair of total length) stays within it: then both
    factors of every pair do, and the pairs of normal words are independent
    in A (x) A.
    """
    system = complete_rules_up_to(b.algebra, degree_bound)
    inconclusive = None
    for idx, rel in enumerate(b.algebra.relations):
        eps_value = sum(c * prod(b.counit[g] for g in w) for w, c in rel.terms.items())
        if eps_value != 0:
            return WellDefinedVerdict("fail", (idx, eps_value))
        image = _image(rel, b.delta)
        if max((len(l) + len(r) for l, r in image), default=0) > degree_bound:
            inconclusive = (idx, None)
            continue
        nf = _reduce_tensor_square(image, system)
        if nf:
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
        # lift_word is injective and keeps the clean coefficients
        return NCPoly._trusted({lift_word(w, n): c for w, c in p.terms.items()})

    def lift_pair(left, right, n):
        # odd levels flip the tensor factors
        if n % 2:
            left, right = right, left
        return lift_word(left, n), lift_word(right, n)

    labels = tuple(
        f"{label}^({n})" for n in range(levels + 1) for label in b.algebra.gen_labels
    )
    # the base's system, if its caller completed it at this bound and it is
    # the reduced Groebner basis in every degree, not a truncated one
    base = b.algebra._completions.get(degree_bound)
    if base is not None and (not base.confluent_up_to or base.overlaps_skipped):
        base = None
    rules = () if base is None else base.rules
    basis = [NCPoly._trusted({lw: 1, **(-rhs).terms}) for lw, rhs in rules]
    relations = []
    intake = []  # what completion takes in beside the base rules on level 0
    delta = []
    for n in range(levels + 1):
        relations.extend(lift_poly(rel, n) for rel in b.algebra.relations)
        delta.extend(
            {lift_pair(l, r, n): c for (l, r), c in image.items()} for image in b.delta
        )
        if n >= 1:
            intake.extend(lift_poly(p, n) for p in basis)
            # convolution identities sum S(a1) a2 = eps = sum a1 S(a2) for the
            # level below, whose antipode images now exist; 0 = 0 is skipped
            prev = n - 1
            for g in range(k):
                s_conv, conv_s = {(): -b.counit[g]}, {(): -b.counit[g]}
                for (left, right), c in delta[prev * k + g].items():
                    s_left = tuple(x + k for x in reversed(left))
                    s_right = tuple(x + k for x in reversed(right))
                    s_conv[s_left + right] = s_conv.get(s_left + right, 0) + c
                    conv_s[left + s_right] = conv_s.get(left + s_right, 0) + c
                conv = [p for p in (NCPoly(s_conv), NCPoly(conv_s)) if not p.is_zero()]
                relations += conv
                intake += conv

    seed = None if base is None else (degree_bound, base.rules, tuple(intake))
    algebra = AlgebraPresentation(total, labels, tuple(relations), _seed=seed)
    bial = BialgebraPresentation(algebra, tuple(delta), tuple(b.counit) * (levels + 1))
    return HopfPresentation(bial, levels, degree_bound)


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
