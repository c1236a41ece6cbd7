"""Locally initial objects in explicit finite categories: the preorder they
form, absolute values, comparison through a functor, and the lifting of an
initial object along a functor.

Each category indexes its hom sets and finds its locally initial objects
once, when it is built; every function here reads those indexes.  Results
are up to isomorphism with the lowest object id as the deterministic
representative.
"""

from dataclasses import dataclass, field
from operator import countOf, itemgetter
from random import Random
from types import MappingProxyType

from .errors import InputError, PreconditionError


@dataclass(frozen=True, eq=False)
class FiniteCategory:
    """Objects 0..n-1; morphism m has dom[m], cod[m]; identity[x] is the
    identity morphism of x; compose[(g, f)] = g after f, defined exactly for
    cod[f] == dom[g], and kept as a read-only copy of the given dict.
    Associativity and the identity laws are validated over the composable
    pairs and triples."""

    num_objects: int
    dom: tuple
    cod: tuple
    identity: tuple
    compose: dict
    # (x, y) -> morphisms x -> y, and per object its incoming and outgoing
    # morphisms, all in increasing id order; then the locally initial objects
    # and their preorder, as locally_initial_objects returns them
    _hom: dict = field(init=False, repr=False, compare=False)
    _incoming: tuple = field(init=False, repr=False, compare=False)
    _outgoing: tuple = field(init=False, repr=False, compare=False)
    _lio: tuple = field(init=False, repr=False, compare=False)
    _lio_edges: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "compose", MappingProxyType(dict(self.compose)))
        n = self.num_objects
        dom, cod, compose = self.dom, self.cod, self.compose
        m = len(dom)
        if len(cod) != m or len(self.identity) != n:
            raise InputError("morphism data shapes do not match")
        if any(not 0 <= x < n for x in dom + cod):
            raise InputError("morphism endpoint out of range")
        hom = {}
        incoming = tuple([] for _ in range(n))
        outgoing = tuple([] for _ in range(n))
        for f in range(m):
            hom.setdefault((dom[f], cod[f]), []).append(f)
            incoming[cod[f]].append(f)
            outgoing[dom[f]].append(f)
        object.__setattr__(self, "_hom", {k: tuple(v) for k, v in hom.items()})
        object.__setattr__(self, "_incoming", tuple(map(tuple, incoming)))
        object.__setattr__(self, "_outgoing", tuple(map(tuple, outgoing)))
        for x in range(n):
            i = self.identity[x]
            if not 0 <= i < m or dom[i] != x or cod[i] != x:
                raise InputError(f"identity of object {x} is not an endomorphism")
        if not self._well_composed():
            fault = self._composition_fault()
            if fault is not None:
                raise InputError(fault)
        # with at most one morphism per hom set, both sides of each identity
        # law and of each associativity law are the one morphism of their
        # hom set, since composites are well typed: the laws hold
        if len(self._hom) < m:
            self._check_laws()
        lio = tuple(
            x
            for x in range(n)
            if all(len(self._hom[(x, cod[f])]) == 1 for f in self._outgoing[x])
        )
        object.__setattr__(self, "_lio", lio)
        object.__setattr__(
            self, "_lio_edges", {(a, b): (a, b) in self._hom for a in lio for b in lio}
        )

    def _check_laws(self):
        """Raise PreconditionError unless the identity laws and associativity
        hold, the composition being well typed."""
        dom, cod, identity = self.dom, self.cod, self.identity
        m = len(dom)
        # after[g][f] = g after f: the laws read one row per morphism instead
        # of building and hashing a (g, f) key per lookup
        after = [{} for _ in range(m)]
        for (g, f), h in self.compose.items():
            after[g][f] = h
        for x in range(self.num_objects):
            i = identity[x]
            for f in sorted({*self._outgoing[x], *self._incoming[x]}):
                if dom[f] == x and after[f][i] != f:
                    raise PreconditionError("right identity law fails")
                if cod[f] == x and after[i][f] != f:
                    raise PreconditionError("left identity law fails")
        # (h g) f = h (g f) over all f into dom g, one row per (h, g): the
        # row of hg read at those f against the row of h read through g's.
        # When only the identity enters dom g, the identity laws already
        # give (h g) 1 = h g = h (g 1), and a one-item itemgetter returns
        # no tuple, so that object is skipped
        reads = [itemgetter(*fs) if len(fs) > 1 else None for fs in self._incoming]
        for h, h_after in enumerate(after):
            through = h_after.__getitem__
            for g in self._incoming[dom[h]]:
                read = reads[dom[g]]
                if read is not None and read(after[h_after[g]]) != tuple(
                    map(through, read(after[g]))
                ):
                    raise PreconditionError("composition is not associative")

    def _well_composed(self):
        """True iff compose is defined exactly on the composable pairs, with
        composites of the right type and in range: whole-list tests in C.
        When it is False, _composition_fault names the first fault."""
        dom, cod, compose = self.dom, self.cod, self.compose
        pairs = sum(len(i) * len(o) for i, o in zip(self._incoming, self._outgoing))
        try:
            if len(compose) != pairs or countOf(map(len, compose), 2) != pairs:
                return False
            gs = list(map(itemgetter(0), compose))
            fs = list(map(itemgetter(1), compose))
            hs = list(compose.values())
            at_g, at_f, at_h = itemgetter(*gs), itemgetter(*fs), itemgetter(*hs)
            return (
                all(map(range(len(dom)).__contains__, set(gs + fs + hs)))
                and at_f(cod) == at_g(dom)
                and at_h(dom) == at_f(dom)
                and at_h(cod) == at_g(cod)
            )
        except TypeError:  # no pairs, or a key or composite the walk raises on
            return False

    def _composition_fault(self):
        """Why compose is not defined exactly on the composable pairs with
        composites of the right type, or None.  The first fault in row-major
        (g, f) order is named; entries naming a morphism out of range last."""
        dom, cod, compose = self.dom, self.cod, self.compose
        m = len(dom)
        stray = extra = None
        for g, f in compose:
            if not (0 <= g < m and 0 <= f < m):
                stray = stray or (g, f)
            elif cod[f] != dom[g] and (extra is None or (g, f) < extra):
                extra = (g, f)
        for g in range(m):
            for f in self._incoming[dom[g]]:
                if extra is not None and extra < (g, f):
                    return _undefined_pair(*extra)
                if (g, f) not in compose:
                    return _undefined_pair(g, f)
                h = compose[(g, f)]
                if not 0 <= h < m or dom[h] != dom[f] or cod[h] != cod[g]:
                    return f"composite of ({g}, {f}) has wrong type"
        if extra is not None:
            return _undefined_pair(*extra)
        if stray is not None:
            g, f = stray
            return f"composition of {g} after {f} names a morphism out of range"
        return None

    @property
    def num_morphisms(self) -> int:
        return len(self.dom)

    def hom(self, x: int, y: int):
        return list(self._hom.get((x, y), ()))


def _undefined_pair(g, f):
    return f"composition of {g} after {f} defined iff composable"


@dataclass(frozen=True, eq=False)
class FunctorData:
    source: FiniteCategory
    target: FiniteCategory
    object_map: tuple
    morphism_map: tuple

    def __post_init__(self):
        y, x = self.source, self.target
        if len(self.object_map) != y.num_objects:
            raise InputError("object map is not total")
        if len(self.morphism_map) != y.num_morphisms:
            raise InputError("morphism map is not total")
        if any(not 0 <= o < x.num_objects for o in self.object_map):
            raise InputError("object image out of range")
        for f in range(y.num_morphisms):
            mf = self.morphism_map[f]
            if not 0 <= mf < x.num_morphisms:
                raise InputError("morphism image out of range")
            if (
                x.dom[mf] != self.object_map[y.dom[f]]
                or x.cod[mf] != self.object_map[y.cod[f]]
            ):
                raise InputError(f"functor breaks the typing of morphism {f}")
        for obj in range(y.num_objects):
            if self.morphism_map[y.identity[obj]] != x.identity[self.object_map[obj]]:
                raise PreconditionError("functor does not preserve identities")
        for g in range(y.num_morphisms):
            for f in y._incoming[y.dom[g]]:
                lhs = self.morphism_map[y.compose[(g, f)]]
                rhs = x.compose[(self.morphism_map[g], self.morphism_map[f])]
                if lhs != rhs:
                    raise PreconditionError("functor does not preserve composition")


def identity_functor(c: FiniteCategory) -> FunctorData:
    return FunctorData(
        c, c, tuple(range(c.num_objects)), tuple(range(c.num_morphisms))
    )


def locally_initial_objects(cat: FiniteCategory):
    """Objects with at most one arrow to every object, plus the preorder.

    Returns (objects, edges) where edges[(a, b)] holds iff hom(a, b) is
    nonempty for locally initial a, b.
    """
    return list(cat._lio), dict(cat._lio_edges)


def absolute_value(cat: FiniteCategory, x: int) -> int | None:
    """The terminal arrow-into-x among locally initial objects, or None.

    Candidates are locally initial objects with an arrow to x; the result m
    must receive an arrow from every candidate making the triangle commute.
    """
    hom = cat._hom
    candidates = [(c, hom[(c, x)][0]) for c in cat._lio if (c, x) in hom]
    for m, f_m in candidates:
        if all(
            (c, m) in hom and cat.compose[(f_m, hom[(c, m)][0])] == f_c
            for c, f_c in candidates
        ):
            return m
    return None


def compare_by_absolute_value(functor: FunctorData, y1: int, y2: int) -> str:
    """Relation of y1 to y2 through the functor's absolute values.

    'finer' means y1 dominates y2 (an arrow |y1| -> G y2 exists), 'coarser'
    the reverse, 'equivalent' both, 'incomparable' neither, 'undefined' when
    an absolute value is missing.
    """
    x = functor.target
    x1, x2 = functor.object_map[y1], functor.object_map[y2]
    a1 = absolute_value(x, x1)
    a2 = absolute_value(x, x2)
    if a1 is None or a2 is None:
        return "undefined"
    ge = (a1, x2) in x._hom
    le = (a2, x1) in x._hom
    if ge and le:
        return "equivalent"
    if ge:
        return "finer"
    if le:
        return "coarser"
    return "incomparable"


def _initial_in_subcategory(cat: FiniteCategory, objects) -> int | None:
    """Initial object of the full subcategory on the given objects (lowest id)."""
    hom = cat._hom
    for y0 in objects:
        if all(len(hom.get((y0, y), ())) == 1 for y in objects):
            return y0
    return None


def lift_initial_object(functor: FunctorData, x0: int) -> int | None:
    """Initial object of {y : hom(x0, G y) nonempty}, or None.

    x0 must be locally initial in the target category.
    """
    x = functor.target
    if x0 not in x._lio:
        raise PreconditionError(f"object {x0} is not locally initial")
    members = [
        y
        for y in range(functor.source.num_objects)
        if (x0, functor.object_map[y]) in x._hom
    ]
    return _initial_in_subcategory(functor.source, members)


def universal_object_of(functor: FunctorData, y: int) -> int | None:
    """Lift at the absolute value of G y; the result's absolute value agrees."""
    x = functor.target
    x0 = absolute_value(x, functor.object_map[y])
    if x0 is None:
        raise PreconditionError(f"object {y} has no absolute value under the functor")
    y0 = lift_initial_object(functor, x0)
    if y0 is not None:
        a = absolute_value(x, functor.object_map[y0])
        if a is None or not ((a, x0) in x._hom and (x0, a) in x._hom):
            raise RuntimeError(
                "lifted object's absolute value does not agree up to isomorphism"
            )
    return y0


# ---------------------------------------------------------------------------
# random validated categories for property checks


def random_category(rng: Random, max_objects: int = 6, max_morphisms: int = 25):
    """A random valid finite category, by one of three recipes.

    Free categories on random acyclic quivers and random preorders are valid
    by construction; the third recipe adjoins a random idempotent
    endomorphism and is validated (the constructor rejects bad tables, so
    sampling retries until a table passes).
    """
    while True:
        cat = _try_random_category(rng, max_objects, max_morphisms)
        if cat is not None and cat.num_morphisms <= max_morphisms:
            return cat


def _free_category_on_dag(rng: Random, n: int, max_morphisms: int):
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            for _ in range(rng.randrange(3)):
                edges.append((a, b))
    # morphisms are paths: (start object, tuple of edge indices)
    morphs = [(x, ()) for x in range(n)]

    def endpoint(m):
        start, seq = m
        return edges[seq[-1]][1] if seq else start

    grow = True
    while grow:
        grow = False
        for start, seq in list(morphs):
            end = edges[seq[-1]][1] if seq else start
            for i, (c, _) in enumerate(edges):
                if c == end and (start, seq + (i,)) not in morphs:
                    morphs.append((start, seq + (i,)))
                    grow = True
        if len(morphs) > max_morphisms:
            return None
    index = {m: i for i, m in enumerate(morphs)}
    dom = tuple(m[0] for m in morphs)
    cod = tuple(endpoint(m) for m in morphs)
    identity = tuple(index[(x, ())] for x in range(n))
    compose = {}
    for gi, g in enumerate(morphs):
        for fi, f in enumerate(morphs):
            if endpoint(f) == g[0]:
                compose[(gi, fi)] = index[(f[0], f[1] + g[1])]
    return FiniteCategory(n, dom, cod, identity, compose)


def _thin_category_on_preorder(rng: Random, n: int, max_morphisms: int):
    reach = [[a == b for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < 0.3:
                reach[a][b] = True
    for k in range(n):
        for a in range(n):
            for b in range(n):
                reach[a][b] = reach[a][b] or (reach[a][k] and reach[k][b])
    morphs = [(a, b) for a in range(n) for b in range(n) if reach[a][b]]
    if len(morphs) > max_morphisms:
        return None
    index = {ab: i for i, ab in enumerate(morphs)}
    dom = tuple(a for a, _ in morphs)
    cod = tuple(b for _, b in morphs)
    identity = tuple(index[(x, x)] for x in range(n))
    compose = {}
    for gi, (_, gb) in enumerate(morphs):
        for fi, (fa, fb) in enumerate(morphs):
            if fb == morphs[gi][0]:
                compose[(gi, fi)] = index[(fa, gb)]
    return FiniteCategory(n, dom, cod, identity, compose)


def _try_random_category(rng: Random, max_objects: int, max_morphisms: int):
    recipe = rng.randrange(3)
    n = rng.randrange(1, max_objects + 1)
    if recipe == 0:
        return _free_category_on_dag(rng, n, max_morphisms)
    if recipe == 1:
        return _thin_category_on_preorder(rng, n, max_morphisms)
    # recipe 2: adjoin an absorbing idempotent endomorphism to a thin base
    base = _thin_category_on_preorder(rng, n, max_morphisms - 1)
    if base is None or base.num_morphisms + 1 > max_morphisms:
        return None
    target = rng.randrange(base.num_objects)
    m = base.num_morphisms
    dom = base.dom + (target,)
    cod = base.cod + (target,)
    compose = dict(base.compose)
    compose[(m, m)] = m
    ident = base.identity[target]
    compose[(m, ident)] = m
    compose[(ident, m)] = m
    for f in range(m):
        if f == ident:
            continue
        if base.cod[f] == target:
            compose[(m, f)] = f
        if base.dom[f] == target:
            compose[(f, m)] = f
    try:
        return FiniteCategory(base.num_objects, dom, cod, base.identity, compose)
    except (InputError, PreconditionError):
        return None
