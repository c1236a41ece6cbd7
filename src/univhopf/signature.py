"""Operation signatures and their realizations on finite sets and on exact
rational vector spaces.

A signature is a list of named operations, each with an input arity ``s`` and
an output arity ``t``; a realization equips a carrier with one total map
(carrier^s -> carrier^t, componentwise on basis tensors in the linear case)
per operation.  No identities such as associativity are imposed here; callers
that need monoid laws validate them separately.
"""

import math
from dataclasses import dataclass
from itertools import chain, product
from operator import countOf, itemgetter

from ._linalg import check_exact, exact
from .errors import InputError, ResourceLimitError

DEFAULT_ENUM_CAP = 10_000_000


@dataclass(frozen=True)
class OmegaSignature:
    ops: tuple[tuple[str, int, int], ...]  # (name, arity_in, arity_out)

    def __post_init__(self):
        names = [name for name, _, _ in self.ops]
        if len(set(names)) != len(names):
            raise InputError("duplicate operation names in signature")
        for name, s, t in self.ops:
            if s < 0 or t < 0:
                raise InputError(f"operation {name!r} has negative arity")
            if s == 0 and t == 0:
                raise InputError(
                    f"operation {name!r} has arity (0, 0); a map 1 -> 1 carries no data"
                )

    def unital_ops(self):
        """The names of the first (2, 1) and the first (0, 1) operation, each
        None when there is none: the product and unit a monoid or algebra is read by."""
        first = {}
        for name, s, t in self.ops:
            first.setdefault((s, t), name)
        return first.get((2, 1)), first.get((0, 1))


def unital_signature() -> OmegaSignature:
    """The signature of a unital binary product: mu (2 -> 1) and unit (0 -> 1)."""
    return OmegaSignature((("mu", 2, 1), ("unit", 0, 1)))


@dataclass(frozen=True)
class FinSetMagma:
    signature: OmegaSignature
    size: int
    tables: dict  # op name -> {input tuple: output tuple}

    def __post_init__(self):
        if self.size < 0:
            raise InputError("negative carrier size")
        # the test of x in range(size), applied from C to the distinct
        # values of all tuples at once; the walk over the entries only
        # names the first bad one
        in_range = range(self.size).__contains__
        for name, s, t in self.signature.ops:
            if name not in self.tables:
                raise InputError(f"missing table for operation {name!r}")
            table = self.tables[name]
            # size**s is formed only below 2**4096: a larger one is no
            # table's length, and forming or writing it could exhaust
            # memory or pass str's digit limit
            small = self.size < 2 or s <= 64 and self.size < 2**64
            expected = self.size**s if small else f"{self.size}**{s}"
            if len(table) != expected:
                raise InputError(
                    f"table for {name!r} has {len(table)} entries, expected {expected}"
                )
            outs = table.values()
            try:
                if (
                    countOf(map(len, table), s) == len(table)
                    and countOf(map(len, outs), t) == len(table)
                    and all(map(in_range, set(chain.from_iterable(table))))
                    and all(map(in_range, set(chain.from_iterable(outs))))
                ):
                    continue
            except TypeError:  # an entry the walk raises on at its turn
                pass
            for key, out in table.items():
                if len(key) != s or not all(map(in_range, key)):
                    raise InputError(f"bad input tuple {key} for {name!r}")
                if len(out) != t or not all(map(in_range, out)):
                    raise InputError(f"bad output tuple {out} for {name!r}")

    def apply(self, name: str, args: tuple[int, ...]) -> tuple[int, ...]:
        return self.tables[name][args]


def set_magma_from_monoid_table(table, unit: int) -> FinSetMagma:
    """Wrap a raw multiplication table (list of rows) as a mu/unit magma."""
    n = len(table)
    mu = {(i, j): (table[i][j],) for i in range(n) for j in range(n)}
    return FinSetMagma(unital_signature(), n, {"mu": mu, "unit": {(): (unit,)}})


def is_set_homomorphism(f, a: FinSetMagma, b: FinSetMagma) -> bool:
    """True iff f (a total index map) commutes with every operation table."""
    if a.signature != b.signature:
        raise InputError("magmas do not share a signature")
    if len(f) != a.size:
        raise InputError("map is not total on the source carrier")
    for name, s, t in a.signature.ops:
        for args, out in a.tables[name].items():
            mapped_args = tuple(f[x] for x in args)
            if b.tables[name][mapped_args] != tuple(f[x] for x in out):
                return False
    return True


def _hom_search(a: FinSetMagma, b: FinSetMagma, injective: bool = False):
    """All homomorphisms a -> b (only the injective ones if asked), in
    lexicographic order.

    Backtracking: f[0], f[1], ... are assigned in turn, images in increasing
    order, and each table entry of a is checked as soon as the largest element
    it mentions has an image, so a failed entry prunes every completion.
    """
    if a.signature != b.signature:
        raise InputError("magmas do not share a signature")
    n, m = a.size, b.size
    # checks[k]: the entries (b's table, args, out) whose largest element is k
    checks = [[] for _ in range(n)]
    for name, _, _ in a.signature.ops:
        target = b.tables[name]
        for args, out in a.tables[name].items():
            checks[max(args + out)].append((target, args, out))
    f = [-1] * n
    homs = []
    k = 0
    while k >= 0:
        if k == n:
            homs.append(tuple(f))
            k -= 1
            continue
        for x in range(f[k] + 1, m):
            if injective and x in f[:k]:
                continue
            f[k] = x
            if all(
                target[tuple(f[y] for y in args)] == tuple(f[y] for y in out)
                for target, args, out in checks[k]
            ):
                k += 1
                break
        else:
            f[k] = -1
            k -= 1
    return homs


def enumerate_set_homs(a: FinSetMagma, b: FinSetMagma, cap: int = DEFAULT_ENUM_CAP):
    """All homomorphisms a -> b as index tuples, in lexicographic order.

    Raises ResourceLimitError before any search when the candidate space
    b.size ** a.size exceeds cap; the search itself prunes a partial map as
    soon as one table entry it determines fails.
    """
    total = b.size**a.size
    if total > cap:
        raise ResourceLimitError(
            f"{total} candidate maps exceed the enumeration cap {cap}"
        )
    return _hom_search(a, b)


def omega_automorphisms(a: FinSetMagma, cap: int = DEFAULT_ENUM_CAP):
    """Bijective self-homomorphisms with their composition table.

    Returns (perms, table) where perms lists the automorphisms in
    lexicographic order, so perms[0] is the identity, and table[i][j] indexes
    perms[i] after perms[j].  Raises ResourceLimitError before any search
    when a.size! exceeds cap.
    """
    if math.factorial(a.size) > cap:
        raise ResourceLimitError("factorial search space exceeds the enumeration cap")
    perms = _hom_search(a, a, injective=True)
    return perms, composition_table(perms)


def composition_table(maps):
    """table[i][j] is the index in maps of maps[i] after maps[j]; maps are
    self-maps as index tuples, closed under composition."""
    index = {f: i for i, f in enumerate(maps)}
    return [[index[tuple(f[x] for x in g)] for g in maps] for f in maps]


def omega_congruence_closure(magma: FinSetMagma, pairs):
    """Least equivalence containing the pairs and respected by every
    operation: equivalent input tuples get componentwise equivalent outputs.

    Union-find plus a worklist: each merge of x and y is saturated by
    substituting x and y at one argument position of one operation, the other
    arguments ranging freely.  Returns a class index per element, classes
    numbered by first appearance.
    """
    n = magma.size
    parent = list(range(n))
    work = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            work.append((rx, ry))

    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise InputError(f"pair ({x}, {y}) out of range")
        union(x, y)
    ops = [(magma.tables[name], s) for name, s, _ in magma.signature.ops if s > 0]
    while work:
        x, y = work.pop()
        for table, s in ops:
            for rest in product(range(n), repeat=s - 1):
                for p in range(s):
                    before, after = rest[:p], rest[p:]
                    out_x = table[before + (x,) + after]
                    out_y = table[before + (y,) + after]
                    for u, v in zip(out_x, out_y):
                        union(u, v)
    label = {}
    return tuple(label.setdefault(find(x), len(label)) for x in range(n))


def quotient_magma(magma: FinSetMagma, class_of) -> FinSetMagma:
    """The magma on the classes 0..k-1 of class_of (each number used), every
    operation read at the first element of each class: the quotient when
    every operation respects the classes, as the closure's classes do."""
    k = max(class_of) + 1 if class_of else 0
    reps = [class_of.index(c) for c in range(k)]
    tables = {}
    for name, s, _ in magma.signature.ops:
        table = magma.tables[name]
        tables[name] = {
            args: tuple(class_of[o] for o in table[tuple(reps[c] for c in args)])
            for args in product(range(k), repeat=s)
        }
    return FinSetMagma(magma.signature, k, tables)


@dataclass(frozen=True)
class FinVectMagma:
    """An operation-equipped space over Q, by sparse structure tensors.

    ``tensors[name]`` maps (out multi-index, in multi-index) to a nonzero
    rational, an int or a Fraction: the coefficient of the out basis tensor
    in the image of the in basis tensor.  The constructor keeps a copy of
    each tensor without its zero coefficients, so no reader takes a stored
    zero for structure.
    """

    signature: OmegaSignature
    dim: int
    basis_labels: tuple[str, ...]
    tensors: dict  # name -> {(out idx, in idx): int or Fraction}

    def __post_init__(self):
        if self.dim < 0:
            raise InputError("negative dimension")
        if len(self.basis_labels) != self.dim:
            raise InputError("basis label count does not match the dimension")
        rng = range(self.dim)
        tensors = dict(self.tensors)
        for name, s, t in self.signature.ops:
            if name not in tensors:
                raise InputError(f"missing structure tensor for {name!r}")
            tensor = tensors[name]
            if not _well_indexed(tensor, s, t, rng.__contains__):
                # the first bad key, in entry order, names the fault
                for out, inp in tensor:
                    if len(out) != t or len(inp) != s:
                        raise InputError(f"bad multi-index arity in tensor {name!r}")
                    if any(i not in rng for i in out + inp):
                        raise InputError(f"index out of range in tensor {name!r}")
            check_exact(f"coefficient in tensor {name!r}", tensor.values())
            tensors[name] = {key: c for key, c in tensor.items() if c}
        object.__setattr__(self, "tensors", tensors)


def _well_indexed(tensor, s, t, in_range):
    """True iff every key of tensor is a pair (out, in) of t and s indices
    in range: whole-list tests in C over all keys."""
    n = len(tensor)
    keys = list(tensor)
    try:
        return (
            countOf(map(len, keys), 2) == n
            and countOf(map(len, map(itemgetter(0), keys)), t) == n
            and countOf(map(len, map(itemgetter(1), keys)), s) == n
            and all(map(in_range, set(chain.from_iterable(chain.from_iterable(keys)))))
        )
    except TypeError:  # a key the walk raises on at its turn
        return False


def coordinate_identities(a: FinVectMagma, b: FinVectMagma, frame):
    """The identities that make rho: a -> b (x) Q, with coefficients q_ij (i
    over b's basis, j over a's), a comeasuring.  One per operation and pair of
    output/input multi-indices (I, J):

        sum_P omega_b[I,P] q_{p1 j1} ... q_{ps js}
            - sum_M omega_a[M,J] q_{i1 m1} ... q_{it mt} = 0

    frame holds the (i, j) whose q_ij may be nonzero (a set, or a dict keyed
    by them); every other q_ij is zero, so each term is built only from
    coordinates in frame: for b's entry (I, P), J runs over the frame
    columns of p1, ..., ps, and for a's entry (M, J), I runs over the frame
    rows of m1, ..., mt.  An identity left with no term reads 0 = 0 and is
    omitted.

    Yields (name, I, J, terms), operations in signature order and I, J in
    lexicographic order; terms lists the signed products as (coefficient,
    ((i, j), ...)), the coefficient an int when integral, b's tensor entries
    first, each side in sorted entry order.  An empty product is the unit of
    Q.  With Q the scalars, they say that the matrix (q_ij) is a linear
    omega-morphism.  The magmas must share a signature.
    """
    cols, rows = {}, {}
    for i, j in frame:
        cols.setdefault(i, []).append(j)
        rows.setdefault(j, []).append(i)
    for name, _, _ in a.signature.ops:
        found = {}  # (I, J) -> terms
        for (out, inp), c in sorted(b.tensors[name].items()):
            c = exact(c)
            for big_j in product(*(cols.get(p, ()) for p in inp)):
                found.setdefault((out, big_j), []).append((c, tuple(zip(inp, big_j))))
        for (out, inp), c in sorted(a.tensors[name].items()):
            c = -exact(c)
            for big_i in product(*(rows.get(m, ()) for m in out)):
                found.setdefault((big_i, inp), []).append((c, tuple(zip(big_i, out))))
        for big_i, big_j in sorted(found):
            yield name, big_i, big_j, found[big_i, big_j]


def is_linear_omega_morphism(m, a: FinVectMagma, b: FinVectMagma) -> bool:
    """True iff the matrix m: a -> b intertwines every structure tensor.

    Checked entrywise as the exact identity omega_b . m^{tensor s} =
    m^{tensor t} . omega_a for each operation: the coordinate identities at
    q_ij = m[i][j], framed by m's nonzero entries, since a term with a zero
    entry adds nothing.
    """
    if a.signature != b.signature:
        raise InputError("magmas do not share a signature")
    if len(m) != b.dim or any(len(row) != a.dim for row in m):
        raise InputError("matrix shape does not match the dimensions")
    check_exact("matrix entry", (x for row in m for x in row))
    frame = {(i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x}
    for _, _, _, terms in coordinate_identities(a, b, frame):
        if sum(c * math.prod(m[i][j] for i, j in pairs) for c, pairs in terms) != 0:
            return False
    return True
