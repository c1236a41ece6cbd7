"""Shared fixture builders for the test suite."""

import importlib
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from univhopf import documents
from univhopf._linalg import vec
from univhopf.coact import (
    FamilyMap,
    FDAlgebra,
    FDCoalgebra,
    TensorValuedMap,
    manin_end_presentation,
    tambara_presentation,
)
from univhopf.errors import InputError, PreconditionError
from univhopf.finmonoid import (
    FinMonoid,
    grothendieck_group,
    inverses,
    monoid_from_rows,
)
from univhopf.grading import Grading, universal_group_of_grading
from univhopf.grouppres import GroupPresentation
from univhopf.hopf import FinDimHopf, universal_bialgebra_structure
from univhopf.lio import FiniteCategory, FunctorData
from univhopf.setsuniversal import SetComodFrame
from univhopf.signature import (
    FinSetMagma,
    FinVectMagma,
    OmegaSignature,
    composition_table,
    set_magma_from_monoid_table,
    unital_signature,
)

from oracles import unit_vec

F = Fraction


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def is_exact_coefficient(c) -> bool:
    """An int, or a Fraction that is not integral: never a float, and never
    an integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def completion_record(system):
    """What a completion decides, for comparing two of them: each rule with
    its coefficients and their types, the confluence flag and the skipped
    overlaps."""
    rules = [
        (lw, {w: (c, type(c)) for w, c in rhs.terms.items()}) for lw, rhs in system.rules
    ]
    return rules, system.confluent_up_to, system.overlaps_skipped


def make_vect_magma(signature, dim, basis_labels, entries) -> FinVectMagma:
    """Build a FinVectMagma from per-op lists of (out, in, coefficient).

    Duplicate (out, in) pairs within one operation are rejected; zero
    coefficients are dropped.
    """
    tensors = {}
    for name, triples in entries.items():
        table = {}
        for out, inp, c in triples:
            key = (tuple(out), tuple(inp))
            if key in table:
                raise InputError(f"duplicate tensor entry {key} for {name!r}")
            c = frac(c)
            if c != 0:
                table[key] = c
        tensors[name] = table
    return FinVectMagma(signature, dim, tuple(basis_labels), tensors)


def tensor_valued_map(dim_in, dim_out, dim_coeff, entries) -> TensorValuedMap:
    return TensorValuedMap(
        dim_in,
        dim_out,
        dim_coeff,
        tuple(tuple(vec(q) for q in row) for row in entries),
    )


def family_map(dim_in, dim_out, matrices) -> FamilyMap:
    ms = tuple(tuple(vec(r) for r in m) for m in matrices)
    return FamilyMap(len(ms), dim_in, dim_out, ms)


def fd_algebra(mult_rows, unit) -> FDAlgebra:
    m = tuple(tuple(vec(p) for p in row) for row in mult_rows)
    return FDAlgebra(len(m), m, vec(unit))


def fd_coalgebra(delta_entries, counit) -> FDCoalgebra:
    """Build from per-basis lists of ((j, k), coefficient)."""
    delta = tuple(
        {tuple(jk): frac(c) for jk, c in row if frac(c) != 0} for row in delta_entries
    )
    return FDCoalgebra(len(delta), delta, vec(counit))


def compose_with_matrix(rho: TensorValuedMap, tau) -> TensorValuedMap:
    """(id_B (x) tau) . rho for a matrix tau from Q to another space."""
    return TensorValuedMap(
        rho.dim_in,
        rho.dim_out,
        len(tau),
        tuple(
            tuple(
                tuple(sum((t * x for t, x in zip(r, q)), F(0)) for r in tau)
                for q in row
            )
            for row in rho.entries
        ),
    )


def cyclic_monoid(n: int) -> FinMonoid:
    return monoid_from_rows([[(i + j) % n for j in range(n)] for i in range(n)], 0)


def klein_four() -> FinMonoid:
    return monoid_from_rows(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], 0
    )


def chain_monoid_a3_eq_a() -> FinMonoid:
    # {1, a, a^2} with a^3 = a
    return monoid_from_rows([[0, 1, 2], [1, 2, 1], [2, 1, 2]], 0)


def group_algebra(g: FinMonoid) -> FDAlgebra:
    """The monoid algebra of a finite monoid: e_x e_y = e_{xy}."""
    n = g.size
    mult = tuple(
        tuple(unit_vec(n, g.mul(x, y)) for y in range(n)) for x in range(n)
    )
    return FDAlgebra(n, mult, unit_vec(n, g.unit))


def group_like_coalgebra(n: int) -> FDCoalgebra:
    """Every basis vector group-like: Delta e_i = e_i (x) e_i, eps = 1."""
    return FDCoalgebra(
        n,
        tuple({(i, i): Fraction(1)} for i in range(n)),
        tuple(Fraction(1) for _ in range(n)),
    )


def full_transformation_monoid(k: int) -> FinMonoid:
    """All maps {0..k-1} -> {0..k-1} under composition (f.g)(x) = f(g(x))."""
    maps = sorted(product(range(k), repeat=k))
    return monoid_from_rows(composition_table(maps), maps.index(tuple(range(k))))


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


def cyclic_set_magma(n: int) -> FinSetMagma:
    return set_magma_from_monoid_table(
        [[(i + j) % n for j in range(n)] for i in range(n)], 0
    )


def klein_set_magma() -> FinSetMagma:
    return set_magma_from_monoid_table(
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]], 0
    )


def dual_numbers() -> FinVectMagma:
    """Q[x]/(x^2) with basis (1, x)."""
    return make_vect_magma(
        unital_signature(),
        2,
        ("1", "x"),
        {
            "mu": [((0,), (0, 0), 1), ((1,), (0, 1), 1), ((1,), (1, 0), 1)],
            "unit": [((0,), (), 1)],
        },
    )


def split_quadratic() -> FinVectMagma:
    """Q[x]/(x^2 - 1) with basis (1, x); x^2 = 1."""
    return make_vect_magma(
        unital_signature(),
        2,
        ("1", "x"),
        {
            "mu": [
                ((0,), (0, 0), 1),
                ((1,), (0, 1), 1),
                ((1,), (1, 0), 1),
                ((0,), (1, 1), 1),
            ],
            "unit": [((0,), (), 1)],
        },
    )


def rational_line() -> FinVectMagma:
    """Q itself as a one-dimensional unital algebra."""
    return make_vect_magma(
        unital_signature(),
        1,
        ("1",),
        {"mu": [((0,), (0, 0), 1)], "unit": [((0,), (), 1)]},
    )


def pauli_algebra() -> FinVectMagma:
    """2x2 matrices over Q with the basis I, X, Y = XZ, Z.

    X^2 = Z^2 = I, Y^2 = -I, ZX = -XZ; each basis line is one component of
    the Z2 x Z2 grading.
    """
    prods = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, 1), (1, 2): (3, 1), (1, 3): (2, 1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, -1), (3, 2): (1, -1), (3, 3): (0, 1),
    }
    mu = [((out,), pair, F(c)) for pair, (out, c) in prods.items()]
    return make_vect_magma(
        unital_signature(),
        4,
        ("I", "X", "Y", "Z"),
        {"mu": mu, "unit": [((0,), (), 1)]},
    )


def pauli_grading() -> Grading:
    return Grading(pauli_algebra(), ("e", "x", "y", "z"), (0, 1, 2, 3))


def dual_numbers_grading() -> Grading:
    """deg 1 = 0, deg x = 1."""
    return Grading(dual_numbers(), ("0", "1"), (0, 1))


def two_product_grading() -> Grading:
    """Basis a, b, c graded by itself, with two products: mu sends (a, a) to
    b and nu sends it to c.  Each operation alone is a valid grading."""
    algebra = make_vect_magma(
        OmegaSignature((("mu", 2, 1), ("nu", 2, 1))),
        3,
        ("a", "b", "c"),
        {"mu": [((1,), (0, 0), 1)], "nu": [((2,), (0, 0), 1)]},
    )
    return Grading(algebra, ("a", "b", "c"), (0, 1, 2))


def trivial_grading(algebra: FinVectMagma) -> Grading:
    return Grading(algebra, ("t",), (0,) * algebra.dim)


def coarsen_by_map(
    grading: Grading,
    label_map: dict,
    target_labels=None,
    target_group: FinMonoid | None = None,
    target_label_elems=None,
) -> Grading:
    """Relabel a grading along a label map; the relabelled Grading checks
    its own closure.

    When both sides carry groups the map is checked to be a group
    homomorphism, which requires the source labels to enumerate the whole
    source group.
    """
    for l in grading.labels:
        if l not in label_map:
            raise InputError(f"label map does not cover label {l!r}")
    if target_labels is None:  # the images, in order of first appearance
        target_labels = dict.fromkeys(label_map[l] for l in grading.labels)
    target_labels = tuple(target_labels)
    new_pos = {l: i for i, l in enumerate(target_labels)}
    assignment = tuple(
        new_pos[label_map[grading.labels[a]]] for a in grading.assignment
    )
    out = Grading(
        grading.algebra,
        target_labels,
        assignment,
        target_group,
        tuple(target_label_elems) if target_label_elems is not None else None,
    )
    if grading.group is not None and target_group is not None:
        src = grading.group
        if sorted(grading.label_elems) != list(range(src.size)):
            raise PreconditionError(
                "homomorphism check requires source labels enumerating the group"
            )
        label_of_elem = {e: pos for pos, e in enumerate(grading.label_elems)}
        elem2 = {
            pos: out.label_elems[new_pos[label_map[l]]]
            for pos, l in enumerate(grading.labels)
        }
        for a in range(len(grading.labels)):
            for b in range(len(grading.labels)):
                prod = src.mul(grading.label_elems[a], grading.label_elems[b])
                lhs = elem2[label_of_elem[prod]]
                rhs = target_group.mul(elem2[a], elem2[b])
                if lhs != rhs:
                    raise PreconditionError(
                        f"label map is not a group homomorphism at "
                        f"({grading.labels[a]!r}, {grading.labels[b]!r})"
                    )
    return out


def grading_coaction(grading: Grading, elems) -> TensorValuedMap:
    """The coaction a |-> a (x) e_{deg a} into a space with the given label
    positions: elems[label position] = coefficient-space basis index."""
    n = grading.algebra.dim
    dim_q = max(elems) + 1
    entries = [[[0] * dim_q for _ in range(n)] for _ in range(n)]
    for i in range(n):
        entries[i][i][elems[grading.assignment[i]]] = 1
    return tensor_valued_map(n, n, dim_q, entries)


def pauli_coaction() -> TensorValuedMap:
    """Pauli grading coaction into the group algebra of Z2 x Z2."""
    return grading_coaction(pauli_grading(), (0, 1, 2, 3))


def thin_chain_category(n: int) -> FiniteCategory:
    morphs = [(a, b) for a in range(n) for b in range(n) if a <= b]
    idx = {m: i for i, m in enumerate(morphs)}
    comp = {}
    for gi, (ga, gb) in enumerate(morphs):
        for fi, (fa, fb) in enumerate(morphs):
            if fb == ga:
                comp[(gi, fi)] = idx[(fa, gb)]
    return FiniteCategory(
        n,
        tuple(a for a, _ in morphs),
        tuple(b for _, b in morphs),
        tuple(idx[(x, x)] for x in range(n)),
        comp,
    )


def complex_norm_category():
    """Finite truncation of the norm category on exact Gaussian rationals.

    Objects are complex numbers; a nonnegative real a has one arrow to every
    b with |b| <= a; other objects carry one extra idempotent endomorphism.
    Returns (category, objects) with objects as (re, im) pairs.
    """
    objs = [(0, 0), (1, 0), (2, 0), (-1, 0), (0, 1), (0, 2)]

    def in_r_plus(o):
        return o[1] == 0 and o[0] >= 0

    def norm2(o):
        return o[0] * o[0] + o[1] * o[1]

    morphs = []
    for a_i, a in enumerate(objs):
        for b_i, b in enumerate(objs):
            if in_r_plus(a) and norm2(b) <= a[0] * a[0]:
                morphs.append(("f", a_i, b_i))
    for a_i, a in enumerate(objs):
        if not in_r_plus(a):
            morphs.append(("1", a_i, a_i))
            morphs.append(("e", a_i, a_i))
    idx = {m: i for i, m in enumerate(morphs)}
    dom = tuple(m[1] for m in morphs)
    cod = tuple(m[2] for m in morphs)
    identity = tuple(
        idx[("f", o_i, o_i)] if in_r_plus(o) else idx[("1", o_i, o_i)]
        for o_i, o in enumerate(objs)
    )
    comp = {}
    for g_i, g in enumerate(morphs):
        for f_i, f in enumerate(morphs):
            if dom[g_i] != cod[f_i]:
                continue
            if f[0] == "f" and g[0] == "f":
                comp[(g_i, f_i)] = idx[("f", f[1], g[2])]
            elif f[0] == "f":
                comp[(g_i, f_i)] = f_i
            elif g[0] == "f":
                comp[(g_i, f_i)] = g_i
            else:
                kind = "e" if "e" in (f[0], g[0]) else "1"
                comp[(g_i, f_i)] = idx[(kind, f[1], f[1])]
    return FiniteCategory(len(objs), dom, cod, identity, comp), objs


def two_incomparable_lio_category() -> FiniteCategory:
    """Objects 0, 1 are locally initial, both map into 2, which carries an
    extra idempotent so it is not locally initial itself."""
    return FiniteCategory(
        3,
        (0, 1, 2, 0, 1, 2),
        (0, 1, 2, 2, 2, 2),
        (0, 1, 2),
        {
            (0, 0): 0, (1, 1): 1, (2, 2): 2,
            (3, 0): 3, (2, 3): 3,
            (4, 1): 4, (2, 4): 4,
            (5, 5): 5, (2, 5): 5, (5, 2): 5,
            (5, 3): 3, (5, 4): 4,
        },
    )


def reflective_subchain_functor():
    """Y = {0, 2} inside the chain X = 0 -> 1 -> 2, as a functor Y -> X.

    The inclusion has the left adjoint F(0) = 0, F(1) = F(2) = 2; returned as
    (functor, F on objects measured in Y's indexing).
    """
    x = thin_chain_category(3)
    y_morphs = [(0, 0), (0, 1), (1, 1)]
    yidx = {m: i for i, m in enumerate(y_morphs)}
    ycomp = {}
    for gi, (ga, gb) in enumerate(y_morphs):
        for fi, (fa, fb) in enumerate(y_morphs):
            if fb == ga:
                ycomp[(gi, fi)] = yidx[(fa, gb)]
    y = FiniteCategory(
        2,
        tuple(a for a, _ in y_morphs),
        tuple(b for _, b in y_morphs),
        (yidx[(0, 0)], yidx[(1, 1)]),
        ycomp,
    )
    obj_map = (0, 2)
    x_morphs = [(p, q) for p in range(3) for q in range(3) if p <= q]
    xidx = {m: i for i, m in enumerate(x_morphs)}
    mor_map = tuple(xidx[(obj_map[a], obj_map[b])] for a, b in y_morphs)
    functor = FunctorData(y, x, obj_map, mor_map)
    left_adjoint_objects = (0, 1, 1)
    return functor, left_adjoint_objects


def full_subcategory_inclusion(cat, objects):
    """The inclusion into cat of its full subcategory on the given objects."""
    objects = sorted(objects)
    obj = {x: i for i, x in enumerate(objects)}
    morphs = [
        f for f in range(cat.num_morphisms) if cat.dom[f] in obj and cat.cod[f] in obj
    ]
    mor = {f: i for i, f in enumerate(morphs)}
    sub = FiniteCategory(
        len(objects),
        tuple(obj[cat.dom[f]] for f in morphs),
        tuple(obj[cat.cod[f]] for f in morphs),
        tuple(mor[cat.identity[x]] for x in objects),
        {
            (mor[g], mor[f]): mor[h]
            for (g, f), h in cat.compose.items()
            if g in mor and f in mor
        },
    )
    return FunctorData(sub, cat, tuple(objects), tuple(morphs))


def random_q_algebra(rng):
    """A random pick from a pool of small associative unital algebras."""
    pool = [
        fd_algebra([[[1]]], [1]),
        group_algebra(monoid_from_rows([[0, 1], [1, 0]], 0)),
        group_algebra(
            monoid_from_rows([[(i + j) % 3 for j in range(3)] for i in range(3)], 0)
        ),
        fd_algebra([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1]),
        fd_algebra(  # truncated polynomials of length three
            [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            ],
            [1, 0, 0],
        ),
    ]
    return pool[rng.randrange(len(pool))]


def random_unital_magma(rng, dim):
    """Random structure tensors on the mu/unit signature (no laws imposed)."""
    entries = {"mu": [], "unit": [((0,), (), 1)]}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                c = rng.randrange(-1, 2)
                if c:
                    entries["mu"].append(((k,), (i, j), c))
    return make_vect_magma(
        unital_signature(), dim, tuple(f"e{i}" for i in range(dim)), entries
    )


def _bench_module(name):
    """A module of the benchmark under perfbench/."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    return importlib.import_module(name)


def _corpus_group_documents(seed):
    """The parsed input document of each job of the benchmark's ``groups``
    workload, by family (the first job of a family wins), as generated by
    perfbench/gen.py for the seed."""
    out = {}
    for job in _bench_module("gen").generate("groups", seed):
        if job["family"] not in out:
            out[job["family"]] = documents.parse_input_document(job["docs"][0])
    return out


def corpus_group_presentations(seed=42):
    """The presentation each family of the benchmark's ``groups`` workload
    simplifies."""
    out = {}
    for family, (kind, value) in _corpus_group_documents(seed).items():
        if kind == "grading":
            value = universal_group_of_grading(value)[0]
        elif kind == "monoid_table":
            value = grothendieck_group(value)
        out[family] = value
    return out


def corpus_gradings(seed=42):
    """The grading of each grading family of the benchmark's ``groups``
    workload."""
    return {
        family: value
        for family, (kind, value) in _corpus_group_documents(seed).items()
        if kind == "grading"
    }


def corpus_bialgebras(seed):
    """The universal bialgebra of each Manin end and Tambara presentation
    of the benchmark's ``presentations`` workload for the seed, each built
    anew, so that none holds a completion."""
    out = []
    for job in _bench_module("gen").generate("presentations", seed):
        values = [documents.parse_input_document(text)[1] for text in job["docs"]]
        if job["params"]["variant"] == "manin":
            mp = manin_end_presentation(values[0])
        else:
            mp = tambara_presentation(values[0], values[1])
        out.append(universal_bialgebra_structure(mp))
    return out


def corpus_algebra_presentations(seed):
    """The algebra of each Manin end and Tambara presentation of the
    benchmark's ``presentations`` workload for the seed."""
    return [bial.algebra for bial in corpus_bialgebras(seed)]


def corpus_membership_answers(seed):
    """Every ideal-membership query of the benchmark's ``presentations``
    workload for the seed, as (algebra presentation, polynomial, answer),
    run through the workload's own job runner."""
    gen, jobs, spans = (_bench_module(name) for name in ("gen", "jobs", "spans"))
    out = []
    for job in gen.generate("presentations", seed):
        res = jobs.run_presentations(job, spans.Untraced())
        queries = (poly for poly, _ in res["queries"])
        out += [(res["mp"].algebra, p, a) for p, a in zip(queries, res["answers"])]
    return out


def serialize_grading(g: Grading) -> dict:
    doc = {
        "kind": "grading",
        "algebra": documents.serialize_vect_magma(g.algebra),
        "labels": list(g.labels),
        "assignment": [g.labels[a] for a in g.assignment],
    }
    if g.group is not None:
        doc["group"] = {
            "monoid": documents.serialize_monoid_table(g.group),
            "label_elements": list(g.label_elems),
        }
    return doc


def serialize_frame_sets(f: SetComodFrame) -> dict:
    return {
        "kind": "frame_sets",
        "magma": documents.serialize_set_magma(f.magma),
        "psi": list(f.psi),
        "num_labels": f.num_labels,
    }


def serialize_again(kind, value):
    """The parsed value of a document of this kind, serialized again."""
    if kind == "signature":
        return documents.serialize_signature(value)
    if kind == "vect_magma":
        return documents.serialize_vect_magma(value)
    if kind == "set_magma":
        return documents.serialize_set_magma(value)
    if kind == "monoid_table":
        return documents.serialize_monoid_table(value)
    if kind == "grading":
        return serialize_grading(value)
    if kind == "coalgebra":
        return documents.serialize_coalgebra(value)
    if kind == "tensor_map":
        return documents.serialize_tensor_map(value)
    if kind == "family_map":
        return documents.serialize_family_map(value)
    if kind == "presentation":
        if isinstance(value, GroupPresentation):
            return documents.serialize_group_presentation(value)
        return documents.serialize_algebra_presentation(value)
    if kind == "bialgebra_presentation":
        return documents.serialize_bialgebra_presentation(value)
    if kind == "hopf_fd":
        return documents.serialize_hopf_fd(value)
    if kind == "category":
        return documents.serialize_category(value)
    if kind == "functor":
        return documents.serialize_functor(value)
    if kind == "frame_sets":
        return serialize_frame_sets(value)
    if kind == "map_set":
        return documents.serialize_map_set(value)
    raise AssertionError(kind)
