"""The self-describing JSON document schema shared by all commands.

Every document is one JSON object with a top-level "kind".  Rationals are
strings "p/q" with q > 0 and gcd(p, q) = 1 (bare "p" for integers); labels
and generator names are strings.  Every malformed document is rejected with
an InputError whose message starts with the path to the offending field
("$.delta[1][0].coeff: ...").  Serialization is canonical and deterministic:
parse followed by serialize is the identity on canonical documents.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .coact import (
    FamilyMap,
    FDAlgebra,
    FDCoalgebra,
    MatrixPresentation,
    TensorValuedMap,
)
from .errors import InputError
from .finmonoid import FinMonoid
from .grading import Grading
from .grouppres import GroupPresentation, free_reduce_word
from .hopf import BialgebraPresentation, FinDimHopf, HopfPresentation
from .lio import FiniteCategory, FunctorData
from .ncalg import AlgebraPresentation, NCPoly
from .setsuniversal import SetComodFrame
from .signature import FinSetMagma, FinVectMagma, OmegaSignature


def _fail(path, message):
    raise InputError(f"{path}: {message}")


def _expect(cond, path, message):
    if not cond:
        _fail(path, message)


def _make(path, build, *args):
    """build(*args), with path put before the message of its InputError."""
    try:
        return build(*args)
    except InputError as exc:
        _fail(path, str(exc))


def _get(obj, key, path, types=None):
    if not isinstance(obj, dict) or key not in obj:
        _fail(path, f"missing field {key!r}")
    value = obj[key]
    # a JSON boolean is no integer, though bool subclasses int
    if types is not None and (
        not isinstance(value, types) or types is int and isinstance(value, bool)
    ):
        _fail(f"{path}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def _list(xs, path):
    _expect(isinstance(xs, list), path, "expected a list")
    return xs


def parse_rational(s, path) -> Fraction:
    _expect(isinstance(s, str), path, "rationals are strings 'p/q'")
    num, sep, den = s.partition("/")
    try:
        p = int(num)
        q = int(den) if sep else 1
    except ValueError:
        _fail(path, f"malformed rational {s!r}")
    _expect(q > 0, path, f"rational {s!r} must have a positive denominator")
    _expect(gcd(abs(p), q) == 1, path, f"rational {s!r} is not in lowest terms")
    _expect(not (sep and q == 1), path, f"rational {s!r} must be written without /1")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _int_list(xs, path):
    _expect(isinstance(xs, list), path, "expected a list of integers")
    for i, x in enumerate(xs):
        _expect(isinstance(x, int) and not isinstance(x, bool), f"{path}[{i}]", "expected an integer")
    return list(xs)


def _rationals(doc, key, path):
    return tuple(
        parse_rational(x, f"{path}.{key}[{i}]")
        for i, x in enumerate(_get(doc, key, path, list))
    )


def _label_index(labels, path):
    """The map label -> position; a repeated label maps to its last position."""
    for i, label in enumerate(labels):
        _expect(isinstance(label, str), f"{path}[{i}]", "expected a string")
    return {label: i for i, label in enumerate(labels)}


def _index_of(pos, label, path, what):
    _expect(isinstance(label, str) and label in pos, path, f"unknown {what} {label!r}")
    return pos[label]


# ---------------------------------------------------------------------------
# parsers per kind


def _parse_signature(doc, path) -> OmegaSignature:
    ops_raw = _get(doc, "ops", path, list)
    ops = []
    for i, op in enumerate(ops_raw):
        p = f"{path}.ops[{i}]"
        name = _get(op, "name", p, str)
        s = _get(op, "in", p, int)
        t = _get(op, "out", p, int)
        ops.append((name, s, t))
    return _make(path, OmegaSignature, tuple(ops))


def _parse_vect_magma(doc, path) -> FinVectMagma:
    sig = _parse_nested(doc, "signature", "signature", path)
    dim = _get(doc, "dim", path, int)
    basis = _get(doc, "basis", path, list)
    tensors_raw = _get(doc, "tensors", path, dict)
    tensors = {}
    for name, entries in tensors_raw.items():
        table = {}
        for i, e in enumerate(_list(entries, f"{path}.tensors.{name}")):
            p = f"{path}.tensors.{name}[{i}]"
            out = tuple(_int_list(_get(e, "out", p, list), f"{p}.out"))
            inp = tuple(_int_list(_get(e, "in", p, list), f"{p}.in"))
            coeff = parse_rational(_get(e, "coeff", p), f"{p}.coeff")
            _expect((out, inp) not in table, p, "duplicate tensor entry")
            if coeff != 0:
                table[(out, inp)] = coeff
        tensors[name] = table
    return _make(path, FinVectMagma, sig, dim, tuple(basis), tensors)


def _parse_set_magma(doc, path) -> FinSetMagma:
    sig = _parse_nested(doc, "signature", "signature", path)
    size = _get(doc, "size", path, int)
    tables_raw = _get(doc, "tables", path, dict)
    tables = {}
    for name, entries in tables_raw.items():
        table = {}
        for i, e in enumerate(_list(entries, f"{path}.tables.{name}")):
            p = f"{path}.tables.{name}[{i}]"
            inp = tuple(_int_list(_get(e, "in", p, list), f"{p}.in"))
            out = tuple(_int_list(_get(e, "out", p, list), f"{p}.out"))
            _expect(inp not in table, p, "duplicate table entry")
            table[inp] = out
        tables[name] = table
    return _make(path, FinSetMagma, sig, size, tables)


def _parse_monoid_table(doc, path) -> FinMonoid:
    table = _get(doc, "table", path, list)
    rows = tuple(tuple(_int_list(r, f"{path}.table[{i}]")) for i, r in enumerate(table))
    unit = _get(doc, "unit", path, int)
    return _make(path, FinMonoid, rows, unit)


def _parse_grading(doc, path) -> Grading:
    algebra = _parse_nested(doc, "algebra", "vect_magma", path)
    labels = _get(doc, "labels", path, list)
    assignment_raw = _get(doc, "assignment", path, list)
    pos = _label_index(labels, f"{path}.labels")
    assignment = tuple(
        _index_of(pos, l, f"{path}.assignment[{i}]", "label")
        for i, l in enumerate(assignment_raw)
    )
    group = label_elems = None
    gblock = doc.get("group")
    if gblock is not None:
        group = _parse_nested(gblock, "monoid", "monoid_table", f"{path}.group")
        label_elems = tuple(
            _int_list(_get(gblock, "label_elements", f"{path}.group", list),
                      f"{path}.group.label_elements")
        )
    return _make(path, Grading, algebra, tuple(labels), assignment, group, label_elems)


def _parse_delta(rows, path):
    """Each row of terms {left, right, coeff} as {(left, right): coeff}, zero
    coefficients dropped."""
    delta = []
    for i, row in enumerate(rows):
        terms = {}
        for t, e in enumerate(_list(row, f"{path}[{i}]")):
            p = f"{path}[{i}][{t}]"
            jk = (_get(e, "left", p, int), _get(e, "right", p, int))
            coeff = parse_rational(_get(e, "coeff", p), f"{p}.coeff")
            if coeff != 0:
                terms[jk] = coeff
        delta.append(terms)
    return tuple(delta)


def _parse_coalgebra(doc, path) -> FDCoalgebra:
    dim = _get(doc, "dim", path, int)
    delta_raw = _get(doc, "delta", path, list)
    _expect(len(delta_raw) == dim, f"{path}.delta", "one entry list per basis vector")
    delta = _parse_delta(delta_raw, f"{path}.delta")
    return _make(path, FDCoalgebra, dim, delta, _rationals(doc, "counit", path))


def fd_algebra_from_vect_magma(vm: FinVectMagma) -> FDAlgebra:
    """Read a unital-product magma as an associative algebra (validated)."""
    mu, un = vm.signature.unital_ops()
    if mu is None or un is None:
        raise InputError("algebra data needs a binary product and a unit operation")
    n = vm.dim
    mult = tuple(
        tuple(
            tuple(vm.op_entry(mu, (k,), (i, j)) for k in range(n)) for j in range(n)
        )
        for i in range(n)
    )
    unit = tuple(vm.op_entry(un, (k,), ()) for k in range(n))
    return FDAlgebra(n, mult, unit)


@dataclass(frozen=True, eq=False)
class TensorMapDoc:
    """A tensor-valued map with whatever structures its document embeds.

    The coefficient algebra is kept as the vect magma it was read as, so it
    is written back as read; ``coeff_fd_algebra`` is that magma read as a
    validated associative algebra, built once at construction.
    """

    map: TensorValuedMap
    source: FinVectMagma | None = None
    target: FinVectMagma | None = None
    coeff_algebra: FinVectMagma | None = None
    coeff_coalgebra: FDCoalgebra | None = None
    coeff_fd_algebra: FDAlgebra | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.coeff_algebra is not None:
            fd = fd_algebra_from_vect_magma(self.coeff_algebra)
            object.__setattr__(self, "coeff_fd_algebra", fd)


def _parse_matrix(rows, path, ncols=None):
    _expect(isinstance(rows, list), path, "expected a matrix (list of rows)")
    out = []
    for i, r in enumerate(rows):
        _expect(isinstance(r, list), f"{path}[{i}]", "expected a row")
        if ncols is not None:
            _expect(len(r) == ncols, f"{path}[{i}]", f"expected {ncols} entries")
        out.append(tuple(parse_rational(x, f"{path}[{i}][{j}]") for j, x in enumerate(r)))
    return tuple(out)


def _parse_tensor_map(doc, path) -> TensorMapDoc:
    dim_in = _get(doc, "dim_in", path, int)
    dim_out = _get(doc, "dim_out", path, int)
    dim_coeff = _get(doc, "dim_coeff", path, int)
    entries_raw = _get(doc, "entries", path, list)
    _expect(len(entries_raw) == dim_out, f"{path}.entries", "one row per target basis vector")
    entries = []
    for b, row in enumerate(entries_raw):
        p = f"{path}.entries[{b}]"
        _expect(isinstance(row, list) and len(row) == dim_in,
                p, "one coefficient vector per source basis vector")
        entries.append(_parse_matrix(row, p))
    tvm = _make(path, TensorValuedMap, dim_in, dim_out, dim_coeff, tuple(entries))
    source = target = None
    coeff_algebra = coeff_coalgebra = None
    if doc.get("source") is not None:
        source = _parse_nested(doc, "source", "vect_magma", path)
    if doc.get("target") is not None:
        target = _parse_nested(doc, "target", "vect_magma", path)
    if doc.get("coeff_algebra") is not None:
        coeff_algebra = _parse_nested(doc, "coeff_algebra", "vect_magma", path)
    if doc.get("coeff_coalgebra") is not None:
        coeff_coalgebra = _parse_nested(doc, "coeff_coalgebra", "coalgebra", path)
    # of these fields, only the coefficient algebra can fail in the constructor
    return _make(
        f"{path}.coeff_algebra",
        TensorMapDoc, tvm, source, target, coeff_algebra, coeff_coalgebra,
    )


def _parse_family_map(doc, path) -> FamilyMap:
    dim_p = _get(doc, "dim_p", path, int)
    dim_in = _get(doc, "dim_in", path, int)
    dim_out = _get(doc, "dim_out", path, int)
    mats_raw = _get(doc, "matrices", path, list)
    _expect(len(mats_raw) == dim_p, f"{path}.matrices", "one matrix per P basis vector")
    mats = tuple(
        _parse_matrix(m, f"{path}.matrices[{i}]", ncols=dim_in) for i, m in enumerate(mats_raw)
    )
    return _make(path, FamilyMap, dim_p, dim_in, dim_out, mats)


def _parse_ncpoly(terms_raw, pos, path) -> NCPoly:
    terms = {}
    for i, term in enumerate(_list(terms_raw, path)):
        p = f"{path}[{i}]"
        _expect(isinstance(term, list) and len(term) == 2, p, "expected [word, coeff]")
        word_raw, coeff_raw = term
        _expect(isinstance(word_raw, list), f"{p}[0]", "expected a word (label array)")
        word = tuple(
            _index_of(pos, lab, f"{p}[0][{j}]", "generator") for j, lab in enumerate(word_raw)
        )
        coeff = parse_rational(coeff_raw, f"{p}[1]")
        terms[word] = terms.get(word, Fraction(0)) + coeff
    return NCPoly(terms)


def _parse_presentation(doc, path):
    ptype = _get(doc, "presentation_type", path, str)
    gens = _get(doc, "generators", path, list)
    _expect(ptype in ("group", "algebra"), path, f"unknown presentation_type {ptype!r}")
    pos = _label_index(gens, f"{path}.generators")
    if ptype == "algebra":
        return _parse_algebra(doc, gens, pos, path)
    relators_raw = _get(doc, "relators", path, list)
    relators = []
    for i, w in enumerate(relators_raw):
        word = tuple(_int_list(w, f"{path}.relators[{i}]"))
        _expect(
            free_reduce_word(word) == word,
            f"{path}.relators[{i}]",
            "relator is not freely reduced",
        )
        relators.append(word)
    return _make(path, GroupPresentation, len(gens), tuple(relators), tuple(gens))


def _parse_algebra(doc, gens, pos, path):
    """The algebra presentation on gens, a MatrixPresentation when the
    document has a matrix_index; pos is the generator label -> index map."""
    relations = []
    for i, terms in enumerate(_get(doc, "relations", path, list)):
        poly = _parse_ncpoly(terms, pos, f"{path}.relations[{i}]")
        _expect(not poly.is_zero(), f"{path}.relations[{i}]", "zero relation")
        relations.append(poly)
    algebra = _make(path, AlgebraPresentation, len(gens), tuple(gens), tuple(relations))
    mi = doc.get("matrix_index")
    if mi is None:
        return algebra
    at = f"{path}.matrix_index"
    gen_index = []
    for n, e in enumerate(_get(mi, "gen_index", at, list)):
        p = f"{at}.gen_index[{n}]"
        gen_index.append((_get(e, "block", p, str), _get(e, "i", p, int), _get(e, "j", p, int)))
    blocks = []
    for n, b in enumerate(_get(mi, "blocks", at, list)):
        p = f"{at}.blocks[{n}]"
        members = _int_list(_get(b, "members", p, list), f"{p}.members")
        blocks.append((_get(b, "block", p, str), tuple(members)))
    return _make(at, MatrixPresentation, algebra, tuple(gen_index), tuple(blocks))


def _parse_bialgebra_presentation(doc, path):
    gens = _get(doc, "generators", path, list)
    pos = _label_index(gens, f"{path}.generators")
    base = _parse_algebra(doc, gens, pos, path)
    matrix = base if isinstance(base, MatrixPresentation) else None
    algebra = base if matrix is None else matrix.algebra
    k = algebra.num_gens
    delta_raw = _get(doc, "delta", path, list)
    _expect(len(delta_raw) == k, f"{path}.delta", "one coproduct image per generator")
    delta = []
    for g, terms_raw in enumerate(delta_raw):
        poly = NCPoly.zero()
        for i, term in enumerate(_list(terms_raw, f"{path}.delta[{g}]")):
            p = f"{path}.delta[{g}][{i}]"
            left = _get(term, "left", p, list)
            right = _get(term, "right", p, list)
            coeff = parse_rational(_get(term, "coeff", p), f"{p}.coeff")
            word = [_index_of(pos, lab, p, "generator") for lab in left]
            word += [k + _index_of(pos, lab, p, "generator") for lab in right]
            poly = poly + NCPoly.monomial(tuple(word), coeff)
        delta.append(poly)
    counit = _rationals(doc, "counit", path)
    bial = _make(path, BialgebraPresentation, algebra, tuple(delta), counit, matrix)
    tr = doc.get("truncation")
    if tr is None:
        return bial
    levels = _get(tr, "levels", f"{path}.truncation", int)
    degree = _get(tr, "degree_bound", f"{path}.truncation", int)
    hopf = _make(f"{path}.truncation.levels", HopfPresentation, bial, levels, degree)
    antipode = tuple(
        None if entry is None else _parse_ncpoly(entry, pos, f"{path}.antipode[{g}]")
        for g, entry in enumerate(_get(doc, "antipode", path, list))
    )
    levels_of = _int_list(
        _get(doc, "levels_of_generators", path, list), f"{path}.levels_of_generators"
    )
    base_of = _int_list(_get(doc, "base_generators", path, list), f"{path}.base_generators")
    for key, value, derived in (
        ("antipode", antipode, hopf.antipode),
        ("levels_of_generators", tuple(levels_of), hopf.level_of_gen),
        ("base_generators", tuple(base_of), hopf.base_gen_of),
    ):
        _expect(value == derived, f"{path}.{key}", "does not follow from the truncation")
    return hopf


def _parse_hopf_fd(doc, path) -> FinDimHopf:
    dim = _get(doc, "dim", path, int)
    mult_raw = _get(doc, "mult", path, list)
    _expect(len(mult_raw) == dim, f"{path}.mult", "one row per basis vector")
    mult = tuple(_parse_matrix(row, f"{path}.mult[{i}]") for i, row in enumerate(mult_raw))
    unit = _rationals(doc, "unit", path)
    delta = _parse_delta(_get(doc, "delta", path, list), f"{path}.delta")
    counit = _rationals(doc, "counit", path)
    antipode = _parse_matrix(_get(doc, "antipode", path, list), f"{path}.antipode", ncols=dim)
    return _make(path, FinDimHopf, dim, mult, unit, delta, counit, antipode)


def _parse_category(doc, path) -> FiniteCategory:
    objects = _get(doc, "objects", path, int)
    morphisms_raw = _get(doc, "morphisms", path, list)
    dom = []
    cod = []
    for i, m in enumerate(morphisms_raw):
        p = f"{path}.morphisms[{i}]"
        dom.append(_get(m, "dom", p, int))
        cod.append(_get(m, "cod", p, int))
    identity = tuple(_int_list(_get(doc, "identity", path, list), f"{path}.identity"))
    compose_raw = _get(doc, "compose", path, list)
    compose = {}
    for i, triple in enumerate(compose_raw):
        p = f"{path}.compose[{i}]"
        _expect(isinstance(triple, list) and len(triple) == 3, p, "expected [g, f, h]")
        g, f, h = _int_list(triple, p)
        _expect((g, f) not in compose, p, f"second composite of {g} after {f}")
        compose[(g, f)] = h
    return _make(path, FiniteCategory, objects, tuple(dom), tuple(cod), identity, compose)


def _parse_functor(doc, path) -> FunctorData:
    source = _parse_nested(doc, "source", "category", path)
    target = _parse_nested(doc, "target", "category", path)
    object_map = tuple(_int_list(_get(doc, "object_map", path, list), f"{path}.object_map"))
    morphism_map = tuple(
        _int_list(_get(doc, "morphism_map", path, list), f"{path}.morphism_map")
    )
    return _make(path, FunctorData, source, target, object_map, morphism_map)


def _parse_frame_sets(doc, path) -> SetComodFrame:
    magma = _parse_nested(doc, "magma", "set_magma", path)
    psi = tuple(_int_list(_get(doc, "psi", path, list), f"{path}.psi"))
    num_labels = _get(doc, "num_labels", path, int)
    return _make(f"{path}.psi", SetComodFrame, magma, psi, num_labels)




def _parse_map_set(doc, path):
    maps = _get(doc, "maps", path)
    if maps == "all":
        return "all"
    _expect(isinstance(maps, list), f"{path}.maps", "expected 'all' or a list of maps")
    return [tuple(_int_list(m, f"{path}.maps[{i}]")) for i, m in enumerate(maps)]


_PARSERS = {
    "signature": _parse_signature,
    "vect_magma": _parse_vect_magma,
    "set_magma": _parse_set_magma,
    "monoid_table": _parse_monoid_table,
    "grading": _parse_grading,
    "coalgebra": _parse_coalgebra,
    "tensor_map": _parse_tensor_map,
    "family_map": _parse_family_map,
    "presentation": _parse_presentation,
    "bialgebra_presentation": _parse_bialgebra_presentation,
    "hopf_fd": _parse_hopf_fd,
    "category": _parse_category,
    "functor": _parse_functor,
    "frame_sets": _parse_frame_sets,
    "map_set": _parse_map_set,
}


def _parse_nested(doc, key, expected_kind, path):
    sub = _get(doc, key, path, dict)
    kind = _get(sub, "kind", f"{path}.{key}", str)
    _expect(kind == expected_kind, f"{path}.{key}", f"expected kind {expected_kind!r}")
    return _PARSERS[expected_kind](sub, f"{path}.{key}")


def parse_document(doc: dict):
    """Parse an already-decoded document; returns (kind, typed value)."""
    if not isinstance(doc, dict):
        raise InputError("$: document must be a JSON object")
    kind = _get(doc, "kind", "$", str)
    if kind not in _PARSERS:
        _fail("$.kind", f"unknown kind {kind!r}")
    return kind, _PARSERS[kind](doc, "$")


def parse_input_document(text: str):
    """Decode and schema-validate a document from its JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc
    return parse_document(doc)


# ---------------------------------------------------------------------------
# serializers (canonical form)


def serialize_signature(sig: OmegaSignature) -> dict:
    return {
        "kind": "signature",
        "ops": [{"name": n, "in": s, "out": t} for n, s, t in sig.ops],
    }


def serialize_vect_magma(vm: FinVectMagma) -> dict:
    tensors = {}
    for name, _, _ in vm.signature.ops:
        tensors[name] = [
            {"out": list(out), "in": list(inp), "coeff": format_rational(c)}
            for (out, inp), c in sorted(vm.tensors[name].items())
        ]
    return {
        "kind": "vect_magma",
        "signature": serialize_signature(vm.signature),
        "dim": vm.dim,
        "basis": list(vm.basis_labels),
        "tensors": tensors,
    }


def serialize_set_magma(sm: FinSetMagma) -> dict:
    tables = {}
    for name, _, _ in sm.signature.ops:
        tables[name] = [
            {"in": list(inp), "out": list(out)}
            for inp, out in sorted(sm.tables[name].items())
        ]
    return {
        "kind": "set_magma",
        "signature": serialize_signature(sm.signature),
        "size": sm.size,
        "tables": tables,
    }


def serialize_monoid_table(m: FinMonoid) -> dict:
    return {
        "kind": "monoid_table",
        "table": [list(r) for r in m.table],
        "unit": m.unit,
    }


def serialize_grading(g: Grading) -> dict:
    doc = {
        "kind": "grading",
        "algebra": serialize_vect_magma(g.algebra),
        "labels": list(g.labels),
        "assignment": [g.labels[a] for a in g.assignment],
    }
    if g.group is not None:
        doc["group"] = {
            "monoid": serialize_monoid_table(g.group),
            "label_elements": list(g.label_elems),
        }
    return doc


def _serialize_delta(delta) -> list:
    return [
        [
            {"left": j, "right": k, "coeff": format_rational(c)}
            for (j, k), c in sorted(row.items())
        ]
        for row in delta
    ]


def serialize_coalgebra(c: FDCoalgebra) -> dict:
    return {
        "kind": "coalgebra",
        "dim": c.dim,
        "delta": _serialize_delta(c.delta),
        "counit": [format_rational(x) for x in c.counit],
    }


def serialize_tensor_map(t: TensorMapDoc) -> dict:
    doc = {
        "kind": "tensor_map",
        "dim_in": t.map.dim_in,
        "dim_out": t.map.dim_out,
        "dim_coeff": t.map.dim_coeff,
        "entries": [
            [[format_rational(x) for x in q] for q in row] for row in t.map.entries
        ],
    }
    if t.source is not None:
        doc["source"] = serialize_vect_magma(t.source)
    if t.target is not None:
        doc["target"] = serialize_vect_magma(t.target)
    if t.coeff_algebra is not None:
        doc["coeff_algebra"] = serialize_vect_magma(t.coeff_algebra)
    if t.coeff_coalgebra is not None:
        doc["coeff_coalgebra"] = serialize_coalgebra(t.coeff_coalgebra)
    return doc


def serialize_family_map(f: FamilyMap) -> dict:
    return {
        "kind": "family_map",
        "dim_p": f.dim_p,
        "dim_in": f.dim_in,
        "dim_out": f.dim_out,
        "matrices": [
            [[format_rational(x) for x in row] for row in m] for m in f.matrices
        ],
    }


def _ncpoly_terms(poly: NCPoly, labels) -> list:
    return [
        [[labels[g] for g in w], format_rational(c)] for w, c in poly.sorted_terms()
    ]


def serialize_group_presentation(p: GroupPresentation) -> dict:
    labels = p.gen_labels or tuple(f"g{i}" for i in range(p.num_gens))
    return {
        "kind": "presentation",
        "presentation_type": "group",
        "generators": list(labels),
        "relators": [list(w) for w in p.relators],
    }


def serialize_algebra_presentation(p) -> dict:
    """The presentation; a MatrixPresentation also writes its matrix_index."""
    matrix = p if isinstance(p, MatrixPresentation) else None
    algebra = p if matrix is None else matrix.algebra
    doc = {
        "kind": "presentation",
        "presentation_type": "algebra",
        "generators": list(algebra.gen_labels),
        "relations": [
            _ncpoly_terms(rel, algebra.gen_labels) for rel in algebra.relations
        ],
    }
    if matrix is not None:
        doc["matrix_index"] = {
            "gen_index": [
                {"block": b, "i": i, "j": j} for b, i, j in matrix.gen_index
            ],
            "blocks": [
                {"block": b, "members": list(ms)} for b, ms in matrix.blocks
            ],
        }
    return doc


def _delta_terms(poly: NCPoly, labels, k: int) -> list:
    out = []
    for w, c in poly.sorted_terms():
        left = [labels[g] for g in w if g < k]
        right = [labels[g - k] for g in w if g >= k]
        out.append({"left": left, "right": right, "coeff": format_rational(c)})
    return out


def serialize_bialgebra_presentation(b) -> dict:
    hopf = b if isinstance(b, HopfPresentation) else None
    bial = b.bialgebra if hopf is not None else b
    algebra = bial.algebra
    k = algebra.num_gens
    doc = serialize_algebra_presentation(bial.matrix or algebra)
    doc["kind"] = "bialgebra_presentation"
    doc["delta"] = [_delta_terms(p, algebra.gen_labels, k) for p in bial.delta]
    doc["counit"] = [format_rational(x) for x in bial.counit]
    if hopf is not None:
        doc["antipode"] = [
            None if p is None else _ncpoly_terms(p, algebra.gen_labels)
            for p in hopf.antipode
        ]
        doc["truncation"] = {
            "levels": hopf.levels,
            "degree_bound": hopf.degree_bound,
        }
        doc["levels_of_generators"] = list(hopf.level_of_gen)
        doc["base_generators"] = list(hopf.base_gen_of)
    return doc


def serialize_hopf_fd(h: FinDimHopf) -> dict:
    return {
        "kind": "hopf_fd",
        "dim": h.dim,
        "mult": [
            [[format_rational(x) for x in v] for v in row] for row in h.mult
        ],
        "unit": [format_rational(x) for x in h.unit],
        "delta": _serialize_delta(h.delta),
        "counit": [format_rational(x) for x in h.counit],
        "antipode": [[format_rational(x) for x in row] for row in h.antipode],
    }


def serialize_category(c: FiniteCategory) -> dict:
    return {
        "kind": "category",
        "objects": c.num_objects,
        "morphisms": [
            {"dom": c.dom[i], "cod": c.cod[i]} for i in range(c.num_morphisms)
        ],
        "identity": list(c.identity),
        "compose": [[g, f, h] for (g, f), h in sorted(c.compose.items())],
    }


def serialize_functor(f: FunctorData) -> dict:
    return {
        "kind": "functor",
        "source": serialize_category(f.source),
        "target": serialize_category(f.target),
        "object_map": list(f.object_map),
        "morphism_map": list(f.morphism_map),
    }


def serialize_frame_sets(f: SetComodFrame) -> dict:
    return {
        "kind": "frame_sets",
        "magma": serialize_set_magma(f.magma),
        "psi": list(f.psi),
        "num_labels": f.num_labels,
    }


def serialize_map_set(maps) -> dict:
    if maps == "all":
        return {"kind": "map_set", "maps": "all"}
    return {"kind": "map_set", "maps": [list(m) for m in maps]}


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=False) + "\n"


def document_to_text(doc: dict, indent: int = 0) -> str:
    """Stable human-readable rendering; json remains the contract."""
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(document_to_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(value)}")
        return "\n".join(lines)
    if isinstance(doc, list):
        for value in doc:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                lines.append(document_to_text(value, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(value)}")
        return "\n".join(lines)
    return f"{pad}{json.dumps(doc)}"
