"""The self-describing JSON document schema shared by all commands.

Every document is one JSON object with a top-level "kind".  Rationals are
strings "p/q" (q > 0, gcd(p, q) = 1) or "p" in ASCII digits, with no leading
0 and no sign on 0; labels and generator names are strings.  Every malformed
document is rejected with an InputError whose message starts with the path
to the offending field ("$.delta[1][0].coeff: ...").  parse_document alone
writes that path: a bad field raises with no path, and each parse step puts
its key or list index in front as the error unwinds (_at).

A table-shaped field (a list of ints, of int rows, of flat records, a set
magma's table, a tensor, a composition table) is read whole: one test in C
of the types and shapes of all its items (_uniform), then one comprehension
builds the value.  Only when that test fails is the field walked entry by
entry, and the walk raises at the first bad entry; so the walk is the one
reader's error locator, run on bad input only.  Serialization is canonical
and deterministic: parse followed by serialize is the identity on canonical
documents.  document_to_json writes the text of json.dumps(doc, indent=1)
byte for byte, with its strings, int lists, int rows and int records written
by C calls.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from itertools import chain, repeat
from math import gcd
from operator import countOf

from .coact import FamilyMap, FDAlgebra, FDCoalgebra, MatrixPresentation, TensorValuedMap
from .errors import InputError
from .finmonoid import FinMonoid
from .grading import Grading
from .grouppres import GroupPresentation, free_reduce_word
from .hopf import BialgebraPresentation, FinDimHopf, HopfPresentation
from .lio import FiniteCategory, FunctorData
from .ncalg import AlgebraPresentation, NCPoly
from .setsuniversal import SetComodFrame
from .signature import FinSetMagma, FinVectMagma, OmegaSignature


class _BadField(InputError):
    """A bad field: its message, and the keys and list indices that lead to it."""

    def __init__(self, message, *where):
        super().__init__(message)
        self.where = list(where)


def _expect(cond, message, *where):
    if not cond:
        raise _BadField(message, *where)


def _at(where, parse, *args):
    """parse(*args), a bad field or a constructor's InputError put under where."""
    try:
        return parse(*args)
    except _BadField as exc:
        exc.where[:0] = where
        raise
    except InputError as exc:
        raise _BadField(str(exc), *where) from exc


def _get(obj, key, types=None):
    if not isinstance(obj, dict) or key not in obj:
        raise _BadField(f"missing field {key!r}")
    value = obj[key]
    # a JSON boolean is no integer, though bool subclasses int
    if types is not None and (
        not isinstance(value, types) or types is int and isinstance(value, bool)
    ):
        raise _BadField(f"expected {types}, got {type(value).__name__}", key)
    return value


def _field(obj, key, parse, *args, types=list):
    """parse(obj[key], *args)."""
    return _at((key,), parse, _get(obj, key, types), *args)


def _each(xs, parse, *args):
    """The tuple of parse(x, *args) over the items x of the list xs."""
    _expect(isinstance(xs, list), "expected a list")
    return tuple([_at((i,), parse, x, *args) for i, x in enumerate(xs)])


def _by_name(obj, key, parse):
    """{name: parse(x)} over the items name: x of the object obj[key]."""
    return {name: _at((key, name), parse, x) for name, x in _get(obj, key, dict).items()}


def _record(obj, *fields):
    """The tuple of the fields (key, types) of obj."""
    return tuple([_get(obj, key, types) for key, types in fields])


# The bulk readers.  Each tests a whole field with _uniform and builds its
# value in one comprehension; when a test fails it calls the per-entry walk
# (_each, _keyed, _field), which raises today's message at the first bad
# entry.  A bulk test only ever refuses more than the walk does: exact types
# (no int or str subclass, no bool) and exact lists and dicts.


def _uniform(kind, xs):
    """True iff every item of the list xs is exactly of type kind, in C."""
    return countOf(map(type, xs), kind) == len(xs)


def _column(records, key):
    """The values of key in the records, a list of dicts; None where missing."""
    return list(map(dict.get, records, repeat(key)))


def _are_records(xs):
    return type(xs) is list and _uniform(dict, xs)


def _are_int_rows(rows):
    """True iff rows is a list of lists of exact ints."""
    return (
        type(rows) is list
        and _uniform(list, rows)
        and _uniform(int, list(chain.from_iterable(rows)))
    )


def _int_rows(rows):
    """The tuple of _int_list(row) over the items of the list rows."""
    if _are_int_rows(rows):
        return tuple(map(tuple, rows))
    return _each(rows, _int_list)


def _records(xs, *fields):
    """The tuple of _record(x, *fields) over the items x of the list xs."""
    if _are_records(xs):
        columns = [_column(xs, key) for key, _ in fields]
        if all(map(_uniform, [types for _, types in fields], columns)):
            return tuple(zip(*columns))
    return _each(xs, _record, *fields)


def parse_rational(s) -> int | Fraction:
    """The rational s, an int when integral (the form _linalg.exact keeps)."""
    _expect(isinstance(s, str), "rationals are strings 'p/q'")
    num, sep, den = s.partition("/")
    try:
        p = int(num)
        q = int(den) if sep else 1
        # int() also reads " 2", "+3", "007", "-0" and "1_0": take only what
        # format_rational writes, so that serializing gives s back
        if str(p) != num or sep and str(q) != den:
            raise ValueError
    except ValueError:
        raise _BadField(f"malformed rational {s!r}") from None
    if q <= 0:
        raise _BadField(f"rational {s!r} must have a positive denominator")
    if gcd(abs(p), q) != 1:
        raise _BadField(f"rational {s!r} is not in lowest terms")
    if sep and q == 1:
        raise _BadField(f"rational {s!r} must be written without /1")
    return p if q == 1 else Fraction(p, q)


def format_rational(x: Fraction) -> str:
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    p, q = x.numerator, x.denominator
    return str(p) if q == 1 else f"{p}/{q}"


def _int_list(xs):
    if type(xs) is not list or not _uniform(int, xs):
        _expect(isinstance(xs, list), "expected a list of integers")
        for i, x in enumerate(xs):
            if type(x) is not int and (not isinstance(x, int) or isinstance(x, bool)):
                raise _BadField("expected an integer", i)
    return tuple(xs)


def _rationals(strings):
    """{s: parse_rational(s)} over the distinct strings, or None when one of
    them is malformed."""
    try:
        return {s: parse_rational(s) for s in set(strings)}
    except _BadField:
        return None


def _label_index(labels):
    """The map label -> position; a repeated label is a bad field."""
    pos = {}
    for i, label in enumerate(labels):
        _expect(isinstance(label, str), "expected a string", i)
        _expect(label not in pos, f"repeated label {label!r}", i)
        pos[label] = i
    return pos


def _index_of(label, pos, what):
    if not isinstance(label, str) or label not in pos:
        raise _BadField(f"unknown {what} {label!r}")
    return pos[label]


# ---------------------------------------------------------------------------
# parsers per kind


def _parse_signature(doc) -> OmegaSignature:
    ops = _field(doc, "ops", _records, ("name", str), ("in", int), ("out", int))
    return OmegaSignature(ops)


def _parse_vect_magma(doc) -> FinVectMagma:
    sig = _parse_nested(doc, "signature", "signature")
    dim = _get(doc, "dim", int)
    basis = _get(doc, "basis", list)
    return FinVectMagma(sig, dim, tuple(basis), _by_name(doc, "tensors", _parse_tensor))


def _keyed(entries, parse, what):
    """{key: value} over the pairs parse(entry); a repeated key is a bad
    field at its second entry."""
    _expect(isinstance(entries, list), "expected a list")
    table = {}
    for i, e in enumerate(entries):
        key, value = _at((i,), parse, e)
        _expect(key not in table, f"duplicate {what}", i)
        table[key] = value
    return table


def _parse_tensor(entries):
    """{(out, in): coeff}, a zero coefficient left for FinVectMagma to drop;
    a repeated (out, in) is rejected, whether its coefficients are zero or
    not.  Each distinct coefficient string is read once."""
    if _are_records(entries):
        outs, ins, coeffs = [_column(entries, key) for key in ("out", "in", "coeff")]
        ok = _are_int_rows(outs) and _are_int_rows(ins) and _uniform(str, coeffs)
        values = _rationals(coeffs) if ok else None
        if values is not None:
            keys = zip(map(tuple, outs), map(tuple, ins))
            table = dict(zip(keys, map(values.__getitem__, coeffs)))
            if len(table) == len(entries):
                return table
    return _keyed(entries, _parse_tensor_entry, "tensor entry")


def _parse_tensor_entry(e):
    out = _field(e, "out", _int_list)
    inp = _field(e, "in", _int_list)
    return (out, inp), _field(e, "coeff", parse_rational, types=None)


def _parse_set_magma(doc) -> FinSetMagma:
    sig = _parse_nested(doc, "signature", "signature")
    size = _get(doc, "size", int)
    return FinSetMagma(sig, size, _by_name(doc, "tables", _parse_table))


def _parse_table(entries):
    if _are_records(entries):
        ins, outs = _column(entries, "in"), _column(entries, "out")
        if _are_int_rows(ins) and _are_int_rows(outs):
            table = dict(zip(map(tuple, ins), map(tuple, outs)))
            if len(table) == len(entries):
                return table
    return _keyed(entries, _parse_table_entry, "table entry")


def _parse_table_entry(e):
    return _field(e, "in", _int_list), _field(e, "out", _int_list)


def _parse_monoid_table(doc) -> FinMonoid:
    return FinMonoid(_field(doc, "table", _int_rows), _get(doc, "unit", int))


def _parse_grading(doc) -> Grading:
    algebra = _parse_nested(doc, "algebra", "vect_magma")
    labels = _get(doc, "labels", list)
    assignment = _get(doc, "assignment", list)
    pos = _at(("labels",), _label_index, labels)
    assignment = _at(("assignment",), _each, assignment, _index_of, pos, "label")
    group = label_elems = None
    if doc.get("group") is not None:
        group = _at(("group",), _parse_nested, doc["group"], "monoid", "monoid_table")
        label_elems = _at(("group",), _field, doc["group"], "label_elements", _int_list)
    return Grading(algebra, tuple(labels), assignment, group, label_elems)


def _parse_delta_row(row):
    """Terms {left, right, coeff} as {(left, right): coeff}, zeros dropped;
    a repeated (left, right) is rejected, whether its coefficients are zero
    or not."""
    terms = _keyed(row, _parse_delta_term, "delta term")
    return {jk: c for jk, c in terms.items() if c != 0}


def _parse_delta_term(e):
    jk = _record(e, ("left", int), ("right", int))
    return jk, _field(e, "coeff", parse_rational, types=None)


def _parse_coalgebra(doc) -> FDCoalgebra:
    dim = _get(doc, "dim", int)
    delta = _get(doc, "delta", list)
    _expect(len(delta) == dim, "one entry list per basis vector", "delta")
    delta = _at(("delta",), _each, delta, _parse_delta_row)
    return FDCoalgebra(dim, delta, _field(doc, "counit", _each, parse_rational))


def fd_algebra_from_vect_magma(vm: FinVectMagma) -> FDAlgebra:
    """Read a unital-product magma as an associative algebra (validated)."""
    mu, un = vm.signature.unital_ops()
    if mu is None or un is None:
        raise InputError("algebra data needs a binary product and a unit operation")
    n, zero = vm.dim, Fraction(0)
    mult = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for ((k,), (i, j)), c in vm.tensors[mu].items():
        mult[i][j][k] = Fraction(c)
    unit = [zero] * n
    for ((k,), ()), c in vm.tensors[un].items():
        unit[k] = Fraction(c)
    return FDAlgebra(n, tuple(tuple(map(tuple, row)) for row in mult), tuple(unit))


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


def _parse_matrix(rows, ncols=None):
    _expect(isinstance(rows, list), "expected a matrix (list of rows)")
    return _each(rows, _parse_row, ncols)


def _parse_row(row, ncols):
    _expect(isinstance(row, list), "expected a row")
    if ncols is not None and len(row) != ncols:
        raise _BadField(f"expected {ncols} entries")
    return _each(row, parse_rational)


def _parse_tensor_map(doc) -> TensorMapDoc:
    fields = ("dim_in", int), ("dim_out", int), ("dim_coeff", int)
    dim_in, dim_out, dim_coeff = _record(doc, *fields)
    entries = _get(doc, "entries", list)
    _expect(len(entries) == dim_out, "one row per target basis vector", "entries")
    entries = _at(("entries",), _each, entries, _parse_tensor_map_row, dim_in)
    tvm = TensorValuedMap(dim_in, dim_out, dim_coeff, entries)
    source = _parse_nested(doc, "source", "vect_magma", optional=True)
    target = _parse_nested(doc, "target", "vect_magma", optional=True)
    coeff_algebra = _parse_nested(doc, "coeff_algebra", "vect_magma", optional=True)
    coeff_coalgebra = _parse_nested(doc, "coeff_coalgebra", "coalgebra", optional=True)
    # of these fields, only the coefficient algebra can fail in the constructor
    return _at(("coeff_algebra",), TensorMapDoc,
               tvm, source, target, coeff_algebra, coeff_coalgebra)


def _parse_tensor_map_row(row, dim_in):
    _expect(isinstance(row, list) and len(row) == dim_in,
            "one coefficient vector per source basis vector")
    return _parse_matrix(row)


def _parse_family_map(doc) -> FamilyMap:
    dim_p, dim_in, dim_out = _record(doc, ("dim_p", int), ("dim_in", int), ("dim_out", int))
    mats = _get(doc, "matrices", list)
    _expect(len(mats) == dim_p, "one matrix per P basis vector", "matrices")
    mats = _at(("matrices",), _each, mats, _parse_matrix, dim_in)
    return FamilyMap(dim_p, dim_in, dim_out, mats)


def _parse_ncpoly(terms_raw, pos) -> NCPoly:
    terms = {}
    for word, coeff in _each(terms_raw, _parse_ncpoly_term, pos):
        terms[word] = terms.get(word, Fraction(0)) + coeff
    return NCPoly(terms)


def _parse_ncpoly_term(term, pos):
    _expect(isinstance(term, list) and len(term) == 2, "expected [word, coeff]")
    word, coeff = term
    _expect(isinstance(word, list), "expected a word (label array)", 0)
    word = _at((0,), _each, word, _index_of, pos, "generator")
    return word, _at((1,), parse_rational, coeff)


def _parse_presentation(doc):
    ptype = _get(doc, "presentation_type", str)
    gens = _get(doc, "generators", list)
    if ptype not in ("group", "algebra"):
        raise _BadField(f"unknown presentation_type {ptype!r}")
    pos = _at(("generators",), _label_index, gens)
    if ptype == "algebra":
        return _parse_algebra(doc, gens, pos)
    relators = _field(doc, "relators", _each, _parse_relator)
    return GroupPresentation(len(gens), relators, tuple(gens))


def _parse_relator(word):
    word = _int_list(word)
    _expect(free_reduce_word(word) == word, "relator is not freely reduced")
    return word


def _parse_algebra(doc, gens, pos):
    """The algebra presentation on gens, a MatrixPresentation when the
    document has a matrix_index; pos is the generator label -> index map."""
    relations = _field(doc, "relations", _each, _parse_relation, pos)
    algebra = AlgebraPresentation(len(gens), tuple(gens), relations)
    if doc.get("matrix_index") is None:
        return algebra
    return _at(("matrix_index",), _parse_matrix_index, doc["matrix_index"], algebra)


def _parse_relation(terms, pos):
    poly = _parse_ncpoly(terms, pos)
    _expect(not poly.is_zero(), "zero relation")
    return poly


def _parse_matrix_index(mi, algebra):
    gen_index = _field(mi, "gen_index", _records, ("block", str), ("i", int), ("j", int))
    blocks = _field(mi, "blocks", _each, _parse_block)
    return MatrixPresentation(algebra, gen_index, blocks)


def _parse_block(b):
    members = _field(b, "members", _int_list)
    return _get(b, "block", str), members


def _parse_bialgebra_presentation(doc):
    gens = _get(doc, "generators", list)
    pos = _at(("generators",), _label_index, gens)
    base = _parse_algebra(doc, gens, pos)
    matrix = base if isinstance(base, MatrixPresentation) else None
    algebra = base if matrix is None else matrix.algebra
    k = algebra.num_gens
    delta = _get(doc, "delta", list)
    _expect(len(delta) == k, "one coproduct image per generator", "delta")
    delta = _at(("delta",), _each, delta, _parse_coproduct, pos)
    counit = _field(doc, "counit", _each, parse_rational)
    bial = BialgebraPresentation(algebra, delta, counit, matrix)
    if doc.get("truncation") is None:
        return bial
    tr = doc["truncation"]
    levels, degree = _at(("truncation",), _record, tr, ("levels", int), ("degree_bound", int))
    # each of the constructor's messages names its own field of the truncation
    hopf = _at(("truncation",), HopfPresentation, bial, levels, degree)
    antipode = _field(doc, "antipode", _each, _parse_antipode_entry, pos)
    levels_of = _field(doc, "levels_of_generators", _int_list)
    base_of = _field(doc, "base_generators", _int_list)
    for key, value, derived in (
        ("antipode", antipode, hopf.antipode),
        ("levels_of_generators", levels_of, hopf.level_of_gen),
        ("base_generators", base_of, hopf.base_gen_of),
    ):
        _expect(value == derived, "does not follow from the truncation", key)
    return hopf


def _parse_coproduct(terms, pos):
    image = {}  # repeated pairs summed; BialgebraPresentation drops zero sums
    for pair, coeff in _each(terms, _parse_coproduct_term, pos):
        image[pair] = image.get(pair, 0) + coeff
    return image


def _parse_coproduct_term(term, pos):
    left = _get(term, "left", list)
    right = _get(term, "right", list)
    coeff = _field(term, "coeff", parse_rational, types=None)
    pair = tuple(tuple(_index_of(lab, pos, "generator") for lab in w) for w in (left, right))
    return pair, coeff


def _parse_antipode_entry(entry, pos):
    return None if entry is None else _parse_ncpoly(entry, pos)


def _parse_hopf_fd(doc) -> FinDimHopf:
    dim = _get(doc, "dim", int)
    mult = _get(doc, "mult", list)
    _expect(len(mult) == dim, "one row per basis vector", "mult")
    mult = _at(("mult",), _each, mult, _parse_matrix)
    unit = _field(doc, "unit", _each, parse_rational)
    delta = _field(doc, "delta", _each, _parse_delta_row)
    counit = _field(doc, "counit", _each, parse_rational)
    antipode = _field(doc, "antipode", _parse_matrix, dim)
    return FinDimHopf(dim, mult, unit, delta, counit, antipode)


def _parse_category(doc) -> FiniteCategory:
    objects = _get(doc, "objects", int)
    morphisms = _field(doc, "morphisms", _records, ("dom", int), ("cod", int))
    identity = _field(doc, "identity", _int_list)
    compose = _field(doc, "compose", _parse_compose)
    dom = tuple(d for d, _ in morphisms)
    cod = tuple(c for _, c in morphisms)
    return FiniteCategory(objects, dom, cod, identity, compose)


def _parse_compose(triples):
    if _are_int_rows(triples) and countOf(map(len, triples), 3) == len(triples):
        compose = {(g, f): h for g, f, h in triples}
        if len(compose) == len(triples):
            return compose
    compose = {}
    for i, triple in enumerate(triples):
        _expect(isinstance(triple, list) and len(triple) == 3, "expected [g, f, h]", i)
        g, f, h = _at((i,), _int_list, triple)
        if (g, f) in compose:
            raise _BadField(f"second composite of {g} after {f}", i)
        compose[(g, f)] = h
    return compose


def _parse_functor(doc) -> FunctorData:
    source = _parse_nested(doc, "source", "category")
    target = _parse_nested(doc, "target", "category")
    object_map = _field(doc, "object_map", _int_list)
    morphism_map = _field(doc, "morphism_map", _int_list)
    return FunctorData(source, target, object_map, morphism_map)


def _parse_frame_sets(doc) -> SetComodFrame:
    magma = _parse_nested(doc, "magma", "set_magma")
    psi = _field(doc, "psi", _int_list)
    num_labels = _get(doc, "num_labels", int)
    return _at(("psi",), SetComodFrame, magma, psi, num_labels)


def _parse_map_set(doc):
    maps = _get(doc, "maps")
    if maps == "all":
        return "all"
    _expect(isinstance(maps, list), "expected 'all' or a list of maps", "maps")
    return list(_at(("maps",), _int_rows, maps))


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


def _parse_nested(doc, key, kind, optional=False):
    if optional and doc.get(key) is None:
        return None
    return _field(doc, key, _parse_kind, kind, types=dict)


def _parse_kind(sub, kind):
    if _get(sub, "kind", str) != kind:
        raise _BadField(f"expected kind {kind!r}")
    return _PARSERS[kind](sub)


def parse_document(doc: dict):
    """Parse an already-decoded document; returns (kind, typed value)."""
    try:
        _expect(isinstance(doc, dict), "document must be a JSON object")
        kind = _get(doc, "kind", str)
        if kind not in _PARSERS:
            raise _BadField(f"unknown kind {kind!r}", "kind")
        return kind, _at((), _PARSERS[kind], doc)
    except _BadField as exc:
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in exc.where)
        raise InputError(f"${path}: {exc}") from None


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


def _delta_terms(image: dict, labels, k: int) -> list:
    # decreasing deglex on left + right, the right letters above the k generators
    pairs = sorted(image, key=lambda p: (len(p[0] + p[1]), p[0] + (k,), p[1]), reverse=True)
    out = []
    for left, right in pairs:
        coeff = format_rational(image[left, right])
        left, right = [labels[g] for g in left], [labels[g] for g in right]
        out.append({"left": left, "right": right, "coeff": coeff})
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


def serialize_map_set(maps) -> dict:
    if maps == "all":
        return {"kind": "map_set", "maps": "all"}
    return {"kind": "map_set", "maps": [list(m) for m in maps]}


def document_to_json(doc: dict) -> str:
    """json.dumps(doc, indent=1) + "\n", byte for byte, without json's
    pure-Python indenting encoder: a list of exact ints, strs, bools or
    Nones is written in one join, and a list of int rows or of records with
    the same keys and int values in one % template."""
    return _json_text(doc, "") + "\n"


# the scalars written in one C call each, by type: bool is no int here
_EXACT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(x, pad):
    """The json.dumps(x, indent=1) text of x, its inner lines indented past pad."""
    write = _EXACT.get(type(x))
    if write is not None:
        return write(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = pad + " "
        sep = ",\n" + inner
        items = [f"{_json_key(k)}: {_json_text(v, inner)}" for k, v in x.items()]
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = pad + " "
        sep = ",\n" + inner
        first = x[0]
        kind, body = type(first), None
        if kind in _EXACT and countOf(map(type, x), kind) == len(x):
            body = sep.join(map(_EXACT[kind], x))
        # any other list is refused from its first item: only a list that
        # starts with an int row or an int-valued record is tested whole
        elif kind is list and first and type(first[0]) is int:
            body = _int_rows_text(x, inner, sep)
        elif kind is dict and first and type(next(iter(first.values()))) is int:
            body = _int_records_text(x, inner, sep)
        if body is None:
            body = sep.join([_json_text(v, inner) for v in x])
        return f"[\n{inner}{body}\n{pad}]"
    return json.dumps(x)  # a float, or what json rejects, by json's C encoder


def _int_rows_text(rows, pad, sep):
    """The rows, a list of lists of exact ints, written at pad and joined by
    sep, in one % template; None for any other list."""
    if not _are_int_rows(rows):
        return None
    inner = pad + " "
    row_sep = ",\n" + inner
    template = {0: "[]"}  # the text of a row by its length, "%d" per int
    for k in set(map(len, rows)) - {0}:
        template[k] = f"[\n{inner}{row_sep.join(['%d'] * k)}\n{pad}]"
    return sep.join(map(template.__getitem__, map(len, rows))) % tuple(chain.from_iterable(rows))


def _int_records_text(records, pad, sep):
    """The records, dicts with the keys of the first in its order and exact
    int values, written at pad and joined by sep, in one % template; None
    for any other list."""
    if not _are_records(records):
        return None
    keys = tuple(records[0])
    values = list(chain.from_iterable(map(dict.values, records)))
    if countOf(map(tuple, records), keys) != len(records) or not _uniform(int, values):
        return None
    inner = pad + " "
    field_sep = ",\n" + inner
    fields = field_sep.join([_json_key(k).replace("%", "%%") + ": %d" for k in keys])
    template = f"{{\n{inner}{fields}\n{pad}}}"
    return sep.join([template] * len(records)) % tuple(values)


def _json_key(k):
    """A dict key as json writes it: a number, a bool or None in quotes."""
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if isinstance(k, (int, float)) or k is None:
        return f'"{json.dumps(k)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


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
