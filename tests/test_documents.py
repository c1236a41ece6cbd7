import copy
import functools
import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univhopf import documents as docs
from univhopf.coact import (
    manin_end_presentation,
    tambara_presentation,
)
from univhopf.errors import InputError, PreconditionError
from univhopf.grouppres import presentation
from univhopf.hopf import (
    hopf_envelope_presentation,
    universal_bialgebra_structure,
)
from univhopf.lio import FiniteCategory, identity_functor
from univhopf.signature import FinSetMagma, OmegaSignature
from univhopf.setsuniversal import SetComodFrame

from univhopf.grading import Grading

from helpers import (
    chain_monoid_a3_eq_a,
    complex_norm_category,
    family_map,
    full_subcategory_inclusion,
    full_transformation_monoid,
    reflective_subchain_functor,
    two_incomparable_lio_category,
    two_product_grading,
    cyclic_monoid,
    dual_numbers_grading,
    group_algebra_hopf,
    klein_four,
    cyclic_set_magma,
    pauli_algebra,
    dual_numbers,
    fd_coalgebra,
    pauli_grading,
    serialize_again,
    serialize_frame_sets,
    serialize_grading,
    split_quadratic,
    tensor_valued_map,
    thin_chain_category,
)
from oracles import op_entry

F = Fraction

_MANIN_END = manin_end_presentation(dual_numbers_grading())
_MANIN_END_BIALGEBRA = docs.serialize_bialgebra_presentation(
    universal_bialgebra_structure(_MANIN_END)
)


def test_rational_parsing():
    assert docs.parse_rational("3") == F(3)
    assert type(docs.parse_rational("3")) is int
    assert docs.parse_rational("-7/2") == F(-7, 2)
    for bad in ("2/4", "1/-2", "1/0", "x", "3/1", 7):
        with pytest.raises(InputError):
            docs.parse_rational(bad)


@settings(max_examples=300, deadline=None)
@given(st.fractions(), st.text(alphabet="0123456789-/+ _\u0663", max_size=6))
def test_parse_rational_accepts_exactly_the_written_form(x, s):
    assert docs.parse_rational(docs.format_rational(x)) == x
    try:
        parsed = docs.parse_rational(s)
    except InputError:
        return
    assert docs.format_rational(parsed) == s


def test_format_rational():
    assert docs.format_rational(F(3)) == "3"
    assert docs.format_rational(F(-7, 2)) == "-7/2"
    # ints are written as they are, other numbers through Fraction
    assert [docs.format_rational(x) for x in (0, -4, True, 0.5)] == ["0", "-4", "1", "1/2"]


def test_fd_algebra_from_a_vect_magma_equals_its_dense_table():
    for vm in (dual_numbers(), split_quadratic(), pauli_algebra()):
        mu, un = vm.signature.unital_ops()
        n, fd = vm.dim, docs.fd_algebra_from_vect_magma(vm)
        rng = range(n)
        assert fd.mult == tuple(
            tuple(tuple(op_entry(vm, mu, (k,), (i, j)) for k in rng) for j in rng) for i in rng
        )
        assert fd.unit == tuple(op_entry(vm, un, (k,), ()) for k in rng)
        assert {type(x) for row in fd.mult for v in row for x in v} == {F}


def _roundtrip(doc: dict):
    text = docs.document_to_json(doc)
    kind, value = docs.parse_input_document(text)
    return kind, value, text


SERIALIZED_FIXTURES = [
    docs.serialize_signature(dual_numbers().signature),
    docs.serialize_vect_magma(dual_numbers()),
    docs.serialize_set_magma(cyclic_set_magma(3)),
    docs.serialize_monoid_table(cyclic_monoid(4)),
    serialize_grading(pauli_grading()),
    serialize_grading(
        Grading(
            pauli_grading().algebra,
            ("e", "x", "y", "z"),
            (0, 1, 2, 3),
            klein_four(),
            (0, 1, 2, 3),
        )
    ),
    docs.serialize_coalgebra(
        fd_coalgebra([[((0, 0), 1)], [((1, 1), 1)]], [1, 1])
    ),
    docs.serialize_tensor_map(
        docs.TensorMapDoc(
            tensor_valued_map(2, 2, 2, [[[1, 0], ["0", 0]], [[0, 0], [0, 1]]]),
            source=dual_numbers(),
            target=dual_numbers(),
            coeff_algebra=split_quadratic(),
        )
    ),
    docs.serialize_family_map(family_map(2, 2, [[[1, 0], [0, 1]]])),
    docs.serialize_group_presentation(presentation(2, [(1, 1), (2, 2)], ["a", "b"])),
    docs.serialize_algebra_presentation(
        tambara_presentation(dual_numbers(), dual_numbers())
    ),
    docs.serialize_bialgebra_presentation(
        replace(universal_bialgebra_structure(_MANIN_END), matrix=None)
    ),
    docs.serialize_bialgebra_presentation(
        hopf_envelope_presentation(
            universal_bialgebra_structure(
                manin_end_presentation(dual_numbers_grading())
            ),
            1,
            4,
        )
    ),
    docs.serialize_hopf_fd(group_algebra_hopf(cyclic_monoid(2))),
    docs.serialize_category(thin_chain_category(3)),
    docs.serialize_functor(identity_functor(thin_chain_category(2))),
    serialize_frame_sets(SetComodFrame(cyclic_set_magma(3), (0, 1, 1), 2)),
    docs.serialize_map_set("all"),
    docs.serialize_map_set([(0, 1), (1, 0)]),
]


# documents with a field the serializer must write back as read: a label set
# larger than the labels used, and a bialgebra's matrix index
ROUNDTRIP_ONLY = [
    pytest.param(
        {
            "kind": "frame_sets",
            "magma": docs.serialize_set_magma(cyclic_set_magma(2)),
            "psi": [0, 0],
            "num_labels": 3,
        },
        id="frame_sets_num_labels",
    ),
    pytest.param(_MANIN_END_BIALGEBRA, id="bialgebra_presentation_matrix_index"),
]


@pytest.mark.parametrize(
    "doc", SERIALIZED_FIXTURES + ROUNDTRIP_ONLY, ids=lambda d: d["kind"]
)
def test_roundtrip_byte_identical(doc):
    kind, value, text = _roundtrip(doc)
    assert kind == doc["kind"]
    reserialized = serialize_again(kind, value)
    assert docs.document_to_json(reserialized) == text


MUTANT_VALUES = (None, 0, 1.5, True, "x", [], [0], [[0]], ["x"], {}, {"a": 1}, [{}])

# the fixtures plus a hopf-envelope input (a bialgebra with its matrix index)
# and a second hopf_fd
MUTATION_FIXTURES = SERIALIZED_FIXTURES + [
    _MANIN_END_BIALGEBRA,
    docs.serialize_hopf_fd(group_algebra_hopf(klein_four())),
]


def _field_paths(node, prefix=()):
    """The path to every field at any depth, of lists only the first 3 items."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node[:3]))
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@functools.cache
def _mutation_outcomes(k):
    """[path, repr(value), outcome] for every one-field mutation of fixture k,
    the outcome "ok" or the typed error raised, as "ClassName: message"."""
    doc = MUTATION_FIXTURES[k]
    outcomes = []
    for path in _field_paths(doc):
        for value in MUTANT_VALUES:
            try:
                docs.parse_document(_replaced(doc, path, value))
                outcome = "ok"
            except (InputError, PreconditionError) as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            except Exception as exc:
                pytest.fail(f"{path} = {value!r}: {exc!r}")
            outcomes.append([list(path), repr(value), outcome])
    return outcomes


@pytest.mark.parametrize(
    "k", range(len(MUTATION_FIXTURES)), ids=lambda k: MUTATION_FIXTURES[k]["kind"]
)
def test_one_field_mutations_raise_only_typed_errors(k):
    _mutation_outcomes(k)


def test_one_field_mutation_outcomes_are_pinned():
    # every outcome, each rejection with its path and message
    outcomes = [o for k in range(len(MUTATION_FIXTURES)) for o in _mutation_outcomes(k)]
    assert len(outcomes) == 11736
    assert sum(o[2] != "ok" for o in outcomes) == 11252
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == "24ac0ed18933f9e09772eebea28837c8c6ee928fc399210cbec670766816e88e"


# ---------------------------------------------------------------------------
# the bulk reader against the per-entry walk, at any depth and any index


_OPS = st.lists(
    st.sampled_from([("mu", 2, 1), ("unit", 0, 1), ("pair", 1, 2), ("op3", 3, 1)]),
    min_size=1, max_size=3, unique=True,
)


@st.composite
def _set_magma_docs(draw):
    size, sig = draw(st.integers(1, 3)), OmegaSignature(tuple(draw(_OPS)))
    element = st.integers(0, size - 1)
    tables = {
        name: {args: tuple(draw(element) for _ in range(t))
               for args in product(range(size), repeat=s)}
        for name, s, t in sig.ops
    }
    return docs.serialize_set_magma(FinSetMagma(sig, size, tables))


def _one_object_category(m):
    """The monoid m as a category with one object."""
    n = m.size
    compose = {(g, f): m.mul(g, f) for g in range(n) for f in range(n)}
    return FiniteCategory(1, (0,) * n, (0,) * n, (m.unit,), compose)


_CATEGORIES = [
    thin_chain_category(1),
    thin_chain_category(4),
    complex_norm_category()[0],
    two_incomparable_lio_category(),
    _one_object_category(klein_four()),
    _one_object_category(chain_monoid_a3_eq_a()),
]
_MONOIDS = [cyclic_monoid(1), cyclic_monoid(4), klein_four(), chain_monoid_a3_eq_a(),
            full_transformation_monoid(2)]
_GRADINGS = [pauli_grading(), dual_numbers_grading(), two_product_grading(),
             Grading(pauli_grading().algebra, ("e", "x", "y", "z"), (0, 1, 2, 3),
                     klein_four(), (0, 1, 2, 3))]
_FUNCTORS = [identity_functor(thin_chain_category(3)), reflective_subchain_functor()[0],
             full_subcategory_inclusion(complex_norm_category()[0], [0, 1, 4])]

_VALID_DOCUMENTS = (
    _set_magma_docs()
    | st.sampled_from(_CATEGORIES).map(docs.serialize_category)
    | st.sampled_from(_FUNCTORS).map(docs.serialize_functor)
    | st.sampled_from(_MONOIDS).map(docs.serialize_monoid_table)
    | st.sampled_from(_GRADINGS).map(serialize_grading)
)
_DELETED = object()


def _every_path(node, prefix=()):
    """The path to every field and list item at any depth."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield prefix + (key,)
            yield from _every_path(value, prefix + (key,))


def _read(doc):
    """The parsed value, written out, or the typed error raised."""
    try:
        kind, value = docs.parse_document(doc)
    except (InputError, PreconditionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return kind, repr(value), docs.document_to_json(serialize_again(kind, value))


@settings(max_examples=600, deadline=None)
@given(st.data(), _VALID_DOCUMENTS)
def test_the_bulk_reader_reads_as_the_per_entry_walk(data, doc):
    path = data.draw(st.sampled_from(sorted(_every_path(doc), key=repr)))
    value = data.draw(
        st.sampled_from(MUTANT_VALUES + (2**70, _DELETED)) | st.integers(-2, 9)
    )
    mutant = copy.deepcopy(doc)
    node = functools.reduce(lambda n, k: n[k], path[:-1], mutant)
    if value is _DELETED:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    got = _read(mutant)
    # every whole-field test refuses, so every field is read entry by entry
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(docs, "_uniform", lambda kind, xs: False)
        assert _read(mutant) == got


def test_missing_kind_rejected():
    with pytest.raises(InputError):
        docs.parse_document({"table": [[0]], "unit": 0})


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        docs.parse_document({"kind": "nonsense"})


def test_malformed_json_rejected():
    with pytest.raises(InputError):
        docs.parse_input_document("{not json")


def _with_second_label_repeated(doc, key):
    doc[key] = [doc[key][0], doc[key][0], *doc[key][2:]]
    return doc, f"$.{key}[1]: repeated label {doc[key][0]!r}"


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"kind": "presentation", "presentation_type": "group",
          "generators": ["a", "b"], "relators": []}, "generators"),
        (docs.serialize_algebra_presentation(tambara_presentation(
            dual_numbers(), dual_numbers())), "generators"),
        (_MANIN_END_BIALGEBRA, "generators"),
        (serialize_grading(pauli_grading()), "labels"),
    ],
    ids=["group", "algebra", "bialgebra", "grading"],
)
def test_a_repeated_label_is_rejected_at_its_second_position(doc, key):
    doc, message = _with_second_label_repeated(copy.deepcopy(doc), key)
    with pytest.raises(InputError) as err:
        docs.parse_document(doc)
    assert str(err.value) == message


def test_unreduced_rational_rejected_with_path():
    doc = docs.serialize_vect_magma(dual_numbers())
    doc["tensors"]["mu"][0]["coeff"] = "2/4"
    with pytest.raises(InputError) as err:
        docs.parse_document(doc)
    assert "2/4" in str(err.value)


def test_non_associative_monoid_is_a_precondition_error():
    doc = {
        "kind": "monoid_table",
        "table": [[0, 1, 2], [1, 0, 0], [2, 0, 1]],
        "unit": 0,
    }
    with pytest.raises(PreconditionError):
        docs.parse_document(doc)


def test_minimal_monoid_document():
    kind, value = docs.parse_document(
        {"kind": "monoid_table", "table": [[0]], "unit": 0}
    )
    assert kind == "monoid_table" and value.size == 1


def test_grading_document_unknown_label_rejected():
    doc = serialize_grading(dual_numbers_grading())
    doc["assignment"][1] = "ghost"
    with pytest.raises(InputError) as err:
        docs.parse_document(doc)
    assert "assignment" in str(err.value)


def test_text_rendering_is_deterministic():
    doc = docs.serialize_monoid_table(cyclic_monoid(3))
    assert docs.document_to_text(doc) == docs.document_to_text(doc)
    assert "kind" in docs.document_to_text(doc)


def test_unreduced_relator_rejected():
    doc = {
        "kind": "presentation",
        "presentation_type": "group",
        "generators": ["a"],
        "relators": [[1, -1]],
    }
    with pytest.raises(InputError) as err:
        docs.parse_document(doc)
    assert "freely reduced" in str(err.value)


# documents that parsed before their values checked their own invariants,
# with the error each one now raises at parse
_TAMBARA = docs.serialize_algebra_presentation(
    tambara_presentation(dual_numbers(), dual_numbers())
)
_ENVELOPE = docs.serialize_bialgebra_presentation(
    hopf_envelope_presentation(universal_bialgebra_structure(_MANIN_END), 1, 4)
)
_HOPF_FD = docs.serialize_hopf_fd(group_algebra_hopf(cyclic_monoid(2)))
_GHOST = _replaced(_MANIN_END_BIALGEBRA, ("matrix_index", "gen_index", 1, "block"), "ghost")
_BAD_TRUNCATION = {
    **_replaced(_ENVELOPE, ("truncation", "levels"), -3),
    "levels_of_generators": [9, 9, 9, 9],
    "base_generators": [5],
    "antipode": [None],
}

MALFORMED = [
    pytest.param(
        _replaced(_MANIN_END_BIALGEBRA, ("matrix_index", "gen_index"),
                  _MANIN_END_BIALGEBRA["matrix_index"]["gen_index"][:1]),
        "$.matrix_index: matrix index must put each generator at its own (i, j)",
        id="gen_index_one_entry_for_two_generators",
    ),
    pytest.param(
        _GHOST,
        "$.matrix_index: matrix index does not fill its distinct square blocks",
        id="generator_in_a_ghost_block",
    ),
    pytest.param(
        _replaced(_TAMBARA, ("matrix_index", "gen_index"), []),
        "$.matrix_index: matrix index must put each generator at its own (i, j)",
        id="presentation_with_empty_gen_index",
    ),
    pytest.param(
        _replaced(_TAMBARA, ("matrix_index", "blocks", 0, "members"), [0]),
        "$.matrix_index: matrix index does not fill its distinct square blocks",
        id="block_missing_a_member",
    ),
    pytest.param(
        _BAD_TRUNCATION,
        "$.truncation: levels must be nonnegative",
        id="envelope_with_negative_levels",
    ),
    pytest.param(
        _replaced(_ENVELOPE, ("truncation", "levels"), 2),
        "$.truncation: generator count is not a multiple of levels + 1",
        id="envelope_levels_not_dividing_the_generators",
    ),
    pytest.param(
        _replaced(_ENVELOPE, ("truncation", "degree_bound"), -3),
        "$.truncation: degree bound must be nonnegative",
        id="envelope_with_negative_degree_bound",
    ),
    pytest.param(
        _replaced(_ENVELOPE, ("levels_of_generators",), [9, 9, 9, 9]),
        "$.levels_of_generators: does not follow from the truncation",
        id="envelope_levels_of_generators",
    ),
    pytest.param(
        _replaced(_ENVELOPE, ("base_generators",), [5]),
        "$.base_generators: does not follow from the truncation",
        id="envelope_base_generators",
    ),
    pytest.param(
        _replaced(_ENVELOPE, ("antipode",), [None]),
        "$.antipode: does not follow from the truncation",
        id="envelope_antipode",
    ),
    pytest.param(
        _replaced(_HOPF_FD, ("mult", 0, 0), ["1"]),
        "$: product vector length mismatch",
        id="hopf_fd_short_product_vector",
    ),
    pytest.param(
        _replaced(_HOPF_FD, ("unit",), ["1"]),
        "$: unit vector length mismatch",
        id="hopf_fd_short_unit",
    ),
    pytest.param(
        _replaced(_HOPF_FD, ("delta", 0, 0, "left"), 9),
        "$: comultiplication index out of range",
        id="hopf_fd_delta_index_9",
    ),
    pytest.param(
        _replaced(_HOPF_FD, ("antipode",), _HOPF_FD["antipode"][:1]),
        "$: antipode matrix shape mismatch",
        id="hopf_fd_one_antipode_row",
    ),
    pytest.param(
        _replaced(_HOPF_FD, ("delta",), _HOPF_FD["delta"][:1]),
        "$: coalgebra data shape mismatch",
        id="hopf_fd_one_delta_row",
    ),
]


@pytest.mark.parametrize("doc, message", MALFORMED)
def test_values_check_their_invariants_at_parse(doc, message):
    with pytest.raises(InputError) as err:
        docs.parse_document(doc)
    assert str(err.value) == message


def test_envelope_document_derives_its_bookkeeping():
    kind, env = docs.parse_document(_ENVELOPE)
    assert kind == "bialgebra_presentation" and env.levels == 1
    assert env.level_of_gen == (0, 0, 1, 1) and env.base_gen_of == (0, 1, 0, 1)
    assert _ENVELOPE["antipode"][2:] == [None, None]


# each document repeats an item and has a malformed item after it: the repeat,
# the first fault, is the one reported
_CATEGORY = docs.serialize_category(thin_chain_category(3))
_C3 = docs.serialize_set_magma(cyclic_set_magma(3))
_DUAL = docs.serialize_vect_magma(dual_numbers())

FIRST_FAULTS = [
    pytest.param(
        _replaced(_CATEGORY, ("compose",),
                  _CATEGORY["compose"] + [_CATEGORY["compose"][0], ["x", 0, 0]]),
        "$.compose[10]: second composite of 0 after 0",
        id="category_second_composite",
    ),
    pytest.param(
        _replaced(_replaced(_C3, ("tables", "mu", 1), _C3["tables"]["mu"][0]),
                  ("tables", "mu", 2, "in"), ["x"]),
        "$.tables.mu[1]: duplicate table entry",
        id="set_magma_duplicate_table_entry",
    ),
    pytest.param(
        _replaced(_replaced(_DUAL, ("tensors", "mu", 1), _DUAL["tensors"]["mu"][0]),
                  ("tensors", "mu", 2, "coeff"), "2/4"),
        "$.tensors.mu[1]: duplicate tensor entry",
        id="vect_magma_duplicate_tensor_entry",
    ),
]


@pytest.mark.parametrize("doc, message", FIRST_FAULTS)
def test_the_first_of_two_faults_is_reported(doc, message):
    with pytest.raises(InputError) as err:
        docs.parse_document(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("coeffs", [("0", "1"), ("1", "0")], ids=["zero_first", "zero_last"])
def test_a_repeated_tensor_entry_is_rejected_whatever_its_coefficients(coeffs):
    entry = _DUAL["tensors"]["mu"][0]
    repeated = [{**entry, "coeff": c} for c in coeffs]
    doc = _replaced(_DUAL, ("tensors", "mu"), repeated + _DUAL["tensors"]["mu"][1:])
    with pytest.raises(InputError) as err:
        docs.parse_document(doc)
    assert str(err.value) == "$.tensors.mu[1]: duplicate tensor entry"


_COALGEBRA = docs.serialize_coalgebra(fd_coalgebra([[((0, 0), 1)], [((1, 1), 1)]], [1, 1]))


@pytest.mark.parametrize("doc", [_COALGEBRA, _HOPF_FD], ids=["coalgebra", "hopf_fd"])
@pytest.mark.parametrize(
    "coeffs", [("0", "1"), ("1", "0"), ("1", "1")], ids=["zero_first", "zero_last", "equal"]
)
def test_a_repeated_delta_term_is_rejected_whatever_its_coefficients(doc, coeffs):
    term = doc["delta"][1][0]
    repeated = [{**term, "coeff": c} for c in coeffs]
    with pytest.raises(InputError) as err:
        docs.parse_document(_replaced(doc, ("delta", 1), repeated))
    assert str(err.value) == "$.delta[1][1]: duplicate delta term"


# ---------------------------------------------------------------------------
# the writer reproduces json.dumps(indent=1) byte for byte


def _dumps(doc):
    return json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize(
    "doc", SERIALIZED_FIXTURES + ROUNDTRIP_ONLY + MUTATION_FIXTURES[-2:],
    ids=lambda d: d["kind"],
)
def test_serializer_outputs_are_written_as_json_writes_them(doc):
    assert docs.document_to_json(doc) == _dumps(doc)


_SCALARS = (
    st.text()  # any code point, control characters and surrogates included
    | st.integers()
    | st.integers(-(2**80), 2**80)
    | st.booleans()
    | st.none()
    | st.floats()
)
_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()


@st.composite
def _int_rows_or_records(draw):
    """Equal-length int rows, or int records with the same keys in the same
    order, which the writer writes in one template; at times with one item
    that is not: a bool, a big int, a str or an empty row or record slipped
    in at a random position, or one record's keys reordered."""
    if draw(st.booleans()):
        k = draw(st.integers(0, 4))
        row = st.lists(st.integers(-(2**70), 2**70), min_size=k, max_size=k)
        items = draw(st.lists(row, min_size=1, max_size=6))
    else:
        key = st.text(max_size=3) | st.integers(-3, 3) | st.sampled_from(["%", "%d", "%%"])
        keys = draw(st.lists(key, min_size=1, max_size=4, unique=True))
        record = st.fixed_dictionaries({key: st.integers() for key in keys})
        items = draw(st.lists(record, min_size=1, max_size=6))
    i = draw(st.integers(0, len(items) - 1))
    odd = draw(st.sampled_from([None, True, False, 2**80, -(2**70), "x", "%d"]))
    where = draw(st.sampled_from(["nowhere", "item", "row", "reorder"]))
    if where == "item":
        items[i] = odd if odd is not None else type(items[i])()
    elif where == "row" and items[i]:
        keys = list(items[i]) if isinstance(items[i], dict) else range(len(items[i]))
        items[i][draw(st.sampled_from(keys))] = odd
    elif where == "reorder" and isinstance(items[i], dict):
        items[i] = dict(reversed(items[i].items()))
    return items


_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(), max_size=5)
    | st.lists(st.text(max_size=3), max_size=5)
    | _int_rows_or_records()
    | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_TREES)
def test_any_json_tree_is_written_as_json_writes_it(doc):
    assert docs.document_to_json(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [Fraction(1, 2), {1, 2}, [0, Fraction(1, 2)], {"a": [{0}]}, {(0, 1): 2}, {"a": b"x"}],
    ids=["fraction", "set", "fraction_in_int_list", "set_in_dict", "tuple_key", "bytes"],
)
def test_what_json_rejects_raises_its_type_error(doc):
    with pytest.raises(TypeError) as want:
        _dumps(doc)
    with pytest.raises(TypeError) as got:
        docs.document_to_json(doc)
    assert str(got.value) == str(want.value)
