import io
import json

import pytest

from univhopf import documents as docs
from univhopf.cli import build_parser, run
from univhopf.grouppres import DEFAULT_COSET_LIMIT
from univhopf.hopf import DEFAULT_ANTIPODE_LEVELS
from univhopf.lio import identity_functor
from univhopf.ncalg import DEFAULT_DEGREE_BOUND
from univhopf.setsuniversal import SetComodFrame
from univhopf.signature import DEFAULT_ENUM_CAP

from helpers import (
    chain_monoid_a3_eq_a,
    cyclic_monoid,
    cyclic_set_magma,
    dual_numbers,
    dual_numbers_grading,
    full_transformation_monoid,
    group_algebra_hopf,
    klein_set_magma,
    pauli_grading,
    serialize_frame_sets,
    serialize_grading,
    split_quadratic,
    tensor_valued_map,
    thin_chain_category,
    two_incomparable_lio_category,
    two_product_grading,
)


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(docs.document_to_json(doc), encoding="utf-8")
    return str(path)


def test_universal_group_pauli(tmp_path):
    path = write(tmp_path, "pauli.json", serialize_grading(pauli_grading()))
    code, out, err = invoke(["universal-group", path])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["kind"] == "presentation"
    assert doc["summary"]["abelian_invariants"] == [2, 2]
    assert doc["summary"]["coset_enumeration_order"] == 4


def test_universal_group_infinite_group_hits_bound(tmp_path):
    path = write(tmp_path, "dual.json", serialize_grading(dual_numbers_grading()))
    code, out, err = invoke(["universal-group", path])
    assert code == 4
    doc = json.loads(out)
    assert doc["summary"]["coset_enumeration_order"] == "unknown"
    assert "did not close" in err


def test_universal_group_names_why_enumeration_did_not_close(tmp_path):
    path = write(tmp_path, "dual.json", serialize_grading(dual_numbers_grading()))
    code, out, err = invoke(["universal-group", path])
    assert code == 4
    assert json.loads(out)["summary"]["abelian_invariants"] == [0]
    assert err == (
        "warning: coset enumeration did not close: the abelian invariants "
        "contain 0, so the group is infinite\n"
    )
    # a finite group over the limit names the limit instead
    path = write(tmp_path, "pauli.json", serialize_grading(pauli_grading()))
    code, out, err = invoke(["universal-group", path, "--coset-limit", "3"])
    assert code == 4
    assert json.loads(out)["summary"]["coset_enumeration_order"] == "unknown"
    assert err == "warning: coset enumeration did not close within 3\n"


def test_grothendieck(tmp_path):
    path = write(
        tmp_path, "m3.json", docs.serialize_monoid_table(chain_monoid_a3_eq_a())
    )
    code, out, _ = invoke(["grothendieck", path])
    assert code == 0
    assert json.loads(out)["summary"]["coset_enumeration_order"] == 2


def test_unit_group(tmp_path):
    path = write(
        tmp_path, "t2.json", docs.serialize_monoid_table(full_transformation_monoid(2))
    )
    code, out, _ = invoke(["unit-group", path])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["table"]) == 2


def test_tambara_and_manin_pipeline(tmp_path):
    alg = write(tmp_path, "alg.json", docs.serialize_vect_magma(dual_numbers()))
    code, out, _ = invoke(["tambara", alg, alg])
    assert code == 0
    doc = json.loads(out)
    assert doc["presentation_type"] == "algebra"
    assert len(doc["generators"]) == 4
    assert "matrix_index" in doc

    grad = write(tmp_path, "grad.json", serialize_grading(dual_numbers_grading()))
    code, out, _ = invoke(["manin-end", grad])
    assert code == 0
    me = json.loads(out)
    assert me["kind"] == "bialgebra_presentation"
    assert len(me["generators"]) == 2

    # feed the manin-end output to hopf-envelope
    me_path = tmp_path / "me.json"
    me_path.write_text(out, encoding="utf-8")
    code, out2, _ = invoke(
        ["hopf-envelope", str(me_path), "--antipode-levels", "1", "--degree-bound", "4"]
    )
    assert code == 0
    env = json.loads(out2)
    assert env["truncation"] == {"levels": 1, "degree_bound": 4}
    assert len(env["generators"]) == 4

    code, out3, _ = invoke(
        ["manin-aut", grad, "--antipode-levels", "1", "--degree-bound", "4"]
    )
    assert code == 0
    aut = json.loads(out3)
    assert aut["generators"] == env["generators"]
    assert aut["relations"] == env["relations"]


def test_support_command(tmp_path):
    tm = docs.serialize_tensor_map(
        docs.TensorMapDoc(
            tensor_valued_map(2, 2, 3, [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [2, 0, 0]]])
        )
    )
    path = write(tmp_path, "tm.json", tm)
    code, out, _ = invoke(["support", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["support_dim"] == 1
    assert doc["dim_coeff"] == 1


def test_cosupport_command(tmp_path):
    fam = {
        "kind": "family_map",
        "dim_p": 2,
        "dim_in": 2,
        "dim_out": 2,
        "matrices": [
            [["1", "0"], ["0", "1"]],
            [["0", "0"], ["1", "0"]],
        ],
    }
    path = write(tmp_path, "fam.json", fam)
    code, out, _ = invoke(["cosupport", path])
    assert code == 0
    assert json.loads(out)["summary"]["cosupport_dim"] == 2


def test_check_comeasuring_command(tmp_path):
    from helpers import grading_coaction

    rho = grading_coaction(dual_numbers_grading(), (0, 1))
    tm = docs.serialize_tensor_map(
        docs.TensorMapDoc(
            rho,
            source=dual_numbers(),
            target=dual_numbers(),
            coeff_algebra=split_quadratic(),
        )
    )
    path = write(tmp_path, "tm.json", tm)
    code, out, _ = invoke(["check-comeasuring", path])
    assert code == 0
    written = json.loads(out)
    assert written.pop("summary")["comeasuring"] is True
    # Q[Z/2] on the basis (1, x) comes back as read, not relabelled e0, e1
    assert docs.document_to_json(written) == docs.document_to_json(tm)


def test_universal_group_takes_relators_from_every_binary_operation(tmp_path):
    path = write(tmp_path, "two.json", serialize_grading(two_product_grading()))
    code, out, err = invoke(["universal-group", path])
    # b = c = a^2 leaves Z, which the abelian invariants prove infinite
    assert code == 4
    assert err.startswith("warning: coset enumeration did not close")
    doc = json.loads(out)
    assert doc["relators"] == [[1, 1, -2], [1, 1, -3]]
    assert doc["summary"]["abelian_invariants"] == [0]


def test_check_comeasuring_needs_embedded_structures(tmp_path):
    tm = docs.serialize_tensor_map(
        docs.TensorMapDoc(tensor_valued_map(1, 1, 1, [[[1]]]))
    )
    path = write(tmp_path, "tm.json", tm)
    code, _, err = invoke(["check-comeasuring", path])
    assert code == 3 and "coeff_algebra" in err


def test_check_hopf_command(tmp_path):
    path = write(
        tmp_path, "h.json", docs.serialize_hopf_fd(group_algebra_hopf(cyclic_monoid(2)))
    )
    code, out, _ = invoke(["check-hopf", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["all_pass"] is True


def test_check_hopf_rejects_misshapen_structure_constants(tmp_path):
    base = docs.serialize_hopf_fd(group_algebra_hopf(cyclic_monoid(2)))
    one = docs.serialize_hopf_fd(group_algebra_hopf(cyclic_monoid(1)))
    delta_index_5 = json.loads(json.dumps(base))
    delta_index_5["delta"][1][0]["left"] = 5
    short_product = json.loads(json.dumps(base))
    short_product["mult"][0][1] = ["1"]
    long_unit = json.loads(json.dumps(one))
    long_unit["unit"] = ["1", "0"]
    delta_index_minus_1 = json.loads(json.dumps(base))
    delta_index_minus_1["delta"][1][0]["right"] = -1
    cases = (delta_index_5, short_product, long_unit, delta_index_minus_1)
    for n, doc in enumerate(cases):
        code, out, err = invoke(["check-hopf", write(tmp_path, f"h{n}.json", doc)])
        assert (code, out) == (2, ""), (n, err)
        assert "Traceback" not in err and err.startswith("error: "), err


def test_coact_sets_command(tmp_path):
    frame = SetComodFrame(cyclic_set_magma(4), (0, 1, 0, 1), 2)
    path = write(tmp_path, "frame.json", serialize_frame_sets(frame))
    code, out, _ = invoke(["coact-sets", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 2
    assert doc["summary"]["projection"] == [0, 1, 0, 1]


def test_meas_sets_command(tmp_path):
    magma = write(tmp_path, "z2.json", docs.serialize_set_magma(cyclic_set_magma(2)))
    code, out, _ = invoke(["meas-sets", magma, magma])
    assert code == 0
    assert json.loads(out)["maps"] == [[0, 0], [0, 1]]


def test_meas_sets_cap(tmp_path):
    magma = write(tmp_path, "k4.json", docs.serialize_set_magma(klein_set_magma()))
    code, _, err = invoke(["meas-sets", magma, magma, "--enum-cap", "10"])
    assert code == 4 and "cap" in err


def test_act_group_sets_command(tmp_path):
    magma = write(tmp_path, "k4.json", docs.serialize_set_magma(klein_set_magma()))
    code, out, _ = invoke(["act-group-sets", magma])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["table"]) == 6


def test_lio_command_category(tmp_path):
    path = write(
        tmp_path,
        "cat.json",
        docs.serialize_category(two_incomparable_lio_category()),
    )
    code, out, _ = invoke(["lio", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["locally_initial"] == [0, 1]
    assert doc["summary"]["absolute_values"] == [0, 1, None]


def test_lio_command_functor(tmp_path):
    functor = identity_functor(thin_chain_category(3))
    path = write(tmp_path, "f.json", docs.serialize_functor(functor))
    code, out, _ = invoke(["lio", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["lifted_initial"] == {"0": 0, "1": 1, "2": 2}
    assert doc["summary"]["universal_objects"] == [0, 1, 2]


@pytest.mark.parametrize(
    "entry, message",
    [
        ([7, 0, 0], "$: composition of 7 after 0 names a morphism out of range"),
        ([0, -1, 0], "$: composition of 0 after -1 names a morphism out of range"),
        (["x", 0, 0], "$.compose[4][0]: expected an integer"),
        ([0, 0, "a"], "$.compose[4][2]: expected an integer"),
        ([0, 0, 1.0], "$.compose[4][2]: expected an integer"),
        ([0, 0, True], "$.compose[4][2]: expected an integer"),
        ([0, 0, 0], "$.compose[4]: second composite of 0 after 0"),
        ([1, 0, 2], "$.compose[4]: second composite of 1 after 0"),
    ],
)
def test_lio_rejects_bad_compose_entries(tmp_path, entry, message):
    # the chain 0 -> 1 has four composable pairs; the fifth entry is the bad one
    doc = docs.serialize_category(thin_chain_category(2))
    assert len(doc["compose"]) == 4
    doc["compose"].append(entry)
    code, out, err = invoke(["lio", write(tmp_path, "cat.json", doc)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, doc, field",
    [
        (
            "unit-group",
            {"kind": "monoid_table", "table": [[0, 0], [0, 1]], "unit": True},
            "$.unit",
        ),
        (
            "lio",
            {**docs.serialize_category(thin_chain_category(1)), "objects": True},
            "$.objects",
        ),
    ],
)
def test_booleans_are_not_integers(tmp_path, command, doc, field):
    code, out, err = invoke([command, write(tmp_path, "doc.json", doc)])
    assert (code, out) == (2, "")
    assert err == f"error: {field}: expected <class 'int'>, got bool\n"


def test_usage_errors():
    code, _, _ = invoke(["frobnicate"])
    assert code == 1
    code, _, err = invoke(["support"])
    assert code == 1 and "input document" in err


def test_usage_and_help_go_to_the_given_streams(capsys):
    code, out, err = invoke(["bogus"])
    assert (code, out) == (1, "")
    assert err.startswith("usage: univhopf") and "invalid choice: 'bogus'" in err
    code, out, err = invoke(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: univhopf") and "--degree-bound" in out
    assert capsys.readouterr() == ("", "")


def test_schema_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"kind\": \"monoid_table\"}", encoding="utf-8")
    code, _, err = invoke(["grothendieck", str(path)])
    assert code == 2 and "missing field" in err


def test_precondition_exit_code(tmp_path):
    doc = {
        "kind": "monoid_table",
        "table": [[0, 1, 2], [1, 0, 0], [2, 0, 1]],
        "unit": 0,
    }
    path = write(tmp_path, "bad.json", doc)
    code, _, err = invoke(["grothendieck", path])
    assert code == 3 and "associative" in err


def test_empty_monoid_table_is_rejected(tmp_path):
    doc = {"kind": "monoid_table", "table": [], "unit": 0}
    path = write(tmp_path, "empty.json", doc)
    for command in ("unit-group", "grothendieck"):
        code, _, err = invoke([command, path])
        assert code == 2 and "table is empty" in err


def test_parser_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["support"])
    assert args.degree_bound == DEFAULT_DEGREE_BOUND
    assert args.coset_limit == DEFAULT_COSET_LIMIT
    assert args.enum_cap == DEFAULT_ENUM_CAP
    assert args.antipode_levels == DEFAULT_ANTIPODE_LEVELS


def test_malformed_json_exit_code(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, _ = invoke(["grothendieck", str(path)])
    assert code == 2


def test_outputs_reparse(tmp_path):
    path = write(tmp_path, "pauli.json", serialize_grading(pauli_grading()))
    _, out, _ = invoke(["universal-group", path])
    kind, value = docs.parse_input_document(out)
    assert kind == "presentation" and value.num_gens == 4


def test_determinism_byte_identical(tmp_path):
    fixtures = [
        (["universal-group", write(tmp_path, "p.json", serialize_grading(pauli_grading()))], 0),
        (["grothendieck", write(tmp_path, "m.json", docs.serialize_monoid_table(chain_monoid_a3_eq_a()))], 0),
        (["unit-group", write(tmp_path, "t.json", docs.serialize_monoid_table(full_transformation_monoid(2)))], 0),
        (["manin-end", write(tmp_path, "g.json", serialize_grading(dual_numbers_grading()))], 0),
    ]
    for argv, want in fixtures:
        code1, out1, _ = invoke(argv)
        code2, out2, _ = invoke(argv)
        assert code1 == code2 == want
        assert out1 == out2


def test_text_format(tmp_path):
    path = write(
        tmp_path, "m.json", docs.serialize_monoid_table(chain_monoid_a3_eq_a())
    )
    code, out, _ = invoke(["grothendieck", path, "--format", "text"])
    assert code == 0
    assert out.startswith("kind:")
    code2, out2, _ = invoke(["grothendieck", path, "--format", "text"])
    assert out == out2


def test_stdin_input(monkeypatch, tmp_path):
    import io as _io
    import sys

    doc = docs.document_to_json(docs.serialize_monoid_table(cyclic_monoid(3)))
    monkeypatch.setattr(sys, "stdin", _io.StringIO(doc))
    code, out, _ = invoke(["grothendieck", "-"])
    assert code == 0
    assert json.loads(out)["summary"]["coset_enumeration_order"] == 3


def test_repeated_labels_exit_2_at_the_second_position(tmp_path):
    grading = write(tmp_path, "g.json", serialize_grading(dual_numbers_grading()))
    code, out, _ = invoke(["manin-end", grading])
    assert code == 0
    bialgebra = json.loads(out)
    first = bialgebra["generators"][0]
    bialgebra["generators"][1] = first
    code, out, err = invoke(["hopf-envelope", write(tmp_path, "me.json", bialgebra)])
    assert (code, out, err) == (2, "", f"error: $.generators[1]: repeated label {first!r}\n")
    pauli = serialize_grading(pauli_grading())
    label = pauli["labels"][2] = pauli["labels"][0]
    code, out, err = invoke(["universal-group", write(tmp_path, "p.json", pauli)])
    assert (code, out, err) == (2, "", f"error: $.labels[2]: repeated label {label!r}\n")


def test_a_repeated_delta_term_exits_2_at_its_second_position(tmp_path):
    hopf = docs.serialize_hopf_fd(group_algebra_hopf(cyclic_monoid(2)))
    hopf["delta"][1] *= 2
    code, out, err = invoke(["check-hopf", write(tmp_path, "h.json", hopf)])
    assert (code, out, err) == (2, "", "error: $.delta[1][1]: duplicate delta term\n")


@pytest.mark.parametrize(
    "value", ["1_000", " 2", "+3", "\u0663", "2/ 3", "007", "-0", "2/07", "1/-0", "3\n"]
)
def test_a_rational_not_in_written_form_exits_2_at_its_path(tmp_path, value):
    hopf = docs.serialize_hopf_fd(group_algebra_hopf(cyclic_monoid(2)))
    hopf["counit"][1] = value
    code, out, err = invoke(["check-hopf", write(tmp_path, "h.json", hopf)])
    assert (code, out, err) == (2, "", f"error: $.counit[1]: malformed rational {value!r}\n")


def test_hopf_envelope_rejects_hopf_input(tmp_path):
    from univhopf.coact import manin_end_presentation
    from univhopf.hopf import hopf_envelope_presentation, universal_bialgebra_structure

    env = hopf_envelope_presentation(
        universal_bialgebra_structure(manin_end_presentation(dual_numbers_grading())),
        1,
        4,
    )
    path = write(tmp_path, "env.json", docs.serialize_bialgebra_presentation(env))
    code, _, err = invoke(["hopf-envelope", str(path)])
    assert code == 2 and "antipode" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("gen_index", [{}], "$.matrix_index.gen_index[0]: missing field 'block'"),
        (
            "blocks",
            [{"block": "0", "members": 5}],
            "$.matrix_index.blocks[0].members: expected <class 'list'>, got int",
        ),
    ],
)
def test_hopf_envelope_rejects_bad_matrix_index(tmp_path, field, value, message):
    from univhopf.coact import manin_end_presentation
    from univhopf.hopf import universal_bialgebra_structure

    mp = manin_end_presentation(dual_numbers_grading())
    doc = docs.serialize_bialgebra_presentation(universal_bialgebra_structure(mp))
    doc["matrix_index"][field] = value
    code, out, err = invoke(["hopf-envelope", write(tmp_path, "bial.json", doc)])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_check_comeasuring_rejects_non_algebra_coefficients(tmp_path):
    doc = docs.serialize_tensor_map(
        docs.TensorMapDoc(
            tensor_valued_map(1, 1, 1, [[[1]]]),
            source=dual_numbers(),
            target=dual_numbers(),
        )
    )
    # coefficient structure claims to be an algebra but lacks the unit op
    doc["coeff_algebra"] = {
        "kind": "vect_magma",
        "signature": {"kind": "signature", "ops": [{"name": "mu", "in": 2, "out": 1}]},
        "dim": 1,
        "basis": ["e0"],
        "tensors": {"mu": [{"out": [0], "in": [0, 0], "coeff": "1"}]},
    }
    path = tmp_path / "tm.json"
    path.write_text(docs.document_to_json(doc), encoding="utf-8")
    code, _, err = invoke(["check-comeasuring", str(path)])
    assert code == 2 and "unit" in err


def test_check_hopf_names_the_path_of_misshapen_data(tmp_path):
    doc = docs.serialize_hopf_fd(group_algebra_hopf(cyclic_monoid(2)))
    doc["mult"][0][0] = ["1"]
    code, out, err = invoke(["check-hopf", write(tmp_path, "h.json", doc)])
    assert (code, out, err) == (2, "", "error: $: product vector length mismatch\n")


@pytest.mark.parametrize("command", ["hopf-envelope", "manin-aut"])
def test_negative_degree_bound_is_rejected(tmp_path, command):
    from univhopf.coact import manin_end_presentation
    from univhopf.hopf import universal_bialgebra_structure

    grading = dual_numbers_grading()
    if command == "hopf-envelope":
        bial = universal_bialgebra_structure(manin_end_presentation(grading))
        doc = docs.serialize_bialgebra_presentation(bial)
    else:
        doc = serialize_grading(grading)
    path = write(tmp_path, "in.json", doc)
    argv = [command, path, "--antipode-levels", "1", "--degree-bound", "-3"]
    code, out, err = invoke(argv)
    assert (code, out, err) == (2, "", "error: degree bound must be nonnegative\n")
