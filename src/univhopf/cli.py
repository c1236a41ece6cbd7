"""Command-line surface.

One command per invocation; documents come in as JSON files (or '-' for
stdin), the result document goes to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 usage, 2 parse/schema error, 3 precondition violation,
4 a configured resource bound was hit (best-effort output is still written).
"""

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout

from . import documents as docs
from .coact import (
    FamilyMap,
    cosupport_of_map,
    is_comeasuring,
    is_tensor_epimorphism,
    manin_end_presentation,
    support_of_map,
    tambara_presentation,
)
from .errors import InputError, PreconditionError, ResourceLimitError
from .finmonoid import grothendieck_group, unit_group
from .grading import grading_support, universal_group_of_grading
from .grouppres import DEFAULT_COSET_LIMIT, abelian_invariants, todd_coxeter_order
from .hopf import (
    DEFAULT_ANTIPODE_LEVELS,
    HopfPresentation,
    check_hopf_axioms_fd,
    hopf_envelope_presentation,
    universal_bialgebra_structure,
)
from .lio import (
    absolute_value,
    lift_initial_object,
    locally_initial_objects,
    universal_object_of,
)
from .ncalg import DEFAULT_DEGREE_BOUND
from .setsuniversal import (
    universal_acting_group_sets,
    universal_coacting_sets,
    universal_measuring_comonoid_sets,
)
from .signature import DEFAULT_ENUM_CAP

class _BoundHit(Exception):
    """Carries a finished output document plus the diagnostic for exit 4."""

    def __init__(self, doc, message):
        super().__init__(message)
        self.doc = doc


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load(path: str, expected_kind: str):
    kind, value = docs.parse_input_document(_read(path))
    if kind != expected_kind:
        raise InputError(f"{path}: expected a {expected_kind} document, got {kind}")
    return value


def _cmd_support(args):
    tm = _load(args.inputs[0], "tensor_map")
    basis, corestricted = support_of_map(tm.map)
    out = docs.serialize_tensor_map(docs.TensorMapDoc(corestricted))
    out["summary"] = {
        "support_dim": len(basis),
        "support_basis": [[docs.format_rational(x) for x in b] for b in basis],
        "tensor_epimorphism_before_corestriction": is_tensor_epimorphism(tm.map),
    }
    return out


def _cmd_cosupport(args):
    fam = _load(args.inputs[0], "family_map")
    basis = cosupport_of_map(fam)
    out = docs.serialize_family_map(
        FamilyMap(len(basis), fam.dim_in, fam.dim_out, basis)
    )
    out["summary"] = {"cosupport_dim": len(basis)}
    return out


def _group_output(pres, coset_limit, summary, invariants=()):
    """The presentation with its coset enumeration order added to the
    summary; exit 4, naming the cause, when the enumeration does not close
    (the group is infinite when the known abelian invariants contain 0)."""
    out = docs.serialize_group_presentation(pres)
    order = todd_coxeter_order(pres, coset_limit)
    summary["coset_enumeration_order"] = order if order is not None else "unknown"
    out["summary"] = summary
    if order is None:
        if 0 in invariants:
            cause = ": the abelian invariants contain 0, so the group is infinite"
        else:
            cause = f" within {coset_limit}"
        raise _BoundHit(out, f"coset enumeration did not close{cause}")
    return out


def _cmd_universal_group(args):
    grading = _load(args.inputs[0], "grading")
    pres, _ = universal_group_of_grading(grading)
    invariants = abelian_invariants(pres)
    summary = {"support": list(grading_support(grading)), "abelian_invariants": invariants}
    return _group_output(pres, args.coset_limit, summary, invariants)


def _cmd_tambara(args):
    a = _load(args.inputs[0], "vect_magma")
    b = _load(args.inputs[1], "vect_magma")
    mp = tambara_presentation(a, b)
    return docs.serialize_algebra_presentation(mp)


def _cmd_manin_end(args):
    grading = _load(args.inputs[0], "grading")
    bial = universal_bialgebra_structure(manin_end_presentation(grading))
    return docs.serialize_bialgebra_presentation(bial)


def _cmd_manin_aut(args):
    grading = _load(args.inputs[0], "grading")
    mp = manin_end_presentation(grading)
    bial = universal_bialgebra_structure(mp)
    env = hopf_envelope_presentation(bial, args.antipode_levels, args.degree_bound)
    return docs.serialize_bialgebra_presentation(env)


def _cmd_hopf_envelope(args):
    bial = _load(args.inputs[0], "bialgebra_presentation")
    if isinstance(bial, HopfPresentation):
        raise InputError("input already carries antipode data")
    env = hopf_envelope_presentation(bial, args.antipode_levels, args.degree_bound)
    return docs.serialize_bialgebra_presentation(env)


def _cmd_grothendieck(args):
    monoid = _load(args.inputs[0], "monoid_table")
    return _group_output(grothendieck_group(monoid), args.coset_limit, {})


def _cmd_unit_group(args):
    monoid = _load(args.inputs[0], "monoid_table")
    group, members = unit_group(monoid)
    out = docs.serialize_monoid_table(group)
    out["summary"] = {"members": list(members)}
    return out


def _cmd_coact_sets(args):
    frame = _load(args.inputs[0], "frame_sets")
    quotient, projection = universal_coacting_sets(frame)
    out = docs.serialize_set_magma(quotient)
    out["summary"] = {"projection": list(projection)}
    return out


def _cmd_meas_sets(args):
    a = _load(args.inputs[0], "set_magma")
    b = _load(args.inputs[1], "set_magma")
    maps = _load(args.inputs[2], "map_set") if len(args.inputs) > 2 else "all"
    hom = universal_measuring_comonoid_sets(a, b, maps, cap=args.enum_cap)
    return docs.serialize_map_set(hom)


def _cmd_act_group_sets(args):
    a = _load(args.inputs[0], "set_magma")
    maps = _load(args.inputs[1], "map_set") if len(args.inputs) > 1 else "all"
    members, group = universal_acting_group_sets(a, maps, cap=args.enum_cap)
    out = docs.serialize_monoid_table(group)
    out["summary"] = {"members": [list(m) for m in members]}
    return out


def _cmd_lio(args):
    kind, value = docs.parse_input_document(_read(args.inputs[0]))
    if kind == "category":
        cat = value
        functor = None
        out = docs.serialize_category(cat)
    elif kind == "functor":
        functor = value
        cat = functor.target
        out = docs.serialize_functor(functor)
    else:
        raise InputError("lio expects a category or functor document")
    lio, edges = locally_initial_objects(cat)
    absolute = [absolute_value(cat, x) for x in range(cat.num_objects)]
    summary = {
        "locally_initial": lio,
        "preorder": [[a, b] for (a, b), e in sorted(edges.items()) if e],
        "absolute_values": absolute,
    }
    if functor is not None:
        summary["lifted_initial"] = {
            str(x0): lift_initial_object(functor, x0) for x0 in lio
        }
        summary["universal_objects"] = [
            None if absolute[functor.object_map[y]] is None
            else universal_object_of(functor, y)
            for y in range(functor.source.num_objects)
        ]
    out["summary"] = summary
    return out


def _cmd_check_hopf(args):
    h = _load(args.inputs[0], "hopf_fd")
    report = check_hopf_axioms_fd(h)
    out = docs.serialize_hopf_fd(h)
    out["summary"] = {
        "all_pass": report.all_pass,
        "axioms": [
            {"axiom": name, "ok": ok, "witness": repr(w) if w is not None else None}
            for name, ok, w in report.results
        ],
    }
    return out


def _cmd_check_comeasuring(args):
    tm = _load(args.inputs[0], "tensor_map")
    if tm.source is None or tm.target is None or tm.coeff_algebra is None:
        raise PreconditionError(
            "check-comeasuring needs source, target and coeff_algebra embedded"
        )
    ok, witness = is_comeasuring(tm.map, tm.coeff_fd_algebra, tm.source, tm.target)
    out = docs.serialize_tensor_map(tm)
    out["summary"] = {
        "comeasuring": ok,
        "witness": None
        if witness is None
        else {"op": witness[0], "out": list(witness[1]), "in": list(witness[2])},
    }
    return out


_HANDLERS = {
    "support": (_cmd_support, 1),
    "cosupport": (_cmd_cosupport, 1),
    "universal-group": (_cmd_universal_group, 1),
    "tambara": (_cmd_tambara, 2),
    "manin-end": (_cmd_manin_end, 1),
    "manin-aut": (_cmd_manin_aut, 1),
    "hopf-envelope": (_cmd_hopf_envelope, 1),
    "grothendieck": (_cmd_grothendieck, 1),
    "unit-group": (_cmd_unit_group, 1),
    "coact-sets": (_cmd_coact_sets, 1),
    "meas-sets": (_cmd_meas_sets, 2),
    "act-group-sets": (_cmd_act_group_sets, 1),
    "lio": (_cmd_lio, 1),
    "check-hopf": (_cmd_check_hopf, 1),
    "check-comeasuring": (_cmd_check_comeasuring, 1),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="univhopf",
        description="universal groups of gradings, universal coacting "
        "bi/Hopf presentations and locally-initial-object scans on "
        "explicit finite data",
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("inputs", nargs="*", help="input documents ('-' for stdin)")
    parser.add_argument("--degree-bound", type=int, default=DEFAULT_DEGREE_BOUND)
    parser.add_argument(
        "--antipode-levels", type=int, default=DEFAULT_ANTIPODE_LEVELS
    )
    parser.add_argument("--coset-limit", type=int, default=DEFAULT_COSET_LIMIT)
    parser.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    return parser


_PARSER = build_parser()  # one per process: parse_args leaves it unchanged


def _emit(doc: dict, fmt: str, stdout) -> None:
    if fmt == "json":
        stdout.write(docs.document_to_json(doc))
    else:
        stdout.write(docs.document_to_text(doc) + "\n")


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        # argparse prints usage, errors and --help to sys.stdout/sys.stderr
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handler, arity = _HANDLERS[args.command]
    if len(args.inputs) < arity:
        stderr.write(
            f"error: {args.command} needs at least {arity} input document(s)\n"
        )
        return 1
    try:
        doc = handler(args)
    except InputError as exc:
        stderr.write(f"error: {exc}\n")
        return 2
    except PreconditionError as exc:
        stderr.write(f"error: {exc}\n")
        return 3
    except ResourceLimitError as exc:
        stderr.write(f"error: {exc}\n")
        return 4
    except _BoundHit as exc:
        _emit(exc.doc, args.format, stdout)
        stderr.write(f"warning: {exc}\n")
        return 4
    _emit(doc, args.format, stdout)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
