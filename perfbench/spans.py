"""Span recorder for the traced run, and the per-layer metrics derived from it.

The layers are the library's modules.  A span is recorded around each call
the benchmark's own files make into a public function (and, in the cli
workload, around the names ``univhopf.cli`` resolves at call time).  Spans
stay in memory and are written out once, when the run ends.
"""

import json
from statistics import median
from time import perf_counter

LAYERS = (
    "ncalg", "hopf", "coact", "grading", "grouppres", "signature",
    "setsuniversal", "finmonoid", "lio", "documents", "cli",
)

CLI_COMMANDS = (
    "support", "cosupport", "universal-group", "tambara", "manin-end",
    "manin-aut", "hopf-envelope", "grothendieck", "unit-group", "coact-sets",
    "meas-sets", "act-group-sets", "lio", "check-hopf", "check-comeasuring",
)

# function name -> (layer, span name); a layer's "<span name>_ms" metric is
# the median duration of its outermost spans of that name
SPANS = {
    "parse_input_document": ("documents", "parse"),
    "serialize_output": ("documents", "serialize"),
    "document_to_json": ("documents", "serialize"),
    "manin_end_presentation": ("coact", "manin_end"),
    "tambara_presentation": ("coact", "tambara"),
    "support_of_map": ("coact", "support"),
    "is_tensor_epimorphism": ("coact", "tensor_epi"),
    "cosupport_of_map": ("coact", "cosupport"),
    "is_comeasuring": ("coact", "is_comeasuring"),
    "universal_bialgebra_structure": ("hopf", "bialgebra"),
    "hopf_envelope_presentation": ("hopf", "envelope"),
    "check_comap_well_defined": ("hopf", "comap_check"),
    "check_hopf_axioms_fd": ("hopf", "axioms"),
    "complete_rules_up_to": ("ncalg", "complete"),
    "ideal_member_up_to": ("ncalg", "reduce"),
    "dim_normal_words": ("ncalg", "normal_words"),
    "validate_grading": ("grading", "validate"),
    "universal_group_of_grading": ("grading", "universal_group"),
    "grading_support": ("grading", "support"),
    "tietze_simplify": ("grouppres", "tietze"),
    "abelian_invariants": ("grouppres", "smith"),
    "todd_coxeter_order": ("grouppres", "todd_coxeter"),
    "enumerate_set_homs": ("signature", "homs"),
    "omega_automorphisms": ("signature", "automorphisms"),
    "universal_coacting_sets": ("setsuniversal", "coact"),
    "universal_measuring_comonoid_sets": ("setsuniversal", "measuring"),
    "universal_acting_group_sets": ("setsuniversal", "acting"),
    "congruence_closure": ("finmonoid", "congruence"),
    "unit_group": ("finmonoid", "unit_group"),
    "grothendieck_group": ("finmonoid", "grothendieck"),
    "locally_initial_objects": ("lio", "scan"),
    "absolute_value": ("lio", "absolute_value"),
    "lift_initial_object": ("lio", "lift"),
    "universal_object_of": ("lio", "universal_object"),
    "run": ("cli", None),  # named after the command
}


class Untraced:
    """The timed runs: calls go straight through."""

    job = None

    def call(self, fn, *args, name=None, **kwargs):
        return fn(*args, **kwargs)

    def note(self, key, value):
        pass


class Tracer:
    """Records one span per call: name, layer, start, end, parent, job, error."""

    def __init__(self):
        self.spans = []
        self.notes = {}
        self.stack = []
        self.job = None

    def call(self, fn, *args, name=None, **kwargs):
        layer, span_name = SPANS[fn.__name__]
        span = {
            "layer": layer,
            "name": name or span_name,
            "parent": self.stack[-1] if self.stack else None,
            "job": self.job,
            "error": None,
        }
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = perf_counter()
            self.stack.pop()

    def note(self, key, value):
        """A count measured at a layer boundary, aggregated per run."""
        self.notes.setdefault(key, []).append(value)

    def wrap(self, fn, name=None):
        """fn with a span around every call, for patching a module name."""

        def traced(*args, **kwargs):
            return self.call(fn, *args, name=name, **kwargs)

        traced.__name__ = fn.__name__
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(dict(span, id=i)) + "\n")


def unit_of(name):
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".share", "_ratio", ".hom_yield", "trace_overhead")):
        return "ratio"
    if name.endswith("_kib"):
        return "KiB"
    return "count"


def _p50_ms(durations):
    return median(durations) * 1000 if durations else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, job_seconds, failed_jobs, num_jobs):
    """Every per-layer metric of one traced run.

    job_seconds is the summed duration of the timed jobs, the base of each
    layer's share.  Metrics of a layer the workload never calls read 0.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    has_failing_child = [False] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
            if span["error"]:
                has_failing_child[span["parent"]] = True
    busy = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    durations = {}
    cap_hits = 0
    for i, span in enumerate(spans):
        layer, name = span["layer"], span["name"]
        busy[layer] += span["end"] - span["start"] - child_time[i]
        if span["error"] and not has_failing_child[i]:
            if span["job"] in failed_jobs:
                errors[layer] += 1
            if span["error"] == "ResourceLimitError":
                cap_hits += 1
        parent = spans[span["parent"]] if span["parent"] is not None else None
        if parent is None or parent["layer"] != layer:
            durations.setdefault((layer, name), []).append(span["end"] - span["start"])

    def ms(layer, name):
        return _p50_ms(durations.get((layer, name), []))

    def per_job(layer, name):
        return len(durations.get((layer, name), [])) / num_jobs

    notes = tracer.notes
    m = {}
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(busy[layer], job_seconds)
        m[f"{layer}.errors"] = errors[layer]
    m.update({
        "ncalg.complete_ms": ms("ncalg", "complete"),
        "ncalg.complete_calls": per_job("ncalg", "complete"),
        "ncalg.rules": _mean(notes.get("ncalg.rules", [])),
        "ncalg.confluent_ratio": _mean(notes.get("ncalg.confluent", [])),
        "ncalg.reduce_ms": ms("ncalg", "reduce"),
        "ncalg.reduce_calls": per_job("ncalg", "reduce"),
        "ncalg.normal_words_ms": ms("ncalg", "normal_words"),
        "hopf.bialgebra_ms": ms("hopf", "bialgebra"),
        "hopf.envelope_ms": ms("hopf", "envelope"),
        "hopf.comap_check_ms": ms("hopf", "comap_check"),
        "hopf.comap_decided_ratio": _mean(notes.get("hopf.comap_decided", [])),
        "coact.manin_end_ms": ms("coact", "manin_end"),
        "coact.tambara_ms": ms("coact", "tambara"),
        "coact.relations": _mean(notes.get("coact.relations", [])),
        "grading.validate_ms": ms("grading", "validate"),
        "grading.universal_group_ms": ms("grading", "universal_group"),
        "grading.relators": _mean(notes.get("grading.relators", [])),
        "grouppres.tietze_ms": ms("grouppres", "tietze"),
        "grouppres.tietze_len_out": _mean(notes.get("grouppres.tietze_len_out", [])),
        "grouppres.smith_ms": ms("grouppres", "smith"),
        "grouppres.todd_coxeter_ms": ms("grouppres", "todd_coxeter"),
        "grouppres.tc_closed_ratio": _mean(notes.get("grouppres.tc_closed", [])),
        "signature.homs_ms": ms("signature", "homs"),
        "signature.candidates": _mean(notes.get("signature.candidates", [])),
        "signature.hom_yield": _ratio(sum(notes.get("signature.found", [])),
                                      sum(notes.get("signature.candidates", []))),
        "signature.automorphisms_ms": ms("signature", "automorphisms"),
        "signature.cap_hits": cap_hits / num_jobs,
        "setsuniversal.coact_ms": ms("setsuniversal", "coact"),
        "setsuniversal.measuring_ms": ms("setsuniversal", "measuring"),
        "setsuniversal.acting_ms": ms("setsuniversal", "acting"),
        "finmonoid.congruence_ms": ms("finmonoid", "congruence"),
        "finmonoid.unit_group_ms": ms("finmonoid", "unit_group"),
        "finmonoid.grothendieck_ms": ms("finmonoid", "grothendieck"),
        "lio.scan_ms": ms("lio", "scan"),
        "lio.absolute_value_ms": ms("lio", "absolute_value"),
        "lio.lift_ms": ms("lio", "lift"),
        "documents.parse_ms": ms("documents", "parse"),
        "documents.serialize_ms": ms("documents", "serialize"),
        "documents.out_kib": _mean(notes.get("documents.out_bytes", [])) / 1024,
    })
    for command in CLI_COMMANDS:
        m[f"cli.{command}.p50_ms"] = ms("cli", command)
    return m
