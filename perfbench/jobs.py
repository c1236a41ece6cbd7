"""One job per workload: the CLI pipeline unrolled, and its reference check.

A runner takes a job and a tracer and returns what its check needs, with the
serialized output under "text".  It calls the library's public functions in
the order the CLI handler would, each through ``t.call`` so that a traced run
records a span per call.  A check returns the list of the job's mismatches
against its references, or predicted outcomes under "outcome".
"""

import io
import json
import random
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, prod

from univhopf import cli
from univhopf import documents as docs
from univhopf.coact import manin_end_presentation, tambara_presentation
from univhopf.finmonoid import (
    FinMonoid,
    congruence_closure,
    grothendieck_group,
    unit_group,
)
from univhopf.grading import universal_group_of_grading, validate_grading
from univhopf.grouppres import abelian_invariants, tietze_simplify, todd_coxeter_order
from univhopf.hopf import (
    check_comap_well_defined,
    hopf_envelope_presentation,
    universal_bialgebra_structure,
)
from univhopf.lio import (
    absolute_value,
    lift_initial_object,
    locally_initial_objects,
    universal_object_of,
)
from univhopf.ncalg import (
    NCPoly,
    complete_rules_up_to,
    dim_normal_words,
    ideal_member_up_to,
)
from univhopf.setsuniversal import (
    universal_acting_group_sets,
    universal_coacting_sets,
    universal_measuring_comonoid_sets,
)
from univhopf.signature import enumerate_set_homs, omega_automorphisms

from gen import DEGREE_BOUND
from refs import evaluate, lio_of_category, partition

ENVELOPE_LEVELS = 1


def serialize_output(serializer, value, summary):
    doc = serializer(value)
    doc["summary"] = summary
    return docs.document_to_json(doc)


def _serialize(t, serializer, value, summary):
    text = t.call(serialize_output, serializer, value, summary)
    t.note("documents.out_bytes", len(text))
    return text


def _complete(t, algebra):
    system = t.call(complete_rules_up_to, algebra, DEGREE_BOUND)
    t.note("ncalg.rules", len(system.rules))
    t.note("ncalg.confluent", system.confluent_up_to)
    return system


# ---------------------------------------------------------------------------
# presentations


def _poly(terms, letter_gen):
    out = {}
    for word, coeff in terms:
        key = tuple(letter_gen[x] for x in word)
        out[key] = out.get(key, Fraction(0)) + Fraction(coeff)
    return NCPoly(out)


def _tambara_queries(seed, mp):
    """Two members w r w' (r a relation) and two polynomials that the
    identity comeasuring sends to 1, so outside the ideal."""
    rng = random.Random(seed)
    algebra = mp.algebra
    diagonal = [g for g, (_, i, j) in enumerate(mp.gen_index) if i == j]
    off = [g for g, (_, i, j) in enumerate(mp.gen_index) if i != j] or diagonal
    queries = []
    for _ in range(2):
        rel = rng.choice(algebra.relations)
        room = DEGREE_BOUND - rel.degree()
        left = tuple(rng.randrange(algebra.num_gens) for _ in range(rng.randint(0, room)))
        right = tuple(rng.randrange(algebra.num_gens)
                      for _ in range(rng.randint(0, room - len(left))))
        queries.append((NCPoly.monomial(left) * rel * NCPoly.monomial(right), True))
    for _ in range(2):
        g, h = rng.choice(diagonal), rng.choice(off)
        poly = NCPoly.gen(g) + NCPoly.monomial((h, h), rng.choice([1, -2, 3]))
        if g == h:  # both diagonal (1-dimensional case): value 1 + c, c != -1
            poly = NCPoly.gen(g)
        queries.append((poly, False))
    return queries


def run_presentations(job, t):
    p = job["params"]
    values = [t.call(docs.parse_input_document, text)[1] for text in job["docs"]]
    if p["variant"] == "manin":
        mp = t.call(manin_end_presentation, values[0])
        letter_gen = {i: g for g, (_, i, j) in enumerate(mp.gen_index)}
        queries = [(_poly(qd["terms"], letter_gen), qd["member"]) for qd in p["queries"]]
    else:
        mp = t.call(tambara_presentation, values[0], values[1])
        queries = _tambara_queries(p["query_seed"], mp)
    t.note("coact.relations", len(mp.algebra.relations))
    bial = t.call(universal_bialgebra_structure, mp)
    system = _complete(t, mp.algebra)
    counts = [t.call(dim_normal_words, system, d) for d in range(DEGREE_BOUND + 1)]
    answers = [t.call(ideal_member_up_to, poly, system) for poly, _ in queries]
    env = t.call(hopf_envelope_presentation, bial, ENVELOPE_LEVELS, DEGREE_BOUND)
    env_system = _complete(t, env.algebra)
    verdict = t.call(check_comap_well_defined, bial, DEGREE_BOUND)
    t.note("hopf.comap_decided", verdict.status != "inconclusive")
    summary = {
        "rules": len(system.rules),
        "confluent_up_to": system.confluent_up_to,
        "normal_words": counts,
        "membership": [[a.member, a.certain] for a in answers],
        "envelope_rules": len(env_system.rules),
        "envelope_confluent_up_to": env_system.confluent_up_to,
        "comap_well_defined": verdict.status,
    }
    text = _serialize(t, docs.serialize_bialgebra_presentation, env, summary)
    return {"text": text, "mp": mp, "env": env, "counts": counts, "answers": answers,
            "queries": queries, "verdict": verdict.status}


def _point(job, mp):
    """The reference algebra map: (images of the base generators, images of
    their antipodes, multiplication, unit) in a monoid whose algebra the
    presentation maps onto."""
    if job["params"]["variant"] == "tambara":
        base = [int(i == j) for _, i, j in mp.gen_index]
        return base, base, (lambda a, b: a * b), 1
    kind, data = job["expect"]["point"]
    elem = [i for _, i, _ in mp.gen_index]
    if kind == "group":
        return elem, [data[x].index(0) for x in elem], (lambda a, b: data[a][b]), 0
    return elem, [-x for x in elem], (lambda a, b: a + b), 0


def _vanishes(value, job):
    if job["params"]["variant"] == "tambara":
        return value.get(1, 0) == 0
    return not value


def check_presentations(job, res):
    problems, outcome = [], []
    mp, env = res["mp"], res["env"]
    base, antipode, mul, one = _point(job, mp)
    for r in mp.algebra.relations:
        if not _vanishes(evaluate(r.terms.items(), base, mul, one), job):
            problems.append(f"relation {r!r} does not vanish at the reference point")
            break
    env_images = base + antipode
    for r in env.algebra.relations:
        if not _vanishes(evaluate(r.terms.items(), env_images, mul, one), job):
            problems.append(f"envelope relation {r!r} does not vanish at the reference point")
            break
    expect = job["expect"]
    if "normal_words" in expect and res["counts"] != expect["normal_words"]:
        problems.append(f"normal words {res['counts']} != {expect['normal_words']}")
    if "generators" in expect and mp.algebra.num_gens != expect["generators"]:
        problems.append(f"{mp.algebra.num_gens} generators != {expect['generators']}")
    for (poly, member), ans in zip(res["queries"], res["answers"]):
        if ans.member and not member:
            problems.append(f"{poly!r} claimed in the ideal")
        elif member and not ans.member:
            if ans.certain:
                problems.append(f"{poly!r} certainly outside the ideal, but it is a member")
            else:
                outcome.append("membership_uncertain")
    if res["verdict"] == "fail":
        problems.append("comultiplication of a bialgebra reported not well defined")
    elif res["verdict"] == "inconclusive":
        outcome.append("comap_inconclusive")
    return problems, outcome


# ---------------------------------------------------------------------------
# groups


def run_groups(job, t):
    kind, value = t.call(docs.parse_input_document, job["docs"][0])
    if kind == "grading":
        t.call(validate_grading, value)
        pres, _ = t.call(universal_group_of_grading, value)
        t.note("grading.relators", len(pres.relators))
    elif kind == "monoid_table":
        pres = t.call(grothendieck_group, value)
    else:
        pres = value
    simple, _ = t.call(tietze_simplify, pres)
    t.note("grouppres.tietze_len_out", sum(len(w) for w in simple.relators))
    invariants = t.call(abelian_invariants, simple)
    order = t.call(todd_coxeter_order, simple)
    t.note("grouppres.tc_closed", order is not None)
    summary = {
        "abelian_invariants": invariants,
        "coset_enumeration_order": "unknown" if order is None else order,
    }
    text = _serialize(t, docs.serialize_group_presentation, simple, summary)
    return {"text": text, "order": order, "invariants": invariants}


def check_groups(job, res):
    expect = job["expect"]
    problems, outcome = [], []
    if res["order"] != expect["order"]:
        problems.append(f"order {res['order']} != {expect['order']}")
    if res["invariants"] != expect["abelian_invariants"]:
        problems.append(f"invariants {res['invariants']} != {expect['abelian_invariants']}")
    if expect["order"] is None:
        outcome.append("tc_unknown")
    elif not job["family"].startswith(("coxeter", "grading_D", "grading_S")):
        # a finite abelian group's order is the product of its invariants
        if prod(res["invariants"]) != res["order"]:
            problems.append(f"abelian invariants {res['invariants']} disagree with order "
                            f"{res['order']}")
    return problems, outcome


# ---------------------------------------------------------------------------
# sets


def _monoid_of_magma(magma):
    n = magma.size
    rows = tuple(tuple(magma.apply("mu", (i, j))[0] for j in range(n)) for i in range(n))
    return FinMonoid(rows, magma.apply("unit", ())[0])


def run_sets(job, t):
    call = job["params"]["call"]
    parsed = [t.call(docs.parse_input_document, text) for text in job["docs"]]
    values = [v for _, v in parsed]
    res = {}
    if call in ("homs", "measuring"):
        a, b = values
        if call == "homs":
            homs = t.call(enumerate_set_homs, a, b)
        else:
            homs = t.call(universal_measuring_comonoid_sets, a, b, "all")
        t.note("signature.candidates", b.size ** a.size)
        t.note("signature.found", len(homs))
        res["count"] = len(homs)
        text = _serialize(t, docs.serialize_map_set, homs, {"count": len(homs)})
    elif call == "automorphisms":
        perms, _ = t.call(omega_automorphisms, values[0])
        t.note("signature.candidates", factorial(values[0].size))
        t.note("signature.found", len(perms))
        res["count"] = len(perms)
        text = _serialize(t, docs.serialize_map_set, perms, {"count": len(perms)})
    elif call == "acting":
        members, group = t.call(universal_acting_group_sets, values[0], "all")
        res["count"] = len(members)
        text = _serialize(t, docs.serialize_monoid_table, group,
                          {"members": [list(m) for m in members]})
    elif call == "coact":
        frame = values[0]
        quotient, projection = t.call(universal_coacting_sets, frame)
        n = frame.magma.size
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if frame.psi[a] == frame.psi[b]]
        congruence = t.call(congruence_closure, _monoid_of_magma(frame.magma), pairs)
        res["partitions"] = (partition(projection), partition(congruence.class_of))
        text = _serialize(t, docs.serialize_set_magma, quotient,
                          {"projection": list(projection)})
    elif call == "unit_group":
        group, members = t.call(unit_group, values[0])
        res["count"] = len(members)
        text = _serialize(t, docs.serialize_monoid_table, group, {"members": list(members)})
    elif call == "grothendieck":
        pres = t.call(grothendieck_group, values[0])
        res["generators"], res["relators"] = pres.num_gens, len(pres.relators)
        text = _serialize(t, docs.serialize_group_presentation, pres, {})
    else:
        text, res = _run_lio(t, parsed[0])
    res["text"] = text
    return res


def _run_lio(t, parsed):
    kind, value = parsed
    functor = value if kind == "functor" else None
    cat = functor.target if functor is not None else value
    lio, _ = t.call(locally_initial_objects, cat)
    absolute = [t.call(absolute_value, cat, x) for x in range(cat.num_objects)]
    summary = {"locally_initial": lio, "absolute_values": absolute}
    if functor is not None:
        summary["lifted_initial"] = {
            str(x0): t.call(lift_initial_object, functor, x0) for x0 in lio
        }
        summary["universal_objects"] = [
            t.call(universal_object_of, functor, y)
            if absolute[functor.object_map[y]] is not None else None
            for y in range(functor.source.num_objects)
        ]
        text = _serialize(t, docs.serialize_functor, functor, summary)
    else:
        text = _serialize(t, docs.serialize_category, cat, summary)
    return text, {"summary": summary}


def _arrows(cat_doc):
    return {(m["dom"], m["cod"]) for m in cat_doc["morphisms"]}


def check_sets(job, res):
    expect = job["expect"]
    problems = []
    for key in ("count", "generators", "relators"):
        if key in expect and res.get(key) != expect[key]:
            problems.append(f"{key} {res.get(key)} != {expect[key]}")
    if "partitions" in res and res["partitions"][0] != res["partitions"][1]:
        problems.append("omega closure and monoid congruence closure disagree")
    if "summary" in res:
        doc = json.loads(job["docs"][0])
        cat_doc = doc.get("target", doc)
        summary = res["summary"]
        lio = lio_of_category(cat_doc)
        if summary["locally_initial"] != lio:
            problems.append(f"locally initial {summary['locally_initial']} != {lio}")
        arrows = _arrows(cat_doc)
        n = expect["chain"]
        if n is not None and summary["absolute_values"] != list(range(n)):
            problems.append("absolute values on a chain are not the identity")
        for x0, y in summary.get("lifted_initial", {}).items():
            x0 = int(x0)  # identity functor: the lift is isomorphic to x0
            if y is None or (x0, y) not in arrows or (y, x0) not in arrows:
                problems.append(f"lift of {x0} is {y}, not isomorphic to it")
        if n is not None and summary.get("universal_objects") != list(range(n)):
            problems.append("universal objects on a chain are not the identity")
    return problems, []


# ---------------------------------------------------------------------------
# cli


def run_cli(job, t):
    out, err = io.StringIO(), io.StringIO()
    code = t.call(cli.run, job["argv"], out, err, name=job["params"]["command"])
    text = out.getvalue()
    t.note("documents.out_bytes", len(text))
    return {"text": text, "code": code, "stderr": err.getvalue()}


_CLI_FIELDS = {
    "support_dim": lambda d: d["summary"]["support_dim"],
    "cosupport_dim": lambda d: d["summary"]["cosupport_dim"],
    "order": lambda d: _order(d["summary"]["coset_enumeration_order"]),
    "generators": lambda d: len(d["generators"]),
    "size": lambda d: len(d["table"]) if "table" in d else d["size"],
    "count": lambda d: len(d["maps"]) if "maps" in d else len(d["table"]),
    "chain": lambda d: _chain_length(d["summary"]),
    "all_pass": lambda d: d["summary"]["all_pass"],
    "comeasuring": lambda d: d["summary"]["comeasuring"],
    "locally_initial": lambda d: d["summary"]["locally_initial"],
}


def _order(value):
    return None if value == "unknown" else value


def _chain_length(summary):
    """n when every lio output is the identity on a chain of n objects."""
    n = len(summary["locally_initial"])
    ident = list(range(n))
    ok = (summary["locally_initial"] == ident and summary["absolute_values"] == ident
          and summary["universal_objects"] == ident
          and summary["lifted_initial"] == {str(x): x for x in ident})
    return n if ok else None


def check_cli(job, res):
    p = job["params"]
    if res["code"] != p["code"]:
        return [f"exit {res['code']} != predicted {p['code']}: {res['stderr'].strip()}"], []
    outcome = [f"exit{p['code']}"] if p["code"] else []
    if not job["expect"]:
        return [], outcome
    doc = json.loads(res["text"])
    problems = []
    for key, want in job["expect"].items():
        got = _CLI_FIELDS[key](doc)
        if got != want:
            problems.append(f"{key} {got} != {want}")
    return problems, outcome


_CLI_NAMES = (
    "cosupport_of_map", "is_comeasuring", "is_tensor_epimorphism",
    "manin_end_presentation", "support_of_map", "tambara_presentation",
    "grothendieck_group", "unit_group", "grading_support",
    "universal_group_of_grading", "abelian_invariants", "todd_coxeter_order",
    "check_hopf_axioms_fd", "hopf_envelope_presentation",
    "universal_bialgebra_structure", "absolute_value", "lift_initial_object",
    "locally_initial_objects", "universal_object_of",
    "universal_acting_group_sets", "universal_coacting_sets",
    "universal_measuring_comonoid_sets",
)


@contextmanager
def instrument_cli(tracer):
    """Traced cli jobs: spans around the names ``univhopf.cli`` resolves at
    call time (its engine imports, and the document parse and dump), so the
    layers under a command show without touching the library."""
    saved = [(cli, name, getattr(cli, name)) for name in _CLI_NAMES]
    saved += [(docs, name, getattr(docs, name))
              for name in ("parse_input_document", "document_to_json")]
    for module, name, fn in saved:
        setattr(module, name, tracer.wrap(fn))
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


RUNNERS = {
    "presentations": (run_presentations, check_presentations),
    "groups": (run_groups, check_groups),
    "sets": (run_sets, check_sets),
    "cli": (run_cli, check_cli),
}
