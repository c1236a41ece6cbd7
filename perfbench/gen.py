"""Seeded input generator: every workload's jobs from one seed.

A job is a plain dict: its id, its input family, the input documents as JSON
text (what the program sees), benchmark-side parameters, and the reference
values it is checked against.  References are computed here from the
mathematics of each family, never by calling the code under test.  The only
library call is ``lio.random_category``, the seeded category source of the
sets and cli workloads; its output is serialized like every other input.

Every workload has 25 jobs per cycle, with a fixed number per family.  The
seed draws the names in the documents (labels, basis and generator names),
the ideal-membership queries, the random categories and the job order.  It
does not reorder the elements of a group, monoid or magma: rewriting, Tietze
and scan costs depend on that order (up to 2x between orderings of the same
group), which would move the percentiles from seed to seed.
"""

import json
import random
from math import factorial, gcd

from refs import (
    abelian_invariants_of_cyclic_product,
    euler_phi,
    group_algebra_word_counts,
    lio_of_category,
    truncated_poly_word_counts,
)

WORKLOADS = ("presentations", "groups", "sets", "cli")
DEGREE_BOUND = 4
QUERIES = 4

# ---------------------------------------------------------------------------
# finite groups and monoids as multiplication tables (element 0 is the unit)


def perm_group(degree, gens):
    """Closure of permutation generators; returns the table with unit 0."""
    ident = tuple(range(degree))
    elems, seen = [ident], {ident}
    for p in elems:
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                elems.append(q)
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[x]] for x in ident)] for q in elems] for p in elems]


def cyclic_perm(n, offset=0, degree=None):
    p = list(range(degree or n))
    for i in range(n):
        p[offset + i] = offset + (i + 1) % n
    return tuple(p)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(a, b):
    """Z/a x Z/b as permutations on a + b points."""
    return perm_group(a + b, [cyclic_perm(a, 0, a + b), cyclic_perm(b, a, a + b)])


def dihedral_table(n):
    """Symmetries of the n-gon, order 2n."""
    return perm_group(n, [cyclic_perm(n), tuple((-x) % n for x in range(n))])


def symmetric_table(n):
    swap = tuple([1, 0] + list(range(2, n)))
    return perm_group(n, [swap, cyclic_perm(n)])


KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def monogenic_table(index, period):
    """<a | a^(index + period) = a^index> on a^0 .. a^(index + period - 1)."""
    size = index + period

    def norm(e):
        return e if e < size else index + (e - index) % period

    return [[norm(i + j) for j in range(size)] for i in range(size)]


def monoid_product(t1, t2):
    n2 = len(t2)
    size = len(t1) * n2
    return [
        [t1[i // n2][j // n2] * n2 + t2[i % n2][j % n2] for j in range(size)]
        for i in range(size)
    ]


def transformation_table(k):
    """Full transformation monoid T_k under (f.g)(x) = f(g(x)); unit first."""
    from itertools import product

    ident = tuple(range(k))
    maps = [ident] + [f for f in product(range(k), repeat=k) if f != ident]
    pos = {f: i for i, f in enumerate(maps)}
    return [[pos[tuple(f[g[x]] for x in range(k))] for g in maps] for f in maps]


# ---------------------------------------------------------------------------
# documents


def dump(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def q(x):
    return str(x)


def names(rng, prefix, n):
    """n distinct seeded names."""
    return [f"{prefix}{k}" for k in rng.sample(range(10_000), n)]


UNITAL_SIGNATURE = {
    "kind": "signature",
    "ops": [{"name": "mu", "in": 2, "out": 1}, {"name": "unit", "in": 0, "out": 1}],
}


def vect_magma(rng, dim, mu, unit):
    """mu: {(i, j): {k: coeff}}, unit: {k: coeff}; seeded basis names."""
    return {
        "kind": "vect_magma",
        "signature": UNITAL_SIGNATURE,
        "dim": dim,
        "basis": names(rng, "b", dim),
        "tensors": {
            "mu": [
                {"out": [k], "in": [i, j], "coeff": q(c)}
                for (i, j), row in sorted(mu.items())
                for k, c in sorted(row.items())
            ],
            "unit": [{"out": [k], "in": [], "coeff": q(c)} for k, c in sorted(unit.items())],
        },
    }


def group_algebra(rng, table):
    n = len(table)
    return vect_magma(rng, n, {(i, j): {table[i][j]: 1} for i in range(n) for j in range(n)},
                      {0: 1})


def truncated_poly_algebra(rng, k):
    """Q[x]/(x^k) on the basis 1, x, ..., x^(k-1)."""
    mu = {(i, j): {i + j: 1} for i in range(k) for j in range(k) if i + j < k}
    return vect_magma(rng, k, mu, {0: 1})


def idempotent_pair_algebra(rng):
    """Q x Q on its two orthogonal idempotents."""
    return vect_magma(rng, 2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, {0: 1, 1: 1})


def line_algebra(rng):
    return vect_magma(rng, 1, {(0, 0): {0: 1}}, {0: 1})


PAULI_PRODUCTS = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, 1), (1, 2): (3, 1), (1, 3): (2, 1),
    (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
    (3, 0): (3, 1), (3, 1): (2, -1), (3, 2): (1, -1), (3, 3): (0, 1),
}


def monoid_doc(table):
    return {"kind": "monoid_table", "table": table, "unit": 0}


def grading(rng, algebra, assignment, group=None):
    """Basis vector i in component assignment[i]; group: attached table."""
    labels = names(rng, "g", max(assignment) + 1)
    doc = {
        "kind": "grading",
        "algebra": algebra,
        "labels": labels,
        "assignment": [labels[a] for a in assignment],
    }
    if group is not None:
        doc["group"] = {"monoid": monoid_doc(group), "label_elements": list(range(len(labels)))}
    return doc


def group_grading(rng, table):
    """Q[G] graded by G, basis element i in component i."""
    return grading(rng, group_algebra(rng, table), range(len(table)), table)


def pauli_grading(rng):
    """2x2 matrices on I, X, Y = XZ, Z; each line a Z2 x Z2 component."""
    mu = {pair: {out: c} for pair, (out, c) in PAULI_PRODUCTS.items()}
    return grading(rng, vect_magma(rng, 4, mu, {0: 1}), range(4), KLEIN)


def degree_grading(rng, k):
    return grading(rng, truncated_poly_algebra(rng, k), range(k))


def set_magma(table):
    n = len(table)
    return {
        "kind": "set_magma",
        "signature": UNITAL_SIGNATURE,
        "size": n,
        "tables": {
            "mu": [{"in": [i, j], "out": [table[i][j]]} for i in range(n) for j in range(n)],
            "unit": [{"in": [], "out": [0]}],
        },
    }


def frame(table, pair):
    """Frame psi: A -> U identifying exactly the given pair of elements."""
    a, b = pair
    labels, psi = {}, []
    for x in range(len(table)):
        psi.append(labels.setdefault(a if x == b else x, len(labels)))
    return {"kind": "frame_sets", "magma": set_magma(table), "psi": psi,
            "num_labels": len(labels)}


def coxeter_presentation(rng, n):
    """Coxeter presentation of S_n on s_1 .. s_(n-1), with seeded names."""
    relators = []
    for i in range(1, n):
        relators.append([i, i])
        for j in range(i + 1, n):
            relators.append([i, j] * (3 if j == i + 1 else 2))
    return {
        "kind": "presentation",
        "presentation_type": "group",
        "generators": names(rng, "s", n - 1),
        "relators": relators,
    }


def chain_category(n):
    morphs = [(a, b) for a in range(n) for b in range(n) if a <= b]
    idx = {m: i for i, m in enumerate(morphs)}
    return {
        "kind": "category",
        "objects": n,
        "morphisms": [{"dom": a, "cod": b} for a, b in morphs],
        "identity": [idx[(x, x)] for x in range(n)],
        "compose": [
            [gi, fi, idx[(fa, gb)]]
            for gi, (ga, gb) in enumerate(morphs)
            for fi, (fa, fb) in enumerate(morphs)
            if fb == ga
        ],
    }


def identity_functor(cat):
    return {
        "kind": "functor",
        "source": cat,
        "target": cat,
        "object_map": list(range(cat["objects"])),
        "morphism_map": list(range(len(cat["morphisms"]))),
    }


def random_category_doc(rng):
    """A seeded ``lio.random_category``, serialized as an input document."""
    from univhopf.documents import serialize_category
    from univhopf.lio import random_category

    return serialize_category(random_category(rng, max_objects=4, max_morphisms=10))


# ---------------------------------------------------------------------------
# presentations workload


def _word_query(rng, images, mul, member):
    """A polynomial over basis-index letters with a known ideal membership.

    images[i] is the monoid element letter i maps to under an algebra map
    whose kernel is the ideal (element 0 is the unit); a member is
    c (w1 - w2) with equal images, a non-member c (w1 - w2) with different
    images.
    """
    letters = list(range(len(images)))

    def image(w):
        x = 0
        for letter in w:
            x = mul(x, images[letter])
        return x

    while True:
        w1 = [rng.choice(letters) for _ in range(rng.randint(1, DEGREE_BOUND))]
        w2 = [rng.choice(letters) for _ in range(rng.randint(1, DEGREE_BOUND))]
        if w1 != w2 and (image(w1) == image(w2)) == member:
            c = rng.choice([1, 2, -1, 3])
            return [[w1, q(c)], [w2, q(-c)]]


_POINT_MUL = {
    "group": lambda table: (lambda a, b: table[a][b]),
    "weight": lambda k: (lambda a, b: a + b),
}


def presentation_jobs(rng):
    jobs = []

    def manin(family, doc, point, counts):
        """point: ("group", table) or ("weight", k), the algebra map that
        sends the generator of basis vector i to element i."""
        images, mul = list(range(len(doc["labels"]))), _POINT_MUL[point[0]](point[1])
        polys = [
            {"terms": _word_query(rng, images, mul, i % 2 == 0), "member": i % 2 == 0}
            for i in range(QUERIES)
        ]
        jobs.append({
            "family": family,
            "docs": [dump(doc)],
            "params": {"variant": "manin", "queries": polys},
            "expect": {"normal_words": counts, "point": list(point)},
        })

    # second copies of the small families put p50 inside one family's samples
    for n in (2, 2, 3, 3, 4, 5, 6, 7, 8):
        table = cyclic_table(n)
        manin(f"manin_Z{n}", group_grading(rng, table), ("group", table),
              group_algebra_word_counts(n, DEGREE_BOUND))
    manin("manin_Z2xZ2", group_grading(rng, KLEIN), ("group", KLEIN),
          group_algebra_word_counts(4, DEGREE_BOUND))
    manin("manin_pauli", pauli_grading(rng), ("group", KLEIN),
          group_algebra_word_counts(4, DEGREE_BOUND))
    for k in (2, 2, 3, 3, 4, 5):
        manin(f"manin_trunc{k}", degree_grading(rng, k), ("weight", k),
              truncated_poly_word_counts(k, DEGREE_BOUND))
    tambara = [("Q", line_algebra), ("Q[Z2]", lambda r: group_algebra(r, cyclic_table(2))),
               ("dual", lambda r: truncated_poly_algebra(r, 2))]
    tambara = tambara * 2 + [("QxQ", idempotent_pair_algebra),
                             ("Q[x]/x^3", lambda r: truncated_poly_algebra(r, 3))]
    for name, build in tambara:
        # (A, A): the identity comeasuring u_ij -> delta_ij is an algebra map
        # out of the Tambara algebra, which gives the reference point
        a = build(rng)
        jobs.append({
            "family": f"tambara_{name}",
            "docs": [dump(a), dump(a)],
            "params": {"variant": "tambara", "query_seed": rng.randrange(1 << 30)},
            "expect": {"generators": a["dim"] ** 2},
        })
    return jobs


# ---------------------------------------------------------------------------
# groups workload


def group_jobs(rng):
    jobs = []

    def add(family, doc, order, invariants):
        jobs.append({
            "family": family,
            "docs": [dump(doc)],
            "params": {},
            "expect": {"order": order, "abelian_invariants": invariants},
        })

    for n in (3, 4, 5, 6, 7, 8, 9, 10, 11, 16):
        add(f"grading_Z{n}", group_grading(rng, cyclic_table(n)), n, [n])
    for a, b in ((2, 2), (2, 4), (3, 3)):
        add(f"grading_Z{a}xZ{b}", group_grading(rng, product_table(a, b)), a * b,
            abelian_invariants_of_cyclic_product([a, b]))
    for n in (4, 5):
        add(f"grading_D{n}", group_grading(rng, dihedral_table(n)), 2 * n,
            [2] if n % 2 else [2, 2])
    add("grading_S3", group_grading(rng, symmetric_table(3)), 6, [2])
    for n in (4, 5, 6):
        add(f"coxeter_S{n}", coxeter_presentation(rng, n), factorial(n), [2])
    for index, period in ((1, 2), (2, 3), (3, 4), (1, 6)):
        add("grothendieck_monogenic", monoid_doc(monogenic_table(index, period)), period,
            abelian_invariants_of_cyclic_product([period]))
    add("grothendieck_product",
        monoid_doc(monoid_product(monogenic_table(2, 2), monogenic_table(1, 3))), 6,
        abelian_invariants_of_cyclic_product([2, 3]))
    # the universal group is Z: coset enumeration runs to its limit
    add("degree_grading_Z", degree_grading(rng, 3), None, [0])
    return jobs


# ---------------------------------------------------------------------------
# sets workload


def set_jobs(rng):
    jobs = []

    def add(family, call, docs, expect):
        jobs.append({
            "family": family,
            "docs": [dump(d) for d in docs],
            "params": {"call": call},
            "expect": expect,
        })

    for n, m in ((4, 8), (5, 6), (6, 5)):
        add("homs_cyclic", "homs", [set_magma(cyclic_table(n)), set_magma(cyclic_table(m))],
            {"count": gcd(n, m)})
    for n in (5, 6, 7):
        add("automorphisms_cyclic", "automorphisms", [set_magma(cyclic_table(n))],
            {"count": euler_phi(n)})
    add("measuring_cyclic", "measuring",
        [set_magma(cyclic_table(4)), set_magma(cyclic_table(6))], {"count": 2})
    for n in (3, 4):
        add("acting_cyclic", "acting", [set_magma(cyclic_table(n))], {"count": euler_phi(n)})
    add("acting_klein", "acting", [set_magma(KLEIN)], {"count": 6})
    # the universal coacting quotient and the monoid congruence closure are
    # two closures of the same pairs: their partitions must agree
    add("coact_T3", "coact", [frame(transformation_table(3), (1, 2))], {})
    for n, pair in ((6, (0, 2)), (12, (0, 3))):
        add("coact_cyclic", "coact", [frame(cyclic_table(n), pair)], {})
    for k in (2, 3):
        add("unit_group_T", "unit_group", [monoid_doc(transformation_table(k))],
            {"count": factorial(k)})
    for shape in (((1, 2), (1, 3)), ((2, 4), (2, 2))):
        table = monoid_product(monogenic_table(*shape[0]), monogenic_table(*shape[1]))
        add("grothendieck_monoid", "grothendieck", [monoid_doc(table)],
            {"generators": len(table), "relators": 1 + len(table) ** 2})
    for _ in range(3):
        cat = random_category_doc(rng)
        add("lio_random", "lio", [cat], {"chain": None})
        add("lio_random_functor", "lio", [identity_functor(cat)], {"chain": None})
    for n in (8, 16):
        add("lio_chain", "lio", [identity_functor(chain_category(n))], {"chain": n})
    return jobs


# ---------------------------------------------------------------------------
# cli workload


def tensor_map_doc(dim_in, dim_out, dim_coeff, entries, **embedded):
    doc = {
        "kind": "tensor_map",
        "dim_in": dim_in,
        "dim_out": dim_out,
        "dim_coeff": dim_coeff,
        "entries": [[[q(x) for x in vec] for vec in row] for row in entries],
    }
    doc.update(embedded)
    return doc


def grading_coaction_doc(rng, table):
    """Q[G] coacting on itself by g -> g (x) g, with every structure embedded."""
    n = len(table)
    entries = [[[int(b == a == c) for c in range(n)] for a in range(n)] for b in range(n)]
    alg = group_algebra(rng, table)
    return tensor_map_doc(n, n, n, entries, source=alg, target=alg, coeff_algebra=alg)


def hopf_group_algebra_doc(table):
    n = len(table)
    inv = [table[x].index(0) for x in range(n)]
    return {
        "kind": "hopf_fd",
        "dim": n,
        "mult": [[[q(int(k == table[x][y])) for k in range(n)] for y in range(n)]
                 for x in range(n)],
        "unit": [q(int(k == 0)) for k in range(n)],
        "delta": [[{"left": i, "right": i, "coeff": "1"}] for i in range(n)],
        "counit": ["1"] * n,
        "antipode": [[q(int(inv[j] == i)) for j in range(n)] for i in range(n)],
    }


def skew_primitive_doc(order):
    from univhopf.documents import serialize_hopf_fd
    from univhopf.hopf import skew_primitive_hopf

    return serialize_hopf_fd(skew_primitive_hopf(order))


def cli_jobs(rng):
    """One job per command line: its documents, flags, the exit code the
    generator predicts and what the output must say.  A ``prepare`` command
    turns the documents into the job's input at set-up (hopf-envelope reads
    what manin-end wrote)."""
    jobs = []

    def add(command, docs, expect, flags=(), code=0, prepare=None):
        jobs.append({
            "family": command if code == 0 else f"{command}_exit{code}",
            "docs": [dump(d) for d in docs],
            "params": {"command": command, "flags": list(flags), "code": code,
                       "prepare": prepare},
            "expect": expect,
        })

    n, dim_coeff = 4, 6
    used = rng.sample(range(dim_coeff), 3)
    entries = [[[rng.randint(1, 3) if c == used[(a + b) % 3] else 0
                 for c in range(dim_coeff)] for a in range(n)] for b in range(n)]
    add("support", [tensor_map_doc(n, n, dim_coeff, entries)], {"support_dim": 3})
    cells = rng.sample(range(9), 3)
    mats = [[[q(rng.randint(1, 5) if 3 * r + c == cell else 0) for c in range(3)]
             for r in range(3)] for cell in cells + [cells[0]]]
    add("cosupport", [{"kind": "family_map", "dim_p": 4, "dim_in": 3, "dim_out": 3,
                       "matrices": mats}], {"cosupport_dim": 3})
    add("universal-group", [group_grading(rng, cyclic_table(6))], {"order": 6})
    add("universal-group", [degree_grading(rng, 3)], {"order": None},
        flags=["--coset-limit", "2000"], code=4)
    add("tambara", [truncated_poly_algebra(rng, 2), idempotent_pair_algebra(rng)],
        {"generators": 4})
    z2 = group_algebra(rng, cyclic_table(2))
    add("tambara", [z2, z2], {"generators": 4})
    add("manin-end", [group_grading(rng, cyclic_table(4))], {"generators": 4})
    add("manin-end", [pauli_grading(rng)], {"generators": 4})
    envelope = ["--antipode-levels", "1", "--degree-bound", "4"]
    add("manin-aut", [group_grading(rng, cyclic_table(4))], {"generators": 8}, flags=envelope)
    add("hopf-envelope", [group_grading(rng, cyclic_table(4))], {"generators": 8},
        flags=envelope, prepare="manin-end")
    add("grothendieck", [monoid_doc(monogenic_table(2, 4))], {"order": 4})
    add("grothendieck", [monoid_doc(monoid_product(monogenic_table(1, 2),
                                                   monogenic_table(0, 3)))], {"order": 6})
    add("grothendieck", [monoid_doc([[0, 1, 2], [1, 0, 0], [2, 0, 1]])], {}, code=3)
    add("unit-group", [monoid_doc(transformation_table(3))], {"size": 6})
    # psi labels the cosets of the subgroup {0, 4}, already a congruence
    add("coact-sets", [{"kind": "frame_sets", "magma": set_magma(cyclic_table(8)),
                        "psi": [x % 4 for x in range(8)], "num_labels": 4}], {"size": 4})
    add("meas-sets", [set_magma(cyclic_table(4)), set_magma(cyclic_table(6))], {"count": 2})
    add("meas-sets", [set_magma(KLEIN), set_magma(KLEIN)], {},
        flags=["--enum-cap", "10"], code=4)
    add("act-group-sets", [set_magma(cyclic_table(3))], {"count": 2})
    add("lio", [identity_functor(chain_category(6))], {"chain": 6})
    cat = random_category_doc(rng)
    add("lio", [cat], {"locally_initial": lio_of_category(cat)})
    add("check-hopf", [hopf_group_algebra_doc(cyclic_table(4))], {"all_pass": True})
    add("check-hopf", [skew_primitive_doc(2)], {"all_pass": True})
    add("check-comeasuring", [grading_coaction_doc(rng, cyclic_table(3))],
        {"comeasuring": True})
    add("check-comeasuring", [grading_coaction_doc(rng, KLEIN)], {"comeasuring": True})
    add("check-comeasuring", [tensor_map_doc(1, 1, 1, [[[1]]])], {}, code=3)
    return jobs


_BUILDERS = {
    "presentations": presentation_jobs,
    "groups": group_jobs,
    "sets": set_jobs,
    "cli": cli_jobs,
}


def generate(workload, seed):
    """The workload's jobs for one seed, in seeded order, with ids."""
    rng = random.Random(f"univhopf-bench:{workload}:{seed}")
    jobs = _BUILDERS[workload](rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"{workload}-{seed}-{i:03d}-{job['family']}"
    return jobs
