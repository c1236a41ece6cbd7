"""Independent oracles used by tests: generic matrix evaluation of the
comeasuring diagram, kept deliberately separate from the coordinate formula
it validates, the three per-(I, J) tensor scans that the one coordinate
identity generator replaced, brute-force scans that the set-level hom search and
congruence closure are checked against, the dense per-axiom Hopf
checker that the sparse axiom checker replaced, the linear-scan
reducer and completion that the indexed rewriting engine replaced, the
scanning hom sets, locally initial objects, absolute values and m^2
validation that the indexed finite categories replaced, the pairwise
rotation scan that the factor index of Tietze shortening replaced, the
full coset enumeration that the abelianization shortcut of Todd-Coxeter
skips for groups with a free abelian factor, and the linear solves and
dense comodule axiom loops that the RREF pivot read of support coordinates
and the one axiom checker replaced, the tensor-square presentation, whose
completion and truncated ideal check the factor-by-factor reduction of
coproduct images, the staged Smith diagonal that the one-loop Smith form replaced, the monoid
associativity triple loop that the row-per-step check replaced, the slice scan
that interreduction's substring factor test replaced, the dense i, j, k
multiplication and comultiplication loops that the sparse structure tables
of the finite-dimensional algebras and coalgebras replaced, and the rank modulo a
prime of a truncated ideal, which bounds the normal-word counts of a
completion without using it."""

from fractions import Fraction
from functools import partial
from itertools import chain, permutations, product

from univhopf._linalg import row_space_basis, solve, unit_vec, vec, zero_vec
from univhopf.coact import FDCoalgebra, TensorValuedMap
from univhopf.errors import InputError, PreconditionError
from univhopf.grouppres import (
    DEFAULT_TIETZE_EFFORT,
    GroupPresentation,
    _substitute,
    free_reduce_word,
    invert_word,
)
from univhopf.hopf import AxiomReport
from univhopf.ncalg import (
    AlgebraPresentation,
    NCPoly,
    _orient,
    _reduce,
    _rule_index,
    deglex_key,
)
from univhopf.signature import is_set_homomorphism

F = Fraction


def dense_multiply(a, x, y):
    """x y by the structure constants a.mult, looping over every i, j, k."""
    n = a.dim
    out = [F(0)] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            c = x[i] * y[j]
            for k, m in enumerate(a.mult[i][j]):
                if m != 0:
                    out[k] += c * m
    return tuple(out)


def dense_product_of(a, vectors):
    """The product of the vectors in order, a.unit for none."""
    vectors = iter(vectors)
    out = next(vectors, a.unit)
    for v in vectors:
        out = dense_multiply(a, out, v)
    return out


def dense_comultiply(c, x):
    """Delta(x) as {(j, k): coefficient} by the dense loop over x."""
    out = {}
    for i, coeff in enumerate(x):
        if coeff == 0:
            continue
        for key, d in c.delta[i].items():
            out[key] = out.get(key, F(0)) + coeff * d
    return {k: v for k, v in out.items() if v != 0}


def dense_counit_of(c, x):
    return sum((coeff * e for coeff, e in zip(x, c.counit)), F(0))


def identity(n):
    return tuple(unit_vec(n, i) for i in range(n))


def mat_mul(a, b):
    """Matrix product, skipping zero entries."""
    if a and b:
        assert len(a[0]) == len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [F(0)] * cols
        for x, brow in zip(row, b):
            if x:
                for l, y in enumerate(brow):
                    if y:
                        acc[l] += x * y
        out.append(tuple(acc))
    return tuple(out)


def kron(a, b):
    """Kronecker product, skipping zero entries; index (i*rows(b)+k,
    j*cols(b)+l)."""
    if not a or not b:
        return ()
    cols_b = len(b[0])
    width = len(a[0]) * cols_b
    out = []
    for arow in a:
        for brow in b:
            row = [F(0)] * width
            for j, x in enumerate(arow):
                if x:
                    for l, y in enumerate(brow):
                        if y:
                            row[j * cols_b + l] = x * y
            out.append(tuple(row))
    return tuple(out)


def coords_in_span(basis, v):
    """Coordinates of v in the given (independent) basis rows, or None, by
    solving the linear system of the basis columns."""
    if not basis:
        return () if all(x == 0 for x in v) else None
    return solve(tuple(vec(c) for c in zip(*basis)), v)


def dense_support_of_map(rho):
    """Support basis and corestriction of rho, each coefficient solved for
    with coords_in_span."""
    basis = row_space_basis(
        [q for row in rho.entries for q in row]
    )
    entries = []
    for beta in range(rho.dim_out):
        row = []
        for alpha in range(rho.dim_in):
            coords = coords_in_span(basis, rho.entries[beta][alpha])
            if coords is None:
                raise RuntimeError(f"coefficient ({beta},{alpha}) is outside the support")
            row.append(coords)
        entries.append(tuple(row))
    return basis, TensorValuedMap(rho.dim_in, rho.dim_out, len(basis), tuple(entries))


def dense_comodule_failures(rho, c):
    """The counit and coassociativity comodule axioms, entry by entry:
    ("counit", beta, alpha) and ("coassociativity", gamma, alpha) triples."""
    if rho.dim_in != rho.dim_out:
        raise InputError("a comodule structure needs a square map")
    if rho.dim_coeff != c.dim:
        raise InputError("coefficient space does not match the coalgebra")
    n = rho.dim_in
    failures = []
    for alpha in range(n):
        for beta in range(n):
            want = F(1 if alpha == beta else 0)
            if dense_counit_of(c, rho.q(beta, alpha)) != want:
                failures.append(("counit", beta, alpha))
    for alpha in range(n):
        for gamma in range(n):
            lhs = {}
            for beta in range(n):
                qgb = rho.q(gamma, beta)
                qba = rho.q(beta, alpha)
                for j in range(c.dim):
                    if qgb[j] == 0:
                        continue
                    for k in range(c.dim):
                        if qba[k] == 0:
                            continue
                        lhs[(j, k)] = lhs.get((j, k), F(0)) + qgb[j] * qba[k]
            rhs = dense_comultiply(c, rho.q(gamma, alpha))
            if {k: v for k, v in lhs.items() if v} != rhs:
                failures.append(("coassociativity", gamma, alpha))
    return failures


def dense_support_of_comodule(rho, c):
    """Support subcoalgebra of a comodule, the comultiplication of each
    basis vector solved for in the dense m^2 x dim^2 Kronecker basis."""
    failures = dense_comodule_failures(rho, c)
    if failures:
        raise PreconditionError(f"not a comodule structure: {failures[:3]}")
    basis, corestricted = dense_support_of_map(rho)
    pair_basis = [
        tuple(bi[j] * bk[k] for j in range(c.dim) for k in range(c.dim))
        for bi in basis
        for bk in basis
    ]
    delta0 = []
    for b in basis:
        image = dense_comultiply(c, b)
        flat = [F(0)] * (c.dim * c.dim)
        for (j, k), v in image.items():
            flat[j * c.dim + k] = v
        coords = coords_in_span(tuple(pair_basis), tuple(flat))
        if coords is None:
            raise RuntimeError(
                "support is not closed under comultiplication; input data corrupt"
            )
        m = len(basis)
        delta0.append(
            {
                (i, k): coords[i * m + k]
                for i in range(m)
                for k in range(m)
                if coords[i * m + k] != 0
            }
        )
    eps0 = tuple(dense_counit_of(c, b) for b in basis)
    support_coalg = FDCoalgebra(len(basis), tuple(delta0), eps0)
    if dense_comodule_failures(corestricted, support_coalg):
        raise RuntimeError("corestriction to the support is not a comodule")
    return basis, support_coalg, corestricted


def rho_matrix(rho):
    """rho as a matrix (dim_out * dim_coeff) x dim_in."""
    rows = []
    for beta in range(rho.dim_out):
        for q in range(rho.dim_coeff):
            rows.append(
                tuple(rho.entries[beta][alpha][q] for alpha in range(rho.dim_in))
            )
    return tuple(rows)


def swap_matrix(dim_a, dim_b):
    """Permutation matrix for A (x) B -> B (x) A."""
    rows = []
    for b in range(dim_b):
        for a in range(dim_a):
            row = [F(0)] * (dim_a * dim_b)
            row[a * dim_b + b] = F(1)
            rows.append(tuple(row))
    return tuple(rows)


def mu_matrix(q_alg):
    n = q_alg.dim
    rows = []
    for k in range(n):
        row = [F(0)] * (n * n)
        for i in range(n):
            for j in range(n):
                row[i * n + j] = q_alg.mult[i][j][k]
        rows.append(tuple(row))
    return tuple(rows)


def unit_matrix(q_alg):
    return tuple((c,) for c in q_alg.unit)


def iterated_rho_matrix(rho, q_alg, power):
    """Matrix of the m-fold monoidal power of rho: A^m -> B^m (x) Q.

    Built by literal composition: tensor with another copy of rho, swap the
    inner Q past B, multiply the two Q factors.
    """
    n_b = rho.dim_out
    n_q = q_alg.dim
    current = unit_matrix(q_alg)  # A^0 = 1 -> Q
    r = rho_matrix(rho)
    for m in range(power):
        step = kron(current, r)  # A^{m+1} -> B^m (x) Q (x) B (x) Q
        swap = kron(identity(n_b**m), kron(swap_matrix(n_q, n_b), identity(n_q)))
        joined = mat_mul(swap, step)  # -> B^{m+1} (x) Q (x) Q
        mult = kron(identity(n_b ** (m + 1)), mu_matrix(q_alg))
        current = mat_mul(mult, joined)
    return current


def op_matrix(vm, name, s, t):
    rows = []
    for out in product(range(vm.dim), repeat=t):
        row = []
        for inp in product(range(vm.dim), repeat=s):
            row.append(vm.op_entry(name, out, inp))
        rows.append(tuple(row))
    return tuple(rows)


def comeasuring_oracle(rho, q_alg, a, b):
    """Direct evaluation of both composite linear maps, per operation."""
    for name, s, t in a.signature.ops:
        w_a = op_matrix(a, name, s, t)
        w_b = op_matrix(b, name, s, t)
        sigma1 = mat_mul(iterated_rho_matrix(rho, q_alg, t), w_a)
        sigma2 = mat_mul(
            kron(w_b, identity(q_alg.dim)), iterated_rho_matrix(rho, q_alg, s)
        )
        if sigma1 != sigma2:
            return False
    return True


def _scan_lhs_rhs(rho, q_alg, a, b, name, big_i, big_j):
    lhs = zero_vec(q_alg.dim)
    for (out, inp), c in b.tensors[name].items():
        if out != big_i:
            continue
        prod = dense_product_of(q_alg, (rho.q(p, j) for p, j in zip(inp, big_j)))
        lhs = tuple(x + c * y for x, y in zip(lhs, prod))
    rhs = zero_vec(q_alg.dim)
    for (out, inp), c in a.tensors[name].items():
        if inp != big_j:
            continue
        prod = dense_product_of(q_alg, (rho.q(i, m) for i, m in zip(big_i, out)))
        rhs = tuple(x + c * y for x, y in zip(rhs, prod))
    return lhs, rhs


def dense_factorization_failures(mp, rho, q_alg):
    """(relation index, value) for every relation of mp whose value at
    rho's coefficients is not zero, each monomial a dense product in Q."""
    assignment = [rho.q(i, j) for _, i, j in mp.gen_index]
    failures = []
    for idx, rel in enumerate(mp.algebra.relations):
        value = zero_vec(q_alg.dim)
        for word, c in rel.terms.items():
            prod = dense_product_of(q_alg, (assignment[g] for g in word))
            value = tuple(x + c * y for x, y in zip(value, prod))
        if any(value):
            failures.append((idx, value))
    return tuple(failures)


def scan_is_comeasuring(rho, q_alg, a, b):
    """(ok, first failing (name, I, J) or None), both sides of each
    coordinate identity evaluated in Q by a scan of the whole tensor."""
    for name, s, t in a.signature.ops:
        for big_i in product(range(b.dim), repeat=t):
            for big_j in product(range(a.dim), repeat=s):
                lhs, rhs = _scan_lhs_rhs(rho, q_alg, a, b, name, big_i, big_j)
                if lhs != rhs:
                    return False, (name, big_i, big_j)
    return True, None


def scan_coordinate_relations(a, b, gen_of):
    """Tambara relation polynomials by a scan of the sorted tensors per
    (I, J); terms with a forced zero (gen_of None) vanish, and repeats are
    removed by a list scan that keeps first occurrences."""
    relations = []
    for name, s, t in a.signature.ops:
        for big_i in product(range(b.dim), repeat=t):
            for big_j in product(range(a.dim), repeat=s):
                poly = NCPoly.zero()
                for (out, inp), c in sorted(b.tensors[name].items()):
                    if out != big_i:
                        continue
                    gens = [gen_of(p, j) for p, j in zip(inp, big_j)]
                    if any(g is None for g in gens):
                        continue
                    poly = poly + NCPoly.monomial(tuple(gens), c)
                for (out, inp), c in sorted(a.tensors[name].items()):
                    if inp != big_j:
                        continue
                    gens = [gen_of(i, m) for i, m in zip(big_i, out)]
                    if any(g is None for g in gens):
                        continue
                    poly = poly - NCPoly.monomial(tuple(gens), c)
                if not poly.is_zero():
                    relations.append(poly)
    seen = []
    for r in relations:
        if r not in seen:
            seen.append(r)
    return seen


def scan_is_linear_omega_morphism(m, a, b):
    """omega_b . m^{tensor s} == m^{tensor t} . omega_a entry by entry,
    each side a scan of the whole tensor."""
    for name, s, t in a.signature.ops:
        for big_i in product(range(b.dim), repeat=t):
            for big_j in product(range(a.dim), repeat=s):
                lhs = F(0)
                for (out, inp), c in b.tensors[name].items():
                    if out != big_i:
                        continue
                    w = c
                    for p, j in zip(inp, big_j):
                        w *= m[p][j]
                    lhs += w
                rhs = F(0)
                for (out, inp), c in a.tensors[name].items():
                    if inp != big_j:
                        continue
                    w = c
                    for i, k in zip(big_i, out):
                        w *= m[i][k]
                    rhs += w
                if lhs != rhs:
                    return False
    return True


def product_scan_homs(a, b):
    """Every map a -> b in lexicographic order, kept when it preserves every
    operation table."""
    return [
        f
        for f in product(range(b.size), repeat=a.size)
        if is_set_homomorphism(f, a, b)
    ]


def permutation_scan_automorphisms(a):
    """Every permutation of a's carrier in lexicographic order (the identity
    first), kept when it preserves every operation table."""
    return [p for p in permutations(range(a.size)) if is_set_homomorphism(p, a, a)]


def fixed_point_closure(magma, pairs):
    """Operation-respecting closure of the pairs by an all-pairs fixed point:
    repeat until no change, merging the outputs of every two input tuples that
    are already equivalent componentwise.  Classes are numbered by first
    appearance."""
    n = magma.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    for x, y in pairs:
        union(x, y)
    changed = True
    while changed:
        changed = False
        for name, s, _ in magma.signature.ops:
            if s == 0:
                continue
            for args1 in product(range(n), repeat=s):
                canon1 = tuple(find(x) for x in args1)
                for args2 in product(range(n), repeat=s):
                    if args2 <= args1 or tuple(find(x) for x in args2) != canon1:
                        continue
                    out1 = magma.apply(name, args1)
                    out2 = magma.apply(name, args2)
                    for o1, o2 in zip(out1, out2):
                        changed |= union(o1, o2)
    label = {}
    return tuple(label.setdefault(find(x), len(label)) for x in range(n))


def dense_hopf_axioms(h):
    """Every Hopf axiom of dense FinDimHopf data, checked by direct dense
    contractions, with the first basis witness per failing axiom."""
    n = h.dim
    if (
        len(h.mult) != n
        or any(len(r) != n for r in h.mult)
        or len(h.delta) != n
        or len(h.counit) != n
        or len(h.antipode) != n
        or any(len(r) != n for r in h.antipode)
    ):
        raise InputError("structure constant shapes do not match the dimension")

    multiply = partial(dense_multiply, h)
    comultiply = partial(dense_comultiply, h)
    counit_of = partial(dense_counit_of, h)

    def apply_antipode(x):
        return tuple(
            sum((h.antipode[i][j] * x[j] for j in range(n)), F(0)) for i in range(n)
        )

    basis = [unit_vec(n, i) for i in range(n)]
    results = []

    def record(name, failures):
        results.append((name, not failures, failures[0] if failures else None))

    fails = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if multiply(h.mult[i][j], basis[k]) != multiply(basis[i], h.mult[j][k]):
                    fails.append((i, j, k))
    record("associativity", fails)

    fails = [
        i
        for i in range(n)
        if multiply(h.unit, basis[i]) != basis[i]
        or multiply(basis[i], h.unit) != basis[i]
    ]
    record("unit", fails)

    fails = []
    for i in range(n):
        left = {}
        right = {}
        for (j, k), c in h.delta[i].items():
            for (a, b), d in h.delta[j].items():
                left[(a, b, k)] = left.get((a, b, k), F(0)) + c * d
            for (a, b), d in h.delta[k].items():
                right[(j, a, b)] = right.get((j, a, b), F(0)) + c * d
        if {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}:
            fails.append(i)
    record("coassociativity", fails)

    fails = []
    for i in range(n):
        lc = [F(0)] * n
        rc = [F(0)] * n
        for (j, k), c in h.delta[i].items():
            lc[k] += c * h.counit[j]
            rc[j] += c * h.counit[k]
        if tuple(lc) != basis[i] or tuple(rc) != basis[i]:
            fails.append(i)
    record("counit", fails)

    fails = []
    for i in range(n):
        for j in range(n):
            product_image = comultiply(h.mult[i][j])
            pointwise = {}
            for (p, q), c in h.delta[i].items():
                for (r, s), d in h.delta[j].items():
                    prod = multiply(basis[p], basis[r])
                    prod2 = multiply(basis[q], basis[s])
                    for a in range(n):
                        if prod[a] == 0:
                            continue
                        for b in range(n):
                            if prod2[b] == 0:
                                continue
                            pointwise[(a, b)] = (
                                pointwise.get((a, b), F(0)) + c * d * prod[a] * prod2[b]
                            )
            if product_image != {k: v for k, v in pointwise.items() if v}:
                fails.append((i, j))
    expected = {
        (a, b): h.unit[a] * h.unit[b]
        for a in range(n)
        for b in range(n)
        if h.unit[a] * h.unit[b] != 0
    }
    if comultiply(h.unit) != expected:
        fails.append("unit")
    record("comultiplication multiplicative", fails)

    fails = []
    for i in range(n):
        for j in range(n):
            if counit_of(h.mult[i][j]) != h.counit[i] * h.counit[j]:
                fails.append((i, j))
    if counit_of(h.unit) != 1:
        fails.append("unit")
    record("counit multiplicative", fails)

    for name, first in (("antipode left", True), ("antipode right", False)):
        fails = []
        for i in range(n):
            acc = (F(0),) * n
            for (j, k), c in h.delta[i].items():
                if first:
                    term = multiply(apply_antipode(basis[j]), basis[k])
                else:
                    term = multiply(basis[j], apply_antipode(basis[k]))
                acc = tuple(x + c * y for x, y in zip(acc, term))
            if acc != tuple(h.counit[i] * u for u in h.unit):
                fails.append(i)
        record(name, fails)
    return AxiomReport(tuple(results))


class BudgetExceeded(Exception):
    """The reference completion ran out of steps or met a rule coefficient
    of more than COEFF_BITS bits.  It never ends once two polynomials reduce
    to nonzero constants, because the empty word is never rewritten; on
    some small inhomogeneous presentations its coefficients grow to
    hundreds of thousands of bits."""


COEFF_BITS = 256


class Budget:
    def __init__(self, steps):
        self.left = steps

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded

    def check(self, poly):
        for c in poly.terms.values():
            if max(c.numerator.bit_length(), c.denominator.bit_length()) > COEFF_BITS:
                raise BudgetExceeded


def find_redex(word, rules):
    """First (position, rule index) whose leading word occurs in word."""
    for pos in range(len(word)):
        for ri, (lw, _) in enumerate(rules):
            n = len(lw)
            if word[pos : pos + n] == lw:
                return pos, ri
    return None


def scan_reduce(p, rules, budget=None):
    """Rewrite the deglex-largest reducible term at its first redex, scanning
    every rule at every position and re-sorting all terms after each step;
    each step spends one unit of the budget, if one is given."""
    work = NCPoly(p.terms)
    while True:
        hit = None
        for w, c in work.sorted_terms():
            found = find_redex(w, rules)
            if found is not None:
                hit = (w, c, found)
                break
        if hit is None:
            return work
        if budget is not None:
            budget.spend()
        w, c, (pos, ri) = hit
        lw, rhs = rules[ri]
        prefix, suffix = w[:pos], w[pos + len(lw) :]
        replacement = NCPoly.monomial(prefix) * rhs * NCPoly.monomial(suffix)
        work = work - NCPoly.monomial(w, c) + replacement.scale(c)


def _scan_add_and_interreduce(rules, pending, budget):
    while pending:
        budget.spend()
        p = scan_reduce(pending.pop(0), rules, budget)
        if p.is_zero():
            continue
        lw = p.leading_word()
        rest = NCPoly({w: c for w, c in p.terms.items() if w != lw})
        rhs = rest.scale(F(-1) / p.terms[lw])
        budget.check(rhs)
        keep = []
        for old_lw, old_rhs in rules:
            if has_factor((old_lw,), lw) or scan_reduce(old_rhs, [(lw, rhs)]) != old_rhs:
                pending.append(NCPoly.monomial(old_lw) - old_rhs)
            else:
                keep.append((old_lw, old_rhs))
        keep.append((lw, rhs))
        rules[:] = keep


def scan_completion(pres, degree_bound, max_steps, pass_cap=50):
    """The linear-scan completion: (rules, closed, skipped), where closed
    says the last overlap pass produced no new rule and skipped counts the
    overlaps that pass left out for the degree bound.  Raises
    BudgetExceeded after max_steps rewriting and interreduction steps, or on
    a rule coefficient of more than COEFF_BITS bits."""
    budget = Budget(max_steps)
    rules = []
    _scan_add_and_interreduce(rules, [NCPoly(r.terms) for r in pres.relations], budget)
    closed = False
    skipped = 0
    for _ in range(pass_cap):
        rules.sort(key=lambda r: deglex_key(r[0]))
        new_polys = []
        skipped = 0
        for lw1, rhs1 in list(rules):
            for lw2, rhs2 in list(rules):
                for k in range(1, min(len(lw1), len(lw2))):
                    if lw1[len(lw1) - k :] != lw2[:k]:
                        continue
                    if len(lw1) + len(lw2) - k > degree_bound:
                        skipped += 1
                        continue
                    left = rhs1 * NCPoly.monomial(lw2[k:])
                    right = NCPoly.monomial(lw1[: len(lw1) - k]) * rhs2
                    s = scan_reduce(left - right, rules, budget)
                    if not s.is_zero():
                        new_polys.append(s)
        if not new_polys:
            closed = True
            break
        _scan_add_and_interreduce(rules, new_polys, budget)
    rules.sort(key=lambda r: deglex_key(r[0]))
    return tuple(rules), closed, skipped


def tensor_square_presentation(pres):
    """Two commuting copies of the presentation: left generators first, then
    right; cross commutators make the copies commute elementwise."""
    k = pres.num_gens
    labels = tuple(f"{x}.l" for x in pres.gen_labels) + tuple(
        f"{x}.r" for x in pres.gen_labels
    )
    relations = []
    for rel in pres.relations:
        relations.append(NCPoly(dict(rel.terms)))  # left copy
    for rel in pres.relations:
        relations.append(
            NCPoly({tuple(g + k for g in w): c for w, c in rel.terms.items()})
        )
    for i in range(k):
        for j in range(k):
            relations.append(
                NCPoly.monomial((i, k + j)) - NCPoly.monomial((k + j, i))
            )
    return AlgebraPresentation(2 * k, labels, tuple(relations))


def embed_tensor(left, right, k):
    """Represent left (x) right inside the 2k-generator tensor-square algebra."""
    shifted = NCPoly({tuple(g + k for g in w): c for w, c in right.terms.items()})
    return left * shifted


def has_factor(words, factor):
    """Whether any of the words contains factor, comparing every slice."""
    n = len(factor)
    return any(word[i : i + n] == factor for word in words for i in range(len(word) - n + 1))


def slice_scan_add_and_interreduce(rules, pending):
    """Interreduction with the factor test a slice scan over every word of
    every rule, as before the substring search."""
    index = _rule_index(rules)
    while pending:
        p = _reduce(pending.pop(0), index)
        if p.is_zero():
            continue
        lw, rhs = _orient(p)
        keep = []
        for old_lw, old_rhs in rules:
            if has_factor(chain((old_lw,), old_rhs.terms), lw):
                pending.append(NCPoly.monomial(old_lw) - old_rhs)
            else:
                keep.append((old_lw, old_rhs))
        keep.append((lw, rhs))
        rules[:] = keep
        index = _rule_index(rules)


PRIME = 2**61 - 1


def _mod_prime(c):
    c = F(c)
    return c.numerator * pow(c.denominator, -1, PRIME) % PRIME


def truncated_ideal_products(pres, degree):
    """Every product u r v of degree at most `degree`, over the relations r
    and words u, v, as a dict from words to coefficients."""
    g = pres.num_gens
    for rel in pres.relations:
        for total in range(degree - rel.degree() + 1):
            for i in range(total + 1):
                lefts = product(range(g), repeat=i)
                for u, v in product(lefts, list(product(range(g), repeat=total - i))):
                    yield {u + w + v: c for w, c in rel.terms.items()}


def truncated_ideal_rank_mod_p(pres, degree):
    """Rank modulo PRIME of the truncated_ideal_products.  It is at most their
    rank over Q, so the number of words of length at most d minus it bounds
    how many such words are independent modulo the ideal."""
    return len(truncated_ideal_pivots(pres, degree))


def truncated_ideal_pivots(pres, degree):
    """An echelon basis modulo PRIME of the truncated_ideal_products, as
    {leading word: row with leading coefficient 1}.  Rows are eliminated on
    their deglex-largest word, as dicts, without univhopf's linear algebra."""
    pivots = {}
    for prod_row in truncated_ideal_products(pres, degree):
        row = reduce_mod_pivots(prod_row, pivots)
        if row:
            top = max(row, key=deglex_key)
            inv = pow(row[top], -1, PRIME)
            pivots[top] = {w: c * inv % PRIME for w, c in row.items()}
    return pivots


def reduce_mod_pivots(terms, pivots):
    """The remainder modulo PRIME of {word: coefficient} after eliminating
    every pivot word it reaches; empty exactly when it lies in their span."""
    row = {w: x for w, c in terms.items() if (x := _mod_prime(c))}
    while row:
        top = max(row, key=deglex_key)
        pivot = pivots.get(top)
        if pivot is None:
            return row
        f = row[top]
        for w, c in pivot.items():
            x = (row.get(w, 0) - f * c) % PRIME
            if x:
                row[w] = x
            else:
                row.pop(w, None)
    return row


# ---------------------------------------------------------------------------
# the triple loop that FinMonoid's row-per-step associativity check replaced


def scan_validate_monoid(table, unit):
    """The n^3 validation of a monoid table: raises what FinMonoid raised
    before it compared whole rows, the first (a, b, c) named."""
    n = len(table)
    rng = range(n)
    if n == 0:
        raise InputError(
            "multiplication table is empty; a monoid needs at least its unit"
        )
    if any(len(row) != n for row in table):
        raise InputError("multiplication table is not square")
    if any(x not in rng for row in table for x in row):
        raise InputError("table entry out of range")
    if unit not in rng:
        raise InputError("unit index out of range")
    if any(table[unit][x] != x or table[x][unit] != x for x in rng):
        raise PreconditionError("unit element is not a two-sided identity")
    for a in rng:
        for b in rng:
            ab = table[a][b]
            for c in rng:
                if table[ab][c] != table[a][table[b][c]]:
                    raise PreconditionError(f"table is not associative at ({a}, {b}, {c})")


# ---------------------------------------------------------------------------
# the scanning lio engine that the indexed FiniteCategory replaced


def scan_validate_category(num_objects, dom, cod, identity, compose):
    """The m^2 validation of a finite category: raises what FiniteCategory
    raised before it was indexed, on entries whose morphisms are in range."""
    n = num_objects
    m = len(dom)
    if len(cod) != m or len(identity) != n:
        raise InputError("morphism data shapes do not match")
    if any(not 0 <= x < n for x in dom + cod):
        raise InputError("morphism endpoint out of range")
    for x in range(n):
        i = identity[x]
        if not 0 <= i < m or dom[i] != x or cod[i] != x:
            raise InputError(f"identity of object {x} is not an endomorphism")
    for g in range(m):
        for f in range(m):
            defined = (g, f) in compose
            if defined != (cod[f] == dom[g]):
                raise InputError(f"composition of {g} after {f} defined iff composable")
            if defined:
                h = compose[(g, f)]
                if not 0 <= h < m or dom[h] != dom[f] or cod[h] != cod[g]:
                    raise InputError(f"composite of ({g}, {f}) has wrong type")
    for x in range(n):
        i = identity[x]
        for f in range(m):
            if dom[f] == x and compose[(f, i)] != f:
                raise PreconditionError("right identity law fails")
            if cod[f] == x and compose[(i, f)] != f:
                raise PreconditionError("left identity law fails")
    for h in range(m):
        for g in range(m):
            if cod[g] != dom[h]:
                continue
            hg = compose[(h, g)]
            for f in range(m):
                if cod[f] != dom[g]:
                    continue
                if compose[(hg, f)] != compose[(h, compose[(g, f)])]:
                    raise PreconditionError("composition is not associative")


def scan_validate_functor(y, x, object_map, morphism_map):
    """The m^2 validation of a functor y -> x between valid categories."""
    if len(object_map) != y.num_objects:
        raise InputError("object map is not total")
    if len(morphism_map) != y.num_morphisms:
        raise InputError("morphism map is not total")
    if any(not 0 <= o < x.num_objects for o in object_map):
        raise InputError("object image out of range")
    for f in range(y.num_morphisms):
        mf = morphism_map[f]
        if not 0 <= mf < x.num_morphisms:
            raise InputError("morphism image out of range")
        if x.dom[mf] != object_map[y.dom[f]] or x.cod[mf] != object_map[y.cod[f]]:
            raise InputError(f"functor breaks the typing of morphism {f}")
    for obj in range(y.num_objects):
        if morphism_map[y.identity[obj]] != x.identity[object_map[obj]]:
            raise PreconditionError("functor does not preserve identities")
    for g in range(y.num_morphisms):
        for f in range(y.num_morphisms):
            if y.cod[f] != y.dom[g]:
                continue
            if morphism_map[y.compose[(g, f)]] != x.compose[(morphism_map[g], morphism_map[f])]:
                raise PreconditionError("functor does not preserve composition")


def scan_hom(cat, x, y):
    return [f for f in range(cat.num_morphisms) if cat.dom[f] == x and cat.cod[f] == y]


def scan_locally_initial_objects(cat):
    lio = [
        x
        for x in range(cat.num_objects)
        if all(len(scan_hom(cat, x, y)) <= 1 for y in range(cat.num_objects))
    ]
    edges = {(a, b): bool(scan_hom(cat, a, b)) for a in lio for b in lio}
    return lio, edges


def scan_absolute_value(cat, x):
    lio, _ = scan_locally_initial_objects(cat)
    candidates = [(c, scan_hom(cat, c, x)[0]) for c in lio if scan_hom(cat, c, x)]
    for m, f_m in candidates:
        if all(
            any(cat.compose[(f_m, g)] == f_c for g in scan_hom(cat, c, m))
            for c, f_c in candidates
        ):
            return m
    return None


def scan_lift_initial_object(functor, x0):
    """The initial object of {y : hom(x0, G y) nonempty} by exhaustive scan;
    None when x0 is not locally initial or the subcategory has none."""
    x, y = functor.target, functor.source
    if x0 not in scan_locally_initial_objects(x)[0]:
        return None
    members = [
        b for b in range(y.num_objects) if scan_hom(x, x0, functor.object_map[b])
    ]
    for y0 in members:
        if all(len(scan_hom(y, y0, b)) == 1 for b in members):
            return y0
    return None


def scan_universal_object_of(functor, y):
    """The lift at the absolute value of G y, or None when that is missing."""
    x0 = scan_absolute_value(functor.target, functor.object_map[y])
    return None if x0 is None else scan_lift_initial_object(functor, x0)


def _rotations(w):
    for i in range(len(w)):
        yield w[i:] + w[:i]


def _shorten_with(rel, other):
    """Rewrite ``other`` using ``rel``: replace a majority subword of a cyclic
    conjugate of rel (or its inverse) by the inverse of the complement."""
    n = len(rel)
    if n < 2:
        return None
    for base in (rel, invert_word(rel)):
        for rot in _rotations(base):
            piece_len = n // 2 + 1
            piece = rot[:piece_len]
            rest = rot[piece_len:]
            replacement = invert_word(rest)
            for start in range(len(other) - piece_len + 1):
                if other[start : start + piece_len] == piece:
                    cand = free_reduce_word(
                        other[:start] + replacement + other[start + piece_len :]
                    )
                    if len(cand) < len(other):
                        return cand
    return None


def scan_tietze(pres, effort=DEFAULT_TIETZE_EFFORT):
    """tietze_simplify with every ordered pair of relators scanned through all
    rotations for each rewrite."""
    num = pres.num_gens
    relators = [free_reduce_word(w) for w in pres.relators]
    images = [((g + 1),) for g in range(num)]

    def apply_subst(gen, image):
        nonlocal num, relators, images
        relators = [_substitute(w, gen, image) for w in relators]
        images = [_substitute(w, gen, image) for w in images]
        num -= 1

    for _ in range(max(effort, 1)):
        changed = False
        relators = [w for w in dict.fromkeys(relators) if w]
        unit = next((w for w in relators if len(w) == 1), None)
        if unit is not None:
            apply_subst(abs(unit[0]) - 1, ())
            changed = True
            continue
        pair = next(
            (w for w in relators if len(w) == 2 and abs(w[0]) != abs(w[1])), None
        )
        if pair is not None:
            x, y = pair
            apply_subst(abs(y) - 1, (-x,) if y > 0 else (x,))
            changed = True
            continue
        by_len = sorted(range(len(relators)), key=lambda i: (len(relators[i]), i))
        done = False
        for i in by_len:
            for j in range(len(relators)):
                if i == j:
                    continue
                cand = _shorten_with(relators[i], relators[j])
                if cand is not None:
                    relators[j] = cand
                    changed = True
                    done = True
                    break
            if done:
                break
        if not changed:
            break
    relators = [w for w in dict.fromkeys(relators) if w]
    return GroupPresentation(num, tuple(relators)), tuple(images)


# ---------------------------------------------------------------------------
# coset enumeration without the abelianization shortcut


def enumerate_todd_coxeter(pres, coset_limit):
    """todd_coxeter_order that always enumerates: a group with a free abelian
    factor fills all coset_limit cosets before it answers None."""
    if coset_limit < 1:
        raise InputError("coset limit must be at least 1")
    if pres.num_gens == 0:
        return 1
    ncols = 2 * pres.num_gens

    def col(letter):
        g = abs(letter) - 1
        return 2 * g if letter > 0 else 2 * g + 1

    labels = [0]
    neighbors = [[None] * ncols]

    def find(c):
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def unify(c1, c2):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            labels[b] = a
            for d in range(ncols):
                n2 = neighbors[b][d]
                if n2 is None:
                    continue
                n1 = neighbors[a][d]
                if n1 is None:
                    neighbors[a][d] = n2
                else:
                    stack.append((n1, n2))

    class _Overflow(Exception):
        pass

    def follow(c, d):
        c = find(c)
        if neighbors[c][d] is None:
            if len(neighbors) >= coset_limit:
                raise _Overflow
            new = len(neighbors)
            neighbors.append([None] * ncols)
            labels.append(new)
            neighbors[c][d] = new
            neighbors[new][d ^ 1] = c
        return find(neighbors[c][d])

    try:
        v = 0
        while v < len(neighbors):
            if find(v) != v:
                v += 1
                continue
            for w in pres.relators:
                c = v
                for letter in w:
                    c = follow(c, col(letter))
                unify(c, v)
                if find(v) != v:
                    break
            if find(v) == v:
                for d in range(ncols):
                    follow(v, d)
            v += 1
    except _Overflow:
        return None

    live = [c for c in range(len(neighbors)) if find(c) == c]
    for c in live:
        if any(n is None for n in neighbors[c]):
            raise RuntimeError(f"coset table not closed at coset {c}")
        for w in pres.relators:
            x = c
            for letter in w:
                x = find(neighbors[x][col(letter)])
            if x != c:
                raise RuntimeError(f"relator does not close at coset {c}")
    return len(live)


# ---------------------------------------------------------------------------
# Smith diagonal by pivot re-selection within the current row and column


def staged_smith_diagonal(rows, ncols):
    """Diagonal of the Smith normal form of an integer matrix (list of rows),
    each diagonal position finished in place before the next one."""
    m = [list(r) for r in rows]
    nrows = len(m)
    diag = []
    t = 0
    while t < nrows and t < ncols:
        # pick the entry of least absolute value as pivot
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(pivot[2])):
                    pivot = (i, j, m[i][j])
        if pivot is None:
            break
        pi, pj, _ = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear the pivot column
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
            if any(m[i][t] for i in range(t + 1, nrows)):
                # a remainder became the new smallest entry; re-pivot on it
                i = min(
                    (i for i in range(t + 1, nrows) if m[i][t]),
                    key=lambda i: abs(m[i][t]),
                )
                m[t], m[i] = m[i], m[t]
                continue
            # clear the pivot row
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for row in m:
                        row[j] -= q * row[t]
            if any(m[t][j] for j in range(t + 1, ncols)):
                j = min(
                    (j for j in range(t + 1, ncols) if m[t][j]),
                    key=lambda j: abs(m[t][j]),
                )
                for row in m:
                    row[t], row[j] = row[j], row[t]
                continue
            # enforce divisibility of the remaining block
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, nrows)
                    for j in range(t + 1, ncols)
                    if m[i][j] % m[t][t]
                ),
                None,
            )
            if bad is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[bad[0]])]
        diag.append(abs(m[t][t]))
        t += 1
    return diag
