"""Independent oracles used by tests: generic matrix evaluation of the
comeasuring diagram, kept deliberately separate from the coordinate formula
it validates, and brute-force scans that the set-level hom search and
congruence closure are checked against."""

from fractions import Fraction
from itertools import permutations, product

from univhopf._linalg import identity, kron, mat_mul
from univhopf.signature import is_set_homomorphism

F = Fraction


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
