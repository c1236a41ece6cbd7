"""Differential tests: comodule_axiom_failures (the one axiom checker on the
cotriangular coalgebra k (+) V (+) C) against the dense comodule loops, and
the support coordinates read off the RREF pivots (support_of_map,
support_of_comodule) against the linear solves in oracles.py.

Genuine comodules are direct sums of small ones under a random invertible
change of basis: graded spaces over group-like coalgebras, the natural
comodule of the matrix coalgebra M_2^c and comodules of the corner
coalgebra; perturbing one coefficient makes near-comodules."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from univhopf._linalg import rank
from univhopf.coact import (
    comodule_axiom_failures,
    support_of_comodule,
    support_of_map,
)

from helpers import (
    fd_coalgebra,
    group_like_coalgebra,
    tensor_valued_map,
)
from oracles import (
    coords_in_span,
    dense_comodule_failures,
    dense_support_of_comodule,
    dense_support_of_map,
    solve,
    unit_vec,
    zero_vec,
)

F = Fraction

# M_2^c on e_ij = index 2i + j: Delta e_ij = sum_k e_ik (x) e_kj, eps e_ij = [i = j]
MATRIX_COALGEBRA = fd_coalgebra(
    [[((2 * i + k, 2 * k + j), 1) for k in range(2)] for i in range(2) for j in range(2)],
    [1, 0, 0, 1],
)
# Delta c0 = c0 (x) c0, Delta c1 = c1 (x) c1, Delta c2 = c0 (x) c2 + c2 (x) c1
CORNER = fd_coalgebra(
    [[((0, 0), 1)], [((1, 1), 1)], [((0, 2), 1), ((2, 1), 1)]], [1, 1, 0]
)


def _block(dim_c, entries):
    """An n x n comodule block from {(beta, alpha): C basis index}."""
    n = 1 + max(max(key) for key in entries)
    return [
        [unit_vec(dim_c, entries[(b, a)]) if (b, a) in entries else zero_vec(dim_c)
         for a in range(n)]
        for b in range(n)
    ]


# rho(v_0) = v_0 (x) c0, rho(v_1) = v_1 (x) c1 + v_0 (x) c2: its support is all of CORNER
CORNER_COMODULE = _block(3, {(0, 0): 0, (1, 1): 1, (0, 1): 2})

# (coalgebra, its small comodules) pairs
FAMILIES = (
    (group_like_coalgebra(1), [_block(1, {(0, 0): 0})]),
    (group_like_coalgebra(3), [_block(3, {(0, 0): g}) for g in range(3)]),
    (MATRIX_COALGEBRA, [_block(4, {(b, a): 2 * b + a for b in range(2) for a in range(2)})]),
    (
        CORNER,
        [
            _block(3, {(0, 0): 0}),
            _block(3, {(0, 0): 1}),
            CORNER_COMODULE,
        ],
    ),
)


def _direct_sum(blocks, dim_c):
    n = sum(len(b) for b in blocks)
    q = [[zero_vec(dim_c)] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for b, row in enumerate(block):
            for a, x in enumerate(row):
                q[offset + b][offset + a] = x
        offset += len(block)
    return q


def _change_basis(q, p):
    """The coefficients of the same comodule in the basis w_a = sum_g p[g][a] v_g:
    p^-1 Q p, coefficient vector by coefficient vector."""
    n, dim_c = len(p), len(q[0][0]) if q else 0
    cols = [solve(p, unit_vec(n, j)) for j in range(n)]
    inv = [[cols[j][i] for j in range(n)] for i in range(n)]
    return [
        [
            tuple(
                sum(inv[d][b] * q[b][g][x] * p[g][a] for b in range(n) for g in range(n))
                for x in range(dim_c)
            )
            for a in range(n)
        ]
        for d in range(n)
    ]


@st.composite
def comodules(draw):
    """(rho, C) with rho a genuine C-comodule of dimension 1-4."""
    c, blocks = draw(st.sampled_from(FAMILIES))
    chosen = draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=3))
    while sum(map(len, chosen)) > 4:
        chosen.pop()
    q = _direct_sum(chosen, c.dim)
    n = len(q)
    p = draw(
        st.lists(
            st.lists(st.integers(-2, 2).map(F), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).filter(lambda rows: rank(rows) == n)
    )
    return tensor_valued_map(n, n, c.dim, _change_basis(q, tuple(map(tuple, p)))), c


@st.composite
def near_comodules(draw):
    """A genuine comodule, with one coefficient entry changed half the time."""
    rho, c = draw(comodules())
    if draw(st.booleans()):
        return rho, c
    n = rho.dim_in
    b, a = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    x = draw(st.integers(0, c.dim - 1))
    delta = draw(st.sampled_from((-1, 1, F(1, 2))))
    entries = [[list(q) for q in row] for row in rho.entries]
    entries[b][a][x] += delta
    return tensor_valued_map(n, n, c.dim, entries), c


@settings(max_examples=200, deadline=None)
@given(case=near_comodules())
def test_comodule_failures_match_the_dense_loops(case):
    rho, c = case
    failures = comodule_axiom_failures(rho, c)
    dense = dense_comodule_failures(rho, c)
    assert len(failures) == len(set(failures))
    assert sorted(failures) == sorted({(name, alpha) for name, _, alpha in dense})


@settings(max_examples=150, deadline=None)
@given(case=comodules())
def test_support_of_comodule_matches_the_dense_solve(case):
    rho, c = case
    assert comodule_axiom_failures(rho, c) == []
    basis, support, corestricted = support_of_comodule(rho, c)
    want_basis, want_support, want_corestricted = dense_support_of_comodule(rho, c)
    assert basis == want_basis
    assert support.delta == want_support.delta
    assert support.counit == want_support.counit
    assert corestricted.entries == want_corestricted.entries


def test_corner_comodule_has_the_whole_corner_as_support():
    rho = tensor_valued_map(2, 2, 3, CORNER_COMODULE)
    basis, support, _ = support_of_comodule(rho, CORNER)
    assert basis == tuple(unit_vec(3, i) for i in range(3))
    assert support.delta == CORNER.delta
    # its transpose is no comodule: rho(v_0) = v_0 (x) c0 + v_1 (x) c2
    swapped = tensor_valued_map(2, 2, 3, [list(row) for row in zip(*rho.entries)])
    assert comodule_axiom_failures(swapped, CORNER) == [("coassociativity", 0)]


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def rational_maps(draw):
    """A random map rho: A -> B (x) Q whose coefficients span a subspace of
    dimension at most dim Q; zero and rank-deficient ones included."""
    dim_in, dim_out, dim_q = (draw(st.integers(0, 3)) for _ in range(3))
    r = draw(st.integers(0, dim_q))
    gens = draw(
        st.lists(
            st.lists(rationals, min_size=dim_q, max_size=dim_q), min_size=r, max_size=r
        )
    )

    def coefficient():
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r))
        return [sum(c * g[x] for c, g in zip(coeffs, gens)) for x in range(dim_q)]

    entries = [[coefficient() for _ in range(dim_in)] for _ in range(dim_out)]
    return tensor_valued_map(dim_in, dim_out, dim_q, entries)


@settings(max_examples=300, deadline=None)
@given(rho=rational_maps())
def test_support_of_map_matches_coords_in_span(rho):
    basis, corestricted = support_of_map(rho)
    want_basis, want = dense_support_of_map(rho)
    assert basis == want_basis
    assert corestricted.dim_coeff == len(basis)
    assert corestricted.entries == want.entries
    for beta, row in enumerate(rho.entries):
        for alpha, q in enumerate(row):
            assert corestricted.q(beta, alpha) == coords_in_span(basis, q)
