"""Differential tests: the one coordinate identity generator behind the
Tambara/Manin relations, is_comeasuring and is_linear_omega_morphism against
the per-(I, J) tensor scans in oracles.py, on random vect magmas of
dimension 1-3 over (2,1), (0,1), (1,2) and (1,0) operations, on sparse
coefficient maps and matrices whose zero entries leave identities out of the
frame, and on the Manin ends of the benchmark corpus gradings; and the sparse
multiplication of the finite-dimensional algebras against the dense i, j, k
loop, with every coefficient they put out an int when integral."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univhopf._linalg import vec
from univhopf.coact import (
    FDAlgebra,
    FDCoalgebra,
    _coordinate_relations,
    factor_through_universal,
    is_comeasuring,
    manin_end_presentation,
    tambara_presentation,
)
from univhopf.finmonoid import inverses
from univhopf.hopf import FinDimHopf, check_hopf_axioms_fd
from univhopf.signature import (
    OmegaSignature,
    is_linear_omega_morphism,
)

from helpers import (
    corpus_gradings,
    cyclic_monoid,
    dual_numbers,
    dual_numbers_grading,
    fd_algebra,
    group_algebra,
    is_exact_coefficient,
    klein_four,
    make_vect_magma,
    pauli_grading,
    tensor_valued_map,
    two_product_grading,
)
from oracles import (
    dense_factorization_failures,
    dense_multiply,
    dense_product_of,
    scan_coordinate_relations,
    scan_is_comeasuring,
    scan_is_linear_omega_morphism,
)

F = Fraction

# (name, arity in, arity out)
OPS = (("m", 2, 1), ("e", 0, 1), ("d", 1, 2), ("c", 1, 0))

Q_ALGEBRAS = (
    fd_algebra([[[1]]], [1]),  # the scalars
    group_algebra(cyclic_monoid(2)),
    fd_algebra([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0]),  # dual numbers
    fd_algebra(  # upper triangular 2x2 matrices on e11, e12, e22: not commutative
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        ],
        [1, 0, 1],
    ),
    fd_algebra([[[1, 0], [0, 1]], [[0, 1], [F(1, 4), 0]]], [1, 0]),  # 1, x with x^2 = 1/4
)

# small rationals, integral and not
COEFFS = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)


@st.composite
def signatures(draw):
    ops = draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=4, unique=True))
    return OmegaSignature(tuple(ops))


@st.composite
def vect_magmas(draw, signature, dim=None):
    if dim is None:
        dim = draw(st.integers(1, 3))
    entries = {}
    for name, s, t in signature.ops:
        keys = list(product(product(range(dim), repeat=t), product(range(dim), repeat=s)))
        chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
        entries[name] = [(out, inp, draw(st.integers(-2, 2))) for out, inp in chosen]
    labels = tuple(f"e{i}" for i in range(dim))
    return make_vect_magma(signature, dim, labels, entries)


@st.composite
def magma_pairs(draw, same=False):
    signature = draw(signatures())
    a = draw(vect_magmas(signature))
    return a, (a if same else draw(vect_magmas(signature)))


def matrices(rows, cols, values=st.integers(-1, 1)):
    return st.lists(
        st.lists(values, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


def sparse_matrices(rows, cols):
    """Matrices with most entries zero, so that the frame of nonzero entries
    leaves identities out."""
    return matrices(rows, cols, st.sampled_from((0, 0, 0, 1, -1)))


@st.composite
def coefficient_maps(draw, a, b, q_alg, values=st.integers(-1, 1)):
    # a zero mask over the drawn vectors: a zero q_ij is otherwise as rare
    # as (1/3)^dim Q, and the comeasuring frame skips only those
    vectors = st.lists(values, min_size=q_alg.dim, max_size=q_alg.dim)
    entries = draw(matrices(b.dim, a.dim, vectors))
    mask = draw(matrices(b.dim, a.dim, st.booleans()))
    entries = [
        [[0] * q_alg.dim if zero else v for v, zero in zip(row, zeros)]
        for row, zeros in zip(entries, mask)
    ]
    return tensor_valued_map(a.dim, b.dim, q_alg.dim, entries)


def scalar_map(m, a, b, q_alg):
    """rho = m (x) 1_Q: rho(a_j) = sum_i b_i (x) m[i][j] 1_Q."""
    entries = [[[x * u for u in q_alg.unit] for x in row] for row in m]
    return tensor_valued_map(a.dim, b.dim, q_alg.dim, entries)


@settings(max_examples=200, deadline=None)
@given(pair=magma_pairs())
def test_tambara_relations_match_scan(pair):
    a, b = pair
    pos = {(i, j): i * a.dim + j for i in range(b.dim) for j in range(a.dim)}
    relations = tambara_presentation(a, b).algebra.relations
    assert list(relations) == scan_coordinate_relations(a, b, lambda i, j: pos[i, j])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pair=magma_pairs())
def test_relations_with_forced_zeros_match_scan(data, pair):
    a, b = pair
    pairs = list(product(range(b.dim), range(a.dim)))
    kept = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    pos = {ij: g for g, ij in enumerate(kept)}
    assert _coordinate_relations(a, b, pos) == scan_coordinate_relations(
        a, b, lambda i, j: pos.get((i, j))
    )


def assert_manin_end_matches_scan(grading):
    """The Manin end's relations are the scan's over its block frame, the
    pairs (i, j) in one grading component, in order and term for term."""
    a = grading.algebra
    label = [grading.label_of_basis(i) for i in range(a.dim)]
    mp = manin_end_presentation(grading)
    block = {(i, j) for i in range(a.dim) for j in range(a.dim) if label[i] == label[j]}
    assert set(mp.pos) == block
    expected = scan_coordinate_relations(a, a, lambda i, j: mp.pos.get((i, j)))
    assert list(mp.algebra.relations) == expected


@pytest.mark.parametrize("seed", (42, 7, 1201))
def test_manin_end_relations_match_scan_on_corpus_gradings(seed):
    for grading in corpus_gradings(seed).values():
        assert_manin_end_matches_scan(grading)


@pytest.mark.parametrize(
    "grading", (pauli_grading, dual_numbers_grading, two_product_grading)
)
def test_manin_end_relations_match_scan_on_fixture_gradings(grading):
    assert_manin_end_matches_scan(grading())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pair=magma_pairs(), q_alg=st.sampled_from(Q_ALGEBRAS))
def test_comeasuring_matches_scan_and_universal_property(data, pair, q_alg):
    a, b = pair
    rho = data.draw(coefficient_maps(a, b, q_alg))
    verdict = is_comeasuring(rho, q_alg, a, b)
    assert verdict == scan_is_comeasuring(rho, q_alg, a, b)
    report = factor_through_universal(tambara_presentation(a, b), rho, q_alg)
    assert verdict[0] == report.ok


@settings(max_examples=100, deadline=None)
@given(pair=magma_pairs(same=True), q_alg=st.sampled_from(Q_ALGEBRAS))
def test_identity_tensor_unit_is_a_comeasuring(pair, q_alg):
    a, _ = pair
    ident = [[int(i == j) for j in range(a.dim)] for i in range(a.dim)]
    rho = scalar_map(ident, a, a, q_alg)
    assert is_comeasuring(rho, q_alg, a, a) == (True, None)
    assert scan_is_comeasuring(rho, q_alg, a, a) == (True, None)
    assert factor_through_universal(tambara_presentation(a, a), rho, q_alg).ok
    assert is_linear_omega_morphism(ident, a, a)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pair=magma_pairs(), q_alg=st.sampled_from(Q_ALGEBRAS))
def test_morphism_matches_scan_and_scalar_comeasuring(data, pair, q_alg):
    # m (x) 1_Q is a comeasuring exactly when m is a linear omega-morphism
    a, b = pair
    m = data.draw(matrices(b.dim, a.dim) | sparse_matrices(b.dim, a.dim))
    verdict = is_linear_omega_morphism(m, a, b)
    assert verdict == scan_is_linear_omega_morphism(m, a, b)
    assert is_comeasuring(scalar_map(m, a, b, q_alg), q_alg, a, b)[0] == verdict


def test_witness_is_the_first_failing_identity_in_order():
    dual, q1 = dual_numbers(), Q_ALGEBRAS[0]
    # the zero map keeps every product but not the unit
    zero = scalar_map([[0, 0], [0, 0]], dual, dual, q1)
    assert is_comeasuring(zero, q1, dual, dual) == (False, ("unit", (0,), ()))
    # x -> 1 + x: (1 + x)^2 has the 1-coefficient 1 while x^2 = 0 has none
    shear = scalar_map([[1, 1], [0, 1]], dual, dual, q1)
    assert is_comeasuring(shear, q1, dual, dual) == (False, ("mu", (0,), (1, 1)))
    assert scan_is_comeasuring(shear, q1, dual, dual) == (False, ("mu", (0,), (1, 1)))


def test_coefficients_multiply_in_index_order():
    # k x k by orthogonal idempotents e0, e1 into the upper triangular
    # matrices: q00 q01 = e11 e12 = e12 fails the identity e0 e1 = 0 first,
    # while q01 q00 = e12 e11 = 0 would pass it
    signature = OmegaSignature((OPS[0],))
    split = make_vect_magma(
        signature, 2, ("e0", "e1"), {"m": [((0,), (0, 0), 1), ((1,), (1, 1), 1)]}
    )
    q_alg = Q_ALGEBRAS[3]
    rho = tensor_valued_map(2, 2, 3, [[[1, 0, 0], [0, 1, 0]], [[0, 0, 0], [0, 0, 0]]])
    witness = (False, ("m", (0,), (0, 1)))
    assert is_comeasuring(rho, q_alg, split, split) == witness
    assert scan_is_comeasuring(rho, q_alg, split, split) == witness


def q_vectors(q_alg):
    return st.lists(COEFFS, min_size=q_alg.dim, max_size=q_alg.dim).map(vec)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), q_alg=st.sampled_from(Q_ALGEBRAS), count=st.integers(0, 4))
def test_sparse_products_match_the_dense_loop(data, q_alg, count):
    x, y = data.draw(q_vectors(q_alg)), data.draw(q_vectors(q_alg))
    product_xy = q_alg.multiply(x, y)
    assert product_xy == dense_multiply(q_alg, x, y)
    vectors = [data.draw(q_vectors(q_alg)) for _ in range(count)]
    product_all = q_alg.product_of(vectors)
    assert product_all == dense_product_of(q_alg, vectors)
    assert all(map(is_exact_coefficient, product_xy + product_all))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), pair=magma_pairs(), q_alg=st.sampled_from(Q_ALGEBRAS))
def test_factorization_failures_match_the_dense_evaluation(data, pair, q_alg):
    a, b = pair
    rho = data.draw(coefficient_maps(a, b, q_alg, COEFFS))
    mp = tambara_presentation(a, b)
    report = factor_through_universal(mp, rho, q_alg)
    assert report.failures == dense_factorization_failures(mp, rho, q_alg)
    assert all(is_exact_coefficient(c) for _, value in report.failures for c in value)
    assert is_comeasuring(rho, q_alg, a, b) == scan_is_comeasuring(rho, q_alg, a, b)


def rescaled_group_hopf(g, scale):
    """Q[G] on the basis f_x = scale[x] e_x: f_x f_y = scale[x] scale[y] /
    scale[xy] f_xy, Delta f_x = f_x (x) f_x / scale[x], eps(f_x) = scale[x]
    and S f_x = scale[x] / scale[x^-1] f_(x^-1)."""
    n, inv = g.size, inverses(g)

    def at(k, c):
        return tuple(c if i == k else F(0) for i in range(n))

    mult = tuple(
        tuple(at(g.mul(x, y), scale[x] * scale[y] / scale[g.mul(x, y)]) for y in range(n))
        for x in range(n)
    )
    delta = tuple({(x, x): 1 / scale[x]} for x in range(n))
    columns = [at(inv[x], scale[x] / scale[inv[x]]) for x in range(n)]
    antipode = tuple(zip(*columns))
    return FinDimHopf(n, mult, at(g.unit, 1 / scale[g.unit]), delta, tuple(scale), antipode)


def _table_coefficients(maps, n):
    """Every coefficient in the sparse_maps tables on the basis 0..n-1."""
    out = list(maps.get("unit", {}).values())
    for i in range(n):
        if "mul" in maps:
            for j in range(n):
                out += maps["mul"](i, j).values()
        if "delta" in maps:
            out += maps["delta"](i).values()
        if "eps" in maps:
            out.append(maps["eps"](i))
        if "antipode" in maps:
            out += maps["antipode"](i).values()
    return out


SCALES = st.sampled_from((1, -1, 2, 3, F(1, 2), F(-2, 3), F(3, 2))).map(F)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    g=st.sampled_from((cyclic_monoid(1), cyclic_monoid(2), cyclic_monoid(3), klein_four())),
)
def test_fd_tables_and_products_keep_integral_coefficients_int(data, g):
    scale = data.draw(st.lists(SCALES, min_size=g.size, max_size=g.size))
    h = rescaled_group_hopf(g, scale)
    assert check_hopf_axioms_fd(h).all_pass
    algebra = FDAlgebra(h.dim, h.mult, h.unit)
    coalgebra = FDCoalgebra(h.dim, h.delta, h.counit)
    coefficients = _table_coefficients(h.maps, h.dim)
    coefficients += _table_coefficients(algebra._maps, h.dim)
    coefficients += _table_coefficients(coalgebra._maps, h.dim)
    x, y = data.draw(q_vectors(algebra)), data.draw(q_vectors(algebra))
    coefficients += algebra.multiply(x, y) + algebra.product_of([x, y, x])
    assert coefficients and all(map(is_exact_coefficient, coefficients))
    assert algebra.multiply(x, y) == dense_multiply(algebra, x, y)


def test_fractional_constants_multiply_to_ints():
    # f = g / 2 in Q[Z/2]: f f = 1/4, Delta f = 2 f (x) f, eps(f) = 1/2, S f = f
    h = rescaled_group_hopf(cyclic_monoid(2), [F(1), F(1, 2)])
    assert check_hopf_axioms_fd(h).all_pass
    assert h.maps["mul"](1, 1) == {0: F(1, 4)} and h.maps["delta"](1) == {(1, 1): 2}
    algebra = FDAlgebra(h.dim, h.mult, h.unit)
    four_f = vec([0, 4])
    assert algebra.multiply(four_f, four_f) == (4, 0)
    assert [type(c) for c in algebra.multiply(four_f, four_f)] == [int, int]
    assert algebra.product_of([vec([0, 1])]) == (0, 1)
    assert algebra.multiply(vec([0, 1]), vec([0, 1])) == (F(1, 4), 0)
