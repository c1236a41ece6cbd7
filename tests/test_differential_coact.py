"""Differential tests: the one coordinate identity generator behind the
Tambara/Manin relations, is_comeasuring and is_linear_omega_morphism against
the per-(I, J) tensor scans in oracles.py, on random vect magmas of
dimension 1-3 over (2,1), (0,1), (1,2) and (1,0) operations."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from univhopf.coact import (
    _coordinate_relations,
    factor_through_universal,
    fd_algebra,
    group_algebra,
    is_comeasuring,
    tambara_presentation,
    tensor_valued_map,
)
from univhopf.signature import (
    OmegaSignature,
    is_linear_omega_morphism,
    make_vect_magma,
)

from helpers import cyclic_monoid, dual_numbers
from oracles import (
    scan_coordinate_relations,
    scan_is_comeasuring,
    scan_is_linear_omega_morphism,
)

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
)


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


@st.composite
def coefficient_maps(draw, a, b, q_alg):
    vectors = st.lists(st.integers(-1, 1), min_size=q_alg.dim, max_size=q_alg.dim)
    entries = draw(matrices(b.dim, a.dim, vectors))
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

    def gen_of(i, j):
        return pos.get((i, j))

    assert _coordinate_relations(a, b, gen_of) == scan_coordinate_relations(
        a, b, gen_of
    )


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
    m = data.draw(matrices(b.dim, a.dim))
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
