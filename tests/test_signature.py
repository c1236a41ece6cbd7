from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from univhopf.errors import InputError, ResourceLimitError
from univhopf.signature import (
    FinSetMagma,
    FinVectMagma,
    OmegaSignature,
    enumerate_set_homs,
    is_linear_omega_morphism,
    is_set_homomorphism,
    omega_automorphisms,
    set_magma_from_monoid_table,
    unital_signature,
)

from helpers import (
    cyclic_set_magma,
    dual_numbers,
    klein_set_magma,
    make_vect_magma,
    rational_line,
)
from oracles import scan_validate_set_magma, scan_validate_vect_magma

F = Fraction


def test_signature_rejects_nullary_to_nullary():
    with pytest.raises(InputError):
        OmegaSignature((("bad", 0, 0),))


def test_signature_rejects_duplicate_names():
    with pytest.raises(InputError):
        OmegaSignature((("f", 1, 1), ("f", 2, 1)))


def test_identity_is_homomorphism():
    z2 = cyclic_set_magma(2)
    assert is_set_homomorphism((0, 1), z2, z2)


def test_swap_breaks_unit():
    z2 = cyclic_set_magma(2)
    assert not is_set_homomorphism((1, 0), z2, z2)


def test_constant_to_unit_is_homomorphism():
    for magma in (cyclic_set_magma(3), klein_set_magma()):
        const = (0,) * magma.size
        assert is_set_homomorphism(const, magma, magma)


def test_signature_mismatch_raises():
    z2 = cyclic_set_magma(2)
    other = set_magma_from_monoid_table([[0]], 0)
    mu_only = OmegaSignature((("mu", 2, 1),))
    bare = make_set_magma_mu_only(2)
    with pytest.raises(InputError):
        is_set_homomorphism((0, 1), z2, bare)
    assert other.signature == z2.signature


def make_set_magma_mu_only(n):
    from univhopf.signature import FinSetMagma

    mu = {(i, j): ((i + j) % n,) for i in range(n) for j in range(n)}
    return FinSetMagma(OmegaSignature((("mu", 2, 1),)), n, {"mu": mu})


def test_enumerate_homs_z2():
    z2 = cyclic_set_magma(2)
    homs = enumerate_set_homs(z2, z2)
    assert homs == [(0, 0), (0, 1)]


def test_enumerate_homs_empty_carrier():
    from univhopf.signature import FinSetMagma

    empty = FinSetMagma(OmegaSignature((("mu", 2, 1),)), 0, {"mu": {}})
    assert enumerate_set_homs(empty, empty) == [()]


def test_enumerate_homs_klein_endomorphisms():
    k4 = klein_set_magma()
    assert len(enumerate_set_homs(k4, k4)) == 16


def test_enumerate_homs_cap():
    k4 = klein_set_magma()
    with pytest.raises(ResourceLimitError):
        enumerate_set_homs(k4, k4, cap=100)


def test_enumerate_homs_contains_identity():
    for magma in (cyclic_set_magma(2), cyclic_set_magma(3), klein_set_magma()):
        assert tuple(range(magma.size)) in enumerate_set_homs(magma, magma)


def test_homs_closed_under_composition():
    k4 = klein_set_magma()
    homs = enumerate_set_homs(k4, k4)
    for f in homs[:6]:
        for g in homs[:6]:
            fg = tuple(f[g[x]] for x in range(4))
            assert is_set_homomorphism(fg, k4, k4)


def test_automorphisms_trivial_monoid():
    one = set_magma_from_monoid_table([[0]], 0)
    perms, table = omega_automorphisms(one)
    assert perms == [(0,)] and table == [[0]]


def test_automorphisms_z4():
    perms, _ = omega_automorphisms(cyclic_set_magma(4))
    assert len(perms) == 2
    assert perms[0] == (0, 1, 2, 3)


def test_automorphisms_klein_is_group_of_order_six():
    perms, table = omega_automorphisms(klein_set_magma())
    assert len(perms) == 6
    # closure and inverses: the table is a group table with unit 0
    n = len(perms)
    for i in range(n):
        assert table[0][i] == i and table[i][0] == i
        assert any(table[i][j] == 0 and table[j][i] == 0 for j in range(n))
    for i in range(n):
        for j in range(n):
            assert 0 <= table[i][j] < n
    # associativity
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert table[table[i][j]][k] == table[i][table[j][k]]


def test_linear_identity_morphism():
    a = dual_numbers()
    ident = ((F(1), F(0)), (F(0), F(1)))
    assert is_linear_omega_morphism(ident, a, a)


def test_linear_zero_map_breaks_unit():
    a = dual_numbers()
    zero = ((F(0), F(0)), (F(0), F(0)))
    assert not is_linear_omega_morphism(zero, a, a)


def test_linear_quotient_map_dual_numbers_to_q():
    a = dual_numbers()
    b = rational_line()
    m = ((F(1), F(0)),)  # 1 -> 1, x -> 0
    assert is_linear_omega_morphism(m, a, b)


def test_linear_morphisms_compose():
    a = dual_numbers()
    b = rational_line()
    m = ((F(1), F(0)),)
    ident_b = ((F(1),),)
    composed = tuple(
        tuple(sum(ident_b[i][k] * m[k][j] for k in range(1)) for j in range(2))
        for i in range(1)
    )
    assert is_linear_omega_morphism(composed, a, b)


def test_vect_magma_duplicate_entry_rejected():
    with pytest.raises(InputError):
        make_vect_magma(
            unital_signature(),
            1,
            ("1",),
            {
                "mu": [((0,), (0, 0), 1), ((0,), (0, 0), 2)],
                "unit": [((0,), (), 1)],
            },
        )


def test_a_table_length_is_checked_without_forming_a_huge_power():
    # 2 ** (2 ** 70) cannot be formed, and 10 ** 6400 has more digits than
    # str writes
    with pytest.raises(InputError, match=r"has 0 entries, expected 2\*\*1180591620717411303424$"):
        FinSetMagma(OmegaSignature((("op", 2**70, 1),)), 2, {"op": {}})
    with pytest.raises(InputError, match=r"has 0 entries, expected 1(0){100}\*\*64$"):
        FinSetMagma(OmegaSignature((("op", 64, 1),)), 10**100, {"op": {}})


# ---------------------------------------------------------------------------
# the whole-list index tests of the magma constructors against the per-entry
# scan, with faults planted at any entry

_SIGNATURES = st.lists(
    st.sampled_from([("mu", 2, 1), ("unit", 0, 1), ("pair", 1, 2), ("op3", 3, 1)]),
    min_size=1, max_size=3, unique=True,
).map(lambda ops: OmegaSignature(tuple(ops)))
# an index out of range or of the wrong type, or a tuple of the wrong length
_BAD_INDEX = st.sampled_from([-1, 3, 2**70, 1.5, 1.0, True, "x", None])


def _rejection(call, *args):
    try:
        call(*args)
    except InputError as exc:
        return str(exc)
    return None


def _planted(draw, tuples, size):
    """The tuples with up to three of them damaged at a random position."""
    tuples = list(tuples)
    for _ in range(draw(st.integers(0, 3)) if tuples else 0):
        k = draw(st.integers(0, len(tuples) - 1))
        t = list(tuples[k])
        if t and draw(st.booleans()):
            t[draw(st.integers(0, len(t) - 1))] = draw(_BAD_INDEX)
        else:
            t.append(draw(st.integers(0, size)))
        tuples[k] = tuple(t)
    return tuples


@settings(max_examples=400, deadline=None)
@given(st.data(), _SIGNATURES, st.integers(1, 3))
def test_set_magma_index_checks_match_the_scan(data, sig, size):
    tables = {}
    for name, s, t in sig.ops:
        keys = list(product(range(size), repeat=s))
        outs = [tuple(data.draw(st.integers(0, size - 1)) for _ in range(t)) for _ in keys]
        keys = _planted(data.draw, keys, size)
        tables[name] = dict(zip(keys, _planted(data.draw, outs, size)))
    args = (sig, size, tables)
    assert _rejection(FinSetMagma, *args) == _rejection(scan_validate_set_magma, *args)


@settings(max_examples=400, deadline=None)
@given(st.data(), _SIGNATURES, st.integers(1, 3))
def test_vect_magma_index_checks_match_the_scan(data, sig, dim):
    index = st.integers(0, dim - 1)
    tensors = {}
    for name, s, t in sig.ops:
        entries = data.draw(st.lists(
            st.tuples(st.tuples(*[index] * t), st.tuples(*[index] * s)), max_size=6, unique=True
        ))
        outs = _planted(data.draw, [out for out, _ in entries], dim)
        keys = list(zip(outs, _planted(data.draw, [inp for _, inp in entries], dim)))
        coeffs = data.draw(st.lists(st.sampled_from([0, 1, F(1, 2), F(0), 0.5]),
                                    min_size=len(keys), max_size=len(keys)))
        tensors[name] = dict(zip(keys, coeffs))
    args = (sig, dim, tuple(map(str, range(dim))), tensors)
    assert _rejection(FinVectMagma, *args) == _rejection(scan_validate_vect_magma, *args)
