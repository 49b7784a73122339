"""Field arithmetic tests, including frozen bit-column vectors.

GF2m.mul and GF2m.pow are array operations; the checks run over every
element (or every pair) for b <= 8 and over samples at wider fields.
"""

import numpy as np
import pytest

from qgt.gf2m import PRIMITIVE_POLY, make_field


def reference_mul(f, a, b):
    """Shift-and-add product modulo the primitive polynomial, element-wise."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    a, out = a.copy(), np.zeros(a.shape, dtype=np.int64)
    for bit in range(f.degree):
        out ^= np.where((b >> bit) & 1, a, 0)
        a <<= 1
        a ^= np.where(a >> f.degree, f.primitive_poly, 0)
    return out


def elements_or_sample(f, size, seed):
    """Every element for b <= 8, else `size` random ones (0 included)."""
    if f.degree <= 8:
        return np.arange(f.order + 1)
    rng = np.random.default_rng(seed)
    return np.concatenate([[0], rng.integers(0, f.order + 1, size)])


def test_degree_3_uses_canonical_polynomial():
    f = make_field(3)
    assert f.primitive_poly == 0b1011
    assert f.order == 7


@pytest.mark.parametrize("degree", sorted(PRIMITIVE_POLY))
def test_polynomials_are_primitive(degree):
    # table construction enumerates the full multiplicative group and raises
    # otherwise, so successful construction is the check; here the table is
    # checked against the polynomial: alpha = x, each entry x times the last
    f = make_field(degree)
    alog = f.alog_np
    assert len(np.unique(alog)) == f.order and alog.min() == 1 and alog[1] == 2
    assert np.array_equal(np.roll(alog, -1), reference_mul(f, alog, 2))
    assert np.array_equal(f.log_np[alog], np.arange(f.order))


def test_degree_3_power_table():
    # all powers of alpha for the canonical degree-3 field
    f = make_field(3)
    expected = [0b001, 0b010, 0b100, 0b011, 0b110, 0b111, 0b101]
    assert f.alog_np.tolist() == expected
    assert [int(f.pow(2, e)) for e in range(7)] == expected


def test_add_is_xor():
    # addition is bitwise xor: alpha^3 = alpha + 1 under x^3 + x + 1
    f = make_field(3)
    a3 = f.alog_np[3]
    assert a3 == 0b011
    assert a3 ^ f.alog_np[1] == f.alog_np[0]
    assert a3 ^ a3 == 0


def test_mul_examples():
    f = make_field(3)
    alpha = f.alog_np
    assert f.mul(alpha[3], alpha[4]) == 1  # alpha^7 = 1
    assert f.mul(0, alpha[5]) == 0
    assert f.mul(1, alpha[5]) == alpha[5]
    # element-wise, with broadcasting
    assert f.mul(alpha, alpha[1]).tolist() == np.roll(alpha, -1).tolist()
    assert f.mul(np.arange(8)[:, None], np.arange(8)).shape == (8, 8)


def test_inv_and_div():
    # the inverse is pow(a, -1) and a / b is mul(a, pow(b, -1)); 0 has no
    # inverse and pow(0, -1) reads 0
    for degree in (3, 5, 8, 16):
        f = make_field(degree)
        a = elements_or_sample(f, 2000, degree)
        nonzero = a[a != 0]
        assert (f.mul(nonzero, f.pow(nonzero, -1)) == 1).all()
        b = np.random.default_rng(degree).permutation(nonzero)
        assert np.array_equal(f.mul(f.mul(nonzero, b), f.pow(b, -1)), nonzero)
        assert f.pow(0, -1) == 0


def test_pow_and_dlog_round_trip():
    f = make_field(6)
    a = np.arange(1, f.order + 1)
    assert np.array_equal(f.alog_np[f.log_np[a]], a)
    assert f.pow(f.alog_np[5], 0) == 1
    # 0 maps to 0 for every exponent, 0 and -1 included
    for e in (-1, 0, 3):
        assert f.pow(0, e) == 0
    assert f.pow(np.array([0, 1, 5]), -1).tolist() == [0, 1, int(f.pow(5, -1))]
    # positive exponents are repeated products, negative ones inverses
    power = np.ones_like(a)
    for e in range(1, 9):
        power = f.mul(power, a)
        assert np.array_equal(f.pow(a, e), power)
        assert np.array_equal(f.pow(a, -e), f.pow(power, -1))


@pytest.mark.parametrize("degree", [*range(3, 11), 16])
def test_field_axioms_random(degree):
    # every pair (and every triple) for b <= 8, samples above: mul agrees
    # with shift-and-add, and is commutative, associative and distributive
    f = make_field(degree)
    if degree <= 8:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(f.order + 1), np.arange(f.order + 1)))
        thirds = range(f.order + 1)
    else:
        rng = np.random.default_rng(1000 + degree)
        a, b = rng.integers(0, f.order + 1, (2, 20000))
        thirds = rng.integers(0, f.order + 1, 8).tolist()
    ab = f.mul(a, b)
    assert np.array_equal(ab, reference_mul(f, a, b))
    assert np.array_equal(ab, f.mul(b, a))
    assert np.array_equal(f.mul(a ^ b, a ^ b), f.mul(a, a) ^ f.mul(b, b))  # Frobenius
    for c in thirds:
        assert np.array_equal(f.mul(ab, c), f.mul(a, f.mul(b, c)))
        assert np.array_equal(f.mul(c, a ^ b), f.mul(c, a) ^ f.mul(c, b))


def test_bit_column_is_msb_first():
    f = make_field(3)
    cols = f.bit_columns([1, f.alog_np[5], 0, f.alog_np[6]])
    assert cols.dtype == np.uint8
    assert cols.T.tolist() == [[0, 0, 1], [1, 1, 1], [0, 0, 0], [1, 0, 1]]


def test_bit_column_round_trip():
    for degree in (7, 16):
        f = make_field(degree)
        elements = np.arange(f.order + 1)
        cols = f.bit_columns(elements)
        assert cols.shape == (degree, f.order + 1)
        assert np.array_equal(f.element_from_bits(cols.T), elements)
        assert cols[:, 1].tolist() == [0] * (degree - 1) + [1]


def test_element_from_bits_stacks():
    f = make_field(5)
    elements = np.arange(f.order + 1)
    rows = f.bit_columns(elements).T  # one bit row per element
    packed = f.element_from_bits(rows)
    assert packed.dtype == np.int64 and packed.tolist() == elements.tolist()
    stacked = f.element_from_bits(rows.reshape(4, 8, 5))
    assert stacked.shape == (4, 8) and stacked.ravel().tolist() == elements.tolist()
    single = f.element_from_bits(rows[13])
    assert single.dtype == np.int64 and single.shape == () and single == 13


@pytest.mark.parametrize("shape", [(), (4,), (6,), (3, 4), (2, 3, 6)])
def test_element_from_bits_rejects_wrong_shapes(shape):
    with pytest.raises(ValueError):
        make_field(5).element_from_bits(np.zeros(shape, dtype=np.uint8))


def test_sqrt_inverts_square():
    # squaring is a bijection in characteristic 2, undone by a^(2^(b-1))
    for degree in (4, 5, 8, 16):
        f = make_field(degree)
        a = np.arange(f.order + 1)
        square = f.mul(a, a)
        assert len(np.unique(square)) == f.order + 1
        assert np.array_equal(f.pow(square, 1 << (degree - 1)), a)


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 8, 11])
def test_solve_quadratic_unit(degree):
    # z^2 + z = u has 2 solutions for exactly half the u, else none; the
    # quadratic table marks the unsolvable half with -1
    f = make_field(degree)
    z = np.arange(f.order + 1)
    images = np.unique(f.mul(z, z) ^ z)
    assert len(images) == (f.order + 1) // 2
    assert np.array_equal(np.flatnonzero(f.quadratic_table >= 0), images)


@pytest.mark.parametrize("degree", [3, 4, 7, 8, 15, 16])
def test_quadratic_table_agrees_with_solver(degree):
    # every entry checked by field arithmetic: z and z ^ 1 solve z^2 + z = u
    f = make_field(degree)
    table = f.quadratic_table
    assert table is f.quadratic_table and not table.flags.writeable  # built once
    assert table.shape == (f.order + 1,)
    u = np.flatnonzero(table >= 0)
    z = table[u]
    assert (z % 2 == 0).all()
    assert np.array_equal(f.mul(z, z) ^ z, u)
    assert np.array_equal(f.mul(z ^ 1, z ^ 1) ^ z ^ 1, u)
    assert len(u) == (f.order + 1) // 2


def brute_cubic_roots(f):
    """{c: the y with y^3 + y = c}, by field arithmetic over every y."""
    y = np.arange(f.order + 1)
    roots = {}
    for c, root in zip((f.mul(f.mul(y, y), y) ^ y).tolist(), y.tolist()):
        roots.setdefault(c, []).append(root)
    return roots


@pytest.mark.parametrize("degree", range(3, 11))
def test_cubic_table_matches_brute_force(degree):
    # entry c is the smallest root of y^3 + y = c when there are three
    # distinct roots, and -1 otherwise (c = 0 has 0 and the double root 1)
    f = make_field(degree)
    table = f.cubic_table
    assert table.shape == (f.order + 1,)
    roots = brute_cubic_roots(f)
    assert len(roots[0]) == 2
    want = [min(roots[c]) if len(roots.get(c, ())) == 3 else -1 for c in range(f.order + 1)]
    assert table.tolist() == want
    assert 0 < (table >= 0).sum() < f.order + 1


def test_cubic_table_is_built_once():
    f = make_field(16)
    table = f.cubic_table
    assert table is f.cubic_table and not table.flags.writeable
    c = np.flatnonzero(table >= 0)
    y = table[c]
    assert np.array_equal(f.mul(f.mul(y, y), y) ^ y, c)
