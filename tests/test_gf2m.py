"""Field arithmetic tests, including frozen bit-column vectors."""

import random

import numpy as np
import pytest

from qgt.gf2m import PRIMITIVE_POLY, make_field


def test_degree_3_uses_canonical_polynomial():
    f = make_field(3)
    assert f.primitive_poly == 0b1011
    assert f.order == 7


@pytest.mark.parametrize("degree", sorted(PRIMITIVE_POLY))
def test_polynomials_are_primitive(degree):
    # table construction enumerates the full multiplicative group and raises
    # otherwise, so successful construction is the check; spot-check the cycle
    f = make_field(degree)
    seen = {f.alpha_pow(i) for i in range(f.order)}
    assert len(seen) == f.order
    assert f.alpha_pow(f.order) == 1


def test_degree_3_power_table():
    # all powers of alpha for the canonical degree-3 field
    f = make_field(3)
    expected = [0b001, 0b010, 0b100, 0b011, 0b110, 0b111, 0b101]
    assert [f.alpha_pow(i) for i in range(7)] == expected


def test_add_is_xor():
    # addition is bitwise xor: alpha^3 = alpha + 1 under x^3 + x + 1
    f = make_field(3)
    a3 = f.alpha_pow(3)
    assert a3 == 0b011
    assert a3 ^ f.alpha_pow(1) == f.alpha_pow(0)
    assert a3 ^ a3 == 0


def test_mul_examples():
    f = make_field(3)
    assert f.mul(f.alpha_pow(3), f.alpha_pow(4)) == 1  # alpha^7 = 1
    assert f.mul(0, f.alpha_pow(5)) == 0
    assert f.mul(1, f.alpha_pow(5)) == f.alpha_pow(5)


def test_inv_and_div():
    for degree in (3, 5, 8):
        f = make_field(degree)
        for a in range(1, min(f.order + 1, 80)):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_pow_and_dlog_round_trip():
    f = make_field(6)
    for a in range(1, f.order + 1):
        assert f.alpha_pow(f.dlog(a)) == a
    assert f.pow(f.alpha_pow(5), 0) == 1
    assert f.pow(0, 3) == 0
    assert f.pow(0, 0) == 1
    with pytest.raises(ValueError):
        f.dlog(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    # negative exponents are inverses
    a = f.alpha_pow(9)
    assert f.mul(f.pow(a, -1), a) == 1


@pytest.mark.parametrize("degree", range(3, 11))
def test_field_axioms_random(degree):
    f = make_field(degree)
    rng = random.Random(1000 + degree)
    for _ in range(300):
        a = rng.randrange(f.order + 1)
        b = rng.randrange(f.order + 1)
        c = rng.randrange(f.order + 1)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        assert f.sqr(a ^ b) == f.sqr(a) ^ f.sqr(b)  # Frobenius


def test_bit_column_is_msb_first():
    f = make_field(3)
    assert f.bit_column(1).tolist() == [0, 0, 1]
    assert f.bit_column(f.alpha_pow(5)).tolist() == [1, 1, 1]
    assert f.bit_column(0).tolist() == [0, 0, 0]
    assert f.bit_column(f.alpha_pow(6)).tolist() == [1, 0, 1]


def test_bit_column_round_trip():
    f = make_field(7)
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randrange(f.order + 1)
        assert f.element_from_bits(f.bit_column(a)) == a
    cols = f.bit_columns(np.arange(f.order + 1))
    assert cols.shape == (7, f.order + 1)
    assert cols[:, 1].tolist() == f.bit_column(1).tolist()


def test_element_from_bits_stacks():
    f = make_field(5)
    elements = np.arange(f.order + 1)
    rows = f.bit_columns(elements).T  # one bit row per element
    packed = f.element_from_bits(rows)
    assert packed.dtype == np.int64 and packed.tolist() == elements.tolist()
    stacked = f.element_from_bits(rows.reshape(4, 8, 5))
    assert stacked.shape == (4, 8) and stacked.ravel().tolist() == elements.tolist()
    single = f.element_from_bits(rows[13])
    assert type(single) is int and single == 13


@pytest.mark.parametrize("shape", [(), (4,), (6,), (3, 4), (2, 3, 6)])
def test_element_from_bits_rejects_wrong_shapes(shape):
    with pytest.raises(ValueError):
        make_field(5).element_from_bits(np.zeros(shape, dtype=np.uint8))


def test_sqrt_inverts_square():
    for degree in (4, 5, 8):
        f = make_field(degree)
        for a in range(f.order + 1):
            assert f.sqrt(f.sqr(a)) == a


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 8, 11])
def test_solve_quadratic_unit(degree):
    # z^2 + z = u has 2 solutions for exactly half the u, else none; the
    # quadratic table marks the unsolvable half with -1
    f = make_field(degree)
    images = {f.sqr(z) ^ z for z in range(f.order + 1)}
    assert len(images) == (f.order + 1) // 2
    table = f.quadratic_table()
    for u in range(f.order + 1):
        assert (table[u] >= 0) == (u in images)


@pytest.mark.parametrize("degree", [3, 4, 7, 8, 15, 16])
def test_quadratic_table_agrees_with_solver(degree):
    # every entry checked by field arithmetic: z and z ^ 1 solve z^2 + z = u
    f = make_field(degree)
    table = f.quadratic_table()
    assert table is f.quadratic_table()  # built once
    assert table.shape == (f.order + 1,)
    us = range(f.order + 1) if degree <= 8 else random.Random(degree).sample(range(f.order + 1), 300)
    for u in us:
        z = int(table[u])
        if z >= 0:
            assert z % 2 == 0
            assert f.sqr(z) ^ z == u and f.sqr(z ^ 1) ^ (z ^ 1) == u
    assert (table >= 0).sum() == (f.order + 1) // 2


def brute_cubic_roots(f):
    """{c: the y with y^3 + y = c}, by field arithmetic over every y."""
    roots = {}
    for y in range(f.order + 1):
        roots.setdefault(f.pow(y, 3) ^ y, []).append(y)
    return roots


@pytest.mark.parametrize("degree", range(3, 11))
def test_cubic_table_matches_brute_force(degree):
    # entry c is the smallest root of y^3 + y = c when there are three
    # distinct roots, and -1 otherwise (c = 0 has 0 and the double root 1)
    f = make_field(degree)
    table = f.cubic_table()
    assert table.shape == (f.order + 1,)
    roots = brute_cubic_roots(f)
    assert len(roots[0]) == 2
    want = [min(roots[c]) if len(roots.get(c, ())) == 3 else -1 for c in range(f.order + 1)]
    assert table.tolist() == want
    assert 0 < (table >= 0).sum() < f.order + 1


def test_cubic_table_is_built_once():
    f = make_field(16)
    table = f.cubic_table()
    assert table is f.cubic_table()
    rng = random.Random(16)
    for c in rng.sample(range(f.order + 1), 300):
        y = int(table[c])
        if y >= 0:
            assert f.pow(y, 3) ^ y == c
