"""Field arithmetic tests, including frozen bit-column vectors.

GF2m.mul and GF2m.pow are array operations; the checks run over every
element (or every pair) for b <= 8 and over samples at wider fields.
"""

import gc
import weakref

import numpy as np
import pytest

from qgt.gf2m import PRIMITIVE_POLY, GF2m, make_field


def reference_mul(f, a, b):
    """Shift-and-add product modulo the primitive polynomial, element-wise."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
    a, out = a.copy(), np.zeros(a.shape, dtype=np.int64)
    for bit in range(f.degree):
        out ^= np.where((b >> bit) & 1, a, 0)
        a <<= 1
        a ^= np.where(a >> f.degree, f.primitive_poly, 0)
    return out


def loop_tables(degree, primitive_poly):
    """(alog, log) stepped out one power at a time: the oracle for GF2m's two-level build."""
    order = (1 << degree) - 1
    alog = [0] * order
    log = [2 * order] * (order + 1)
    x = 1
    for i in range(order):
        alog[i] = x
        log[x] = i
        x <<= 1
        if x >> degree:
            x ^= primitive_poly
    if x != 1 or len(set(alog)) != order:
        raise ValueError(f"0b{primitive_poly:b} is not primitive over GF(2^{degree})")
    return np.array(alog, dtype=np.int64), np.array(log, dtype=np.int64)


def elements_or_sample(f, size, seed):
    """Every element for b <= 8, else `size` random ones (0 included)."""
    if f.degree <= 8:
        return np.arange(f.order + 1)
    rng = np.random.default_rng(seed)
    return np.concatenate([[0], rng.integers(0, f.order + 1, size)])


@pytest.mark.parametrize("degree", [2, 17])
def test_degree_outside_the_table_raises(degree):
    with pytest.raises(ValueError, match=f"degree must be in \\[3, 16\\], got {degree}"):
        GF2m(degree)


@pytest.mark.parametrize("degree", [5.0, True, "5", None, np.float64(5), np.bool_(True)])
def test_degree_must_be_an_integer(degree):
    with pytest.raises(ValueError, match="degree must be an integer, got "):
        GF2m(degree)


@pytest.mark.parametrize("degree", [np.int64(5), np.uint8(5), np.int32(5)])
def test_numpy_integer_degree_builds_the_python_int_field(degree):
    f = GF2m(degree)
    assert type(f.degree) is int and f.degree == 5
    assert np.array_equal(f.alog_np, make_field(5).alog_np)


@pytest.mark.parametrize("degree", range(3, 17))
def test_tables_equal_the_loop_oracle(degree):
    f = GF2m(degree)
    alog, log = loop_tables(degree, PRIMITIVE_POLY[degree])
    assert f.alog_np.dtype == alog.dtype == np.int64 and f.log_np.dtype == log.dtype == np.int64
    assert np.array_equal(f.alog_np, alog) and np.array_equal(f.log_np, log)
    assert f.log_np[0] == 2 * f.order


@pytest.mark.parametrize("degree, poly", [
    (4, 0b11111),             # irreducible, but alpha has order 5
    (4, 0b10001),             # (x + 1)^4
    (4, 0b10010),             # x (x^3 + 1): constant term 0
    (16, 0b10000000101010001),  # (x^8 + x^4 + x^3 + x^2 + 1)^2
    (16, 0b10000000000000011),  # alpha^order is 1, but powers repeat
])
def test_non_primitive_polynomials_are_refused(monkeypatch, degree, poly):
    message = f"0b{poly:b} is not primitive over GF\\(2\\^{degree}\\)"
    with pytest.raises(ValueError, match=message):
        loop_tables(degree, poly)
    monkeypatch.setitem(PRIMITIVE_POLY, degree, poly)
    with pytest.raises(ValueError, match=message):
        GF2m(degree)


def test_field_tables_are_read_only():
    # make_field shares one instance per degree, so a write would reach
    # every later user of that degree
    f = make_field(8)
    for table in (f.alog_np, f.log_np):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[3] = 0
    assert f.alog_np[3] == 8 and f.log_np[8] == 3


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


# what GF2m.__init__ sets; everything else a field holds is a cached table
CONSTRUCTION_ATTRIBUTES = {"degree", "primitive_poly", "order", "_narrow", "alog_np", "log_np",
                           "_bit_weights"}


def log_formula_pow(f, a, e):
    """a^e by a modulo and two gathers, written out apart from GF2m.pow."""
    a = np.asarray(a, dtype=np.int64)
    return np.where(a == 0, 0, f.alog_np[(e * f.log_np[a]) % f.order])


@pytest.mark.parametrize("degree", range(3, 17))
def test_pow_tables_equal_the_log_formula(degree):
    # every exponent the step tables ask of pow, on a new field; -1 reads
    # the last element, as _cubic_roots relies on for its refused rows.  e,
    # e + order and e - order are one exponent
    f = GF2m(degree)
    a = np.concatenate([elements_or_sample(f, 3000, degree), [0, -1]])
    half = 1 << (degree - 1)
    for e in (0, 1, -1, 2, -2, half, -3 * half, f.order, -f.order, 10 ** 12 + 7):
        want = log_formula_pow(f, a, e)
        for same in (e, e + f.order, e - f.order):
            assert np.array_equal(f.pow(a, same), want)
        for x in (0, -1, 1, int(a[3])):
            got = f.pow(x, e)
            assert np.shape(got) == () and got == log_formula_pow(f, x, e)


def test_first_pow_call_reads_its_argument():
    # a new field's first call at each exponent gives a's shape, however
    # short a is
    for degree in (3, 8, 16):
        f = GF2m(degree)
        for e in (2, -1, 1 << (degree - 1), 5):
            a = np.array([3, 0])
            got = f.pow(a, e)
            assert got.shape == (2,) and np.array_equal(got, log_formula_pow(f, a, e))
        assert np.shape(GF2m(degree).pow(5, -1)) == ()


def test_pow_of_an_integer_is_a_numpy_scalar():
    # a bare np.where would give a 0-d array here
    f = GF2m(8)
    for a in (5, np.int64(5), np.uint8(5), 0, np.int32(0), -1):
        for e in (-1, 2, np.int64(3)):
            got = f.pow(a, e)
            assert isinstance(got, np.integer) and got == log_formula_pow(f, a, e)


@pytest.mark.parametrize("e", [2.0, True, False, np.float64(2), np.bool_(True), "2", None])
def test_pow_refuses_non_integer_exponents_in_any_call_order(e):
    # 2.0 == 2 and True == 1, so a float or a bool must not read as the int
    f = GF2m(5)
    with pytest.raises(ValueError, match="e must be an integer, got "):
        f.pow(3, e)
    f.pow(np.arange(4), 2)
    f.pow(np.arange(4), 1)
    f.pow(np.arange(4), 0)
    with pytest.raises(ValueError, match="e must be an integer, got "):
        f.pow(3, e)


def test_numpy_integer_exponents_give_the_int_values():
    f = GF2m(6)
    a = np.arange(f.order + 1)
    want = f.pow(a, 2)
    for e in (np.int64(2), np.uint8(2), np.int32(2 + f.order), np.array(2)):
        assert np.array_equal(f.pow(a, e), want)
    assert np.array_equal(f.pow(a, np.int16(-1)), f.pow(a, -1))


def test_pow_builds_and_holds_nothing():
    f = GF2m(6)
    for e in (-1, 2, f.order - 1, 1 << 5):
        f.pow(np.arange(5), e)
        f.pow(3, e)
    assert set(vars(f)) == CONSTRUCTION_ATTRIBUTES


def test_a_field_is_freed_once_make_field_drops_it():
    # the cached tables live on the field itself; a cache on a method would
    # hold every field it was called on for the life of the process
    make_field.cache_clear()
    f = make_field(12)
    f.inverse_log
    f.pow(3, 2)
    ref = weakref.ref(f)
    del f
    make_field.cache_clear()
    gc.collect()
    assert ref() is None


def test_make_field_shares_one_field_per_degree_whatever_the_integer_type():
    # lru_cache keyed np.int64(8) apart from 8 and built a second GF(2^8)
    make_field.cache_clear()
    f = make_field(8)
    for degree in (np.int64(8), np.uint8(8), np.int32(8)):
        assert make_field(degree) is f
    info = make_field.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    for degree in (True, np.bool_(True), 8.0, np.float64(8), "8"):
        with pytest.raises(ValueError, match="degree must be an integer"):
            make_field(degree)
    assert make_field.cache_info().currsize == 1


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


@pytest.mark.parametrize("degree", range(3, 17))
def test_bit_columns_equal_the_int64_formula(degree):
    # every element, 0 and 2^b - 1 included, and int64 values outside the
    # field, whose low b bits the rows read
    f = make_field(degree)
    elements = np.concatenate([np.arange(f.order + 1), [-1, -f.order, f.order + 1, (1 << 40) + 5]])
    shifts = np.arange(degree - 1, -1, -1, dtype=np.int64)
    want = ((elements[None, :] >> shifts[:, None]) & 1).astype(np.uint8)
    got = f.bit_columns(elements)
    assert got.dtype == np.uint8 and got.shape == (degree, len(elements))
    assert np.array_equal(got, want)
    assert np.array_equal(f.bit_columns(elements.tolist()), want)


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
    table = f._cubic_solutions()
    assert table.shape == (f.order + 1,)
    roots = brute_cubic_roots(f)
    assert len(roots[0]) == 2
    want = [min(roots[c]) if len(roots.get(c, ())) == 3 else -1 for c in range(f.order + 1)]
    assert table.tolist() == want
    assert 0 < (table >= 0).sum() < f.order + 1


# -- the closed-form decoder's step tables ------------------------------------

STEP_TABLES = ("cube_by_log", "quadratic_logs", "quadratic_solvable",
               "squares", "cubes", "inverse_log", "sqrt_log", "cubic_scale_log",
               "cubic_logs", "cubic_splits")
# every table a field caches; tests/test_source.py checks that GF2m has no other
FIELD_TABLES = STEP_TABLES + ("product_alog", "quadratic_table")


@pytest.mark.parametrize("degree", range(3, 17))
def test_step_tables_match_the_chains_they_replace(degree):
    # every entry, those that refused rows read included (x = 0, and the -1
    # that an unsolvable quadratic or cubic reads as the last element), is
    # what the step's chain of mul, pow and root-table reads gives
    f = GF2m(degree)
    n, log, alog = f.order, f.log_np, f.alog_np
    half = 1 << (degree - 1)
    x = np.arange(n + 1)
    e = np.arange(n)
    for name in STEP_TABLES:
        table = getattr(f, name)
        assert table is getattr(f, name) and not table.flags.writeable  # built once
        if name in STEP_TABLES[:2]:  # count 2's logs, held at t = 2: the narrowest dtype
            assert table.dtype == np.min_scalar_type(table.max())
        elif table.dtype != bool:
            assert table.dtype == np.int64
    # count 2: S1^3 as that step reads it, and log S1^-3 as it computes it,
    # (-3 log S1) mod order, which is 0 at S1 = 0; then by log u
    assert np.array_equal(f.cube_by_log, alog[(3 * log[x]) % n])
    assert np.array_equal(f.cube_by_log[1:], f.mul(f.mul(x, x), x)[1:]) and f.cube_by_log[0] == 1
    neg_cube_log = (-3 * log[x]) % n
    assert np.array_equal(neg_cube_log[1:], log[f.pow(x, -3)][1:]) and neg_cube_log[0] == 0
    z = f.quadratic_table[alog[e]]
    assert np.array_equal(f.quadratic_logs, log[z[:, None] ^ np.array([0, 1])] % n)
    assert np.array_equal(f.quadratic_solvable, z >= 0)
    # the flag is read off the logs: no solution reads the last element's log
    assert np.array_equal(f.quadratic_solvable, f.quadratic_logs[:, 0] != log[-1])
    assert 0 < f.quadratic_solvable.sum() < n
    # counts 3 and 4
    assert np.array_equal(f.squares, f.mul(x, x))
    assert np.array_equal(f.cubes, f.mul(f.mul(x, x), x))
    assert np.array_equal(f.inverse_log, log[f.pow(x, -1)])
    assert np.array_equal(f.sqrt_log, log[f.pow(x, half)])
    assert np.array_equal(f.cubic_scale_log, log[f.pow(x, -3 * half)])
    y1 = f._cubic_solutions()[x]
    three = np.flatnonzero(y1 >= 0)  # each y1 solves its cubic, up to b = 16
    assert np.array_equal(f.mul(f.mul(y1[three], y1[three]), y1[three]) ^ y1[three], three)
    y2 = f.mul(y1, f.quadratic_table[f.pow(y1, -2) ^ 1])
    assert np.array_equal(f.cubic_logs[:, 0], log[y1])
    assert np.array_equal(f.cubic_logs[:, 1], log[y2])
    assert np.array_equal(f.cubic_splits, y1 >= 0)
    assert np.array_equal(f.cubic_splits, f.cubic_logs[:, 0] != log[-1])
    # a product by sqrt(p) of y1 + y2 is the sum of the two products, for
    # every c and a spread of p, p = 0 among them
    for p in (0, 1, 2, n // 3, n):
        sqrt_p = f.pow(p, half)
        assert np.array_equal(f.product_alog[int(f.sqrt_log[p]) + f.cubic_logs[:, 2].astype(int)],
                              f.mul(sqrt_p, y1) ^ f.mul(sqrt_p, y2))


def _table_bytes(f):
    """Bytes of the tables a field has built since construction."""
    return sum(v.nbytes for k, v in vars(f).items() if k not in CONSTRUCTION_ATTRIBUTES)


def test_a_t2_decode_builds_fewer_table_bytes_than_the_quadratic_table_did():
    # a count-2 decode at b = 15 holds its three step tables: 2^b uint16
    # cubes by log, (2^b - 1) x 2 uint16 logs of z and z + 1, and 2^b - 1
    # bools, well under quadratic_table and a table of squares at 8 * 2^b
    # bytes each
    from qgt.bch import make_bch
    from qgt.codec import build_signature, decode, encode
    from qgt.graphs import sample_defectives

    for cache in (make_field, make_bch, build_signature):
        cache.cache_clear()
    support = [5, 7000, 20000, 31000]
    view = sample_defectives(1 << 15, 4, 2, support, seed=3)
    sig = build_signature(2, view.max_right_degree)
    f = sig.bch.field
    assert f.degree == 15 and _table_bytes(f) == 0
    out = decode(view, sig, encode(view, sig, support))
    assert out.success and out.recovered == set(support)
    assert set(vars(f)) == CONSTRUCTION_ATTRIBUTES | {"cube_by_log", "quadratic_logs",
                                                      "quadratic_solvable"}
    assert _table_bytes(f) == 229_371 < 2 * 8 * (f.order + 1)


def test_a_t4_decode_holds_only_the_named_cached_tables():
    # count 4 reads the tables counts 2 and 3 read, and quadratic_table; pow
    # adds nothing to the field
    from qgt.bch import make_bch
    from qgt.codec import build_signature, decode, derive_params, encode
    from qgt.graphs import sample_defectives

    for cache in (make_field, make_bch, build_signature):
        cache.cache_clear()
    p = derive_params(1 << 20, 100, 4)
    support = np.random.default_rng(4).choice(p.n_items, size=p.k, replace=False).tolist()
    view = sample_defectives(p.n_items, p.m_groups, p.ell, support, seed=4)
    sig = build_signature(p.t, view.max_right_degree)
    f = sig.bch.field
    counts = np.bincount(view.incidence(support)[0].ravel(), minlength=p.m_groups)
    assert f.degree == 16 and (counts == 4).any()
    out = decode(view, sig, encode(view, sig, support))
    assert out.success and out.recovered == set(support)
    assert set(vars(f)) == CONSTRUCTION_ATTRIBUTES | set(FIELD_TABLES)
    assert _table_bytes(f) == 7_340_003


def test_a_t4_field_solves_the_cubic_once_and_the_quadratic_three_times(monkeypatch):
    # cubic_logs is the one table built from the cubic's solutions; the
    # quadratic's are built for quadratic_table, quadratic_logs and
    # cubic_logs, and each flag table is read off a log table
    calls = {"_cubic_solutions": 0, "_quadratic_solutions": 0}

    def counting(name):
        solve = getattr(GF2m, name)

        def counted(self):
            calls[name] += 1
            return solve(self)
        return counted

    for name in calls:
        monkeypatch.setattr(GF2m, name, counting(name))
    f = GF2m(8)
    for name in FIELD_TABLES:
        getattr(f, name)
    assert calls == {"_cubic_solutions": 1, "_quadratic_solutions": 3}
    # count 2's tables alone, all that a t = 2 decode reads, solve once
    calls.update(dict.fromkeys(calls, 0))
    g = GF2m(8)
    for name in ("cube_by_log", "quadratic_logs", "quadratic_solvable"):
        getattr(g, name)
    assert calls == {"_cubic_solutions": 0, "_quadratic_solutions": 1}
