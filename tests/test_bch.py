"""BCH parity columns, separability, and syndrome decoding."""

import hashlib
import itertools
import random
import re

import numpy as np
import pytest

from qgt import bch
from qgt.bch import (
    BchSpec,
    DecodeFailure,
    _cubic_roots,
    build_parity_columns,
    decode_syndrome,
    decode_syndromes,
    find_error_locator,
    find_roots,
    make_bch,
    syndrome_from_bits,
)
from qgt.codec import build_signature, decode, encode
from qgt.gf2m import make_field
from qgt.graphs import sample_graph

# frozen single-error parity matrix over GF(2^3), full length r = 7
H_T1_B3 = np.array(
    [
        [0, 0, 1, 0, 1, 1, 1],
        [0, 1, 0, 1, 1, 1, 0],
        [1, 0, 0, 1, 0, 1, 1],
    ],
    dtype=np.uint8,
)


def alpha(f, e):
    """alpha^e as an int, the exponent taken mod the group order."""
    return int(f.alog_np[e % f.order])


def syndrome_of(spec, columns, positions):
    bits = np.zeros(spec.syndrome_bits, dtype=np.int64)
    for j in positions:
        bits ^= columns[:, j].astype(np.int64)
    return syndrome_from_bits(spec, bits.astype(np.uint8))


def batch_decode(spec, syndromes, counts):
    """decode_syndromes as one set of positions per row, or None."""
    positions, ok = decode_syndromes(spec, np.array(syndromes).reshape(-1, spec.t), counts)
    return [{j for j in row if j >= 0} if good else None
            for row, good in zip(positions.tolist(), ok.tolist())]


def power_sums(f, sigma, t):
    """[S1, S3, ..., S_(2t-1)] of the roots of x^w + sigma[0] x^(w-1) + ...

    Newton's identities, S_k = sigma_1 S_(k-1) + ... + sigma_(k-1) S_1 + k sigma_k,
    hold whether or not the roots lie in the field.
    """
    coef = [1] + list(sigma) + [0] * (2 * t)
    sums = [0] * (2 * t)
    for k in range(1, 2 * t):
        acc = coef[k] if k % 2 else 0
        for i in range(1, k):
            acc ^= f.mul(coef[i], sums[k - i])
        sums[k] = acc
    return sums[1::2]


def test_parity_columns_t1_b3_golden():
    spec = make_bch(3, 1, 7)
    assert build_parity_columns(spec).tolist() == H_T1_B3.tolist()


def test_parity_columns_shortening_prefix():
    full = build_parity_columns(make_bch(3, 1, 7))
    short = build_parity_columns(make_bch(3, 1, 3))
    assert short.tolist() == full[:, :3].tolist()
    assert short.shape == (3, 3)


def test_parity_columns_power_structure():
    # row block k of column j is the bit expansion of alpha^((2k+1) j)
    spec = make_bch(4, 2, 15)
    f = spec.field
    cols = build_parity_columns(spec)
    assert cols.shape == (8, 15)
    for j in (0, 1, 5, 14):
        assert cols[:4, j].tolist() == f.bit_columns([alpha(f, j)])[:, 0].tolist()
        assert cols[4:, j].tolist() == f.bit_columns([alpha(f, 3 * j)])[:, 0].tolist()


def test_spec_validation():
    with pytest.raises(ValueError):
        make_bch(3, 0, 7)
    with pytest.raises(ValueError):
        make_bch(3, 9, 7)
    with pytest.raises(ValueError):
        make_bch(3, 4, 7)  # t >= 2^(b-1)
    with pytest.raises(ValueError):
        make_bch(3, 1, 8)  # r > n
    with pytest.raises(ValueError):
        make_bch(3, 1, 0)


def test_two_separability_exhaustive_b4():
    # all 121 integer sums of <= 2 distinct columns are pairwise distinct
    spec = make_bch(4, 2, 15)
    cols = build_parity_columns(spec).astype(np.int64)
    sums = {(): tuple(np.zeros(8, dtype=np.int64))}
    for w in (1, 2):
        for subset in itertools.combinations(range(15), w):
            sums[subset] = tuple(cols[:, list(subset)].sum(axis=1))
    assert len(sums) == 121
    assert len(set(sums.values())) == 121


def test_sub_separability_small():
    # s-separability for s < t: weight <= 1 sums distinct under a t=2 matrix
    spec = make_bch(3, 2, 7)
    cols = build_parity_columns(spec).astype(np.int64)
    seen = {tuple(np.zeros(6, dtype=np.int64))}
    for j in range(7):
        seen.add(tuple(cols[:, j]))
    assert len(seen) == 8


def test_syndrome_pack_unpack_round_trip():
    spec = make_bch(5, 3, 20)
    f = spec.field
    rng = random.Random(5)
    for _ in range(50):
        values = [rng.randrange(f.order + 1) for _ in range(3)]
        bits = f.bit_columns(values).T.ravel()
        assert syndrome_from_bits(spec, bits).tolist() == values
    with pytest.raises(ValueError):
        syndrome_from_bits(spec, np.zeros(7, dtype=np.uint8))


def test_syndrome_from_bits_stacks():
    spec = make_bch(5, 3, 20)
    f = spec.field
    rng = np.random.default_rng(5)
    values = rng.integers(0, f.order + 1, size=(4, 6, 3))
    bits = np.concatenate([f.bit_columns(values[..., k].ravel()).T for k in range(3)], axis=1)
    packed = syndrome_from_bits(spec, bits.reshape(4, 6, 15))
    assert packed.shape == (4, 6, 3) and np.array_equal(packed, values)
    single = syndrome_from_bits(spec, bits[0])
    assert single.dtype == np.int64 and np.array_equal(single, values[0, 0])
    for shape in [(), (2, 14), (3, 16), (1, 2, 5)]:
        with pytest.raises(ValueError):
            syndrome_from_bits(spec, np.zeros(shape, dtype=np.uint8))


def test_syndrome_matches_power_sums():
    # column-sum syndrome equals the field power sums of the error locators
    spec = make_bch(4, 2, 15)
    f = spec.field
    cols = build_parity_columns(spec)
    for positions in [(0, 5), (3, 11), (14,)]:
        syn = syndrome_of(spec, cols, positions)
        s1 = 0
        s3 = 0
        for j in positions:
            s1 ^= alpha(f, j)
            s3 ^= alpha(f, 3 * j)
        assert syn.tolist() == [s1, s3]


def test_locator_zero_syndrome():
    spec = make_bch(4, 2, 15)
    locator, length = find_error_locator(spec, [0, 0])
    assert locator == [1]
    assert length == 0


def test_locator_single_error():
    spec = make_bch(3, 1, 7)
    f = spec.field
    for j in range(7):
        locator, length = find_error_locator(spec, [alpha(f, j)])
        assert length == 1
        # sigma(x) = 1 + alpha^j x, root alpha^(-j)
        assert find_roots(spec, locator) == {alpha(f, -j)}


def test_locator_matches_product_form():
    # locator from syndromes equals prod (1 - alpha^j x) expanded directly
    spec = make_bch(6, 4, 63)
    f = spec.field
    rng = random.Random(63)
    for _ in range(100):
        w = rng.randrange(1, 5)
        positions = rng.sample(range(63), w)
        syn = [0] * 4
        for k in range(4):
            for j in positions:
                syn[k] ^= alpha(f, (2 * k + 1) * j)
        locator, length = find_error_locator(spec, syn)
        expected = [1]
        for j in positions:
            a = alpha(f, j)
            expected = [expected[0]] + [
                expected[i] ^ int(f.mul(a, expected[i - 1])) for i in range(1, len(expected))
            ] + [int(f.mul(a, expected[-1]))]
        assert length == w
        assert locator == expected


@pytest.mark.parametrize("finder", ["chien", "direct"], ids=["oracle", "closed-form"])
def test_decode_exhaustive_b4_t2(finder):
    # every weight <= 2 pattern on the full-length code decodes exactly, one
    # syndrome at a time through the Chien scan, or as one closed-form batch
    spec = make_bch(4, 2, 15)
    cols = build_parity_columns(spec)
    patterns = [()] + [(j,) for j in range(15)] + list(itertools.combinations(range(15), 2))
    assert len(patterns) == 121
    syndromes = [syndrome_of(spec, cols, positions) for positions in patterns]
    counts = [len(positions) for positions in patterns]
    if finder == "chien":
        got = [decode_syndrome(spec, syn, w) for syn, w in zip(syndromes, counts)]
    else:
        got = batch_decode(spec, syndromes, counts)
    assert got == [set(positions) for positions in patterns]


def test_decode_exhaustive_b3_t1_all_singles():
    spec = make_bch(3, 1, 7)
    cols = build_parity_columns(spec)
    for j in range(7):
        syn = syndrome_of(spec, cols, (j,))
        assert decode_syndrome(spec, syn, 1) == {j}


def test_decode_random_patterns_never_fail():
    # randomized perfect-decoding sweep across fields and radii, one
    # syndrome at a time and as one closed-form batch per code
    rng = random.Random(20240817)
    cases = 0
    for degree in (6, 8, 10):
        for t in (1, 2, 3, 4):
            spec = make_bch(degree, t, spec_r(degree))
            cols = build_parity_columns(spec)
            patterns, syndromes = [], []
            for _ in range(850):
                w = rng.randrange(0, t + 1)
                positions = set(rng.sample(range(spec.r), w) if w else [])
                syn = syndrome_of(spec, cols, positions)
                assert decode_syndrome(spec, syn, w) == positions
                patterns.append(positions)
                syndromes.append(syn)
            assert batch_decode(spec, syndromes, [len(p) for p in patterns]) == patterns
            cases += len(patterns)
    assert cases == 3 * 4 * 850


def spec_r(degree):
    # exercise shortened lengths, not just full codes
    return (1 << degree) * 3 // 5


def test_decode_rejects_out_of_range_roots():
    # syndrome of a column beyond the shortened range must fail, not alias
    spec_full = make_bch(4, 1, 15)
    spec_short = make_bch(4, 1, 6)
    cols = build_parity_columns(spec_full)
    syn = syndrome_of(spec_full, cols, (10,))
    with pytest.raises(DecodeFailure):
        decode_syndrome(spec_short, syn, 1)


def test_decode_rejects_wrong_weight():
    spec = make_bch(4, 2, 15)
    cols = build_parity_columns(spec)
    syn = syndrome_of(spec, cols, (3, 7))
    with pytest.raises(DecodeFailure):
        decode_syndrome(spec, syn, 1)
    with pytest.raises(DecodeFailure):
        decode_syndrome(spec, [1, 0], 0)
    with pytest.raises(DecodeFailure):
        decode_syndrome(spec, syn, 3)  # beyond t


@pytest.mark.parametrize("degree", [4, 5, 6, 8, 9, 12, 15, 16])
def test_closed_form_matches_oracle_on_random_locators(degree):
    # random locators of degree <= 4, split or not: the closed form resolves
    # their power sums exactly when the Chien scan finds degree-many roots,
    # and to the same positions
    spec = make_bch(degree, 4, (1 << degree) - 1)
    f, n = spec.field, spec.n
    rng = random.Random(degree * 101)
    sigmas = []
    for _ in range(2500 if degree < 12 else 300):
        d = rng.randrange(1, 5)
        sigmas.append([rng.randrange(f.order + 1) for _ in range(d - 1)]
                      + [rng.randrange(1, f.order + 1)])  # sigma_d nonzero
    got = batch_decode(spec, [power_sums(f, sigma, 4) for sigma in sigmas],
                       [len(sigma) for sigma in sigmas])
    split = 0
    for sigma, positions in zip(sigmas, got):
        roots = find_roots(spec, [1] + sigma)  # reversed: roots alpha^(-j)
        want = {(n - int(f.log_np[rho])) % n for rho in roots} if len(roots) == len(sigma) else None
        assert positions == want, sigma
        split += want is not None
    assert 0 < split < len(sigmas)


def test_closed_form_refuses_irreducible_quadratic():
    # x^2 + x + u with no z solving z^2 + z = u has no roots: the Chien scan
    # finds none, and the closed form refuses the row
    spec = make_bch(8, 2, 255)
    f = spec.field
    u = next(a for a in range(1, 256) if f.quadratic_table[a] < 0)
    assert find_roots(spec, [1, 1, u]) == set()
    assert batch_decode(spec, [power_sums(f, [1, u], 2)], [2]) == [None]


def test_closed_form_refuses_repeated_root_quadratic():
    # sigma with sigma_1 = 0 has a double root: the Chien scan finds it once,
    # and the closed form refuses the row, which needs two distinct roots
    spec = make_bch(5, 2, 31)
    f = spec.field
    a = alpha(f, 7)
    locator = [1, 0, int(f.pow(a, -2))]  # (1 + x/a)^2
    assert find_roots(spec, locator) == {a}
    assert batch_decode(spec, [power_sums(f, locator[1:], 2)], [2]) == [None]


@pytest.mark.parametrize("t, degree", [(3, 4), (4, 4), (3, 5)], ids=["3", "4", "3-b5"])
def test_every_syndrome_of_count_t_small_field(t, degree):
    # all 2^(b t) syndromes of the full-length code, each claiming t columns:
    # the closed form resolves exactly the syndromes of the t-subsets, among
    # them every S1 = 0 and every zero determinant or denominator; b = 5 is
    # odd, where w^3 = q has a single cube root
    spec = make_bch(degree, t, (1 << degree) - 1)
    f = spec.field
    size = f.order + 1
    sums = np.stack(np.meshgrid(*[np.arange(size)] * t, indexing="ij"), axis=-1).reshape(-1, t)
    got = batch_decode(spec, sums, np.full(len(sums), t))
    want = {}
    for subset in itertools.combinations(range(f.order), t):
        key = [0] * t
        for j in subset:
            key = [v ^ alpha(f, (2 * k + 1) * j) for k, v in enumerate(key)]
        want[tuple(key)] = set(subset)
    assert {tuple(row): pos for row, pos in zip(sums.tolist(), got) if pos is not None} == want


@pytest.mark.parametrize("degree", [4, 5])
def test_cubic_roots_match_brute_force(degree):
    # every w^3 + p w + q over GF(2^4), where w^3 = q has three cube roots for
    # some q, and over GF(2^5), where it has one: the three roots exactly when
    # three distinct field elements solve it
    f = make_field(degree)
    size = f.order + 1
    p, q = (v.ravel() for v in np.meshgrid(np.arange(size), np.arange(size), indexing="ij"))
    roots, three = _cubic_roots(f, p, q)
    w = np.arange(size)
    sizes = set()
    for row in range(len(p)):
        want = set(np.flatnonzero(f.pow(w, 3) ^ f.mul(p[row], w) == q[row]).tolist())
        sizes.add(len(want))
        assert three[row] == (len(want) == 3), (p[row], q[row], want)
        if three[row]:
            assert sorted(roots[row].tolist()) == sorted(want)
    assert {1, 3} <= sizes
    assert three[p == 0].any() == (degree % 2 == 0)


# -- counts 3 and 4 never reach a root search ---------------------------------


def _refuse(name):
    def finder(*args):
        raise AssertionError(f"{name} called")
    return finder


def _decode_count_three_plus(n_items, t, seed):
    """Decode 2t defectives in a 4-group design; some group holds 3 or more."""
    g = sample_graph(n_items, 4, 2, seed=seed)
    sig = build_signature(t, g.max_right_degree)
    rng = np.random.default_rng(seed)
    support = set(rng.choice(n_items, size=2 * t, replace=False).tolist())
    y = encode(g, sig, support)
    assert y[1::sig.s].max() >= 3
    out = decode(g, sig, y)
    return sig.bch.field.degree, out.success and out.recovered == support


@pytest.mark.parametrize("n_items, t", [(1 << 12, 3), (1 << 15, 4)])
def test_wide_fields_solve_in_closed_form(n_items, t, monkeypatch):
    monkeypatch.setattr(bch, "find_roots", _refuse("Chien scan"))
    monkeypatch.setattr(bch, "find_error_locator", _refuse("Berlekamp-Massey"))
    b, ok = _decode_count_three_plus(n_items, t, seed=1)
    assert b >= 12 and ok


@pytest.mark.parametrize("t", [3, 4])
def test_narrow_fields_solve_in_closed_form(t, monkeypatch):
    monkeypatch.setattr(bch, "find_roots", _refuse("Chien scan"))
    monkeypatch.setattr(bch, "find_error_locator", _refuse("Berlekamp-Massey"))
    b, ok = _decode_count_three_plus(400, t, seed=1)
    assert b == 8 and ok


def garbage_stack(spec, rng, rows):
    """(syndromes, counts) of mostly invalid rows, counts -1..t+1.

    A quarter each: uniform garbage; the syndrome of 1..t positions of the
    unshortened code (repeats allowed, some past r), at that count 70% of
    the time; the same with one power sum changed; and zero syndromes.
    """
    f, t, n = spec.field, spec.t, spec.n
    kind = rng.integers(0, 4, size=rows)
    weight = rng.integers(1, t + 1, size=rows)
    picks = rng.integers(0, n, size=(rows, t))
    used = np.arange(t) < weight[:, None]
    odd = 2 * np.arange(t) + 1
    terms = f.alog_np[(odd[:, None, None] * picks[None]) % n] * used[None]
    genuine = np.bitwise_xor.reduce(terms, axis=2).T
    changed = genuine.copy()
    slot = rng.integers(0, t, size=rows)
    changed[np.arange(rows), slot] ^= rng.integers(1, n + 1, size=rows)
    syn = np.select([kind[:, None] == 0, kind[:, None] == 1, kind[:, None] == 2],
                    [rng.integers(0, n + 1, size=(rows, t)), genuine, changed], 0)
    counts = rng.integers(-1, t + 2, size=rows)
    counts = np.where((kind % 3 != 0) & (rng.random(rows) < 0.7), weight, counts)
    return syn, counts


def test_decode_syndromes_pinned_on_garbage_stacks():
    # positions and ok on every row, refused rows included, at every radius
    # over narrow and wide fields and three lengths; any change to what
    # decode_syndromes returns on any row changes this digest
    rng = np.random.default_rng(2026)
    digest = hashlib.sha256()
    seen = set()
    for t in range(1, bch.MAX_T + 1):
        for degree in (4, 5, 8, 11, 15, 16):
            for r in (1, 7, (1 << degree) - 1):
                spec = make_bch(degree, t, r)
                syn, counts = garbage_stack(spec, rng, 3000)
                positions, ok = decode_syndromes(spec, syn, counts)
                assert positions.shape == (3000, t) and ok.shape == (3000,)
                digest.update(repr((t, degree, r, str(positions.dtype), str(ok.dtype))).encode())
                digest.update(positions.tobytes())
                digest.update(ok.tobytes())
                seen |= {(int(c), bool(good)) for c, good in zip(counts, ok)}
    # every count resolves somewhere and is refused somewhere
    assert {(c, good) for c in range(bch.MAX_T + 1) for good in (True, False)} <= seen
    assert digest.hexdigest() == "65864208cd51151b89b46b4737066e4a56beb9219bf7c875d1c9ed0a96994454"


def test_decode_syndromes_refuses_what_is_no_field_element():
    # GF(2^3) holds 0..7: a syndrome outside it, or a float or bool that a
    # cast would truncate, is refused by name instead of decoded or raising
    # numpy's IndexError
    spec = make_bch(3, 2, 5)
    cases = [([[-7, 1]], [1], "syndrome -7 is not an element of GF(2^3)"),
             ([[1 << 20, 3]], [2], "syndrome 1048576 is not an element of GF(2^3)"),
             ([[8, 0]], [1], "syndrome 8 is not"),
             (np.array([[1 << 63, 0]], dtype=np.uint64), [1], f"syndrome {1 << 63} is not"),
             ([[1.9, 1.2]], [1], "syndromes must be integers, got 1.9"),
             ([[1 << 70, 1]], [1], "syndromes must be integers"),
             ([[True, False]], [1], "syndromes must be integers, got True"),
             ([[1, 1]], [1.7], "counts must be integers, got 1.7"),
             ([[1, 1]], [True], "counts must be integers, got True"),
             ([1, 1], [1], "expected syndromes of shape (f, 2)"),
             ([[1, 1, 1]], [1], "expected syndromes of shape"),
             ([[1, 1]], [1, 2], "expected syndromes of shape"),
             ([[1, 1]], 1, "expected syndromes of shape")]
    for syndromes, counts, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            decode_syndromes(spec, syndromes, counts)
    # the largest element, every integer dtype and an empty stack still decode
    f = spec.field
    syn = [[7, int(f.pow(7, 3))]]
    for dtype in (np.uint8, np.int16, np.uint64):
        positions, ok = decode_syndromes(spec, np.array(syn, dtype=dtype),
                                         np.array([1], dtype=dtype))
        assert ok.tolist() == [f.log_np[7] < spec.r]
    positions, ok = decode_syndromes(spec, np.zeros((0, 2), dtype=int), [])
    assert positions.shape == (0, 2) and ok.shape == (0,)
