"""Design sizing, encoder, peeling decoder, and file formats."""

import hashlib
import math
import random
import re

import numpy as np
import pytest

from qgt import codec
from qgt.bch import (decode_syndromes, find_error_locator, find_roots, make_bch,
                     syndrome_from_bits)
from qgt.codec import (
    DEFAULT_BETA,
    DecodeOutcome,
    Signature,
    build_signature,
    decode,
    derive_params,
    design_ell,
    encode,
    field_degree_for,
    load_support,
    load_test_vector,
    measurement_matrix,
    resolve_node,
    save_support,
    save_test_vector,
)
from qgt.density import DeConfig, c_of_t, design_constant, lambda_threshold, paper_test_count
from qgt.density import tests_needed as analytic_test_count
from qgt.graphs import BiRegularGraph, sample_defectives, sample_graph
from qgt.simulate import TrialConfig, groups_within_budget
from test_repair import oracle_sample_graph

# independent transcription of the 14-item worked instance (the library has
# its own copy in qgt.reference; the two must stay in agreement)
GROUPS_14 = [
    [0, 2, 4, 6, 8, 10, 13],
    [1, 2, 5, 7, 9, 11, 13],
    [1, 3, 5, 6, 9, 10, 12],
    [0, 3, 4, 7, 8, 11, 12],
]
DEFECTIVES_14 = {0, 3, 9}
U_4x7 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1],
        [0, 0, 1, 0, 1, 1, 1],
        [0, 1, 0, 1, 1, 1, 0],
        [1, 0, 0, 1, 0, 1, 1],
    ],
    dtype=np.uint8,
)
Y_14 = np.array([3, 1, 0, 0, 1, 1, 1, 1, 0, 2, 1, 2, 0, 2, 0, 1, 1], dtype=np.int64)


def graph_14():
    return BiRegularGraph(14, 2, np.concatenate(GROUPS_14), [len(g) for g in GROUPS_14])


def test_signature_golden_t1_b3():
    sig = build_signature(t=1, r_max=7)
    assert sig.matrix.tolist() == U_4x7.tolist()
    assert sig.s == 4
    assert sig.r == 7


def test_signature_shapes():
    sig = build_signature(t=2, r_max=100)
    assert sig.bch.field.degree == 7  # 2^7 - 1 = 127 >= 100
    assert sig.matrix.shape == (15, 100)
    assert np.all(sig.matrix[0] == 1)


def test_signature_is_cached_and_read_only():
    sig = build_signature(2, 100)
    assert build_signature(2, 100) is sig
    assert build_signature(2, 101) is not sig
    assert sig.slots is sig.slots
    for array in (sig.matrix, sig.slots):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 7
    assert sig.matrix[0, 0] == 1 and sig.slots[0, 0] == 0


@pytest.mark.parametrize("t, r_max", [(1, 7), (2, 100), (3, 500), (4, 15), (2, 40_000)])
def test_slots_list_each_columns_set_slots(t, r_max):
    # row p: the slots where column p is 1, in order, then the dump slot s
    # to the row's end; row r, "no column", is all dump slots
    sig = build_signature(t, r_max)
    slots = sig.slots
    weights = sig.matrix.sum(axis=0, dtype=np.int64)
    assert slots.dtype == np.uint8 and slots.shape == (sig.r + 1, weights.max())
    assert np.all(slots[sig.r] == sig.s)
    for p in range(sig.r):
        w = weights[p]
        assert np.array_equal(slots[p, :w], np.flatnonzero(sig.matrix[:, p])), p
        assert np.all(slots[p, w:] == sig.s), p


def test_field_degree_for():
    assert field_degree_for(7, 1) == 3
    assert field_degree_for(8, 1) == 4
    assert field_degree_for(3, 1) == 3   # clamped to the minimum degree
    assert field_degree_for(7, 4) == 4   # t=4 needs 2^(b-1) > 4
    assert field_degree_for(65535, 1) == 16
    with pytest.raises(ValueError):
        field_degree_for(65536, 1)


@pytest.mark.parametrize("t, r_max, message", [
    ("2", 100, "t must be an integer, got '2'"),
    (5, 100, "t must be in 1..4 to decode, got t=5"),
    (2, "100", "r must be an integer, got '100'"),
    (2, True, "r must be an integer, got True"),
    (2, -5, "r must be at least 1, got -5"),
    (2, 0, "r must be at least 1, got 0"),
])
def test_field_degree_and_signature_refuse_a_bad_radius_or_size_by_name(t, r_max, message):
    # these raised a TypeError from a comparison or a concatenation, math's
    # "math domain error", or (r_max = True) sized a field
    build_signature.cache_clear()
    for _ in range(2):  # before and after the equal ints are cached
        with pytest.raises(ValueError, match=re.escape(message)):
            field_degree_for(r_max, t)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_signature(t, r_max)
        build_signature(2, 100)
        build_signature(2, 1)


def test_configs_refuse_a_non_real_lambda_or_beta_and_hold_ints():
    # a bool lambda was accepted and a string one ended in a TypeError, and
    # numpy integers were kept as given
    for lam in (True, np.bool_(True), "3", None, 1j):
        with pytest.raises(ValueError, match=re.escape(f"lambda must be a real number, got {lam!r}")):
            DeConfig(2, 2, lam)
    for beta in ("2", True, None):
        with pytest.raises(ValueError, match=re.escape(f"beta must be a real number, got {beta!r}")):
            derive_params(2 ** 16, 100, 2, beta=beta)
    assert derive_params(2 ** 16, 100, 2, beta=np.float64(1.5)) == derive_params(2 ** 16, 100, 2,
                                                                                   beta=1.5)
    cfg = DeConfig(np.int64(2), np.uint64(3), np.float64(3.0))
    assert cfg == DeConfig(2, 3, 3.0) and type(cfg.t) is int and type(cfg.ell) is int
    trial = TrialConfig(np.uint64(4096), np.int64(20), np.int32(2), np.uint8(2), np.int64(60))
    assert trial == TrialConfig(4096, 20, 2, 2, 60)
    assert all(type(getattr(trial, name)) is int
               for name in ("n_items", "k", "t", "ell", "m_groups"))


def test_encode_worked_example():
    y = encode(graph_14(), build_signature(1, 7), DEFECTIVES_14)
    assert y.tolist() == Y_14.tolist()


def test_encode_empty_support():
    g = graph_14()
    y = encode(g, build_signature(1, 7), set())
    assert y.tolist() == [0] * 17


def test_encode_rejects_bad_items():
    g = graph_14()
    sig = build_signature(1, 7)
    with pytest.raises(ValueError):
        encode(g, sig, {14})
    with pytest.raises(ValueError):
        encode(g, sig, {-1})


def pinned_encodes():
    """(t, b, y) of 32 seeded encodes, field degree b from 3 up to 16.

    t cycles through 1..4, odd cases run on a defectives-only view and even
    ones on a whole graph, and K runs up to 8 M, so most groups hold several
    defectives.  Every third support is a Python set, the rest int64 arrays.
    Whole graphs come from test_repair.oracle_sample_graph, which keeps the
    graphs of the row-by-row repair, so the digest pins encode alone.
    """
    rng = np.random.default_rng(20261019)
    rows = []
    for idx in range(32):
        t = 1 + idx % 4
        on_view = idx % 2 == 1
        ell = int(rng.integers(2, 4))
        if on_view:
            m = int(rng.integers(ell, 6 * ell))
            n = int(2 ** rng.uniform(1, 16)) * m // ell
        else:
            m = int(rng.integers(4 * ell, 12 * ell))
            n = int(2 ** rng.uniform(1, 10)) * m // ell
        k = int(rng.integers(1, min(n // 2, 8 * m) + 1))
        support = rng.choice(n, size=k, replace=False)
        if idx % 3 == 0:
            support = set(support.tolist())
        seed = int(rng.integers(1 << 32))
        if on_view:
            graph = sample_defectives(n, m, ell, sorted(support), seed=seed)
        else:
            graph = oracle_sample_graph(n, m, ell, seed=seed)
        sig = build_signature(t, graph.max_right_degree)
        rows.append((t, sig.bch.field.degree, encode(graph, sig, support)))
    return rows


def test_encode_outputs_pinned():
    # any change to what encode returns changes this digest
    rows = pinned_encodes()
    degrees = {b for _, b, _ in rows}
    assert {3, 16} <= degrees and len(degrees) >= 10
    digest = hashlib.sha256()
    for t, b, y in rows:
        digest.update(repr((t, b, y.shape, str(y.dtype))).encode())
        digest.update(y.tobytes())
    assert digest.hexdigest() == "3551813b2df6c3097600e88083017c8abbd3fef88b6680cace60c0344ae67238"


def test_encode_rejects_items_that_are_not_integers():
    g = graph_14()
    sig = build_signature(1, 7)
    for support in ({3.7, 10}, [np.float64(3.0)], {True, 10}, [np.True_], ["3"]):
        with pytest.raises(ValueError, match="integers"):
            encode(g, sig, support)
    with pytest.raises(ValueError, match="item 99999999999999999999999 out of range"):
        encode(g, sig, [3, 99999999999999999999999])
    # numpy integers of any width, repeats and one-shot iterables are items
    want = encode(g, sig, DEFECTIVES_14)
    for support in (np.array([9, 0, 3], dtype=np.uint16), [np.int8(3), 0, 9, 9, 3],
                    iter([0, 3, 9]), (v for v in (9, 3, 0))):
        assert np.array_equal(encode(g, sig, support), want)


def test_encode_is_the_measurement_matrix_product():
    rng = np.random.default_rng(20261020)
    for _ in range(40):
        t = int(rng.integers(1, 5))
        ell = int(rng.integers(2, 5))
        n = int(rng.integers(20, 300))
        m = int(rng.integers(ell, max(ell + 1, n // 3)))
        g = sample_graph(n, m, ell, seed=int(rng.integers(1 << 32)))
        sig = build_signature(t, g.max_right_degree)
        support = rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)
        x = np.zeros(n, dtype=np.int64)
        x[support] = 1
        y = encode(g, sig, support)
        assert y[0] == len(support)
        assert np.array_equal(y[1:], measurement_matrix(g, sig).astype(np.int64) @ x)


def test_encode_rejects_undersized_signature():
    g = graph_14()
    with pytest.raises(ValueError):
        encode(g, build_signature(1, 5), {0})


def test_decode_rejects_undersized_signature():
    # item 256 sits at positions 62 and 71, past a 70-column signature
    g = sample_graph(400, 8, 2, seed=1)
    y = encode(g, build_signature(2, 100), {256})
    with pytest.raises(ValueError, match="signature covers 70 columns"):
        decode(g, build_signature(2, 70), y)


def resolved(stack, sig):
    """resolve_node as one frozenset of positions per row, or None."""
    positions, ok = resolve_node(stack, sig)
    return [frozenset(j for j in row if j >= 0) if good else None
            for row, good in zip(positions.tolist(), ok.tolist())]


def test_resolve_node_cases():
    sig = build_signature(1, 7)
    cols = sig.matrix.astype(np.int64)
    two = cols[:, 1] + cols[:, 5]  # count 2 > t = 1
    bad = cols[:, 4].copy()
    bad[0] = 0  # count says empty but bits remain
    tampered = cols[:, 4].copy()
    tampered[2] += 2  # parity intact, integer sum broken
    stack = np.array([np.zeros(4, dtype=np.int64), cols[:, 4], two, bad, tampered])
    assert resolve_node(stack, sig)[0].shape == (5, 1)
    assert resolved(stack, sig) == [frozenset(), frozenset({4}), None, None, None]
    # one slice is a stack of one; a bare slice, a wrong length or a float
    # stack is refused (a cast would truncate 0.6 and resolve the slice at 4)
    assert resolved(cols[None, :, 4], sig) == [frozenset({4})]
    for z in (cols[:, 4], cols[None, 1:, 4], cols[None, :, 4] + 0.6):
        with pytest.raises(ValueError):
            resolve_node(z, sig)


@pytest.mark.parametrize("t, r_max", [(1, 7), (2, 15), (3, 30), (4, 15)])
def test_slice_one_off_in_any_slot_is_refused(t, r_max):
    # slices of 1..t columns, each moved by +-1 in one slot: a row that
    # resolves names columns that sum to the moved slice exactly (a moved
    # column can be another genuine one).  Some refused rows pass the parity
    # decode at their count, so the integer re-check is what refuses them.
    sig = build_signature(t, r_max)
    rng = np.random.default_rng(t)
    rows = []
    for _ in range(120):
        picked = rng.choice(sig.r, size=int(rng.integers(1, t + 1)), replace=False)
        z = sig.matrix[:, picked].sum(axis=1, dtype=np.int64)
        for slot in range(sig.s):
            for delta in (-1, 1):
                rows.append(z.copy())
                rows[-1][slot] += delta
    stack = np.array(rows)
    positions, ok = resolve_node(stack, sig)
    for z, row in zip(stack[ok], positions[ok]):
        assert np.array_equal(sig.matrix[:, row[row >= 0]].sum(axis=1, dtype=np.int64), z)
    _, parity_ok = decode_syndromes(sig.bch, syndrome_from_bits(sig.bch, stack[:, 1:] & 1),
                                    stack[:, 0])
    assert (parity_ok & ~ok).any()


def test_resolve_node_t2():
    sig = build_signature(2, 15)
    cols = sig.matrix.astype(np.int64)
    z = cols[:, 3] + cols[:, 11]
    assert resolved(z[None], sig) == [frozenset({3, 11})]
    # the closed form agrees with the Chien scan on the pair's locator
    syndrome = syndrome_from_bits(sig.bch, z[1:] & 1)
    locator, _ = find_error_locator(sig.bch, syndrome)
    f = sig.bch.field
    assert find_roots(sig.bch, locator) == set(f.alog_np[[-3, -11]].tolist())


def test_decode_worked_example_two_rounds():
    outcome = decode(graph_14(), build_signature(1, 7), Y_14.copy())
    assert outcome.recovered == DEFECTIVES_14
    assert outcome.iterations == 2
    assert outcome.success
    assert outcome.unresolved_right == 0


def test_decode_round_trace_matches_hand_peel():
    # round 1 resolves groups 0 and 1 (counts 1), recovering items 0 and 9;
    # round 2 peels groups 2 and 3 down to item 3
    rounds = []
    decode(graph_14(), build_signature(1, 7), Y_14.copy(),
           trace=lambda it, res, rec: rounds.append((it, rec)))
    assert rounds[0] == (1, {0, 9})
    assert rounds[1] == (2, {0, 3, 9})


def test_decode_empty_support():
    g = graph_14()
    sig = build_signature(1, 7)
    outcome = decode(g, sig, encode(g, sig, set()))
    assert outcome.recovered == set()
    assert outcome.success


def test_decode_conservation_invariant():
    # after every round the residual equals the encoding of the defectives
    # not yet recovered
    g = sample_graph(200, 16, 2, seed=9)
    sig = build_signature(2, g.max_right_degree)
    support = {3, 17, 50, 90, 120, 150, 199}
    y = encode(g, sig, support)

    def check(_round, residual, recovered):
        remaining = support - recovered
        expected = encode(g, sig, remaining)
        assert np.array_equal(residual.ravel(), expected[1:])

    outcome = decode(g, sig, y, trace=check)
    assert outcome.recovered == support


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_a_count_zero_slice_resolves_exactly_when_it_is_zero(t):
    # the rule decode applies to count-0 groups in place of a resolve
    sig = build_signature(t, 30)
    rng = np.random.default_rng(t)
    z = rng.integers(-2, 3, size=(600, sig.s))
    z[::3] = 0
    z[1::5] *= 2  # every parity bit even, the slice still nonzero
    z[:, 0] = 0
    assert np.array_equal(resolve_node(z, sig)[1], ~z.any(axis=1))


def test_rounds_of_empty_groups_skip_the_resolve(monkeypatch):
    # a count-0 group is settled without a resolve; a round holding only
    # such groups still counts and is traced, but peels nothing, so it is
    # the last.  Every decode traces each of its rounds exactly once.
    stacks = []

    def counting(z, sig):
        stacks.append(z[:, 0].copy())
        return resolve_node(z, sig)

    monkeypatch.setattr(codec, "resolve_node", counting)
    rng = np.random.default_rng(2026)
    empty_last = 0
    for _ in range(120):
        t = int(rng.integers(1, 5))
        n = int(rng.integers(200, 800))
        m = int(rng.integers(n // 30, n // 8))
        graph = sample_graph(n, m, 2, seed=int(rng.integers(1 << 32)))
        sig = build_signature(t, graph.max_right_degree)
        support = rng.choice(n, size=int(rng.integers(1, m * t // 2 + 2)), replace=False)
        y = encode(graph, sig, support)
        rounds = []
        stacks.clear()
        out = decode(graph, sig, y, trace=lambda i, res, rec: rounds.append(
            (i, len(stacks), res, rec)))
        assert [r[0] for r in rounds] == list(range(1, out.iterations + 1))
        assert all((counts != 0).all() for counts in stacks)
        resolves = [r[1] for r in rounds]
        skipped = [i for i, (a, b) in enumerate(zip([0] + resolves, resolves)) if a == b]
        assert skipped in ([], [out.iterations - 1])
        if skipped:
            empty_last += 1
            assert out.iterations >= 2
            assert np.array_equal(rounds[-1][2], rounds[-2][2]) and rounds[-1][3] == rounds[-2][3]
    assert empty_last >= 5


def test_corrupt_parity_in_an_empty_group_stays_unresolved():
    # a count-0 group whose slice is not zero is left unresolved, as a
    # failed resolve left it, and the decode reports no success
    graph = sample_graph(600, 60, 2, seed=12)
    sig = build_signature(2, graph.max_right_degree)
    support = {5, 77, 140, 300, 451}
    clean = encode(graph, sig, support)
    want = decode(graph, sig, clean)
    assert want.success and want.unresolved_right == 0
    blocks = clean[1:].reshape(graph.n_right, sig.s)
    empty = np.flatnonzero(blocks[:, 0] == 0)
    for group, slot, delta in [(empty[0], 1, 1), (empty[3], sig.s - 1, -1), (empty[-1], 2, 2)]:
        y = clean.copy()
        y[1 + group * sig.s + slot] += delta
        out = decode(graph, sig, y)
        assert out.recovered == support and out.unresolved_right == 1
        assert out.iterations == want.iterations and not out.success


def pinned_outcomes():
    """(sorted recovered, iterations, unresolved_right, success) of 40 decodes.

    t cycles through 1..4, blocks of four alternate a whole graph with a
    defectives-only view, and the last 16 have one entry of y moved by
    +-1 or +-2.  Loads straddle the threshold, so clean decodes both stall
    and complete.  Whole graphs come from test_repair.oracle_sample_graph,
    as in pinned_encodes.
    """
    rng = np.random.default_rng(20261018)
    rows = []
    for idx in range(40):
        t = 1 + idx % 4
        on_view = (idx // 4) % 2 == 1
        ell = int(rng.integers(2, 4))
        n = int(rng.integers(150, 900))
        lam = lambda_threshold(t, ell) * rng.uniform(0.4, 1.4)
        m = int(rng.integers(max(ell, n // 40), max(ell + 1, n // 8)))
        k = min(n // 4, max(1, round(lam * m / ell)))
        support = rng.choice(n, size=k, replace=False)
        seed = int(rng.integers(1 << 32))
        if on_view:
            graph = sample_defectives(n, m, ell, support, seed=seed)
        else:
            graph = oracle_sample_graph(n, m, ell, seed=seed)
        sig = build_signature(t, graph.max_right_degree)
        y = encode(graph, sig, support)
        if idx >= 24:
            y[int(rng.integers(len(y)))] += int(rng.choice([-2, -1, 1, 2]))
        out = decode(graph, sig, y)
        rows.append((sorted(out.recovered), out.iterations, out.unresolved_right, out.success))
    return rows


def test_decode_outcomes_pinned():
    # any change to what decode returns, on genuine or corrupted input,
    # changes this digest; a change that means to must say why
    rows = pinned_outcomes()
    clean, corrupted = rows[:24], rows[24:]
    assert 0 < sum(r[3] for r in clean) < len(clean)
    assert not any(r[3] for r in corrupted) and any(r[0] for r in corrupted)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "ce63782ec74ee4f316a9b6b8d91d5eff6a021bf038ad5e9e08d3534cb26d2d12"


def test_decode_rejects_wrong_length():
    g = graph_14()
    sig = build_signature(1, 7)
    with pytest.raises(ValueError):
        decode(g, sig, Y_14[:-1].copy())


def test_decode_takes_integer_test_vectors_only():
    g = graph_14()
    sig = build_signature(1, 7)
    y = Y_14.astype(float)
    y[3] += 0.25  # truncates back to the genuine vector
    for bad in (y, Y_14.astype(float), Y_14.astype(bool), Y_14.astype(object)):
        with pytest.raises(ValueError, match="integers"):
            decode(g, sig, bad)
    # a list, or any integer dtype, decodes as the int64 vector does
    want = decode(g, sig, Y_14)
    for good in (Y_14.tolist(), Y_14.astype(np.int16), Y_14.astype(np.uint32)):
        assert decode(g, sig, good) == want


def test_decode_refuses_values_beyond_int64():
    # a uint64 count at 2^63 or above would wrap to a negative count, and a
    # list holding a larger Python int is held as float64 or object: each is
    # refused by what does not fit, as load_test_vector refuses it
    g = graph_14()
    sig = build_signature(1, 7)
    wide = Y_14.astype(np.uint64)
    wide[2] = 1 << 63
    listed = Y_14.tolist()
    listed[5] = 2 ** 70
    for bad, value in ((wide, 1 << 63), (listed, 2 ** 70), (listed[:5] + [2 ** 64] + listed[6:], 2 ** 64)):
        with pytest.raises(ValueError, match=f"{value} does not fit in int64"):
            decode(g, sig, bad)
    # a uint64 vector below 2^63 decodes as the int64 one does
    assert decode(g, sig, Y_14.astype(np.uint64)) == decode(g, sig, Y_14)
    cols = sig.matrix.astype(np.int64)
    stack = cols[None, :, 4].astype(np.uint64)
    stack[0, 1] = (1 << 64) - 1
    with pytest.raises(ValueError, match=f"{(1 << 64) - 1} does not fit in int64"):
        resolve_node(stack, sig)
    with pytest.raises(ValueError, match=f"{2 ** 70} does not fit in int64"):
        resolve_node([[1, 2 ** 70, 0, 0]], sig)
    assert resolved(cols[None, :, 4].astype(np.uint64), sig) == [frozenset({4})]


def test_decode_malformed_count_terminates():
    y = Y_14.copy()
    y[0] = 5  # count-all slot no longer matches
    outcome = decode(graph_14(), build_signature(1, 7), y)
    assert outcome.recovered == DEFECTIVES_14
    assert not outcome.success


def test_decode_success_flag_requires_zero_residual():
    y = Y_14.copy()
    y[2] += 1  # corrupt one test beyond the count slot
    outcome = decode(graph_14(), build_signature(1, 7), y)
    assert not outcome.success


def test_measurement_matrix_worked_example():
    g = graph_14()
    sig = build_signature(1, 7)
    a = measurement_matrix(g, sig)
    assert a.shape == (16, 14)
    # y restricted to the signature rows equals A @ x
    x = np.zeros(14, dtype=np.int64)
    x[list(DEFECTIVES_14)] = 1
    assert np.array_equal(a.astype(np.int64) @ x, Y_14[1:])


def test_measurement_matrix_column_weights():
    # each item contributes one all-ones entry per group plus parity bits
    g = sample_graph(40, 8, 2, seed=3)
    sig = build_signature(1, g.max_right_degree)
    a = measurement_matrix(g, sig)
    assert a.shape == (8 * sig.s, 40)
    x = np.zeros(40, dtype=np.int64)
    x[[5, 17]] = 1
    y = encode(g, sig, {5, 17})
    assert np.array_equal(a.astype(np.int64) @ x, y[1:])


def test_derive_params_t1():
    p = derive_params(10_000, 10, 1)
    assert p.ell == 3  # ell* for t = 1
    assert p.m_groups == math.ceil(1.221793 * 10 * DEFAULT_BETA)
    assert p.r_max == math.ceil(10_000 * 3 / p.m_groups)
    assert p.b == math.ceil(math.log2(p.r_max + 1))
    assert p.s == p.b + 1
    assert p.m_total == p.m_groups * p.s + 1


def test_derive_params_reference_scale():
    p = derive_params(2 ** 16, 100, 2)
    assert p.ell == 2
    assert p.m_bound == pytest.approx(1387, abs=2.0)
    # engineered total exceeds the bound only by quantified rounding slack
    c = 0.596851
    slack = p.m_groups * p.t + p.s + (DEFAULT_BETA - 1.0) * c * p.k * p.s + 2
    assert p.m_total <= p.m_bound + slack


def test_m_bound_is_the_paper_test_count():
    # derive_params and tests_needed share one formula; with auto ell they
    # must agree to the last bit.  Designs stop at the decoding radius 4, and
    # the analysis for t 5..8 is the same formula at c(t) and ell*
    for n_items in (2 ** 8, 2 ** 12, 2 ** 16):
        for k in (10, 100):
            for t in range(1, 5):
                p = derive_params(n_items, k, t)
                assert p.m_bound == analytic_test_count(n_items, k, t)[0], (n_items, k, t)
            for t in range(5, 9):
                want = paper_test_count(n_items, k, t, *design_constant(t))
                assert analytic_test_count(n_items, k, t)[0] == want, (n_items, k, t)


@pytest.mark.parametrize("t", [0, 5])
def test_decoding_radius_outside_one_to_four_is_rejected(t):
    for make in (lambda: derive_params(2 ** 16, 100, t), lambda: make_bch(8, t, 255),
                 lambda: TrialConfig(n_items=2 ** 16, k=100, t=t, ell=2, m_groups=60)):
        with pytest.raises(ValueError, match=f"t must be in 1..4 to decode, got t={t}"):
            make()


def test_a_float_or_bool_radius_or_size_is_refused_and_cached_nowhere():
    # make_bch's cache keys 2.0 and True as the equal ints 2 and 1, so a spec
    # built from one of them answered every later call for the int, and a
    # float t failed only in range() once a signature was built from it
    make_bch.cache_clear()
    build_signature.cache_clear()
    for t, r_max, name, bad in ((2.0, 100, "t", 2.0), (2, 100.0, "r", 100.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            build_signature(t, r_max)
    t = build_signature(2, 100).bch.t
    assert t == 2 and type(t) is int
    for t in (2.0, True, np.float64(3.0)):
        for make in (lambda: derive_params(2 ** 16, 100, t), lambda: design_ell(2 ** 16, 100, t),
                     lambda: make_bch(8, t, 255),
                     lambda: TrialConfig(n_items=4096, k=20, t=t, ell=2, m_groups=60),
                     lambda: analytic_test_count(2 ** 16, 100, t),
                     lambda: design_constant(t),
                     lambda: groups_within_budget(4096, t, 2, 400)):
            with pytest.raises(ValueError, match=re.escape(f"t must be an integer, got {t!r}")):
                make()
    with pytest.raises(ValueError, match="r must be an integer, got 255.0"):
        make_bch(8, 2, 255.0)
    with pytest.raises(ValueError, match="m_budget must be an integer, got 400.0"):
        groups_within_budget(4096, 2, 2, 400.0)
    # N, K, ell and M of a trial, and N and ell of a budget: TrialConfig
    # accepted K = 20.5, which failed in run_trial, and both calls below
    # returned 21
    for name, bad in (("n_items", 4096.0), ("k", 20.5), ("k", True), ("ell", 2.0),
                      ("m_groups", 60.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            TrialConfig(**{**dict(n_items=4096, k=20, t=2, ell=2, m_groups=60), name: bad})
    for args, name, bad in (((4096.0, 2, 2, 400), "n_items", 4096.0),
                            ((4096, 2, 2.0, 400), "ell", 2.0)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            groups_within_budget(*args)
    # numpy integers are integers
    assert design_constant(np.int64(2)) == design_constant(2)
    assert groups_within_budget(np.int64(4096), np.int64(2), np.int64(2), np.int64(400)) == 21
    TrialConfig(np.int64(4096), np.int64(20), 2, np.int64(2), np.int64(60))


@pytest.mark.parametrize("make, good, bad, name", [
    (build_signature, (2, 100), (2.0, 100), "t"),
    (build_signature, (1, 100), (True, 100), "t"),
    (build_signature, (2, 100), (2, 100.0), "r"),
    (make_bch, (7, 2, 100), (7, 2.0, 100), "t"),
    (make_bch, (7, 2, 100), (7.0, 2, 100), "degree"),
    (make_bch, (7, 1, 100), (7, True, 100), "t"),
    (c_of_t, (2,), (2.0,), "t"),
    (c_of_t, (1,), (True,), "t"),
    (lambda_threshold, (1, 2), (True, 2), "t"),
    (lambda_threshold, (2, 2), (2, 2.0), "ell"),
])
def test_cached_entry_points_refuse_a_float_or_bool_before_and_after_the_int(make, good, bad,
                                                                             name):
    # an untyped cache keys 2.0 and True as the equal ints 2 and 1, so once
    # the int was cached they found its entry and were never checked
    value = next(b for a, b in zip(good, bad) if type(a) is not type(b))
    make.cache_clear()
    message = re.escape(f"{name} must be an integer, got {value!r}")
    with pytest.raises(ValueError, match=message):
        make(*bad)
    make(*good)
    with pytest.raises(ValueError, match=message):
        make(*bad)
    # a numpy integer takes its own entry, with equal values
    size = make.cache_info().currsize
    got, want = make(*[np.int64(a) for a in good]), make(*good)
    assert make.cache_info().currsize == size + 1
    if make is build_signature:
        got, want = got.bch, want.bch
    assert got == want


def test_derive_params_explicit_ell_and_beta():
    p = derive_params(1000, 5, 2, ell=4, beta=1.5)
    assert p.ell == 4
    assert p.m_groups == math.ceil(0.596851 * 5 * 1.5)
    with pytest.raises(ValueError):
        derive_params(1000, 5, 2, ell=1)
    with pytest.raises(ValueError):
        derive_params(1000, 5, 2, beta=1.0)
    with pytest.raises(ValueError):
        derive_params(100, 100, 2)


def test_design_ell_is_the_one_check_of_a_design():
    assert design_ell(1000, 5, 1) == 3 and design_ell(1000, 5, 2, "auto") == 2
    assert design_ell(1000, 5, 2, 4) == 4
    for ell in (1, 0, -2, True, 2.0, "2", np.int64(1), np.bool_(True)):
        with pytest.raises(ValueError, match="ell must be an int >= 2 or 'auto'"):
            design_ell(1000, 5, 2, ell)
    # a numpy integer ell is an integer, and comes back as the int
    for ell in (np.int64(3), np.uint8(3)):
        got = design_ell(1000, 5, 2, ell)
        assert got == 3 and type(got) is int
    assert derive_params(2 ** 16, 100, 2, ell=np.int64(3)) == derive_params(2 ** 16, 100, 2, ell=3)
    for n, k in ((100, 100), (100, 0), (100, 101)):
        with pytest.raises(ValueError, match=f"need 1 <= K < N, got K={k}, N={n}"):
            design_ell(n, k, 2)
    # a float N was kept as the design's n_items, and a float K sized M
    for n, k, name, bad in ((65536.0, 100, "n_items", 65536.0), (65536, 100.5, "k", 100.5),
                            (65536, True, "k", True)):
        for make in (lambda: design_ell(n, k, 2), lambda: derive_params(n, k, 2)):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
                make()
    assert derive_params(np.int64(65536), np.int64(100), 2) == derive_params(65536, 100, 2)
    # every stub index must fit in int64
    assert design_ell(2 ** 62 - 1, 5, 2) == 2
    for make in (lambda: design_ell(2 ** 62, 5, 2), lambda: derive_params(2 ** 62, 5, 2)):
        with pytest.raises(ValueError, match="stubs do not fit int64 indices"):
            make()


def test_derive_params_names_its_largest_n():
    # (2^16 - 1) M / ell = 65535 * 81 / 2 at K = 100, t = 2
    p = derive_params(2_654_167, 100, 2)
    assert (p.m_groups, p.ell, p.r_max, p.b) == (81, 2, 65535, 16)
    with pytest.raises(ValueError, match="largest N this design can size is 2654167"):
        derive_params(2_654_168, 100, 2)


def test_derive_params_rejects_more_groups_than_edges():
    # c(2) * 10 * 1000 gives M = 5969 groups; 300 items at ell = 2 have 600 edges
    with pytest.raises(ValueError, match="M=5969 groups, more than the N\\*ell = 600"):
        derive_params(300, 10, 2, beta=1000.0)
    p = derive_params(300, 10, 2, beta=100.0)  # M = 597 <= 600 still sizes
    assert p.m_groups == 597


def test_derive_params_holds_python_ints_from_numpy_inputs():
    # a numpy radius kept M*s + 1 in int32, which wrapped to -1713809820,
    # and a numpy N overflowed N*ell in the edge check and refused this
    # valid design with "N*ell = -2147483648"
    p = derive_params(2 ** 40, 10 ** 8, np.int32(4))
    assert p.m_total == 2_581_157_476
    assert all(type(getattr(p, name)) is int
               for name in ("n_items", "k", "t", "ell", "m_groups", "r_max", "b", "s", "m_total"))
    assert derive_params(np.int32(2 ** 30), 10 ** 6, 2) == derive_params(2 ** 30, 10 ** 6, 2)


def test_trial_config_derives_the_design_once():
    p = derive_params(2 ** 16, 100, 2)
    assert isinstance(p, TrialConfig) and TrialConfig is codec.TrialConfig
    cfg = TrialConfig(2 ** 16, 100, 2, 2, p.m_groups)
    assert cfg == p
    assert (cfg.r_max, cfg.b, cfg.s) == codec.group_shape(2 ** 16, 2, p.m_groups, 2)
    assert cfg.m_total == cfg.m_groups * cfg.s + 1
    with pytest.raises(TypeError):
        TrialConfig(2 ** 16, 100, 2, 2, p.m_groups, r_max=1)
    # with no defectives the paper's count falls to the count test alone
    assert TrialConfig(100, 0, 1, 3, 20).m_bound == 1.0


def test_trial_config_refuses_a_design_when_constructed():
    # the checks run in the constructor: M = 0 and M > N*ell were accepted,
    # and a group too large for any field failed in every run_trial
    for m, message in ((0, "M=0 groups, fewer than the ell = 2"),
                       (1, "M=1 groups, fewer than the ell = 2"),
                       (-3, "M=-3 groups, fewer than the ell = 2"),
                       (8193, "M=8193 groups, more than the N*ell = 8192 edges of any "
                              "graph on N=4096 items")):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrialConfig(4096, 20, 2, 2, m)
    with pytest.raises(ValueError, match=re.escape("r_max=419431 needs field degree 19 > 16")):
        TrialConfig(2 ** 21, 100, 2, 2, 10)
    # derive_params' edge check, now the constructor's, and K and ell
    for args, message in (((300, 10, 2, 2, 5969), "M=5969 groups, more than the N*ell = 600"),
                          ((10, 11, 1, 3, 5), "need 0 <= K <= N, got K=11, N=10"),
                          ((10, -1, 1, 3, 5), "need 0 <= K <= N, got K=-1, N=10"),
                          ((4096, 20, 2, 1, 60), "ell must be >= 2, got 1"),
                          ((4096, 20, 2, 0, 0), "ell must be >= 2, got 0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrialConfig(*args)


def test_derive_params_tiny_instance_clamps():
    # toy sizes force the field-degree floor and the M >= ell floor
    p = derive_params(20, 2, 1, beta=1.01)
    assert p.m_groups >= p.ell
    assert p.b >= 3


def test_round_trip_small_random():
    rng = random.Random(77)
    for trial in range(200):
        n = rng.randrange(30, 400)
        k = rng.randrange(0, min(12, n // 4))
        t = rng.randrange(1, 5)
        ell = rng.randrange(2, 5)
        m = max(ell, rng.randrange(max(4, 2 * k), max(8, 4 * k + 8)))
        g = sample_graph(n, m, ell, seed=trial)
        sig = build_signature(t, g.max_right_degree)
        support = set(rng.sample(range(n), k))
        y = encode(g, sig, support)
        outcome = decode(g, sig, y)
        assert outcome.recovered <= support  # never a false positive
        if outcome.success:
            assert outcome.recovered == support
            assert np.array_equal(encode(g, sig, outcome.recovered), y)


def test_file_round_trips(tmp_path):
    y = Y_14.copy()
    pv = tmp_path / "y.txt"
    save_test_vector(str(pv), y)
    assert pv.read_text().splitlines()[0] == "3"
    assert np.array_equal(load_test_vector(str(pv)), y)
    pv.write_text("# counts\n\n")
    with pytest.raises(ValueError, match="empty test vector"):
        load_test_vector(str(pv))

    ps = tmp_path / "s.txt"
    save_support(str(ps), {9, 0, 3})
    text = ps.read_text().splitlines()
    assert text[0].startswith("#")
    assert [int(x) for x in text[1:]] == [0, 3, 9]
    assert load_support(str(ps)) == {0, 3, 9}


@pytest.mark.parametrize("entry", ["2.5", "1_0", "\u0661", "0x10", "1e3", "+", "-", "nan",
                                   "\x00", "7#", "\u00e9"])
def test_loaders_read_plain_integers_and_name_the_line(tmp_path, entry):
    # int() read "1_0" as 10 and "\u0661" (Arabic-Indic one) as 1, and a bad
    # entry ended in int()'s message, which named neither the file nor the line
    for name, loader in (("y", load_test_vector), ("s", load_support)):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"# header\n3\n\n{entry}\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4: ")):
            loader(str(path))
    graph = tmp_path / "g.txt"
    graph.write_text(f"4 2 2 0\n0 1 2 3\n# next group\n{entry} 0 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{graph}, line 4: ")):
        BiRegularGraph.load(str(graph))
    graph.write_text(f"4 2 {entry} 0\n0 1 2 3\n0 1 2 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{graph}, line 1: ")):
        BiRegularGraph.load(str(graph))


def test_loaders_take_a_sign_and_surrounding_space(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text(" +3 \n-0\n\t12\n", encoding="utf-8")
    assert load_test_vector(str(path)).tolist() == [3, 0, 12]
    assert load_support(str(path)) == {0, 3, 12}
    graph = tmp_path / "g.txt"
    graph.write_text("+4 2 2 -1\n 0 1\t+2 3\n0 1 2 3 \n", encoding="utf-8")
    loaded = BiRegularGraph.load(str(graph))
    assert (loaded.n_left, loaded.seed) == (4, -1)
    assert [adj.tolist() for adj in loaded.right_adj] == [[0, 1, 2, 3]] * 2
    # a count or an item is one integer to a line
    path.write_text("3\n3 4\n", encoding="utf-8")
    for loader in (load_test_vector, load_support):
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 2: expected one integer, got 2")):
            loader(str(path))


def test_cli_names_the_bad_line(tmp_path, capsys):
    from qgt.cli import main

    support = tmp_path / "s.txt"
    support.write_text("1\n1_0\n", encoding="utf-8")
    code = main(["encode", "--support", str(support), "--out", str(tmp_path / "y.txt")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {support}, line 2: '1_0' is not an integer\n"


def test_save_support_takes_integer_items_only(tmp_path):
    # the rule encode applies: repeats count once, numpy integers are items
    ps = tmp_path / "s.txt"
    save_support(str(ps), [np.int8(9), 3, np.uint16(3)])
    assert ps.read_text().splitlines()[1:] == ["3", "9"]
    for support in ({3.7, 10}, {True, 10}, ["3"]):
        with pytest.raises(ValueError, match="integers"):
            save_support(str(ps), support)


def test_reference_module_agrees():
    from qgt import reference

    assert reference.REFERENCE_GROUPS == GROUPS_14
    assert set(reference.REFERENCE_DEFECTIVES) == DEFECTIVES_14
    assert reference.REFERENCE_SIGNATURE.tolist() == U_4x7.tolist()
    assert reference.REFERENCE_TEST_VECTOR.tolist() == Y_14.tolist()
    assert reference.reference_test_vector().tolist() == Y_14.tolist()
    assert reference.reference_signature().matrix.tolist() == U_4x7.tolist()
