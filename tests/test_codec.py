"""Design sizing, encoder, peeling decoder, and file formats."""

import hashlib
import math
import random

import numpy as np
import pytest

from qgt.bch import (decode_syndromes, find_error_locator, find_roots, make_bch,
                     syndrome_from_bits)
from qgt.codec import (
    DEFAULT_BETA,
    DecodeOutcome,
    Signature,
    build_signature,
    decode,
    derive_params,
    encode,
    field_degree_for,
    load_support,
    load_test_vector,
    measurement_matrix,
    resolve_node,
    save_support,
    save_test_vector,
)
from qgt.density import design_constant, lambda_threshold, paper_test_count
from qgt.density import tests_needed as analytic_test_count
from qgt.graphs import BiRegularGraph, sample_defectives, sample_graph
from qgt.simulate import TrialConfig

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
            graph = sample_graph(n, m, ell, seed=seed)
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
    # one slice is a stack of one; a bare slice or a wrong length is refused
    assert resolved(cols[None, :, 4], sig) == [frozenset({4})]
    for z in (cols[:, 4], cols[None, 1:, 4]):
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


def pinned_outcomes():
    """(sorted recovered, iterations, unresolved_right, success) of 40 decodes.

    t cycles through 1..4, blocks of four alternate a whole graph with a
    defectives-only view, and the last 16 have one entry of y moved by
    +-1 or +-2.  Loads straddle the threshold, so clean decodes both stall
    and complete.
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
            graph = sample_graph(n, m, ell, seed=seed)
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
    slack = p.m_groups * p.t + p.s + (p.beta - 1.0) * c * p.k * p.s + 2
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

    ps = tmp_path / "s.txt"
    save_support(str(ps), {9, 0, 3})
    text = ps.read_text().splitlines()
    assert text[0].startswith("#")
    assert [int(x) for x in text[1:]] == [0, 3, 9]
    assert load_support(str(ps)) == {0, 3, 9}


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
