"""End-to-end acceptance checks, one per test, in a fixed order.

Each test states its tolerance inline and fails loudly with the measured
value.  Literal matrices and vectors here are independent transcriptions,
deliberately not imported from qgt.reference, so a transcription slip in
either place shows up as a mismatch.
"""

import math
import time

import numpy as np

from qgt.bch import (build_parity_columns, decode_syndrome, decode_syndromes, make_bch,
                     syndrome_from_bits)
from qgt.codec import build_signature, decode, derive_params, encode, measurement_matrix
from qgt.density import (DESIGN_TABLE, DeConfig, c_of_t, de_fixed_point,
                         de_step, lambda_threshold, paper_test_count)
from qgt.density import tests_needed as analytic_test_count
from qgt.graphs import BiRegularGraph, sample_graph
from qgt.simulate import TrialConfig, run_trial

# 14-item worked design: 4 groups of 7, every item in exactly 2 groups
GROUPS_14 = [
    [0, 2, 4, 6, 8, 10, 13],
    [1, 2, 5, 7, 9, 11, 13],
    [1, 3, 5, 6, 9, 10, 12],
    [0, 3, 4, 7, 8, 11, 12],
]

H1_3x7 = np.array([
    [0, 0, 1, 0, 1, 1, 1],
    [0, 1, 0, 1, 1, 1, 0],
    [1, 0, 0, 1, 0, 1, 1],
], dtype=np.uint8)

U_4x7 = np.array([
    [1, 1, 1, 1, 1, 1, 1],
    [0, 0, 1, 0, 1, 1, 1],
    [0, 1, 0, 1, 1, 1, 0],
    [1, 0, 0, 1, 0, 1, 1],
], dtype=np.uint8)

A_16x14 = np.array([[int(c) for c in row] for row in [
    "10101010101001",
    "00001000101001",
    "00100010101000",
    "10000010001001",
    "01100101010101",
    "00000100010101",
    "00100001010100",
    "01000001000101",
    "01010110011010",
    "00000100011010",
    "00010010011000",
    "01000010001010",
    "10011001100110",
    "00001000100110",
    "00010001100100",
    "10000001000110",
]], dtype=np.uint8)

DEFECTIVES_14 = {0, 3, 9}          # items 1, 4, 10 in 1-based labels
Y_14 = np.array([3,
                 1, 0, 0, 1,
                 1, 1, 1, 0,
                 2, 1, 2, 0,
                 2, 0, 1, 1], dtype=np.int64)

CONSTANTS_8 = {1: (1.222, 3), 2: (0.597, 2), 3: (0.388, 2), 4: (0.294, 2),
               5: (0.239, 2), 6: (0.202, 2), 7: (0.176, 2), 8: (0.156, 2)}


def test_design_constants_recomputed_live():
    # c(t) within 0.01 and the exact minimizing ell for every t in 1..8,
    # recomputed by the threshold solver rather than read from the frozen table.
    t0 = time.time()
    for t, (c_ref, ell_ref) in CONSTANTS_8.items():
        c, ell = c_of_t(t)
        assert abs(c - c_ref) <= 0.01, f"c({t}) = {c:.6f}, want {c_ref} +- 0.01"
        assert ell == ell_ref, f"ell*({t}) = {ell}, want {ell_ref}"
        c_frozen, ell_frozen, _ = DESIGN_TABLE[t]
        assert abs(c - c_frozen) < 5e-4, f"frozen c({t}) drifted: {c_frozen} vs {c}"
        assert ell == ell_frozen
    elapsed = time.time() - t0
    assert elapsed < 10, f"constant solve took {elapsed:.1f}s"
    print(f"PASS: 8 design constants within 0.01, exact ell*, {elapsed:.1f}s")


def test_printed_reference_design_and_decode():
    # The b=3 single-error parity matrix, the 4x7 signature, and the full
    # 16x14 test matrix must match the printed worked example bit for bit
    # (the count-all test is row 0 of y, kept outside the matrix).  Decoding
    # the worked count vector recovers items {1,4,10} in exactly 2 rounds.
    spec = make_bch(3, 1, 7)
    assert np.array_equal(build_parity_columns(spec), H1_3x7)

    sig = build_signature(t=1, r_max=7)
    assert np.array_equal(sig.matrix, U_4x7)

    graph = BiRegularGraph(14, 2, np.concatenate(GROUPS_14), [len(g) for g in GROUPS_14])
    a = measurement_matrix(graph, sig)
    assert a.shape == (16, 14)
    assert np.array_equal(a, A_16x14)

    x = np.zeros(14, dtype=np.int64)
    x[sorted(DEFECTIVES_14)] = 1
    assert np.array_equal(a @ x, Y_14[1:])

    y = encode(graph, sig, DEFECTIVES_14)
    assert np.array_equal(y, Y_14)

    rounds = []
    out = decode(graph, sig, y,
                 trace=lambda it, residual, rec: rounds.append((it, rec)))
    assert out.success
    assert out.recovered == DEFECTIVES_14, f"recovered {out.recovered}"
    assert out.iterations == 2, f"took {out.iterations} rounds, want 2"
    assert rounds[0] == (1, {0, 9}), f"round 1 gave {rounds[0]}"
    assert rounds[1] == (2, {0, 3, 9})
    print("PASS: printed matrices match; decode gives items 1,4,10 in 2 rounds")


def test_syndrome_decoder_oracle():
    # (b=4, t=2, full length 15): all 121 patterns of weight <= 2 decode
    # exactly from their syndromes.  Then across b in {6,8,10} and t <= 4,
    # ten thousand random patterns decode with zero failures, one at a time
    # through Berlekamp-Massey and the Chien scan, and again as one
    # closed-form batch per code.
    spec = make_bch(4, 2, 15)
    cols = build_parity_columns(spec)

    def syndrome_of(sp, columns, positions):
        bits = np.zeros(sp.syndrome_bits, dtype=np.int64)
        for j in positions:
            bits ^= columns[:, j].astype(np.int64)
        return syndrome_from_bits(sp, bits.astype(np.uint8))

    def batch_agrees(sp, syndromes, patterns):
        positions, ok = decode_syndromes(sp, syndromes, [len(p) for p in patterns])
        got = [{j for j in row if j >= 0} for row in positions.tolist()]
        return ok.all() and got == patterns

    patterns = [set()]
    patterns += [{i} for i in range(15)]
    patterns += [{i, j} for i in range(15) for j in range(i + 1, 15)]
    assert len(patterns) == 121
    syndromes = [syndrome_of(spec, cols, pat) for pat in patterns]
    for pat, syn in zip(patterns, syndromes):
        assert decode_syndrome(spec, syn, len(pat)) == pat
    assert batch_agrees(spec, syndromes, patterns)

    total = 0
    for b in (6, 8, 10):
        n = (1 << b) - 1
        r = {6: n, 8: 3 * n // 5, 10: n // 2}[b]
        for t in (1, 2, 3, 4):
            sp = make_bch(b, t, r)
            sp_cols = build_parity_columns(sp)
            rng = np.random.default_rng(1000 * b + t)
            patterns, syndromes = [], []
            for _ in range(834):
                w = int(rng.integers(0, t + 1))
                pos = set(rng.choice(r, size=w, replace=False).tolist())
                syn = syndrome_of(sp, sp_cols, pos)
                got = decode_syndrome(sp, syn, w)
                assert got == pos, (b, t, pos, got)
                patterns.append(pos)
                syndromes.append(syn)
            assert batch_agrees(sp, syndromes, patterns), (b, t)
            total += len(patterns)
    assert total >= 10_000
    print(f"PASS: 121 exhaustive + {total} random syndrome decodes, 0 failures")


def test_desk_scale_success_rate():
    # N = 2^16, K = 100, t = 2, sized by the default safety factor: at
    # least 95% of 200 seeded trials must recover the support exactly.
    # The analytic target for these inputs is about 1387 tests; the sized
    # design spends m_total = 1864 (integer ceilings plus the factor).
    n_items, k, t = 1 << 16, 100, 2
    m_real, m_ceil = analytic_test_count(n_items, k, t)
    assert m_ceil in (1386, 1387), f"analytic count {m_real:.2f}"

    params = derive_params(n_items, k, t)
    assert params.m_groups == 81 and params.m_total == 1864

    cfg = TrialConfig(n_items=n_items, k=k, t=t, ell=params.ell,
                      m_groups=params.m_groups)
    trials = 200
    wins = 0
    for j in range(trials):
        seq = np.random.SeedSequence(20240817, spawn_key=(0, j))
        ok, _ = run_trial(cfg, seq)
        wins += ok
    rate = wins / trials
    assert rate >= 0.95, f"success {wins}/{trials} = {rate:.3f} < 0.95"
    print(f"PASS: {wins}/{trials} exact recoveries at m_total={params.m_total} "
          f"(analytic target {m_real:.1f})")


def test_test_count_minimized_at_t_two():
    # Across t in 1..8 at N = 2^16, K = 100, the analytic test count is
    # smallest at t = 2, under both the frozen and recomputed constants.
    sources = {
        "table": lambda t: analytic_test_count(1 << 16, 100, t)[0],
        "solve": lambda t: paper_test_count(1 << 16, 100, t, *c_of_t(t)),
    }
    for constants, count in sources.items():
        counts = {t: count(t) for t in range(1, 9)}
        best = min(counts, key=counts.get)
        assert best == 2, f"minimum at t={best} with {constants} constants"
    print("PASS: analytic test count minimized at t=2 (both constant sources)")


def test_density_evolution_properties():
    # (a) the recursion is monotone nonincreasing from p=1 on a 100-point
    # random grid; (b) p=0 is exactly absorbing; (c) the general step equals
    # the t=1 closed form within 1e-10; (d) collapse flips across the
    # threshold within +-0.01 for every t <= 4, ell in {2,3}.
    rng = np.random.default_rng(20240818)
    for _ in range(100):
        cfg = DeConfig(t=int(rng.integers(1, 9)), ell=int(rng.integers(2, 7)),
                       lam=float(rng.uniform(0.05, 15.0)))
        p = 1.0
        for _ in range(60):
            p_next = de_step(p, cfg)
            assert p_next <= p + 1e-12, (cfg, p, p_next)
            p = p_next
        assert de_step(0.0, cfg) == 0.0

    for ell in (2, 3, 4):
        for lam in (0.5, 2.455, 8.0):
            cfg = DeConfig(t=1, ell=ell, lam=lam)
            for p in np.linspace(0.0, 1.0, 21):
                closed_form = (-math.expm1(-lam * p)) ** (ell - 1)
                gap = abs(de_step(float(p), cfg) - closed_form)
                assert gap <= 1e-10, (ell, lam, p, gap)

    for t in (1, 2, 3, 4):
        for ell in (2, 3):
            lam_t = lambda_threshold(t, ell)
            below = de_fixed_point(DeConfig(t=t, ell=ell, lam=lam_t - 0.01))
            above = de_fixed_point(DeConfig(t=t, ell=ell, lam=lam_t + 0.01))
            assert below.converged_to_zero, (t, ell, lam_t)
            assert not above.converged_to_zero, (t, ell, lam_t)
            assert above.p_star > 0.0
    print("PASS: monotone recursion, absorbing zero, closed form to 1e-10, "
          "threshold dichotomy at +-0.01")


def test_decoder_soundness_random_instances():
    # Ten thousand randomized instances with N <= 2000, group counts drawn
    # from well below to well above the collapse threshold so both outcomes
    # occur: the decoder must never name a non-defective item, and on
    # success re-encoding its answer must reproduce the counts bit-exactly.
    rng = np.random.default_rng(20240819)
    successes = failures = 0
    for _ in range(10_000):
        n = int(rng.integers(30, 2001))
        ell = int(rng.integers(2, 4))
        t = int(rng.integers(1, 4))
        k = int(rng.integers(0, min(n // 4, 40) + 1))
        lam = lambda_threshold(t, ell) * rng.uniform(0.6, 1.6)
        m = min(max(ell, math.ceil(max(k, 1) * ell / lam)), n)
        graph = sample_graph(n, m, ell, seed=int(rng.integers(1 << 62)))
        support = set(rng.choice(n, size=k, replace=False).tolist())
        sig = build_signature(t, graph.max_right_degree)
        y = encode(graph, sig, support)
        out = decode(graph, sig, y)
        extras = out.recovered - support
        assert not extras, f"named non-defectives {extras} (n={n}, m={m}, t={t})"
        if out.success:
            successes += 1
            assert out.recovered == support
            assert np.array_equal(encode(graph, sig, out.recovered), y)
        else:
            failures += 1
    assert successes + failures == 10_000
    print(f"PASS: 10000 instances sound ({successes} exact, {failures} "
          "incomplete, 0 false positives)")


def test_decode_time_scales_logarithmically():
    # Informational scaling check: decode-only wall time at N = 2^14, 2^16,
    # 2^18 with K = 100 fixed.  The work per group row grows with the field
    # degree (so with log N); the acceptance bound allows 2x the log trend.
    k, t = 100, 2
    times = {}
    for exp in (14, 16, 18):
        n = 1 << exp
        params = derive_params(n, k, t)
        graph = sample_graph(n, params.m_groups, params.ell, seed=20240819)
        r = np.random.default_rng(20240819 + exp)
        support = set(r.choice(n, size=k, replace=False).tolist())
        sig = build_signature(t, graph.max_right_degree)
        y = encode(graph, sig, support)
        out = decode(graph, sig, y)
        assert out.recovered == support, f"decode failed at N=2^{exp}"
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            decode(graph, sig, y)
            best = min(best, time.perf_counter() - t0)
        times[exp] = best

    def log_trend(hi, lo):
        return (hi - math.log2(k)) / (lo - math.log2(k))

    for hi, lo in ((16, 14), (18, 16), (18, 14)):
        ratio = times[hi] / times[lo]
        bound = 2.0 * log_trend(hi, lo)
        assert ratio <= bound, (f"time(2^{hi})/time(2^{lo}) = {ratio:.2f} "
                                f"exceeds 2x log trend {bound:.2f}")
    summary = ", ".join(f"2^{e}: {1000*times[e]:.1f}ms" for e in (14, 16, 18))
    print(f"PASS: decode time within 2x of log trend ({summary})")
