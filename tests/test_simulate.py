"""Tests for the Monte Carlo harness: seeding, budget inversion, CSV schema."""

import csv
import hashlib
import io
import math
import re

import numpy as np
import pytest

from qgt import simulate
from qgt.codec import field_degree_for, group_shape
from qgt.density import design_constant
from qgt.gf2m import MAX_DEGREE, MIN_DEGREE
from qgt.graphs import sample_graph
from qgt.simulate import (CSV_COLUMNS, SweepPoint, TrialConfig,
                          groups_within_budget, run_sweep, run_trial,
                          sweep_csv)


@pytest.mark.parametrize("grid", [12, "12", np.float64(12), None, [12, "13"], [True]])
def test_run_sweep_refuses_a_grid_that_is_not_real_numbers(grid):
    # a scalar ended in "'int' object is not iterable", and a string was
    # iterated character by character
    with pytest.raises(ValueError, match="the m/K grid must be an iterable of real numbers"):
        run_sweep(4096, 20, 2, grid, 2, 1)


def test_run_sweep_takes_a_numpy_integer_ell_and_grid():
    want = run_sweep(4096, 20, 2, [12], 2, 1, ell=3)
    assert run_sweep(4096, 20, 2, np.array([12]), 2, 1, ell=np.int64(3)) == want


def test_trial_config_validates_k():
    with pytest.raises(ValueError):
        TrialConfig(n_items=10, k=11, t=1, ell=3, m_groups=5)
    TrialConfig(n_items=10, k=0, t=1, ell=3, m_groups=5)


def test_run_trial_deterministic_and_seed_sensitive():
    cfg = TrialConfig(n_items=300, k=12, t=2, ell=2, m_groups=40)
    a = run_trial(cfg, 7)
    b = run_trial(cfg, 7)
    assert a == b
    results = {run_trial(cfg, s) for s in range(20)}
    assert len(results) > 1 or all(r[0] for r in results)


def test_run_trial_takes_a_seed_sequence_or_an_integer():
    # None drew a fresh, unseeded trial, True ran as seed 1, and 2.0 raised
    # numpy's TypeError
    cfg = TrialConfig(n_items=300, k=12, t=2, ell=2, m_groups=40)
    assert run_trial(cfg, np.int64(7)) == run_trial(cfg, 7)
    seq = np.random.SeedSequence(3, spawn_key=(1, 2))
    assert run_trial(cfg, seq) == run_trial(cfg, np.random.SeedSequence(3, spawn_key=(1, 2)))
    for bad in (None, True, 2.0, "7"):
        with pytest.raises(ValueError, match=f"trial_seed must be an integer, got {bad!r}"):
            run_trial(cfg, bad)


def test_run_trial_success_means_zero_unidentified():
    cfg = TrialConfig(n_items=300, k=12, t=2, ell=2, m_groups=40)
    for s in range(30):
        ok, frac = run_trial(cfg, s)
        assert 0.0 <= frac <= 1.0
        if ok:
            assert frac == 0.0
        else:
            assert frac > 0.0


def test_run_trial_empty_support():
    cfg = TrialConfig(n_items=100, k=0, t=1, ell=3, m_groups=20)
    ok, frac = run_trial(cfg, 0)
    assert ok and frac == 0.0


def test_run_trial_with_fixed_graph():
    graph = sample_graph(300, 40, 2, seed=5)
    cfg = TrialConfig(n_items=300, k=12, t=2, ell=2, m_groups=40)
    a = run_trial(cfg, 11, graph=graph)
    b = run_trial(cfg, 11, graph=graph)
    assert a == b


def _brute_best_m(n_items, t, ell, m_budget):
    best = None
    for m in range(ell, n_items * ell + 1):
        r_max = math.ceil(n_items * ell / m)
        if r_max > n_items:
            continue
        try:
            b = field_degree_for(r_max, t)
        except ValueError:
            continue
        if m * (t * b + 1) + 1 <= m_budget:
            best = m
    return best


def test_groups_within_budget_matches_exhaustive_scan():
    n_items = 60
    for t in (1, 2, 3, 4):
        for ell in (2, 3, 4):
            for m_budget in range(20, 201, 7):
                expect = _brute_best_m(n_items, t, ell, m_budget)
                if expect is None:
                    with pytest.raises(ValueError):
                        groups_within_budget(n_items, t, ell, m_budget)
                else:
                    got = groups_within_budget(n_items, t, ell, m_budget)
                    assert got == expect, (t, ell, m_budget)


@pytest.mark.parametrize("n_items,m_budget,expect", [
    (2 ** 40, 10 ** 12, 90_909_090_909), (2 ** 21, 2000, None), (2 ** 16, 1387, 55),
    (60, 200, 28)])
def test_groups_within_budget_steps_once_per_field_degree(n_items, m_budget, expect,
                                                          monkeypatch):
    # a scan down from the count-only bound would try ~5e10 values of M at
    # 2^40 and 284 at 2^21; the search tries one per field degree at most
    calls = []

    def counted(*args):
        calls.append(args)
        return group_shape(*args)

    monkeypatch.setattr(simulate, "group_shape", counted)
    if expect is None:
        with pytest.raises(ValueError, match="no feasible design"):
            groups_within_budget(n_items, 2, 2, m_budget)
    else:
        assert groups_within_budget(n_items, 2, 2, m_budget) == expect
    assert len(calls) <= MAX_DEGREE - MIN_DEGREE + 2


def test_groups_within_budget_known_point():
    # At N = 2^16, t = 2, ell = 2 a budget of 1387 tests admits at most
    # M = 55 groups: r_max = 2384 needs a degree-12 field, so each group
    # costs s = 25 rows and 55 * 25 + 1 = 1376 <= 1387 < 56 * 25 + 1.
    assert groups_within_budget(65536, 2, 2, 1387) == 55


def test_groups_within_budget_respects_budget():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n_items = int(rng.integers(40, 400))
        t = int(rng.integers(1, 4))
        ell = int(rng.integers(2, 4))
        m_budget = int(rng.integers(30, 600))
        try:
            m = groups_within_budget(n_items, t, ell, m_budget)
        except ValueError:
            continue
        r_max = math.ceil(n_items * ell / m)
        s = t * field_degree_for(r_max, t) + 1
        assert m * s + 1 <= m_budget
        assert ell <= m
        assert r_max <= n_items


def test_groups_within_budget_starved():
    with pytest.raises(ValueError):
        groups_within_budget(500, 1, 3, 5)
    # with ell = 0 there are no edges to group (this divided by M = 0)
    with pytest.raises(ValueError, match="no feasible design"):
        groups_within_budget(100, 2, 0, 500)


def test_groups_within_budget_skips_groups_beyond_the_field():
    # at N = 2^21 every M under this budget has r_max above 2^16 - 1: the
    # largest is too big for the field, so is every smaller M, and no design
    # is left
    with pytest.raises(ValueError, match="no feasible design fits m_budget=2000"):
        groups_within_budget(2 ** 21, 2, 2, 2000)


def test_run_sweep_deterministic():
    args = dict(n_items=400, k=15, t=1, ell=3, trials=20, master_seed=42)
    a = run_sweep(m_over_k_grid=[6.0, 20.0], **args)
    b = run_sweep(m_over_k_grid=[6.0, 20.0], **args)
    assert a == b


def test_run_sweep_fixed_graph_deterministic():
    args = dict(n_items=400, k=15, t=1, ell=3, trials=20, master_seed=42,
                fixed_graph=True)
    a = run_sweep(m_over_k_grid=[20.0], **args)
    b = run_sweep(m_over_k_grid=[20.0], **args)
    assert a == b


def test_run_sweep_budget_dichotomy():
    # A starved budget leaves nearly everything unidentified; a generous
    # one recovers every support.  40 trials each keeps this sharp.
    pts = run_sweep(500, 20, 1, [4.0, 25.0], trials=40, master_seed=123)
    assert len(pts) == 2
    starved, generous = pts
    assert starved.success_rate <= 0.2
    assert starved.mean_unidentified >= 0.8
    assert generous.success_rate >= 0.9
    assert generous.mean_unidentified <= 0.05
    for p in pts:
        assert p.m_used <= int(round(p.m_over_k * 20))
        assert p.stderr >= 0.0


def test_run_sweep_takes_numpy_grid_scalars_as_python_floats():
    # numpy arithmetic wrapped 2^62 * K to a negative budget and overflowed
    # float16(60000) * K, warning and then refusing both
    want = run_sweep(1000, 10, 2, [float(2**62)], 2, 1)
    assert (want[0].m_groups, want[0].m_used) == (2000, 14001)
    assert run_sweep(1000, 10, 2, [np.int64(2**62)], 2, 1) == want
    half = run_sweep(1000, 10, 2, [np.float16(60000)], 2, 1)
    assert half == run_sweep(1000, 10, 2, [60000.0], 2, 1)


def test_run_sweep_rejects_non_finite_budgets():
    # 1e308 is finite, but its budget m = 1e308 * K is not
    for bad in (math.inf, -math.inf, math.nan, 1e308):
        with pytest.raises(ValueError, match="finite test budget"):
            run_sweep(200, 5, 2, [20.0, bad], trials=1, master_seed=1)
    # a numpy K made 1e308 * K numpy arithmetic, which warned of overflow
    with pytest.raises(ValueError, match="finite test budget"):
        run_sweep(200, np.int64(5), 2, [1e308], trials=1, master_seed=1)


def test_run_sweep_checks_the_design_as_derive_params():
    # K = N, a bad ell, a bad radius and a non-integer size or trial count
    # are rejected before any trial
    for kwargs, message in ((dict(k=200), "need 1 <= K < N, got K=200, N=200"),
                            (dict(ell=1), "ell must be an int >= 2 or 'auto', got 1"),
                            (dict(ell=True), "ell must be an int >= 2 or 'auto', got True"),
                            (dict(t=-3), "t must be in 1..4 to decode, got t=-3"),
                            (dict(t=2.0), "t must be an integer, got 2.0"),
                            (dict(n_items=200.0), "n_items must be an integer, got 200.0"),
                            (dict(trials=2.5), "trials must be an integer, got 2.5"),
                            (dict(trials=True), "trials must be an integer, got True"),
                            (dict(k="20"), "k must be an integer, got '20'"),
                            (dict(k=None), "k must be an integer, got None")):
        args = dict(n_items=200, k=5, t=2, m_over_k_grid=[20.0], trials=1, master_seed=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_sweep(**{**args, **kwargs})


def test_run_sweep_refuses_a_negative_master_seed():
    # before any trial: SeedSequence would refuse it without naming it
    for seed in (-1, -(1 << 70)):
        with pytest.raises(ValueError, match=re.escape(
                f"master_seed must be a non-negative integer, got {seed}")):
            run_sweep(200, 5, 2, [20.0], trials=1, master_seed=seed)
    assert run_sweep(200, 5, 2, [20.0], trials=1, master_seed=0)[0].trials == 1


def test_run_sweep_refuses_a_bool_or_float_master_seed():
    # True would run as seed 1 and be written as True in the CSV seed column
    for seed in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match=re.escape(
                f"master_seed must be an integer, got {seed!r}")):
            run_sweep(200, 5, 2, [20.0], trials=1, master_seed=seed)
    assert (run_sweep(200, 5, 2, [20.0], trials=2, master_seed=np.int64(1))
            == run_sweep(200, 5, 2, [20.0], trials=2, master_seed=1))


def test_run_sweep_auto_ell():
    pts = run_sweep(400, 10, 1, [20.0], trials=5, master_seed=1, ell="auto")
    assert len(pts) == 1 and pts[0].trials == 5


def test_sweep_csv_schema():
    pts = [
        SweepPoint(m_over_k=4.0, m_used=73, m_groups=8, trials=40,
                   success_rate=0.0, mean_unidentified=0.99875,
                   stderr=0.00125),
        SweepPoint(m_over_k=25.0, m_used=499, m_groups=83, trials=40,
                   success_rate=1.0, mean_unidentified=0.0, stderr=0.0),
    ]
    text = sweep_csv(pts, n_items=500, k=20, t=1, ell=3, master_seed=123)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3
    for row, p in zip(rows[1:], pts):
        rec = dict(zip(CSV_COLUMNS, row))
        assert float(rec["m_over_K"]) == p.m_over_k
        assert int(rec["t"]) == 1 and int(rec["ell"]) == 3
        assert int(rec["N"]) == 500 and int(rec["K"]) == 20
        assert int(rec["trials"]) == p.trials
        assert abs(float(rec["success_rate"]) - p.success_rate) < 1e-9
        assert abs(float(rec["mean_unidentified"]) - p.mean_unidentified) < 1e-6
        assert abs(float(rec["stderr"]) - p.stderr) < 1e-6
        assert int(rec["seed"]) == 123


def test_sweep_csv_round_trip_from_run():
    pts = run_sweep(300, 10, 2, [18.0], trials=10, master_seed=9)
    text = sweep_csv(pts, n_items=300, k=10, t=2, ell=2, master_seed=9)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS and len(rows) == 2


# Sweeps whose CSV must not change while the samplers and views are reworked:
# (N, K, t, ell or None for the design's, grid, trials, seed, fixed_graph).
# The draws decide each row, so any change to a sampler's stream, a view's
# lookups or a decode shows here.
PINNED_SWEEPS = [
    ((4096, 20, 2, None, [10, 13, 16], 20, 5, False),
     "61ea7f2cb20de079a6c845c5fa9bc492779d471a133fdb738756a68e957c3fc4"),
    ((4096, 20, 2, None, [10, 13, 16], 20, 11, True),
     "5925158df7432dc7a0e3167c5b712ad529fc3840637fb2698d23c6d4490e3874"),
    ((65536, 1000, 3, None, [12, 14], 10, 3, False),
     "1859fd59be4abd6891560e1d1259e43c7926ee093fd50bf17e02b40e9fd7949c"),
    ((300, 10, 4, None, [30], 30, 2, True),
     "4daca20b48494dea3af1b4beec66b0e13451f0c12d1781e4b0d4489f716f851c"),
    ((64, 5, 2, 3, [40], 20, 0, False),
     "9f72c4074ab1bd9f38766b74f80d9d260873fa61a80a853f5f0343a0d802504b"),
    # near each design's threshold, where success reads 0.4, 0.833 and 0.95,
    # so a change that flips a single decode changes the digest
    ((65536, 1000, 3, None, [11], 10, 3, False),
     "037696085a54fcd8fd82acbc7da74fe89ceadf63267949e15cce9374b64c3abf"),
    ((300, 10, 4, None, [14], 30, 2, True),
     "8362ea645602d9a538f704104461c1c11c6bb0b60e717d293d65b90fc7bcb4a6"),
    ((64, 5, 2, 3, [16], 20, 0, False),
     "6bc1d97644cf51d0093eb5486f7dd16bdc2f79c64059bd76f466b3ed24b5c1a7"),
]


@pytest.mark.parametrize("run,digest", PINNED_SWEEPS)
def test_sweep_outputs_pinned(run, digest):
    n, k, t, ell, grid, trials, seed, fixed = run
    ell = ell or design_constant(t)[1]
    points = run_sweep(n, k, t, grid, trials, seed, ell=ell, fixed_graph=fixed)
    text = sweep_csv(points, n, k, t, ell, seed)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
