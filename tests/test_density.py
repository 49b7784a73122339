"""Density evolution recursion, thresholds, and the design-constant table."""

import contextlib
import math
import signal

import numpy as np
import pytest
from scipy.stats import binom, poisson

from qgt.density import (
    DESIGN_TABLE,
    MAX_DE_T,
    DeConfig,
    _log_poisson_tail,
    c_of_t,
    de_fixed_point,
    de_step,
    design_constant,
    lambda_threshold,
)
from qgt.density import tests_needed as formula_test_count


def summed_step(p, t, ell, lam):
    """The recursion summed term by term, without Poisson thinning.

    The other-defective degree i is Poisson(lam), truncated far into its
    tail; a node of degree i resolves when Binom(i, p) <= t-1.
    """
    i = np.arange(int(lam + 12.0 * math.sqrt(lam) + 40.0))
    q = float(np.sum(poisson.pmf(i, lam) * binom.cdf(t - 1, i, p)))
    return (1.0 - min(q, 1.0)) ** (ell - 1)


def test_de_step_matches_summed_oracle():
    rng = np.random.default_rng(20261018)
    ps = rng.uniform(0.0, 1.0, 2000)
    ps[:20], ps[20:40] = 0.0, 1.0
    for p in ps:
        t, ell = int(rng.integers(1, 9)), int(rng.integers(2, 13))
        lam = float(rng.uniform(0.05, 60.0))
        got = de_step(float(p), DeConfig(t=t, ell=ell, lam=lam))
        assert got == pytest.approx(summed_step(p, t, ell, lam), abs=1e-12, rel=0), \
            (t, ell, lam, p)


def test_de_step_zero_is_absorbing():
    cfg = DeConfig(t=2, ell=3, lam=4.0)
    assert de_step(0.0, cfg) == 0.0


def test_de_step_rejects_bad_p():
    cfg = DeConfig(t=1, ell=2, lam=1.0)
    with pytest.raises(ValueError):
        de_step(-0.1, cfg)
    with pytest.raises(ValueError):
        de_step(1.1, cfg)


def test_de_step_matches_t1_closed_form():
    # at t = 1 a node resolves only with no unresolved other neighbor
    for ell in (2, 3, 5):
        for lam in (0.5, 1.7, 3.0):
            cfg = DeConfig(t=1, ell=ell, lam=lam)
            for p in (1.0, 0.9, 0.5, 0.1, 1e-3, 1e-8):
                assert de_step(p, cfg) == pytest.approx(
                    (-math.expm1(-lam * p)) ** (ell - 1), abs=1e-10
                )


def test_de_step_p1_value():
    # at p = 1 a node helps only if its defective degree is <= t
    t, ell, lam = 2, 3, 4.0
    cfg = DeConfig(t=t, ell=ell, lam=lam)
    q = poisson.cdf(t - 1, lam)  # P[other-defective degree <= t - 1]
    assert de_step(1.0, cfg) == pytest.approx((1.0 - q) ** (ell - 1), rel=1e-12)


def test_trajectory_monotone_on_random_grid():
    rng = np.random.default_rng(42)
    for _ in range(100):
        cfg = DeConfig(
            t=int(rng.integers(1, 9)),
            ell=int(rng.integers(2, 13)),
            lam=float(rng.uniform(0.05, 40.0)),
        )
        p = 1.0
        for _ in range(200):
            p_next = de_step(p, cfg)
            assert p_next <= p + 1e-12
            if p_next == p:
                break
            p = p_next


def test_fixed_point_below_and_above_threshold():
    r = de_fixed_point(DeConfig(t=1, ell=3, lam=2.0))
    assert r.converged_to_zero
    assert r.p_star < 1e-6
    r = de_fixed_point(DeConfig(t=1, ell=3, lam=3.0))
    assert not r.converged_to_zero
    assert r.p_star > 0.1


def test_threshold_t1_values():
    assert lambda_threshold(1, 2) == pytest.approx(1.0, abs=1e-3)
    assert lambda_threshold(1, 3) == pytest.approx(2.4554, abs=1e-3)


def test_threshold_dichotomy_t1():
    # the closed-form threshold must agree with the recursion's behavior
    for ell in (2, 3):
        lam_t = lambda_threshold(1, ell)
        assert de_fixed_point(DeConfig(t=1, ell=ell, lam=lam_t - 0.01)).converged_to_zero
        assert not de_fixed_point(DeConfig(t=1, ell=ell, lam=lam_t + 0.01)).converged_to_zero


def test_threshold_t2_dichotomy():
    lam_t = lambda_threshold(2, 2)
    assert lam_t == pytest.approx(2.0 / 0.597, abs=0.02)
    assert de_fixed_point(DeConfig(t=2, ell=2, lam=lam_t - 0.01)).converged_to_zero
    assert not de_fixed_point(DeConfig(t=2, ell=2, lam=lam_t + 0.01)).converged_to_zero


def test_threshold_dichotomy_all_pairs():
    # the recursion collapses 0.01% below lambda_T and stalls 0.01% above it;
    # at (1, 2) the collapse near lambda_T = 1 takes more than MAX_ITERS
    # rounds, and x / (1 - e^-x) -> 1 as x -> 0 gives the value instead
    for t in range(1, 9):
        for ell in range(2, 13):
            lam_t = lambda_threshold(t, ell)
            if (t, ell) == (1, 2):
                assert lam_t == pytest.approx(1.0, abs=1e-6)
                continue
            below = de_fixed_point(DeConfig(t=t, ell=ell, lam=lam_t * (1 - 1e-4)))
            above = de_fixed_point(DeConfig(t=t, ell=ell, lam=lam_t * (1 + 1e-4)))
            assert below.converged_to_zero, (t, ell, lam_t)
            assert not above.converged_to_zero, (t, ell, lam_t)


def test_poisson_tail_matches_scipy():
    xs = np.geomspace(1e-8, 300.0, 4001)
    for t in range(1, 9):
        ref = poisson.sf(t - 1, xs)
        got = np.exp([_log_poisson_tail(t, float(x)) for x in xs])
        assert np.max(np.abs(got - ref) / ref) < 1e-12, t


def test_threshold_matches_grid_minimum():
    # lambda_T is the minimum of x / P[Poisson(x) >= t]^(ell-1); a log grid
    # with ratio 1 + 5e-4 between points pins that minimum to ~2e-7
    xs = np.geomspace(1e-8, 100.0, 46053)
    for t in range(1, 9):
        tail = poisson.sf(t - 1, xs)
        for ell in range(2, 13):
            with np.errstate(divide="ignore", over="ignore"):
                grid_min = float(np.min(xs / tail ** (ell - 1)))
            assert lambda_threshold(t, ell) == pytest.approx(grid_min, rel=1e-6), (t, ell)


def test_design_table_matches_live_solver():
    # frozen constants were produced by this solver; t=1 and t=2 are cheap to
    # re-derive here, the full live sweep runs in the acceptance suite
    for t in (1, 2):
        c_live, ell_live = c_of_t(t)
        c_frozen, ell_frozen, lam_frozen = DESIGN_TABLE[t]
        assert ell_live == ell_frozen
        assert c_live == pytest.approx(c_frozen, abs=5e-4)
        assert lambda_threshold(t, ell_live) == pytest.approx(lam_frozen, abs=5e-3)


# (c(t), ell_star, lambda_T(t, ell_star)) as exact floats, so a change to the
# Poisson tail or the search cannot move them unnoticed; DESIGN_TABLE is these
# rounded to six decimals.
SOLVER_FLOATS = {
    1: (1.2217931327672213, 3, 2.455407482284128),
    2: (0.5968512150512785, 2, 3.3509188715116713),
    3: (0.388394557246555, 2, 5.14940274698646),
    4: (0.2941489873954924, 2, 6.79927548861808),
    5: (0.23908171286471014, 2, 8.36534077004771),
    6: (0.20252568311416577, 2, 9.87529072484392),
    7: (0.17630265118395294, 2, 11.344128897490112),
    8: (0.15648105777830656, 2, 12.781099695999536),
}


@pytest.mark.parametrize("t", sorted(SOLVER_FLOATS))
def test_solver_output_pinned(t):
    c, ell_star, lam = SOLVER_FLOATS[t]
    assert c_of_t(t) == (c, ell_star)
    assert lambda_threshold(t, ell_star) == lam
    assert DESIGN_TABLE[t] == (round(c, 6), ell_star, round(lam, 6))


def test_design_constant_paths():
    assert design_constant(1) == (1.221793, 3)
    assert design_constant(2)[1] == 2
    with pytest.raises(ValueError):
        design_constant(9)


def test_tests_needed_reference_value():
    # 1385.9 with the six-digit constant; the three-digit printed constant
    # gives 1386.2, so both land at "about 1387"
    m_real, m_ceil = formula_test_count(2 ** 16, 100, 2)
    assert m_real == pytest.approx(1387, abs=2.0)
    assert m_ceil in (1386, 1387)


def test_tests_needed_minimum_over_t():
    values = {t: formula_test_count(2 ** 16, 100, t)[0] for t in range(1, 9)}
    assert min(values, key=values.get) == 2


def test_tests_needed_validation():
    with pytest.raises(ValueError):
        formula_test_count(100, 100, 1)
    with pytest.raises(ValueError):
        formula_test_count(100, 0, 1)
    # (65536, 100.5, 2) gave 1392 tests, and K = True gave K = 1's count
    for args, name, bad in (((65536, 100.5, 2), "k", 100.5),
                            ((65536.0, 100, 2), "n_items", 65536.0),
                            ((65536, True, 2), "k", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            formula_test_count(*args)
    want = formula_test_count(65536, 100, 2)
    assert formula_test_count(np.int64(65536), np.int64(100), 2) == want


def test_config_validation():
    with pytest.raises(ValueError):
        DeConfig(t=0, ell=2, lam=1.0)
    with pytest.raises(ValueError):
        DeConfig(t=1, ell=1, lam=1.0)
    with pytest.raises(ValueError):
        DeConfig(t=1, ell=2, lam=0.0)
    for lam in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            DeConfig(t=1, ell=2, lam=lam)
    # True ran as t = 1, ell = 2.5 ran, and 2.0 ended in range()'s TypeError
    for t, ell, name, bad in ((True, 2, "t", True), (2.0, 2, "t", 2.0), (2, 2.5, "ell", 2.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            DeConfig(t=t, ell=ell, lam=3.0)
    DeConfig(t=np.int64(2), ell=np.int64(2), lam=3.0)


def test_threshold_rejects_bad_degrees():
    for t, ell in ((0, 2), (1, 1), (2, 1)):
        with pytest.raises(ValueError, match="ell >= 2"):
            lambda_threshold(t, ell)
    # ell = 2.5 gave a threshold, and t = 2.0 ended in range()'s TypeError
    for t, ell, name, bad in ((2, 2.5, "ell", 2.5), (2.0, 2, "t", 2.0), (2, True, "ell", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad!r}"):
            lambda_threshold(t, ell)


@contextlib.contextmanager
def within_a_second(*what):
    """Fail, rather than hang, a block that runs past a second (a real-time
    timer's signal interrupts the pure-Python loops of this module)."""
    def expire(signum, frame):
        raise TimeoutError(f"{what} ran past a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_de_layer_refuses_a_t_outside_the_table():
    # the Poisson sums are O(t): lambda_threshold(2**70, 2) and c_of_t(2**70)
    # did not return within 5 s, and c_of_t(10**6) took ~30 s
    assert sorted(DESIGN_TABLE) == list(range(1, MAX_DE_T + 1))
    calls = {"lambda_threshold": lambda t: lambda_threshold(t, 2), "c_of_t": c_of_t,
             "DeConfig": lambda t: DeConfig(t=t, ell=2, lam=3.0)}
    for name, call in calls.items():
        for t in (2 ** 70, 10 ** 6, MAX_DE_T + 1, 0, -1):
            with within_a_second(name, t), \
                    pytest.raises(ValueError, match=f"t.*1..{MAX_DE_T}.*got t={t}\\b"):
                call(t)
    # the table's last row is still solved
    assert DeConfig(t=MAX_DE_T, ell=2, lam=3.0).t == MAX_DE_T
    assert c_of_t(MAX_DE_T) == pytest.approx(DESIGN_TABLE[MAX_DE_T][:2], abs=1e-6)


def test_threshold_refuses_an_ell_its_search_cannot_hold():
    # the search's right edge grows linearly in ell; at ell = 2^70 the final
    # exp raised OverflowError, and at t = 2 every ell above ~8.9e6 did too
    for t, ell in ((2, 2 ** 70), (2, 10 ** 9), (8, 10 ** 6)):
        with pytest.raises(ValueError, match=f"ell={ell} is too large at t={t}"):
            lambda_threshold(t, ell)
    # just inside the bound the threshold is finite and still grows with ell
    assert lambda_threshold(2, 10 ** 6) < lambda_threshold(2, 8_000_000) < 24
