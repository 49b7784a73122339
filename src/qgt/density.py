"""Density evolution for the peeling decoder, thresholds, and test counts.

State p_j is the probability that a defective item is still unresolved after
round j.  A right node resolves when at most t of its other defective
neighbors are unresolved.  Along an edge, the number X of other defective
neighbors is Poisson(lambda) (lambda = K*ell/M), and each is unresolved with
probability p_j, so the unresolved count is Binom(X, p_j).  By Poisson
thinning that count is Poisson(lambda p_j), and the recursion is

    q_j = P[Poisson(lambda p_j) <= t-1] = e^(-lambda p_j) sum_{k<t} (lambda p_j)^k / k!
    p_{j+1} = (1 - q_j)^(ell-1)

one t-term sum per round.  At t = 1 this is p_{j+1} = (1 - e^(-lambda p_j))^(ell-1).

The decoder succeeds (asymptotically) iff the iteration from p=1 collapses to
zero, which happens exactly below a sharp threshold lambda_T(t, ell).  The
design constant is c(t) = min over ell of ell / lambda_T(t, ell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


# The fixed point is reached once a round moves p by less than FIXED_POINT_TOL,
# counts as zero below P_ZERO, and is given up after MAX_ITERS rounds.
FIXED_POINT_TOL = 1e-10
P_ZERO = 1e-6
MAX_ITERS = 10_000
# lambda_threshold's bracket width at t >= 2, and the ell that c_of_t scans
THRESHOLD_TOL = 1e-4
ELL_RANGE = range(2, 13)


@dataclass(frozen=True)
class DeConfig:
    """Parameters of one density-evolution run."""

    t: int
    ell: int
    lam: float

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if self.ell < 2:
            raise ValueError(f"ell must be >= 2, got {self.ell}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class DeResult:
    p_star: float
    iterations: int
    converged_to_zero: bool


def de_step(p: float, cfg: DeConfig) -> float:
    """One round of the recursion; p = 0 is treated exactly (absorbing)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return 0.0  # q = P[Poisson(0) <= t-1] = 1, exactly
    x = cfg.lam * p
    term = math.exp(-x)  # e^-x x^k / k!, a pmf value, so it never overflows
    q = term
    for k in range(1, cfg.t):
        term *= x / k
        q += term
    q = min(q, 1.0)
    return (1.0 - q) ** (cfg.ell - 1)


def de_fixed_point(cfg: DeConfig) -> DeResult:
    """Iterate from p = 1 until the state stalls, collapses, or iters run out.

    The trajectory must be nonincreasing (checked; a violation beyond float
    tolerance raises).  Once p drops below P_ZERO the limit is below P_ZERO
    too, so the run stops early and counts as converged to zero.
    """
    p = 1.0
    for it in range(1, MAX_ITERS + 1):
        p_next = de_step(p, cfg)
        if p_next > p + 1e-12:
            raise RuntimeError(
                f"density evolution increased: p={p} -> {p_next} at {cfg}"
            )
        if p_next < P_ZERO:
            return DeResult(p_star=p_next, iterations=it, converged_to_zero=True)
        if abs(p - p_next) < FIXED_POINT_TOL:
            return DeResult(p_star=p_next, iterations=it, converged_to_zero=False)
        p = p_next
    return DeResult(p_star=p, iterations=MAX_ITERS, converged_to_zero=False)


def _collapses(t: int, ell: int, lam: float) -> bool:
    return de_fixed_point(DeConfig(t=t, ell=ell, lam=lam)).converged_to_zero


@lru_cache(maxsize=None)
def lambda_threshold(t: int, ell: int) -> float:
    """Largest density lambda at which the recursion still collapses to zero.

    t = 1 has the closed form inf_x -log(1 - x^(1/(ell-1)))/x on (0, 1),
    found by golden-section (the objective is unimodal; for ell = 2 the
    infimum sits at the left edge).  t >= 2 bisects the collapse indicator,
    growing the upper bracket until it straddles, down to a bracket of width
    THRESHOLD_TOL.
    """
    if t < 1 or ell < 2:
        raise ValueError(f"need t >= 1 and ell >= 2, got t={t}, ell={ell}")
    if t == 1:
        return _lambda_threshold_t1(ell)
    lo, hi = 0.01, 5.0 * ell
    if not _collapses(t, ell, lo):
        raise RuntimeError(f"no collapse even at lambda={lo} for t={t}, ell={ell}")
    grow = 0
    while _collapses(t, ell, hi):
        hi *= 2.0
        grow += 1
        if grow > 10:
            raise RuntimeError(f"threshold above {hi} for t={t}, ell={ell}?")
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if _collapses(t, ell, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _lambda_threshold_t1(ell: int) -> float:
    def objective(x: float) -> float:
        return -math.log1p(-(x ** (1.0 / (ell - 1)))) / x

    lo, hi = 1e-9, 1.0 - 1e-9
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return objective(0.5 * (a + b))


@lru_cache(maxsize=None)
def c_of_t(t: int) -> tuple[float, int]:
    """Design constant c(t) = min over ell in ELL_RANGE of ell / lambda_T(t, ell).

    Returns (c, ell_star); ties break toward the smaller ell.
    """
    best = None
    for ell in ELL_RANGE:
        ratio = ell / lambda_threshold(t, ell)
        if best is None or ratio < best[0] - 1e-12:
            best = (ratio, ell)
    return best


# Frozen copy of the solver's own output (c, ell_star, lambda_T(t, ell_star)),
# so that designs and simulations do not re-run the threshold search.  A unit
# test checks these against the live c_of_t values.
DESIGN_TABLE = {
    1: (1.221793, 3, 2.455407),
    2: (0.596857, 2, 3.350886),
    3: (0.388395, 2, 5.149394),
    4: (0.294149, 2, 6.799278),
    5: (0.239082, 2, 8.365322),
    6: (0.202526, 2, 9.875270),
    7: (0.176302, 2, 11.344166),
    8: (0.156481, 2, 12.781130),
}


def design_constant(t: int) -> tuple[float, int]:
    """(c(t), ell_star) from the frozen table."""
    if t not in DESIGN_TABLE:
        raise ValueError(f"no tabulated constant for t={t}")
    c, ell_star, _ = DESIGN_TABLE[t]
    return c, ell_star


def paper_test_count(n_items: int, k: int, t: int, c: float, ell: int) -> float:
    """The paper's test count c K (t log2(ell N / (c K) + 1) + 1) + 1."""
    return c * k * (t * math.log2(ell * n_items / (c * k) + 1.0) + 1.0) + 1.0


def tests_needed(n_items: int, k: int, t: int) -> tuple[float, int]:
    """Test count m(N, K, t) from paper_test_count at c(t) and ell_star.

    Returns (real value, ceiling).  This is the information-order bound the
    design aims for; an engineered design rounds the field degree up and so
    uses slightly more (see derive_params).
    """
    if not 1 <= k < n_items:
        raise ValueError(f"need 1 <= K < N, got K={k}, N={n_items}")
    c, ell_star = design_constant(t)
    m = paper_test_count(n_items, k, t, c, ell_star)
    return m, math.ceil(m)
