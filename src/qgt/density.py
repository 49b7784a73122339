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
zero.  With x = lambda p, a fixed point p in (0, 1] is a root of
lambda = x / P[Poisson(x) >= t]^(ell-1), so the sharp threshold lambda_T(t, ell)
is the infimum of that ratio over x > 0.  The design constant is
c(t) = min over ell of ell / lambda_T(t, ell).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

from .gf2m import _integer


# The fixed point is reached once a round moves p by less than FIXED_POINT_TOL,
# counts as zero below P_ZERO, and is given up after MAX_ITERS rounds.
FIXED_POINT_TOL = 1e-10
P_ZERO = 1e-6
MAX_ITERS = 10_000
# the ell that c_of_t scans
ELL_RANGE = range(2, 13)


@dataclass(frozen=True)
class DeConfig:
    """Parameters of one density-evolution run.

    t and ell are integers (numpy integers included, held as ints) and lam a
    real number; a bool, or any other type, is refused by name.  t is in
    DESIGN_TABLE's range, 1..MAX_DE_T.
    """

    t: int
    ell: int
    lam: float

    def __post_init__(self):
        # frozen: each integer field holds the int that _integer returns
        for name in ("t", "ell"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        _check_t(self.t)
        if self.ell < 2:
            raise ValueError(f"ell must be >= 2, got {self.ell}")
        if not 0 < _real(self.lam, "lambda") < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")


def _check_t(t: int) -> None:
    """Raise ValueError naming t unless it is in DESIGN_TABLE's range.

    The Poisson sums are O(t) per evaluation, so a t far beyond the table
    would run for minutes rather than be refused.
    """
    if not 1 <= t <= MAX_DE_T:
        raise ValueError(f"t must be in 1..{MAX_DE_T}, got t={t}")


def _real(value, name: str):
    """value, or ValueError naming it unless it is a real number (not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class DeResult:
    p_star: float
    iterations: int
    converged_to_zero: bool


def de_step(p: float, cfg: DeConfig) -> float:
    """One round of the recursion; p = 0 is treated exactly (absorbing).

    p is a real number in [0, 1], or ValueError naming it.
    """
    try:  # a float's path is the bare range test
        if not 0.0 <= p <= 1.0:
            raise ValueError
    except (TypeError, ValueError):  # TypeError: a string or None does not compare
        raise ValueError(f"p must be a real number in [0, 1], got {p!r}") from None
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


def _log_poisson_tail(t: int, x: float) -> float:
    """log P[Poisson(x) >= t] for x > 0, without cancellation at small x.

    Below x = t + 10 the tail is e^-x x^t / t! sum_j x^j / ((t+1)...(t+j)),
    summed from k = t upward; above it 1 - head loses nothing.
    """
    if x < t + 10.0:
        term, total, k = 1.0, 1.0, t
        while term > 1e-17 * total:
            k += 1
            term *= x / k
            total += term
        return t * math.log(x) - x - math.lgamma(t + 1) + math.log(total)
    term = head = math.exp(-x)
    for k in range(1, t):
        term *= x / k
        head += term
    return math.log1p(-head)


@lru_cache(maxsize=None, typed=True)
def lambda_threshold(t: int, ell: int) -> float:
    """Largest density lambda at which the recursion still collapses to zero.

    A fixed point p in (0, 1] solves lambda = x / P[Poisson(x) >= t]^(ell-1)
    at x = lambda p, so lambda_T is the infimum of that ratio over x > 0.
    Its log h(u) at x = e^u is convex (the Gamma(t) CDF is log-concave in
    log x), and golden-section in u finds it to a bracket of 1e-10.  Every
    h(u) bounds log lambda_T >= log x* from above, which gives the right
    edge; at (t, ell) = (1, 2) the infimum sits at the left edge, x = 1e-8,
    where x / (1 - e^-x) = 1 + 5e-9.  t and ell are integers (a bool or a
    float refused by name; the cache keys by type, so neither finds the
    equal int's entry).  The right edge grows linearly in ell, and an ell
    that puts it beyond the log of the largest float (above ~9*10^6 at
    t = 2) is refused by name, and so is a t outside DESIGN_TABLE's range,
    1..MAX_DE_T.
    """
    t, ell = _integer(t, "t"), _integer(ell, "ell")
    if not 1 <= t <= MAX_DE_T or ell < 2:
        raise ValueError(f"need t in 1..{MAX_DE_T} and ell >= 2, got t={t}, ell={ell}")

    def h(u: float) -> float:
        return u - (ell - 1) * _log_poisson_tail(t, math.exp(u))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(1e-8), h(math.log(t + 10.0))
    if not b < math.log(sys.float_info.max):
        raise ValueError(f"ell={ell} is too large at t={t}: the search for "
                         "lambda_T would overflow a float")
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = h(c), h(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = h(d)
    return math.exp(h(0.5 * (a + b)))


@lru_cache(maxsize=None, typed=True)
def c_of_t(t: int) -> tuple[float, int]:
    """Design constant c(t) = min over ell in ELL_RANGE of ell / lambda_T(t, ell).

    Returns (c, ell_star); ties break toward the smaller ell.  t is an
    integer in 1..MAX_DE_T, as in lambda_threshold.
    """
    t = _integer(t, "t")
    _check_t(t)
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
    2: (0.596851, 2, 3.350919),
    3: (0.388395, 2, 5.149403),
    4: (0.294149, 2, 6.799275),
    5: (0.239082, 2, 8.365341),
    6: (0.202526, 2, 9.875291),
    7: (0.176303, 2, 11.344129),
    8: (0.156481, 2, 12.781100),
}
# the largest t the table holds, and the largest the density layer takes
MAX_DE_T = max(DESIGN_TABLE)


def design_constant(t: int) -> tuple[float, int]:
    """(c(t), ell_star) from the frozen table; t is an integer (a bool or a
    float, which would find the equal int's row, is refused by name)."""
    if _integer(t, "t") not in DESIGN_TABLE:
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
    n_items, k = _integer(n_items, "n_items"), _integer(k, "k")
    if not 1 <= k < n_items:
        raise ValueError(f"need 1 <= K < N, got K={k}, N={n_items}")
    c, ell_star = design_constant(t)
    m = paper_test_count(n_items, k, t, c, ell_star)
    return m, math.ceil(m)
