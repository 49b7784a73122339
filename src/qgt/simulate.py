"""Monte Carlo harness: seeded trials, budget sweeps, CSV output.

Per-trial randomness is position-derived: trial (g, j) of a sweep draws its
stream from SeedSequence(master_seed, spawn_key=(g, j)), so results do not
depend on execution order and any subset of trials can be reproduced.

A trial runs on one design, codec.TrialConfig, re-exported here: run_sweep
turns each budget into the largest M that fits it (groups_within_budget)
and reads the tests it spends, m_used, off that design's m_total.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .codec import TrialConfig, build_signature, decode, design_ell, encode, group_shape
from .density import _real
from .gf2m import MIN_DEGREE, _integer
from .graphs import sample_defectives, sample_graph

CSV_COLUMNS = ["m_over_K", "t", "ell", "N", "K", "trials",
               "success_rate", "mean_unidentified", "stderr", "seed"]


@dataclass
class SweepPoint:
    m_over_k: float
    m_used: int
    m_groups: int
    trials: int
    success_rate: float
    mean_unidentified: float
    stderr: float


def run_trial(cfg: TrialConfig, trial_seed, graph=None) -> tuple[bool, float]:
    """One trial: sample support (and graph unless given), encode, decode.

    Without a graph only the defectives' edges are sampled
    (graphs.sample_defectives): on genuine input every group with count <= t
    resolves, so which groups the defectives sit in decides the decode.
    Returns (exact recovery?, fraction of defectives left unidentified).
    """
    rng = np.random.default_rng(trial_seed)
    graph_seed = int(rng.integers(1 << 62)) if graph is None else None
    items = rng.choice(cfg.n_items, size=cfg.k, replace=False)
    if graph is None:
        graph = sample_defectives(cfg.n_items, cfg.m_groups, cfg.ell, items,
                                  seed=graph_seed)
    support = set(items.tolist())
    sig = build_signature(cfg.t, graph.max_right_degree)
    y = encode(graph, sig, support)
    outcome = decode(graph, sig, y)
    missed = len(support - outcome.recovered)
    fraction = missed / cfg.k if cfg.k else 0.0
    return outcome.recovered == support, fraction


def groups_within_budget(n_items: int, t: int, ell: int, m_budget: int) -> int:
    """Largest M with M * s(M) + 1 <= m_budget.  Fewer groups are larger, so
    s(M) only grows as M falls: if M overspends at s, so does every M' above
    (m_budget - 1) // s, which is below M and the next M tried.  N, t, ell
    and m_budget are integers (a bool or a float refused by name).
    """
    n_items, ell = _integer(n_items, "n_items"), _integer(ell, "ell")
    t, m_budget = _integer(t, "t"), _integer(m_budget, "m_budget")
    m = min((m_budget - 1) // (t * MIN_DEGREE + 1), n_items * ell)  # s >= t*MIN_DEGREE + 1
    while m >= max(ell, 1):
        try:
            _, _, s = group_shape(n_items, ell, m, t)
        except ValueError:
            break  # r_max too large for the field table, here and below
        if m * s + 1 <= m_budget:
            return m
        m = (m_budget - 1) // s
    raise ValueError(f"no feasible design fits m_budget={m_budget} "
                     f"(N={n_items}, t={t}, ell={ell})")


def run_sweep(n_items: int, k: int, t: int, m_over_k_grid, trials: int,
              master_seed: int, ell: int | str = "auto",
              fixed_graph: bool = False) -> list[SweepPoint]:
    """Success statistics across a grid of test budgets m = (m/K) * K.

    Each grid point inverts its budget to the largest feasible M, then runs
    `trials` independent trials.  fixed_graph reuses one graph per grid point
    instead of resampling per trial.  master_seed is a non-negative int
    (numpy integers included, a bool refused), the entropy of every trial's
    SeedSequence.  m_over_k_grid is an iterable of real numbers (not bools).
    """
    master_seed = _integer(master_seed, "master_seed")
    if _integer(trials, "trials") < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if master_seed < 0:
        raise ValueError(f"master_seed must be a non-negative integer, got {master_seed}")
    try:
        grid = [_real(m_over_k, "m/K") for m_over_k in m_over_k_grid]
    except (TypeError, ValueError):
        raise ValueError(f"the m/K grid must be an iterable of real numbers, "
                         f"got {m_over_k_grid!r}") from None
    ell = design_ell(n_items, k, t, ell)
    for m_over_k in grid:
        if not math.isfinite(m_over_k * k):
            raise ValueError(f"m/K = {m_over_k:g} gives no finite test budget at K={k}")
    points = []
    for g_idx, m_over_k in enumerate(grid):
        m_budget = int(round(m_over_k * k))
        cfg = TrialConfig(n_items, k, t, ell, groups_within_budget(n_items, t, ell, m_budget))
        graph = None
        if fixed_graph:
            base = np.random.SeedSequence(master_seed, spawn_key=(g_idx,))
            graph = sample_graph(cfg.n_items, cfg.m_groups, cfg.ell,
                                 seed=int(base.generate_state(1)[0]))
        successes = 0
        fractions = np.zeros(trials)
        for j in range(trials):
            seq = np.random.SeedSequence(master_seed, spawn_key=(g_idx, j))
            ok, frac = run_trial(cfg, seq, graph=graph)
            successes += ok
            fractions[j] = frac
        stderr = float(fractions.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        points.append(SweepPoint(
            m_over_k=float(m_over_k), m_used=cfg.m_total, m_groups=cfg.m_groups,
            trials=trials, success_rate=successes / trials,
            mean_unidentified=float(fractions.mean()), stderr=stderr,
        ))
    return points


def sweep_csv(points: list[SweepPoint], n_items: int, k: int, t: int, ell: int,
              master_seed: int) -> str:
    """Render sweep results in the fixed CSV schema."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for p in points:
        writer.writerow([
            f"{p.m_over_k:g}", t, ell, n_items, k, p.trials,
            f"{p.success_rate:.6f}", f"{p.mean_unidentified:.6f}",
            f"{p.stderr:.6f}", master_seed,
        ])
    return buf.getvalue()
