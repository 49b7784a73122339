"""The benchmark's workloads: seeded inputs, set-up, one op, output checks.

Every workload has a fixed list of seeded instances (``fixed_ops`` long, a
whole number of ``cycle`` blocks).  A run always completes that list, so
``success_rate`` and every per-layer count repeat exactly for a seed; a timed
run then keeps going over further instances of the same seeded sequence,
a whole block at a time, until the run's seconds are used up.  Instances
beyond the list only add timing samples.

All calls into qgt go through module attributes (``codec.decode``, not a
name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from qgt import bch, codec, density, gf2m, graphs, simulate

# cache_clear-bearing attributes, collected before any tracer wraps them
DENSITY_CACHES = [getattr(density, a) for a in dir(density)
                  if hasattr(getattr(density, a), "cache_clear")]
ALL_CACHES = [getattr(mod, a) for mod in (gf2m, bch, codec, graphs, simulate, density)
              for a in dir(mod) if hasattr(getattr(mod, a), "cache_clear")]

# tolerances of tests/test_density.py::test_design_table_matches_live_solver
C_TOL = 5e-4
LAMBDA_TOL = 5e-3

# checks re-encode with the encoder as imported, never a tracer's wrapper
_encode = codec.encode


def clear(caches) -> None:
    for fn in caches:
        fn.cache_clear()


@dataclass
class OpResult:
    ms: float  # the user-facing call(s) only; input generation and checks excluded
    successes: int  # exact recoveries, or thresholds that match the table
    wrong: str | None = None  # why the op counts as failed
    encode_ms: float | None = None
    decode_ms: float | None = None
    instances: int = 1


def check_decode(graph, sig, support: set[int], y: np.ndarray, outcome) -> str | None:
    """Why a decode output is wrong, or None.

    Wrong means: it named a non-defective, or it reported success without
    the recovered set being the support and re-encoding to y exactly.
    """
    extra = outcome.recovered - support
    if extra:
        return f"named {len(extra)} non-defective item(s)"
    if outcome.success:
        again = _encode(graph, sig, outcome.recovered)
        if outcome.recovered != support or not np.array_equal(again, y):
            return "reported success but the recovered set does not re-encode to y"
    return None


def timed_op(fn) -> OpResult:
    """Run fn() -> OpResult; an exception is a failed op, not a crash."""
    t0 = time.perf_counter()
    try:
        return fn()
    except Exception as exc:  # every op must be counted, whatever it raises
        return OpResult(ms=(time.perf_counter() - t0) * 1e3, successes=0,
                        wrong=f"raised {type(exc).__name__}: {exc}")


class Workload:
    name = ""
    fixed_ops = 0
    cycle = 1
    setup_reps = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> str | None:
        """Build the state ops need, from cold caches; return a problem or None."""
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def shape(self) -> dict:
        raise NotImplementedError


def _design_shape(p) -> dict:
    return {"N": p.n_items, "K": p.k, "t": p.t, "ell": p.ell, "M": p.m_groups,
            "r_max": p.r_max, "b": p.b, "s": p.s, "m_total": p.m_total}


class SweepFresh(Workload):
    """qgt simulate: run_trial with a new graph per trial.

    The budgets straddle the threshold (success goes from 0 to about 0.95),
    so decodes both stall and complete; graph sampling is ~90% of a trial.
    Trial (g, j) is seeded as in run_sweep.  One op is trial j at every
    budget: single trials are bimodal (about half need one more repair pass
    in sample_graph), which puts their median in the gap between the modes.
    """

    name = "sweep-fresh"
    n_items, k, t, ell = 1 << 16, 100, 2, 2
    grid = (12, 14, 16, 18, 20)  # m / K
    fixed_ops = 40
    setup_reps = 20

    def setup(self):
        clear(ALL_CACHES)
        self.configs = []
        for m_over_k in self.grid:
            m_groups = simulate.groups_within_budget(
                self.n_items, self.t, self.ell, int(round(m_over_k * self.k)))
            # fields and codes are cached; the trials' build_signature finds them warm
            codec.build_signature(self.t, math.ceil(self.n_items * self.ell / m_groups))
            self.configs.append(simulate.TrialConfig(
                n_items=self.n_items, k=self.k, t=self.t, ell=self.ell, m_groups=m_groups))
        return None

    def op(self, i):
        trials = [self.trial(g, i) for g in range(len(self.grid))]
        return OpResult(sum(r.ms for r in trials), sum(r.successes for r in trials),
                        "; ".join(r.wrong for r in trials if r.wrong) or None,
                        sum(r.encode_ms or 0.0 for r in trials),
                        sum(r.decode_ms or 0.0 for r in trials), len(trials))

    def trial(self, g: int, j: int) -> OpResult:
        """Trial j at budget index g, checked."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(g, j))
        seen = {}

        def run():
            with _capture(simulate, seen):
                t0 = time.perf_counter()
                ok, _ = simulate.run_trial(self.configs[g], seq)
                ms = (time.perf_counter() - t0) * 1e3
            if "outcome" not in seen:
                return OpResult(ms, 0, "run_trial did not call encode and decode")
            wrong = check_decode(seen["graph"], seen["sig"], seen["support"],
                                 seen["y"], seen["outcome"])
            exact = seen["outcome"].recovered == seen["support"]
            if wrong is None and ok != exact:
                wrong = "run_trial's verdict disagrees with the decode output"
            return OpResult(ms, int(exact), wrong, seen["encode_ms"], seen["decode_ms"])

        return timed_op(run)

    def shape(self):
        out = []
        for m_over_k, cfg in zip(self.grid, self.configs):
            r_max = math.ceil(self.n_items * self.ell / cfg.m_groups)
            b = codec.field_degree_for(r_max, self.t)
            out.append({"m_over_K": m_over_k, "N": self.n_items, "K": self.k, "t": self.t,
                        "ell": self.ell, "M": cfg.m_groups, "r_max": r_max, "b": b,
                        "s": self.t * b + 1, "m_total": cfg.m_groups * (self.t * b + 1) + 1})
        return {"budgets": out}


@contextmanager
def _capture(module, seen: dict):
    """Record the encode/decode inputs and outputs of one run_trial call.

    Wraps whatever ``module.encode``/``module.decode`` are (the originals, or
    the tracer's wrappers) for the duration of the call only.
    """
    enc, dec = module.encode, module.decode

    def encode(graph, sig, support):
        t0 = time.perf_counter()
        y = enc(graph, sig, support)
        seen.update(encode_ms=(time.perf_counter() - t0) * 1e3,
                    graph=graph, sig=sig, support=set(support), y=y)
        return y

    def decode(graph, sig, y, *args, **kwargs):
        t0 = time.perf_counter()
        outcome = dec(graph, sig, y, *args, **kwargs)
        seen.update(decode_ms=(time.perf_counter() - t0) * 1e3, outcome=outcome)
        return outcome

    module.encode, module.decode = encode, decode
    try:
        yield
    finally:
        module.encode, module.decode = enc, dec


class FixedDesignDecode(Workload):
    """Encode then decode fresh seeded supports against one design."""

    design_args: tuple = ()

    def setup(self):
        clear(ALL_CACHES)
        self.params = codec.derive_params(*self.design_args)
        p = self.params
        graph_seed = int(np.random.SeedSequence(self.seed, spawn_key=(0,)).generate_state(1)[0])
        self.graph = None  # let the previous repetition's graph go first
        self.graph = graphs.sample_graph(p.n_items, p.m_groups, p.ell, seed=graph_seed)
        self.sig = codec.build_signature(p.t, self.graph.max_right_degree)
        return None

    def op(self, i):
        p = self.params
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(1, i)))
        support = set(rng.choice(p.n_items, size=p.k, replace=False).tolist())

        def run():
            t0 = time.perf_counter()
            y = codec.encode(self.graph, self.sig, support)
            t1 = time.perf_counter()
            outcome = codec.decode(self.graph, self.sig, y)
            t2 = time.perf_counter()
            wrong = check_decode(self.graph, self.sig, support, y, outcome)
            return OpResult((t2 - t0) * 1e3, int(outcome.recovered == support), wrong,
                            (t1 - t0) * 1e3, (t2 - t1) * 1e3)

        return timed_op(run)

    def shape(self):
        return _design_shape(self.params)


class DecodeWideField(FixedDesignDecode):
    """b=15: the Chien scan is most of decode; the 2^20 graph is set-up work."""

    name = "decode-wide-field"
    design_args = (1 << 20, 100, 2)
    fixed_ops = 200
    setup_reps = 3


class DecodeManyDefectives(FixedDesignDecode):
    """b=8, ~500 cheap resolves per decode: the opposite use of codec/bch to
    decode-wide-field (peeling, re-checks, Berlekamp-Massey, syndrome packing)."""

    name = "decode-many-defectives"
    design_args = (1 << 16, 1000, 3)
    fixed_ops = 200
    setup_reps = 10


class DesignThreshold(Workload):
    """qgt table --solve: c(t) from cold caches; the only density workload.

    The seed only orders t; each op is checked against DESIGN_TABLE.
    """

    name = "design-threshold"
    ts = (2, 3, 4)
    ell_range = (2, 12)  # c_of_t's defaults
    cycle = len(ts)
    fixed_ops = 3 * len(ts)
    setup_reps = 20

    def __init__(self, seed):
        super().__init__(seed)
        self.order = [int(t) for t in np.random.default_rng(seed).permutation(self.ts)]

    def setup(self):
        """Check that each tabulated lambda_T is within 0.01% of the DE threshold.

        The solver bisects to 1e-4 absolute, well inside that margin.
        """
        clear(DENSITY_CACHES)
        for t in self.ts:
            _, ell, lam = density.DESIGN_TABLE[t]
            below = density.de_fixed_point(density.DeConfig(t=t, ell=ell, lam=lam * 0.9999))
            above = density.de_fixed_point(density.DeConfig(t=t, ell=ell, lam=lam / 0.9999))
            if not below.converged_to_zero or above.converged_to_zero:
                return f"DESIGN_TABLE lambda_T for t={t} is not at the DE threshold"
        return None

    def op(self, i):
        t = self.order[i % len(self.order)]

        def run():
            clear(DENSITY_CACHES)
            t0 = time.perf_counter()
            c, ell = density.c_of_t(t)
            lam = density.lambda_threshold(t, ell)
            ms = (time.perf_counter() - t0) * 1e3
            c_ref, ell_ref, lam_ref = density.DESIGN_TABLE[t]
            wrong = None
            if ell != ell_ref or abs(c - c_ref) > C_TOL or abs(lam - lam_ref) > LAMBDA_TOL:
                wrong = (f"t={t}: solved (c={c:.6f}, ell={ell}, lambda={lam:.6f}) "
                         f"against table ({c_ref}, {ell_ref}, {lam_ref})")
            return OpResult(ms, int(wrong is None), wrong)

        return timed_op(run)

    def shape(self):
        return {"t_order": self.order, "ell_range": list(self.ell_range),
                "table": {t: list(density.DESIGN_TABLE[t]) for t in self.ts}}


WORKLOADS = {w.name: w for w in (SweepFresh, DecodeWideField, DecodeManyDefectives,
                                 DesignThreshold)}
