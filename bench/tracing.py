"""In-memory span tracer that wraps qgt's public functions from outside.

Nothing in qgt is edited: the tracer replaces module attributes and class
attributes with wrappers while it is installed and puts the originals back
when it is removed.  A ``from .x import f`` binds its own name in the
importing module, so every qgt module attribute that *is* the original
function gets the wrapper, not only the defining one (``qgt.simulate.decode``
as well as ``qgt.codec.decode``).

Two kinds of probe:

* span probes record (name, start, end, parent, op, failed) for every call,
  so totals, self time (duration minus direct children) and per-op shares
  can be computed afterwards;
* counter probes, for functions called hundreds of thousands of times per
  op (``GF2m.mul``, ``de_step``), only count calls and, when asked, sum
  their time.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

_clock = time.perf_counter

# name -> (module, attribute path); the module is where the original lives
SPAN_TARGETS = {
    "graphs.sample_graph": ("qgt.graphs", "sample_graph"),
    "graphs.BiRegularGraph": ("qgt.graphs", "BiRegularGraph.__init__"),
    "codec.encode": ("qgt.codec", "encode"),
    "codec.decode": ("qgt.codec", "decode"),
    "codec.resolve_node": ("qgt.codec", "resolve_node"),
    "codec.build_signature": ("qgt.codec", "build_signature"),
    "bch.syndrome_from_bits": ("qgt.bch", "syndrome_from_bits"),
    "bch.decode_syndrome": ("qgt.bch", "decode_syndrome"),
    "bch.find_error_locator": ("qgt.bch", "find_error_locator"),
    "bch.find_roots": ("qgt.bch", "find_roots"),
    "gf2m.make_field": ("qgt.gf2m", "make_field"),
    "density.lambda_threshold": ("qgt.density", "lambda_threshold"),
    "simulate.run_trial": ("qgt.simulate", "run_trial"),
    "simulate.groups_within_budget": ("qgt.simulate", "groups_within_budget"),
}

# name -> (module, attribute path, also sum the time spent in calls?)
COUNTER_TARGETS = {
    "gf2m.mul": ("qgt.gf2m", "GF2m.mul", False),
    "gf2m.element_from_bits": ("qgt.gf2m", "GF2m.element_from_bits", False),
    "density.de_fixed_point": ("qgt.density", "de_fixed_point", False),
    "density.de_step": ("qgt.density", "de_step", True),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: int  # -1 during set-up
    failed: bool = False
    result: object = None


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans and counts while installed; see the module docstring.

    ``result_hooks`` keep a span's return value only where a metric needs it
    (graph retries, decode rounds, useful resolves), so the trace does not
    hold on to graphs or residual arrays.
    """

    result_hooks = {
        "graphs.sample_graph": lambda graph: graph.retries,
        "codec.decode": lambda outcome: outcome.iterations,
        "codec.resolve_node": lambda positions: positions is not None,
    }

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.counter_seconds: defaultdict = defaultdict(float)
        self.op = -1
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for name, (module, path) in SPAN_TARGETS.items():
            self._patch(module, path, self._span_wrapper(name))
        for name, (module, path, timed) in COUNTER_TARGETS.items():
            self._patch(module, path, self._counter_wrapper(name, timed))
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            # every qgt module that bound the same object by a from-import
            targets = [(mod, key) for mod_name, mod in list(sys.modules.items())
                       if mod is not None and (mod_name == "qgt" or mod_name.startswith("qgt."))
                       for key, value in list(vars(mod).items()) if value is original]
        for tgt, key in targets:
            self._patches.append((tgt, key, getattr(tgt, key)))
            setattr(tgt, key, wrapper)

    def _span_wrapper(self, name: str):
        hook = self.result_hooks.get(name)

        def make(original):
            def traced(*args, **kwargs):
                if not self.enabled:
                    return original(*args, **kwargs)
                idx = len(self.spans)
                span = Span(name, _clock(), 0.0,
                            self._stack[-1] if self._stack else -1, self.op)
                self.spans.append(span)
                self._stack.append(idx)
                try:
                    out = original(*args, **kwargs)
                except Exception:
                    span.failed = True
                    raise
                finally:
                    span.end = _clock()
                    self._stack.pop()
                if hook is not None:
                    span.result = hook(out)
                return out

            traced.__wrapped__ = original
            return traced

        return make

    def _counter_wrapper(self, name: str, timed: bool):
        counts, seconds = self.counts, self.counter_seconds

        def make(original):
            if timed:
                def counted(*args, **kwargs):
                    if not self.enabled:
                        return original(*args, **kwargs)
                    counts[name] += 1
                    t0 = _clock()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        seconds[name] += _clock() - t0
            else:
                def counted(*args, **kwargs):
                    if self.enabled:
                        counts[name] += 1
                    return original(*args, **kwargs)

            counted.__wrapped__ = original
            return counted

        return make

    # -- reading ----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """(total seconds, self seconds) per span name."""
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        for span in self.spans:
            dur = span.end - span.start
            total[span.name] += dur
            if span.parent >= 0:
                child[span.parent] += dur
        self_time: defaultdict = defaultdict(float)
        for idx, span in enumerate(self.spans):
            self_time[span.name] += (span.end - span.start) - child[idx]
        return dict(total), dict(self_time)

    def per_layer(self) -> dict[str, float]:
        """Per-layer metric values (see bench/README.md for the definitions)."""
        total, self_time = self.totals()
        ms = {k: v * 1e3 for k, v in total.items()}
        self_ms = {k: v * 1e3 for k, v in self_time.items()}
        calls = Counter(span.name for span in self.spans)
        failures = Counter(span.name for span in self.spans if span.failed)

        def result_sum(name):
            return sum(s.result for s in self.spans if s.name == name and s.result is not None)

        def p50_ms(name):
            durs = [s.end - s.start for s in self.spans if s.name == name]
            return statistics.median(durs) * 1e3 if durs else 0.0

        resolves = calls["codec.resolve_node"]
        de_steps = self.counts["density.de_step"]
        return {
            "graphs.sample_graph.ms": ms.get("graphs.sample_graph", 0.0),
            "graphs.sample_graph.self_ms": self_ms.get("graphs.sample_graph", 0.0),
            "graphs.BiRegularGraph.ms": ms.get("graphs.BiRegularGraph", 0.0),
            "graphs.sample_graph.retries": result_sum("graphs.sample_graph"),
            "codec.decode.ms": ms.get("codec.decode", 0.0),
            "codec.decode.self_ms": self_ms.get("codec.decode", 0.0),
            "codec.decode.ms_p50": p50_ms("codec.decode"),
            "codec.decode.rounds": result_sum("codec.decode"),
            "codec.resolve_node.calls": resolves,
            "codec.resolve_node.self_ms": self_ms.get("codec.resolve_node", 0.0),
            "codec.resolve_node.useful_ratio":
                result_sum("codec.resolve_node") / resolves if resolves else 0.0,
            "codec.encode.ms": ms.get("codec.encode", 0.0),
            "codec.encode.ms_p50": p50_ms("codec.encode"),
            "codec.build_signature.ms": ms.get("codec.build_signature", 0.0),
            "bch.syndrome_from_bits.ms": ms.get("bch.syndrome_from_bits", 0.0),
            "bch.find_error_locator.ms": ms.get("bch.find_error_locator", 0.0),
            "bch.find_roots.ms": ms.get("bch.find_roots", 0.0),
            "bch.decode_syndrome.calls": calls["bch.decode_syndrome"],
            "bch.decode_syndrome.failures": failures["bch.decode_syndrome"],
            "gf2m.make_field.ms": ms.get("gf2m.make_field", 0.0),
            "gf2m.mul.calls": self.counts["gf2m.mul"],
            "gf2m.element_from_bits.calls": self.counts["gf2m.element_from_bits"],
            "density.lambda_threshold.ms": ms.get("density.lambda_threshold", 0.0),
            "density.de_fixed_point.calls": self.counts["density.de_fixed_point"],
            "density.de_step.calls": de_steps,
            "density.de_step.us":
                self.counter_seconds["density.de_step"] * 1e6 / de_steps if de_steps else 0.0,
            "simulate.run_trial.ms": ms.get("simulate.run_trial", 0.0),
            "simulate.run_trial.self_ms": self_ms.get("simulate.run_trial", 0.0),
            "simulate.groups_within_budget.ms": ms.get("simulate.groups_within_budget", 0.0),
        }

    def write(self, path) -> None:
        """Spans as gzipped tab-separated text, times in microseconds."""
        origin = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\top\tfailed\n")
            for idx, s in enumerate(self.spans):
                fh.write(f"{idx}\t{s.name}\t{(s.start - origin) * 1e6:.1f}\t"
                         f"{(s.end - origin) * 1e6:.1f}\t{s.parent}\t{s.op}\t{int(s.failed)}\n")
            for name, n in sorted(self.counts.items()):
                fh.write(f"# count {name} {n}\n")
