"""Tests of the benchmark itself: python3 -m pytest bench

The workloads must reproduce what the library computes on its own, the
checks must reject wrong outputs, and the tracer must leave qgt as it found it.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import qgt  # noqa: E402
from qgt import codec, density, graphs, simulate  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_MS  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SmallSweep(workloads.SweepFresh):
    # near the threshold at this size, so a seeding mismatch changes the counts
    n_items, k = 1 << 12, 40


@pytest.mark.parametrize("workload, trials", [(workloads.SweepFresh, 2), (SmallSweep, 8)])
def test_sweep_fresh_matches_run_sweep(workload, trials):
    seed = 5
    w = workload(seed)
    assert w.setup() is None
    results = [[w.trial(g, j) for j in range(trials)] for g in range(len(w.grid))]
    assert all(r.wrong is None for row in results for r in row)
    ours = [sum(r.successes for r in row) for row in results]
    points = simulate.run_sweep(w.n_items, w.k, w.t, w.grid, trials, seed, ell=w.ell)
    assert ours == [round(p.success_rate * trials) for p in points]
    assert [c.m_groups for c in w.configs] == [p.m_groups for p in points]


@pytest.fixture(scope="module")
def small_design():
    graph = graphs.sample_graph(300, 40, 2, seed=5)
    sig = codec.build_signature(2, graph.max_right_degree)
    support = {3, 17, 42, 99, 150, 201, 288}
    y = codec.encode(graph, sig, support)
    return graph, sig, support, y, codec.decode(graph, sig, y)


def test_check_decode_accepts_genuine_and_rejects_wrong_outputs(small_design):
    graph, sig, support, y, outcome = small_design
    assert outcome.success and workloads.check_decode(graph, sig, support, y, outcome) is None
    outsider = next(v for v in range(300) if v not in support)
    named = codec.DecodeOutcome(outcome.recovered | {outsider}, 1, 0, False)
    assert "non-defective" in workloads.check_decode(graph, sig, support, y, named)
    partial = codec.DecodeOutcome(set(sorted(support)[1:]), 1, 1, True)
    assert "success" in workloads.check_decode(graph, sig, support, y, partial)
    stalled = codec.DecodeOutcome(set(sorted(support)[1:]), 1, 1, False)
    assert workloads.check_decode(graph, sig, support, y, stalled) is None


def test_an_op_that_raises_is_a_failed_op():
    def boom():
        raise ValueError("bad input")

    result = workloads.timed_op(boom)
    assert result.successes == 0 and "ValueError" in result.wrong


@pytest.mark.parametrize("dc, dlam, ok", [(0.0, 0.0, True), (4e-4, 4e-3, True),
                                          (6e-4, 0.0, False), (0.0, 6e-3, False)])
def test_design_threshold_checks_against_table(monkeypatch, dc, dlam, ok):
    table = density.DESIGN_TABLE
    monkeypatch.setattr(density, "c_of_t", lambda t: (table[t][0] + dc, table[t][1]))
    monkeypatch.setattr(density, "lambda_threshold", lambda t, ell: table[t][2] + dlam)
    w = workloads.DesignThreshold(3)
    results = [w.op(i) for i in range(w.cycle)]
    assert sorted(w.order) == [2, 3, 4]
    assert all(r.successes == ok and (r.wrong is None) is ok for r in results)


def test_tracer_spans_and_restore(small_design):
    graph, sig, support, y, _ = small_design
    bindings = [(mod, name) for mod in (qgt, codec, simulate) for name in ("encode", "decode")]
    originals = [getattr(mod, name) for mod, name in bindings]
    init = graphs.BiRegularGraph.__init__
    tracer = Tracer()
    tracer.install()
    try:
        # from-imported names are wrapped too, with the same wrapper
        assert simulate.decode is codec.decode is not originals[1]
        tracer.op = 0
        out = simulate.decode(graph, sig, simulate.encode(graph, sig, support))
        graphs.sample_graph(300, 40, 2, seed=6)
    finally:
        tracer.uninstall()
    assert out.recovered == support
    assert [getattr(mod, name) for mod, name in bindings] == originals
    assert graphs.BiRegularGraph.__init__ is init

    by_name = {}
    for idx, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, []).append(idx)
    decode_idx = by_name["codec.decode"][0]
    assert all(tracer.spans[i].parent == decode_idx for i in by_name["codec.resolve_node"])
    assert tracer.spans[by_name["graphs.BiRegularGraph"][0]].parent == by_name["graphs.sample_graph"][0]
    total, self_time = tracer.totals()
    assert 0 < self_time["codec.decode"] < total["codec.decode"]
    layer = tracer.per_layer()
    assert layer["codec.decode.rounds"] == out.iterations
    assert layer["codec.resolve_node.calls"] == len(by_name["codec.resolve_node"])
    assert layer["gf2m.element_from_bits.calls"] > 0
    names = [m["name"] for m in SPEC["per_layer"]]
    assert set(layer) | {"trace_overhead_frac"} == set(names)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(9) == 75.0
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_host_speed_scales_each_stretch_by_the_kernel_runs_around_it():
    kernel = iter([REFERENCE_MS, REFERENCE_MS * 3, REFERENCE_MS * 2])
    speed = hostspeed.HostSpeed(kernel_ms=lambda: next(kernel))
    # host at half speed on average: times are halved
    assert speed.scale([10.0, 30.0]) == pytest.approx([5.0, 15.0])
    # the next stretch is bracketed by the last run and a new one
    assert speed.scale([25.0]) == pytest.approx([10.0])
    assert speed.kernel_times == [REFERENCE_MS, REFERENCE_MS * 3, REFERENCE_MS * 2]


def test_host_speed_kernel_is_fixed_work():
    assert hostspeed.kernel() == hostspeed.kernel()
    assert hostspeed.kernel_ms() > 0


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1] == "bench/run.py"
    assert 1 <= SPEC["run_seconds"] <= 60
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name_ok.match(m["name"]) and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-fresh",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


class SmallDecode(workloads.FixedDesignDecode):
    design_args = (4096, 20, 2)
    fixed_ops = 4


def test_decode_workload_inputs_follow_the_seed():
    runs = []
    for seed in (7, 7, 8):
        w = SmallDecode(seed)
        assert w.setup() is None
        results = [w.op(i) for i in range(w.fixed_ops)]
        assert all(r.wrong is None and r.ms > 0 for r in results)
        runs.append((w.graph.seed, [r.successes for r in results]))
    assert runs[0] == runs[1] and runs[0][0] != runs[2][0]
