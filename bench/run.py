"""Benchmark for qgt: one workload per process, single-threaded.

Run from the repository root:

    python3 bench/run.py --workload sweep-fresh --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload decode-wide-field --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload design-threshold --repeat 10 --seconds 20

``--trace 0`` times the workload and prints the end-to-end metrics, with
every time scaled to a reference host speed (see bench/hostspeed.py);
``--trace 1`` runs each instance of the fixed list twice, untraced and then
traced, and prints the per-layer metrics.  ``--repeat N`` reruns one workload in N
child processes (seeds 1..N) and prints each metric's median, quartiles and
spread.  The last line of standard output is the result as one JSON object;
manifests, traces and repeat summaries go to ``.bench_out/``.  See
bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# pin BLAS and OpenMP pools to one thread before numpy loads
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import REFERENCE_MS, HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# A seed that repeat mode never uses: a later gain claim must also hold on it.
HELD_OUT_SEED = 1901

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
# The host-speed kernel runs after every stretch of at least this much op
# time: after every op of sweep-fresh and design-threshold, after every
# second or third op of decode-wide-field.
STRETCH_MS = 80.0
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "op_ms_tail": "ms", "success_rate": "fraction", "peak_rss_mb": "MB"}


def import_qgt():
    """Import qgt from this checkout's src/ and nowhere else."""
    if not (SRC / "qgt" / "__init__.py").is_file():
        sys.exit(f"bench: no qgt sources at {SRC / 'qgt'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qgt

    if Path(qgt.__file__).resolve().parent != SRC / "qgt":
        sys.exit(f"bench: imported qgt from {qgt.__file__}, not from {SRC}")
    return qgt


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(fixed_ops: int) -> float:
    """Highest ladder percentile leaving >= 10 of the fixed instances beyond it.

    Chosen from the fixed list, not from how many ops a run managed, so the
    percentile does not change when the program gets faster.  Below 20
    instances no percentile qualifies; the tail is then p75, which still
    leaves a quarter of the ops beyond it rather than resting on the single
    slowest op.
    """
    for pct in TAIL_LADDER:
        if fixed_ops * (1.0 - pct / 100.0) >= 10:
            return pct
    return 75.0


def manifest(args, spec, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name, "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "seconds": args.seconds, "trace": args.trace,
        "fixed_ops": workload.fixed_ops, "cycle": workload.cycle,
        "setup_reps": workload.setup_reps,
        "tail_percentile": tail_percentile(workload.fixed_ops),
        "host_speed": {"reference_ms": REFERENCE_MS, "stretch_ms": STRETCH_MS},
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "design": workload.shape(),
    }


def report_failures(results) -> None:
    for i, r in enumerate(results):
        if r.wrong:
            print(f"FAILED op {i}: {r.wrong}", file=sys.stderr)


def timed_run(args, workload) -> dict:
    """The fixed list, then whole cycles until --seconds of op-loop time.

    Every time is wall time scaled to the reference host speed by the
    kernel runs that bracket it (``HostSpeed``): each set-up, and each
    stretch of at least STRETCH_MS of ops.  Set-up is repeated at evenly
    spaced points of the loop, not all at the start, so its median sees the
    same machine conditions as the ops.
    """
    speed = HostSpeed()
    setup_s, setup_wall_s, problems = [], [], []

    def set_up():
        t0 = time.perf_counter()
        problem = workload.setup()
        setup_wall_s.append(time.perf_counter() - t0)
        setup_s.extend(speed.scale(setup_wall_s[-1:]))
        if problem:
            problems.append(problem)

    set_up()
    results, op_ms, stretch = [], [], []
    loop_s = 0.0  # wall time spent in ops, set-up and kernel runs excluded
    while (len(results) < workload.fixed_ops or loop_s < args.seconds
           or len(results) % workload.cycle):
        t0 = time.perf_counter()
        results.append(workload.op(len(results)))
        loop_s += time.perf_counter() - t0
        stretch.append(results[-1].ms)
        if sum(stretch) >= STRETCH_MS:
            op_ms.extend(speed.scale(stretch))
            stretch = []
            while (len(setup_s) < workload.setup_reps
                   and loop_s >= len(setup_s) * args.seconds / workload.setup_reps):
                set_up()
    if stretch:
        op_ms.extend(speed.scale(stretch))
    while len(setup_s) < workload.setup_reps:
        set_up()
    report_failures(results)
    fixed = results[:workload.fixed_ops]
    wall_ms = [r.ms for r in results]
    tail_pct = tail_percentile(workload.fixed_ops)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_tail": percentile(op_ms, tail_pct),
        "success_rate": sum(r.successes for r in fixed) / sum(r.instances for r in fixed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "setup_s": statistics.median(setup_wall_s),
        "ops_per_s": len(wall_ms) / (sum(wall_ms) / 1e3),
        "op_ms_p50": statistics.median(wall_ms),
        "op_ms_tail": percentile(wall_ms, tail_pct),
    }
    failed = sum(r.wrong is not None for r in results)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"ops-{workload.name}-seed{args.seed}.json").write_text(
        json.dumps({"op_ms": op_ms, "wall_ms": wall_ms, "setup_s": setup_s,
                    "setup_wall_s": setup_wall_s, "kernel_ms": speed.kernel_times}))
    print(f"workload {workload.name}  seed {args.seed}  ops {len(results)} "
          f"(fixed {workload.fixed_ops})  set-up reps {len(setup_s)}  "
          f"host-speed kernel runs {len(speed.kernel_times)}, "
          f"median {statistics.median(speed.kernel_times):.3f} ms (reference {REFERENCE_MS} ms)")
    print(f"  {'':<16} {'reference speed':>16} {'wall':>12}")
    for name, value in metrics.items():
        print(f"  {name:<16} {value:16.4f} {wall.get(name, value):12.4f} "
              f"{END_TO_END_UNITS[name]}")
    print(f"  op_ms_tail is p{tail_pct:g} of all {len(op_ms)} ops")
    for stage in ("encode_ms", "decode_ms"):
        xs = [getattr(r, stage) for r in results if getattr(r, stage) is not None]
        if xs:
            print(f"  {stage + '_p50':<16} {'':>16} {statistics.median(xs):12.4f} ms")
    print(f"  wrong_frac       {failed / len(results):16.4f} ({failed} of {len(results)})")
    for problem in problems:
        print(f"SET-UP CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def traced_run(args, spec, workload) -> dict:
    """Per-layer metrics over one traced set-up and the fixed list.

    Each op runs twice back to back, untraced and then traced, so
    trace_overhead_frac compares the same work at the same moment.
    """
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        problem = workload.setup()
    problems = [problem] if problem else []
    plain, traced = [], []
    for i in range(workload.fixed_ops):
        plain.append(workload.op(i))
        tracer.op = i
        with tracer:
            traced.append(workload.op(i))
    report_failures(plain + traced)
    layer = tracer.per_layer()
    layer["trace_overhead_frac"] = sum(r.ms for r in traced) / sum(r.ms for r in plain) - 1.0
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.tsv.gz"
    tracer.write(trace_path)
    print(f"workload {workload.name}  seed {args.seed}  traced ops {len(traced)} "
          f"after one traced set-up, spans {len(tracer.spans)} -> {trace_path.name}")
    for name, value in layer.items():
        print(f"  {name:<34} {value:14.4f} {units[name]}")
    failed = sum(r.wrong is not None for r in plain + traced)
    return {"correct": failed == 0 and not problems, "attempted": len(plain) + len(traced),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in layer.items()}}


def repeat(args, spec) -> dict:
    """Rerun one workload in child processes and summarise each metric."""
    seeds = [s for s in range(1, args.repeat + 2) if s != HELD_OUT_SEED][:args.repeat]
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"bench: seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: correct={runs[-1]['correct']} "
              f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}", flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  > bound/3"
        print(f"{name:<36} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    OUT_DIR.mkdir(exist_ok=True)
    out = {"workload": args.workload, "seeds": seeds, "seconds": args.seconds,
           "trace": args.trace, "held_out_seed": HELD_OUT_SEED, "metrics": summary}
    (OUT_DIR / f"repeat-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(out, indent=1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="rerun the workload in this many child processes")
    args = parser.parse_args(argv)

    import_qgt()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(SPEC_PATH.read_text())
    if args.repeat:
        repeat(args, spec)
        return 0
    workload = WORKLOADS[args.workload](args.seed)
    result = traced_run(args, spec, workload) if args.trace else timed_run(args, workload)
    OUT_DIR.mkdir(exist_ok=True)
    info = manifest(args, spec, workload)
    (OUT_DIR / f"manifest-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1))
    print("manifest " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
