"""Command line front end: constants table, design sizing, file-based
encode/decode, Monte Carlo sweeps, and a golden-value selftest.

Every command is deterministic given its flags.  Commands that draw random
numbers take --seed (default from the QGT_SEED environment variable, then a
fixed constant) and print the seed they used.  Human-readable listings label
items 1-based; files carry 0-based indices and say so in their headers.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import tempfile

import numpy as np

from . import bch, codec, density, gf2m, graphs, reference, simulate

DEFAULT_SEED = 1234
MAX_GRID_POINTS = 100_000


def _default_seed() -> int:
    raw = os.environ.get("QGT_SEED", "")
    if not raw:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QGT_SEED must be an integer, got {raw!r}") from None


def _grid_value(raw: str, text: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"bad grid value {raw!r} in {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"grid values must be finite, got {raw!r}")
    return value


def parse_grid(text: str) -> list[float]:
    """Grid syntax: '8,12,20' explicit, '8:20' unit steps, '8:20:2' stepped."""
    if "," in text:
        return [_grid_value(x, text) for x in text.split(",")]
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad grid {text!r}, want lo:hi or lo:hi:step")
        lo, hi = _grid_value(parts[0], text), _grid_value(parts[1], text)
        step = _grid_value(parts[2], text) if len(parts) == 3 else 1.0
        if step <= 0 or hi < lo:
            raise ValueError(f"bad grid {text!r}: need lo <= hi and step > 0")
        n_steps = (hi - lo) / step + 1e-9
        if not n_steps < MAX_GRID_POINTS:  # an infinite count fails too
            raise ValueError(f"bad grid {text!r}: more than {MAX_GRID_POINTS} points")
        grid = [lo + i * step for i in range(int(n_steps) + 1)]
        if not math.isfinite(grid[-1]):
            raise ValueError(f"bad grid {text!r}: its last point overflows")
        return grid
    return [_grid_value(text, text)]


def _parse_ell(raw: str) -> int | str:
    if raw == "auto":
        return raw
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"--ell must be an integer or 'auto', got {raw!r}") from None


# -- table ---------------------------------------------------------------


def cmd_table(args) -> int:
    if not 1 <= args.t_max <= density.MAX_DE_T:
        raise ValueError(f"--t-max must be in 1..{density.MAX_DE_T}, got {args.t_max}")
    rows = []
    for t in range(1, args.t_max + 1):
        if args.solve:
            c, ell = density.c_of_t(t)
            lam = density.lambda_threshold(t, ell)
        else:
            c, ell, lam = density.DESIGN_TABLE[t]
        rows.append((t, c, ell, lam))
    print(f"{'t':>2}  {'c(t)':>9}  {'ell*':>4}  {'lambda_T':>9}")
    for t, c, ell, lam in rows:
        print(f"{t:>2}  {c:>9.6f}  {ell:>4}  {lam:>9.6f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,c,ell_star,lambda_T\n")
            for t, c, ell, lam in rows:
                fh.write(f"{t},{c:.6f},{ell},{lam:.6f}\n")
        print(f"wrote {args.out}")
    return 0


# -- design --------------------------------------------------------------


def cmd_design(args) -> int:
    params = codec.derive_params(args.N, args.K, args.t, ell=_parse_ell(args.ell),
                                 beta=args.beta)
    m_real, m_ceil = density.tests_needed(args.N, args.K, args.t)
    print(f"design for N={params.n_items} K={params.k} t={params.t} "
          f"(ell={params.ell}, beta={args.beta:g}):")
    print(f"  groups                M = {params.m_groups}")
    print(f"  max group size    r_max = {params.r_max}")
    print(f"  field degree          b = {params.b}")
    print(f"  rows per group        s = {params.s}")
    print(f"  tests           m_total = {params.m_total}  (1 count test + M*s)")
    print(f"  analytic test count     = {m_real:.2f}  (ceil {m_ceil})")
    print()
    print("  analytic test count across t (minimum marked *):")
    sweep = []
    for t in range(1, 9):
        mr, mc = density.tests_needed(args.N, args.K, t)
        c, ell_star = density.design_constant(t)
        sweep.append((t, mr, mc, c, ell_star))
    t_best = min(sweep, key=lambda row: row[1])[0]
    for t, mr, mc, c, ell_star in sweep:
        mark = "*" if t == t_best else " "
        print(f"  {mark} t={t}  m = {mr:10.2f}  (c = {c:.6f}, ell* = {ell_star})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,m_formula,m_ceil,c,ell_star\n")
            for t, mr, mc, c, ell_star in sweep:
                fh.write(f"{t},{mr:.6f},{mc},{c:.6f},{ell_star}\n")
        print(f"wrote {args.out}")
    return 0


# -- encode / decode ------------------------------------------------------


def _load_design(args):
    """Graph + signature from --graph/--t, or the built-in worked example."""
    if args.graph:
        if args.t is None:
            raise ValueError("--t is required with --graph")
        graph = graphs.BiRegularGraph.load(args.graph)
        sig = codec.build_signature(args.t, graph.max_right_degree)
        label = f"graph file {args.graph}, t={args.t}"
    else:
        if args.t not in (None, 1):
            raise ValueError("the built-in example design is fixed at t=1; "
                             "pass --graph for other designs")
        graph = reference.reference_graph()
        sig = reference.reference_signature()
        label = "built-in 14-item worked example (t=1)"
    return graph, sig, label


def cmd_encode(args) -> int:
    graph, sig, label = _load_design(args)
    support = codec.load_support(args.support)
    y = codec.encode(graph, sig, support)
    codec.save_test_vector(args.out, y)
    print(f"# design: {label}")
    print(f"encoded {len(support)} defectives among {graph.n_left} items "
          f"into {y.size} tests -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    graph, sig, label = _load_design(args)
    y = codec.load_test_vector(args.y)
    outcome = codec.decode(graph, sig, y)
    labels = " ".join(str(v + 1) for v in sorted(outcome.recovered))
    print(f"# design: {label}")
    print(f"declared defective count: {int(y[0])}")
    print(f"recovered items (1-based): {labels if labels else '(none)'}")
    print(f"peeling rounds: {outcome.iterations}")
    if args.out:
        codec.save_support(args.out, outcome.recovered)
        print(f"wrote 0-based support file {args.out}")
    if not outcome.success:
        print(f"decoding incomplete: identified {len(outcome.recovered)} of "
              f"{int(y[0])} declared defectives", file=sys.stderr)
        return 1
    return 0


# -- simulate --------------------------------------------------------------


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if seed < 0:  # numpy's own refusal names neither source
        source = "--seed" if args.seed is not None else "QGT_SEED"
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    ell = codec.design_ell(args.N, args.K, args.t, _parse_ell(args.ell))
    grid = parse_grid(args.grid)
    # the sweep runs first, so a design it rejects leaves stdout empty
    points = simulate.run_sweep(args.N, args.K, args.t, grid, args.trials,
                                seed, ell=ell, fixed_graph=args.fixed_graph)
    print(f"# simulate N={args.N} K={args.K} t={args.t} ell={ell} "
          f"trials={args.trials} seed={seed} "
          f"fixed_graph={args.fixed_graph}")
    text = simulate.sweep_csv(points, args.N, args.K, args.t, ell, seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# -- selftest ---------------------------------------------------------------
# Checks raise explicitly rather than through `assert`, so they still check
# under python -O.


def _expect(ok, detail) -> None:
    if not ok:
        raise AssertionError(detail)


def _check_power_table():
    f = gf2m.make_field(3)
    got = [int(f.pow(2, e)) for e in range(7)]  # alpha is the element x = 2
    _expect(got == [1, 2, 4, 3, 6, 7, 5], got)


def _check_signature_golden():
    cols = bch.build_parity_columns(bch.make_bch(3, 1, 7))
    _expect(np.array_equal(cols, reference.REFERENCE_SIGNATURE[1:]), cols)
    sig = codec.build_signature(t=1, r_max=7)
    _expect(np.array_equal(sig.matrix, reference.REFERENCE_SIGNATURE), sig.matrix)


def _check_worked_example():
    graph = reference.reference_graph()
    sig = reference.reference_signature()
    y = reference.reference_test_vector()
    _expect(np.array_equal(y, reference.REFERENCE_TEST_VECTOR), y)
    out = codec.decode(graph, sig, y)
    _expect(out.success, out)
    _expect(out.recovered == set(reference.REFERENCE_DEFECTIVES), out.recovered)
    _expect(out.iterations == 2, out.iterations)


def _check_design_constants():
    spots = {1: (1.222, 3), 2: (0.597, 2), 3: (0.388, 2), 4: (0.294, 2),
             5: (0.239, 2), 6: (0.203, 2), 7: (0.176, 2), 8: (0.156, 2)}
    for t, (c_ref, ell_ref) in spots.items():
        c, ell, _ = density.DESIGN_TABLE[t]
        _expect(abs(c - c_ref) < 0.01, (t, c))
        _expect(ell == ell_ref, (t, ell))
    for t, c_ref, ell_ref in [(1, 1.221793, 3), (2, 0.596851, 2)]:
        c, ell = density.c_of_t(t)
        _expect(abs(c - c_ref) < 1e-3, (t, c))
        _expect(ell == ell_ref, (t, ell))


def _check_formula_count():
    m_real, m_ceil = density.tests_needed(1 << 16, 100, 2)
    _expect(m_ceil in (1386, 1387), (m_real, m_ceil))


def _check_graph_round_trip():
    g = graphs.sample_graph(60, 9, 3, seed=7)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        g.save(path)
        h = graphs.BiRegularGraph.load(path)
    _expect(h.n_left == g.n_left and h.ell == g.ell, (h.n_left, h.ell))
    _expect(all(np.array_equal(a, b) for a, b in zip(g.right_adj, h.right_adj)),
            "right lists differ after a round trip")


def _check_random_decode():
    # the batched closed form must recover every planted pattern, at an even
    # and an odd degree (where w^3 = q has three cube roots, or one)
    rng = np.random.default_rng(0)
    for degree in (6, 7):
        spec = bch.make_bch(degree, 3, (1 << degree) - 1)
        cols = bch.build_parity_columns(spec)
        patterns = []
        for _ in range(50):
            w = int(rng.integers(0, 4))
            patterns.append(set(rng.choice(spec.r, size=w, replace=False).tolist()))
        bits = np.array([cols[:, sorted(p)].sum(axis=1) & 1 for p in patterns], dtype=np.uint8)
        positions, ok = bch.decode_syndromes(spec, bch.syndrome_from_bits(spec, bits),
                                             [len(p) for p in patterns])
        for pos, row, good in zip(patterns, positions.tolist(), ok.tolist()):
            _expect(good and {j for j in row if j >= 0} == pos, (pos, row))


def _check_round_resolve():
    # every slice of count <= t over a full b=4 code at t=2 and t=4, and one
    # tampered slice of each count from 2: the batched resolve must return
    # each planted pattern and refuse each tampered slice
    for t in (2, 4):
        sig = codec.build_signature(t=t, r_max=15)
        patterns = [p for w in range(t + 1) for p in itertools.combinations(range(sig.r), w)]
        slices = np.array([sig.matrix[:, list(p)].sum(axis=1, dtype=np.int64) for p in patterns])
        positions, ok = codec.resolve_node(slices, sig)
        for p, row, good in zip(patterns, positions.tolist(), ok.tolist()):
            _expect(good and {j for j in row if j >= 0} == set(p), (p, row))
        first = {len(p): i for i, p in reversed(list(enumerate(patterns)))}
        tampered = slices[[first[w] for w in range(2, t + 1)]].copy()
        tampered[:, 3] += 2  # bits intact, integer sums broken
        _, ok = codec.resolve_node(tampered, sig)
        _expect(not ok.any(), ok)


def cmd_selftest(args) -> int:
    checks = [
        ("field power table", _check_power_table),
        ("signature golden", _check_signature_golden),
        ("worked example decode", _check_worked_example),
        ("design constants", _check_design_constants),
        ("analytic test count", _check_formula_count),
        ("graph file round trip", _check_graph_round_trip),
        ("syndrome decoding", _check_random_decode),
        ("batched round resolve", _check_round_resolve),
    ]
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            if not args.quiet:
                print(f"ok   {name}")
    if failures:
        print(f"selftest: {failures} of {len(checks)} checks FAILED")
        return 1
    print(f"selftest: {len(checks)}/{len(checks)} checks passed")
    return 0


# -- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgt",
        description="Quantitative group testing designs: size them, encode "
                    "and decode count vectors, and measure success rates.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("table", help="per-t design constants and thresholds")
    p.add_argument("--t-max", type=int, default=density.MAX_DE_T, metavar="T")
    p.add_argument("--solve", action="store_true",
                   help="recompute constants instead of reading the frozen table")
    p.add_argument("--out", metavar="CSV", help="also write CSV here")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("design", help="size a design for N items, K defectives")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--ell", default="auto")
    p.add_argument("--beta", type=float, default=codec.DEFAULT_BETA)
    p.add_argument("--out", metavar="CSV", help="write the per-t sweep as CSV")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("encode", help="turn a support file into a test vector")
    p.add_argument("--support", required=True, metavar="FILE",
                   help="0-based item indices, one per line")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--graph", metavar="FILE",
                   help="graph file (default: built-in 14-item example)")
    p.add_argument("--t", type=int, help="decoding radius for --graph")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover the defective set from a test vector")
    p.add_argument("--y", required=True, metavar="FILE", help="test vector file")
    p.add_argument("--graph", metavar="FILE",
                   help="graph file (default: built-in 14-item example)")
    p.add_argument("--t", type=int, help="decoding radius for --graph")
    p.add_argument("--out", metavar="FILE", help="write recovered support here")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="Monte Carlo success rates over a budget grid")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--ell", default="auto")
    p.add_argument("--grid", default="8:20",
                   help="m/K values: '8,12,20', '8:20', or '8:20:2'")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: QGT_SEED env, else "
                        f"{DEFAULT_SEED})")
    p.add_argument("--fixed-graph", action="store_true",
                   help="reuse one graph per grid point")
    p.add_argument("--out", metavar="CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("selftest", help="golden-value checks; exit 1 on mismatch")
    p.add_argument("--quiet", action="store_true", help="print failures only")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
