"""Graph ensemble invariants and serialization."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qgt import graphs
from qgt.graphs import BiRegularGraph, sample_graph

ROOT = Path(__file__).resolve().parent.parent


def test_degrees_regular_case():
    g = sample_graph(14, 4, 2, seed=7)
    assert g.degrees().tolist() == [7, 7, 7, 7]


def test_degrees_all_equal_small():
    g = sample_graph(4, 4, 2, seed=1)
    assert g.degrees().tolist() == [2, 2, 2, 2]
    g = sample_graph(10, 4, 2, seed=2)
    assert g.degrees().tolist() == [5, 5, 5, 5]


def test_degrees_two_values():
    g = sample_graph(11, 4, 2, seed=3)
    assert sorted(g.degrees().tolist()) == [5, 5, 6, 6]
    assert g.degrees().sum() == 22


def test_left_degrees_and_simplicity():
    g = sample_graph(50, 11, 3, seed=9)
    counts = np.zeros(50, dtype=int)
    for adj in g.right_adj:
        assert len(set(adj.tolist())) == len(adj)
        counts[adj] += 1
    assert np.all(counts == 3)


def test_determinism_and_seed_sensitivity():
    a = sample_graph(40, 8, 2, seed=123)
    b = sample_graph(40, 8, 2, seed=123)
    c = sample_graph(40, 8, 2, seed=124)
    assert all(np.array_equal(x, y) for x, y in zip(a.right_adj, b.right_adj))
    assert any(not np.array_equal(x, y) for x, y in zip(a.right_adj, c.right_adj))


def test_neighbor_lists_sorted():
    g = sample_graph(60, 7, 3, seed=5)
    for adj in g.right_adj:
        assert np.all(np.diff(adj) > 0)


def test_random_shapes_invariants():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(4, 120))
        ell = int(rng.integers(2, 5))
        m = int(rng.integers(ell, max(ell + 1, min(n * ell, n // 1 + 4))))
        g = sample_graph(n, m, ell, seed=int(rng.integers(1 << 32)))
        deg = g.degrees()
        assert deg.sum() == n * ell
        assert deg.max() - deg.min() <= 1
        counts = np.zeros(n, dtype=int)
        for adj in g.right_adj:
            assert len(np.unique(adj)) == len(adj)
            counts[adj] += 1
        assert np.all(counts == ell)


def test_left_adj_consistency():
    g = sample_graph(25, 5, 3, seed=4)
    rights, positions = g.incidence(np.arange(25))
    assert rights.shape == positions.shape == (25, 3)
    for v in range(25):
        for i, pos in zip(rights[v].tolist(), positions[v].tolist()):
            assert int(g.right_adj[i][pos]) == v
            assert g.items_at(np.array([i]), np.array([pos])).tolist() == [v]


def test_items_at_reads_the_right_lists():
    rng = np.random.default_rng(77)
    for n, m, ell in [(25, 5, 3), (11, 4, 2), (300, 47, 2)]:
        g = sample_graph(n, m, ell, seed=int(rng.integers(1 << 32)))
        groups = rng.integers(0, m, size=500)
        positions = rng.integers(-1, g.max_right_degree + 3, size=500)
        want = [int(g.right_adj[i][p]) if 0 <= p < len(g.right_adj[i]) else -1
                for i, p in zip(groups.tolist(), positions.tolist())]
        got = g.items_at(groups, positions)
        assert got.dtype == np.int64 and got.tolist() == want
        assert -1 in want and len(set(want)) > 2
    empty = np.zeros(0, dtype=np.int64)
    assert g.items_at(empty, empty).shape == (0,)


def test_degrees_are_computed_once_and_read_only():
    g = sample_graph(11, 4, 2, seed=3)
    assert g.degrees() is g.degrees()
    assert g.max_right_degree == 6
    for array in (g.degrees(), g.right_adj[0]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # the right lists share one edge array rather than each holding a copy
    edges = g.right_adj[0].base
    assert edges is not None and all(a.base is edges for a in g.right_adj)


def test_save_load_round_trip(tmp_path):
    g = sample_graph(21, 6, 2, seed=31)
    path = tmp_path / "g.txt"
    g.save(str(path))
    h = BiRegularGraph.load(str(path))
    assert (h.n_left, h.n_right, h.ell, h.seed) == (21, 6, 2, 31)
    assert all(np.array_equal(a, b) for a, b in zip(g.right_adj, h.right_adj))
    # byte-for-byte stable re-serialization
    path2 = tmp_path / "g2.txt"
    h.save(str(path2))
    assert path.read_text() == path2.read_text()


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("4 2 2\n0 1\n2 3\n")  # missing seed field
    with pytest.raises(ValueError):
        BiRegularGraph.load(str(path))
    path.write_text("4 2 2 0\n0 1\n")  # wrong line count
    with pytest.raises(ValueError):
        BiRegularGraph.load(str(path))


# (N, ell, right lists, the right degrees where they are not the lists'
# lengths, message of the check that must reject them)
INVALID_GRAPHS = [
    (4, 2, [[0, 4], [1, 3], [0, 1], [2, 3]], None, "out of range"),
    (4, 2, [[-1, 2], [1, 3], [0, 1], [2, 3]], None, "out of range"),
    (4, 2, [[0, 2, 1], [1, 3], [0, 1], [2, 3]], None, "edge count"),
    (4, 2, [[0, 2], [1, 3], [0, 1], [0, 3]], None, "left degrees"),  # 3 and 1
    (4, 2, [[0, 1, 2], [3], [0, 1], [2, 3]], None, "two adjacent values"),
    (1, 2, [[0], [0], []], None, "at least one edge"),
    (4, 2, [[0, 0], [1, 3], [1, 2], [2, 3]], None, "parallel edge"),
    # each wraps into the valid graph [[0, 2], [1, 3], [0, 1], [2, 3]] if
    # narrowed to int32 before the range check
    (4, 2, [[0, (1 << 32) + 2], [1, 3], [0, 1], [2, 3]], None, "out of range"),
    (4, 2, [[0, 2], [-(1 << 32) + 1, 3], [0, 1], [2, 3]], None, "out of range"),
    # a file's lines always agree with their lengths, so only a caller of the
    # constructor can hand over such degrees
    (4, 2, [[0, 2], [1, 3], [0, 1], [2, 3]], [2, 2, 3, 3], "degrees sum to 10, not 8"),
]


def _write_graph(path, n, ell, adj):
    path.write_text(f"{n} {len(adj)} {ell} 0\n"
                    + "".join(" ".join(map(str, a)) + "\n" for a in adj))


def test_explicit_lists_validate(tmp_path):
    # hand-built and loaded graphs must satisfy the same invariants
    g = BiRegularGraph(4, 2, [0, 2, 1, 3, 0, 1, 2, 3], [2, 2, 2, 2])
    assert g.seed == -1
    path = tmp_path / "g.txt"
    _write_graph(path, 4, 2, [[0, 2], [1, 3], [0, 1], [3, 2]])
    g = BiRegularGraph.load(str(path))  # file order is kept
    assert g.right_adj[3].tolist() == [3, 2]
    rights, positions = g.incidence(np.array([3]))
    assert rights.tolist() == [[1, 3]] and positions.tolist() == [[1, 0]]
    # position 2 is past the end
    assert g.items_at(np.full(3, 3), np.arange(3)).tolist() == [3, 2, -1]
    for n, ell, adj, degrees, message in INVALID_GRAPHS:
        with pytest.raises(ValueError, match=message):
            BiRegularGraph(n, ell, np.concatenate([np.array(a, dtype=np.int64) for a in adj]),
                           [len(a) for a in adj] if degrees is None else degrees)
        if degrees is not None:
            continue
        _write_graph(path, n, ell, adj)
        # an empty line is not an adjacency line, so a file with an empty
        # group fails the line count instead
        with pytest.raises(ValueError,
                           match=message if all(adj) else "adjacency lines"):
            BiRegularGraph.load(str(path))


def test_edges_at_the_graph_width_are_adopted():
    edges = np.array([0, 2, 1, 3, 0, 1, 2, 3], dtype=np.int32)
    g = BiRegularGraph(4, 2, edges, [2, 2, 2, 2])
    assert g._edges is edges and not edges.flags.writeable
    # int64 edges are narrowed into a new array; the caller's stays writable
    wide = edges.astype(np.int64)
    h = BiRegularGraph(4, 2, wide, [2, 2, 2, 2])
    assert h._edges.dtype == np.int32 and not np.shares_memory(h._edges, wide)
    assert wide.flags.writeable and wide.tolist() == edges.tolist()


def test_sample_graph_holds_its_stubs_once():
    # tracemalloc peak of sampling and building a 2^19-edge graph, per edge:
    # ~20 bytes since the constructor adopts the sampler's stub array, ~24
    # while it copied the right lists back into an edge array of its own
    sample_graph(2**10, 81, 2, seed=3)
    tracemalloc.start()
    try:
        sample_graph(2**18, 81, 2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_edge = peak / (2**18 * 2)
    assert per_edge <= 22, f"{per_edge:.2f} bytes per edge"


def _per_edge_arrays(g):
    return [g._edges, g._left_rights, g._left_positions, *g.right_adj]


def test_graphs_below_2_31_edges_hold_read_only_int32(tmp_path):
    assert graphs._index_dtype(2**31 - 1) is np.int32
    assert graphs._index_dtype(2**31) is np.int64
    path = tmp_path / "g.txt"
    for shape, seed, _ in PINNED_GRAPHS:
        g = sample_graph(*shape, seed=seed)
        g.save(str(path))
        for h in (g, BiRegularGraph.load(str(path))):
            for array in _per_edge_arrays(h):
                assert array.dtype == np.int32 and not array.flags.writeable
            rights, positions = h.incidence(np.arange(h.n_left))
            assert rights.dtype == positions.dtype == np.int64
            assert h.items_at(np.zeros(2, dtype=np.int64), np.arange(2)).dtype == np.int64


def test_int64_width_builds_the_same_graphs(monkeypatch):
    # above 2^31 edges the same code runs at int64; force it on small shapes
    narrow = [sample_graph(*shape, seed=seed) for shape, seed, _ in PINNED_GRAPHS]
    monkeypatch.setattr(graphs, "_index_dtype", lambda n_edges: np.int64)
    for (shape, seed, _), g in zip(PINNED_GRAPHS, narrow):
        h = sample_graph(*shape, seed=seed)
        assert h.retries == g.retries
        for a, b in zip(_per_edge_arrays(h), _per_edge_arrays(g)):
            assert a.dtype == np.int64 and np.array_equal(a, b)


def test_sampling_peak_memory_per_edge():
    # growth of the peak resident set while a 2^20-edge graph is sampled and
    # built, per edge: ~24 bytes, where int64 arrays throughout took ~61.
    # VmHWM, unlike ru_maxrss, starts afresh at exec, so the test runner's
    # own peak does not hide the child's
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            has_peak = "VmHWM:" in fh.read()
    except OSError:
        has_peak = False
    if not has_peak:
        pytest.skip("reads the peak resident set (VmHWM) from /proc/self/status")
    script = (
        "from qgt.graphs import sample_graph\n"
        "def peak_kb():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))\n"
        "sample_graph(2**12, 41, 2, seed=1)\n"
        "before = peak_kb()\n"
        "sample_graph(2**19, 41, 2, seed=3)\n"
        "print(peak_kb() - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    per_edge = int(proc.stdout) * 1024 / (2**19 * 2)
    assert per_edge < 45, f"{per_edge:.1f} bytes per edge"


def test_infeasible_shapes_raise():
    with pytest.raises(ValueError):
        sample_graph(10, 2, 3, seed=0)  # ell > M
    with pytest.raises(ValueError):
        sample_graph(3, 10, 2, seed=0)  # M > N*ell
    with pytest.raises(ValueError):
        sample_graph(10, 5, 1, seed=0)  # ell < 2


def _graph_digest(g):
    h = hashlib.sha256()
    for adj in g.right_adj:
        h.update(np.int64(len(adj)).tobytes())
        h.update(np.ascontiguousarray(adj, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(g._left_rights, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(g._left_positions, dtype="<i8").tobytes())
    h.update(np.int64(g.retries).tobytes())
    return h.hexdigest()[:16]


# Seeded graphs are part of every reproducible result; these digests pin the
# sampler's output (adjacency, left incidence, retries) bit for bit.  The
# shapes cover the sweep budgets at N=2^16, a t=3 design, dense blocks where
# the linear scan (20, 10, 8) and the blind swap (4, 7, 6) and (7, 9, 8)
# fire, and the forced complete graph (4, 4, 2).
PINNED_GRAPHS = [
    ((1 << 16, 47, 2), 1, "8f7ecc95bbc016fe"),
    ((1 << 16, 86, 2), 2, "920e830602a8b95c"),
    ((1 << 16, 525, 3), 1901, "aed62691c5c2dee3"),
    ((14, 4, 2), 7, "1f98b78eab34399b"),
    ((50, 11, 3), 9, "cc9f1c629161e652"),
    ((120, 60, 4), 5, "480831b82c380053"),
    ((20, 10, 8), 0, "24d0c850ca9b724d"),
    ((4, 7, 6), 12, "f2a97ed6a93507f5"),
    ((7, 9, 8), 0, "ad82201ec55e538e"),
    ((4, 4, 2), 1, "d806fc0d034670c6"),
]


@pytest.mark.parametrize("shape,seed,digest", PINNED_GRAPHS)
def test_seeded_graphs_pinned(shape, seed, digest):
    assert _graph_digest(sample_graph(*shape, seed=seed)) == digest
