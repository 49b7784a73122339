"""The duplicate repair against a plain row-by-row loop.

graphs._repair repairs a view's duplicates one at a time from scalar
rng.integers draws, and every seeded view rests on it making the swaps, the
draws and the generator state of oracle_repair below.  A whole graph is
first swapped in rounds, which draw differently, so a whole graph is checked
by what it must be: a simple layout with ell stubs per item and _Blocks'
degrees, the same for the same seed, and a fresh layout after a failed
repair.  oracle_sample_graph samples whole graphs with the row-by-row loop
alone; the codec digests are pinned on its graphs.
"""

import copy
from collections import Counter

import numpy as np
import pytest

from qgt import graphs
from qgt.graphs import BiRegularGraph, sample_defectives, sample_graph
from test_graphs import PINNED_GRAPHS, _graph_digest


def oracle_duplicates(loc, blocks):
    owner = blocks.of_all(loc)
    repeat = owner[:, 1:] == owner[:, :-1]
    dup_pos = loc[:, 1:][repeat]
    dup_block = owner[:, 1:][repeat]
    order = np.argsort(dup_block, kind="stable")
    return dup_pos[order].tolist(), dup_block[order].tolist()


def oracle_bounds(blocks) -> list[int]:
    """Block i spans positions bounds[i]..bounds[i+1]-1, by its degrees."""
    return [0] + np.cumsum(blocks.degrees).tolist()


def oracle_repair(stubs, loc, blocks, rng, events: Counter) -> bool:
    """The row-by-row repair; events counts its linear scans and blind swaps."""
    bnd = oracle_bounds(blocks)
    n = bnd[-1]

    def fits(q, i, row_x):
        j = blocks.of(q)
        if j == i:
            return False
        lo, hi = bnd[i], bnd[i + 1]
        y = stubs[q]
        if y >= 0 and any(lo <= s < hi for s in loc[y].tolist()):
            return False
        lo, hi = bnd[j], bnd[j + 1]
        return not any(lo <= s < hi for s in row_x)

    simple = False
    for _ in range(graphs.MAX_REPAIR_PASSES):
        if simple:
            return True
        dup_pos, dup_block = oracle_duplicates(loc, blocks)
        if not dup_pos:
            return True
        simple = True
        for p, i in zip(dup_pos, dup_block):
            x = int(stubs[p])
            row_x = loc[x].tolist()
            lo, hi = bnd[i], bnd[i + 1]
            if sum(lo <= s < hi for s in row_x) <= 1:
                continue
            q_found = -1
            for _try in range(32):
                q = int(rng.integers(n))
                if fits(q, i, row_x):
                    q_found = q
                    break
            if q_found < 0:
                events["scan"] += 1
                start = int(rng.integers(n))
                for off in range(n):
                    q = (start + off) % n
                    if fits(q, i, row_x):
                        q_found = q
                        break
            if q_found < 0:
                events["blind"] += 1
                q_found = int(rng.integers(n))
                simple = False
            y = int(stubs[q_found])
            if y != x:
                stubs[p], stubs[q_found] = y, x
                row_x[row_x.index(p)] = q_found
                row_x.sort()
                loc[x] = row_x
                if y >= 0:
                    row_y = loc[y].tolist()
                    row_y[row_y.index(q_found)] = p
                    row_y.sort()
                    loc[y] = row_y
    return False


def oracle_sample_graph(n_left: int, n_right: int, ell: int, seed: int) -> BiRegularGraph:
    """sample_graph with oracle_repair in _repair's place: the permutation,
    loc, per-block sort and resamples of sample_graph, so the whole graphs
    that seeded digests were pinned on."""
    blocks = graphs._Blocks(n_left, n_right, ell)
    if blocks.forced:
        edges = np.tile(np.arange(n_left), n_right)
        return BiRegularGraph(n_left, ell, edges, blocks.degrees, seed=seed)
    n_edges = n_left * ell
    rng = np.random.default_rng(seed)
    for attempt in range(graphs.MAX_RESAMPLES):
        perm = rng.permutation(n_edges)
        stubs = perm // ell
        loc = np.empty(n_edges, dtype=np.int64)
        loc[perm] = np.arange(n_edges)
        loc = np.sort(loc.reshape(n_left, ell), axis=1)
        if oracle_repair(stubs, loc, blocks, rng, Counter()):
            bnd = oracle_bounds(blocks)
            for lo, hi in zip(bnd[:-1], bnd[1:]):
                stubs[lo:hi].sort()
            return BiRegularGraph(n_left, ell, stubs, blocks.degrees, seed=seed,
                                  retries=attempt)
    raise RuntimeError(f"oracle repair failed after {graphs.MAX_RESAMPLES} resamples")


# PINNED_GRAPHS' shapes and seeds with the digests of the row-by-row repair
ORACLE_GRAPHS = [
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


@pytest.mark.parametrize("shape,seed,digest", ORACLE_GRAPHS)
def test_oracle_sampler_keeps_the_pinned_graphs(shape, seed, digest):
    assert _graph_digest(oracle_sample_graph(*shape, seed=seed)) == digest


def check_layout(stubs: np.ndarray, loc: np.ndarray, blocks, simple: bool) -> None:
    """stubs and loc are one layout: item x holds the ell positions loc[x],
    ascending, and no others.  A repair that returned True left no item
    twice in a block."""
    n_left, ell = loc.shape
    assert np.all(loc[:, 1:] > loc[:, :-1])
    assert np.array_equal(stubs[loc], np.repeat(np.arange(n_left), ell).reshape(n_left, ell))
    assert np.array_equal(np.bincount(stubs, minlength=n_left), np.full(n_left, ell))
    if simple:
        assert oracle_duplicates(loc, blocks) == ([], [])


def check_graph(g) -> None:
    """g is simple, with _Blocks' right degrees and ell edges per item."""
    assert np.array_equal(g.degrees(), graphs._Blocks(g.n_left, g.n_right, g.ell).degrees)
    assert all(np.all(adj[1:] > adj[:-1]) for adj in g.right_adj)
    counts = np.bincount(np.concatenate(g.right_adj), minlength=g.n_left)
    assert np.array_equal(counts, np.full(g.n_left, g.ell))


class CheckedRepair:
    """Stands in for graphs._repair.  On a view it runs the oracle on copies
    of its inputs, then the repair itself, and asserts that both leave the
    same stubs, loc, return value and generator state; on a whole graph it
    checks the layout the repair leaves (check_layout).  It counts the
    oracle's events, the duplicates that rounds fixed and left to the row
    loop, and the calls that returned False."""

    def __init__(self, monkeypatch):
        self.repair = graphs._repair
        self.rounds = graphs._swap_rounds
        self.events = Counter()
        monkeypatch.setattr(graphs, "_repair", self)
        monkeypatch.setattr(graphs, "_swap_rounds", self._counted_rounds)

    def _counted_rounds(self, stubs, loc, blocks, rng, pos, blk):
        left = self.rounds(stubs, loc, blocks, rng, pos, blk)
        self.events["round rows"] += len(pos) - len(left[0])
        self.events["rows left"] += len(left[0])
        return left

    def __call__(self, stubs, loc, blocks, rng):
        if isinstance(stubs, np.ndarray):
            got = self.repair(stubs, loc, blocks, rng)
            check_layout(stubs, loc, blocks, got)
        else:
            twin = (graphs._Held(stubs), loc.copy(), copy.deepcopy(rng))
            want = oracle_repair(*twin[:2], blocks, twin[2], self.events)
            got = self.repair(stubs, loc, blocks, rng)
            assert got == want
            assert np.array_equal(loc, twin[1])
            assert stubs == twin[0]
            assert rng.bit_generator.state == twin[2].bit_generator.state
            self.events["views"] += 1
        self.events["calls"] += 1
        self.events["failed"] += not got
        return got


def test_pinned_shapes_repair_as_the_oracle(monkeypatch):
    checked = CheckedRepair(monkeypatch)
    for shape, seed, _ in PINNED_GRAPHS:
        check_graph(sample_graph(*shape, seed=seed))
        sample_defectives(*shape, np.arange(shape[0]), seed=seed)
    # a view of every item has a whole graph's duplicates, all for the row
    # loop, and reaches the linear scan (RESAMPLED_VIEWS reach the blind
    # swap).  The forced complete graph (4, 4, 2) needs no repair
    assert checked.events["views"] >= 9
    assert checked.events["scan"]
    assert checked.events["round rows"] and checked.events["rows left"]


def random_shapes(count: int, seed: int):
    """(N, M, ell) with ell in 2..8; every other shape dense (M <= 4*ell),
    and one in four with N >= 4096 and ell <= 3 (the sparse ones with
    M <= 120, so that they have many duplicates)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        ell = int(rng.integers(2, 9))
        dense = k % 2
        if k % 8 >= 6:
            n = int(rng.integers(4096, 12000))
            ell = min(ell, 3)
            top = 4 * ell if dense else 120
        else:
            n = int(rng.integers(3, 600))
            top = 4 * ell if dense else max(4 * ell, n // 4)
        low = ell if dense else min(4 * ell + 1, n * ell)
        m = int(rng.integers(low, max(low, min(top, n * ell)) + 1))
        yield n, m, ell


def test_random_shapes_repair_as_the_oracle(monkeypatch):
    # whole graphs, and views of a third of the items, every item, or one
    checked = CheckedRepair(monkeypatch)
    shapes = list(random_shapes(304, seed=25))
    dense = sum(m <= 4 * ell for _, m, ell in shapes)
    assert 140 <= dense <= 170 and {ell for _, _, ell in shapes} == set(range(2, 9))
    for k, shape in enumerate(shapes):
        g = sample_graph(*shape, seed=k)
        check_graph(g)
        assert g.retries == 0
        items = np.arange(shape[0])[::(3, 1, shape[0])[k % 3]]
        sample_defectives(*shape, items, seed=k)
    # a forced complete graph (M = ell) needs no repair, nor does a view
    # without duplicates
    assert checked.events["views"] > 200
    assert checked.events["calls"] - checked.events["views"] == sum(m > ell for _, m, ell in shapes)
    assert checked.events["scan"]
    assert checked.events["round rows"] > 5_000 and checked.events["rows left"]


@pytest.mark.parametrize("n_left", [1 << 18, 1 << 20])
def test_large_graphs_repair_as_the_oracle(n_left, monkeypatch):
    checked = CheckedRepair(monkeypatch)
    g = sample_graph(n_left, 81, 2, seed=7)
    check_graph(g)
    assert np.array_equal(g.right_adj[80], sample_graph(n_left, 81, 2, seed=7).right_adj[80])
    # nearly every duplicate is swapped in rounds
    assert checked.events["round rows"] > n_left / 81 * 0.9
    items = np.random.default_rng(n_left).choice(n_left, size=n_left // 64, replace=False)
    sample_defectives(n_left, 81, 2, items, seed=7)
    assert checked.events["views"] == 1


def test_views_of_every_item_repair_as_the_oracle(monkeypatch):
    # a view holding all N items repairs as many duplicates as a whole graph,
    # one at a time, and draws no rounds
    checked = CheckedRepair(monkeypatch)
    for k, (n, m, ell) in enumerate([(60, 7, 3), (200, 9, 2), (500, 20, 4), (40, 9, 8),
                                     (5000, 81, 2)]):
        sample_defectives(n, m, ell, np.arange(n), seed=k)
    assert checked.events["calls"] == 5 and checked.events["scan"]
    assert checked.events["round rows"] == 0


# (shape, seed): with one repair pass, whole graphs of (2^14, 47, 2) seed 0
# and (30, 20, 2) seed 12 resample 2 and 7 times, and every view of every
# item with a duplicate fails; with two, whole graphs of (4, 7, 6) seed 12
# and (7, 9, 8) seed 6 resample once after a blind swap, and so do views of
# every item of (4, 7, 6) at seeds 3 and 32
RESAMPLED = [((1 << 14, 47, 2), 0), ((6000, 8, 3), 1), ((30, 20, 2), 12),
             ((4, 7, 6), 12), ((7, 9, 8), 6)]
RESAMPLED_VIEWS = [((4, 7, 6), 3), ((4, 7, 6), 32)]


def resample(make):
    """make()'s retries, or MAX_RESAMPLES if every layout failed."""
    try:
        return make().retries
    except RuntimeError:
        return graphs.MAX_RESAMPLES


@pytest.mark.parametrize("passes", [0, 1, 2])
def test_failed_repairs_leave_the_oracle_state(passes, monkeypatch):
    # a failed layout's resample reads the generator next, so a view's
    # repair that fails must leave it where the oracle does, and a whole
    # graph's must leave a layout that the next draw replaces
    monkeypatch.setattr(graphs, "MAX_REPAIR_PASSES", passes)
    checked = CheckedRepair(monkeypatch)
    retries = [resample(lambda: sample_graph(*shape, seed=seed)) for shape, seed in RESAMPLED]
    views = RESAMPLED + RESAMPLED_VIEWS
    for shape, seed in views:
        try:
            sample_defectives(*shape, np.arange(shape[0]), seed=seed)
        except RuntimeError:
            pass
    assert checked.events["views"] >= len(views) and checked.events["failed"] > 0
    want = {0: [8] * 5, 1: [2, 8, 7, 8, 8], 2: [0, 0, 0, 1, 1]}
    assert retries == want[passes]


def test_resampled_graphs_equal_the_oracles(monkeypatch):
    # end to end: views sampled with the oracle in _repair's place, a blind
    # swap and a resample included, and whole graphs sampled twice
    monkeypatch.setattr(graphs, "MAX_REPAIR_PASSES", 2)
    views = RESAMPLED + RESAMPLED_VIEWS
    got = [sample_defectives(*shape, np.arange(shape[0]), seed=seed) for shape, seed in views]
    graphs_got = [sample_graph(*shape, seed=seed) for shape, seed in RESAMPLED]
    assert [g.retries for g in graphs_got] == [0, 0, 0, 1, 1]
    for (shape, seed), g in zip(RESAMPLED, graphs_got):
        check_graph(g)
        h = sample_graph(*shape, seed=seed)
        assert h.retries == g.retries
        assert all(np.array_equal(a, b) for a, b in zip(g.right_adj, h.right_adj))
    events = Counter()
    monkeypatch.setattr(graphs, "_repair", lambda *args: oracle_repair(*args, events))
    for (shape, seed), view in zip(views, got):
        want = sample_defectives(*shape, np.arange(shape[0]), seed=seed)
        items = np.arange(shape[0])
        assert all(np.array_equal(a, b) for a, b in zip(view.incidence(items),
                                                        want.incidence(items)))
    assert events["blind"]
