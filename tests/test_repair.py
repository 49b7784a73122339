"""The duplicate repair against the row-by-row loop it replaced.

graphs._repair draws ahead in bulk and makes runs of swaps in one numpy
update, but every seeded graph rests on it making the swaps, the draws and
the generator state of oracle_repair below: the loop as it stood before,
which repaired one duplicate at a time from scalar rng.integers calls.
"""

import copy
from collections import Counter

import numpy as np
import pytest

from qgt import graphs
from qgt.graphs import sample_defectives, sample_graph
from test_graphs import PINNED_GRAPHS


def oracle_duplicates(loc, blocks):
    owner = blocks.of_all(loc)
    repeat = owner[:, 1:] == owner[:, :-1]
    dup_pos = loc[:, 1:][repeat]
    dup_block = owner[:, 1:][repeat]
    order = np.argsort(dup_block, kind="stable")
    return dup_pos[order].tolist(), dup_block[order].tolist()


def oracle_repair(stubs, loc, blocks, rng, events: Counter) -> bool:
    """The row-by-row repair; events counts its linear scans and blind swaps."""
    bnd = blocks.bounds
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


class CheckedRepair:
    """Stands in for graphs._repair: runs the oracle on copies of its inputs,
    then the repair itself, and asserts that both leave the same stubs, loc,
    return value and generator state.  It counts the oracle's events, the
    rows that _swap_run made in bulk, and the calls that returned False."""

    def __init__(self, monkeypatch):
        self.repair = graphs._repair
        self.swap_run = graphs._swap_run
        self.events = Counter()
        monkeypatch.setattr(graphs, "_repair", self)
        monkeypatch.setattr(graphs, "_swap_run", self._counted_run)

    def _counted_run(self, *args):
        run = self.swap_run(*args)
        self.events["bulk rows"] += run
        return run

    def __call__(self, stubs, loc, blocks, rng):
        twin = (stubs.copy() if isinstance(stubs, np.ndarray) else graphs._Held(stubs),
                loc.copy(), copy.deepcopy(rng))
        want = oracle_repair(*twin[:2], blocks, twin[2], self.events)
        got = self.repair(stubs, loc, blocks, rng)
        assert got == want
        assert np.array_equal(loc, twin[1])
        if isinstance(stubs, np.ndarray):
            assert np.array_equal(stubs, twin[0])
        else:
            assert stubs == twin[0]
        assert rng.bit_generator.state == twin[2].bit_generator.state
        self.events["calls"] += 1
        self.events["failed"] += not got
        return got


def test_pinned_shapes_repair_as_the_oracle(monkeypatch):
    checked = CheckedRepair(monkeypatch)
    for shape, seed, _ in PINNED_GRAPHS:
        sample_graph(*shape, seed=seed)
    # (20, 10, 8) reaches the linear scan, (4, 7, 6) and (7, 9, 8) the blind swap
    assert checked.events["scan"] and checked.events["blind"]
    assert checked.events["bulk rows"]


def random_shapes(count: int, seed: int):
    """(N, M, ell) with ell in 2..8; every other shape dense (M <= 4*ell),
    and one in four with N >= 4096 and ell <= 3, where the bulk repair may
    start (the sparse ones with M <= 120, so that it does)."""
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
    checked = CheckedRepair(monkeypatch)
    shapes = list(random_shapes(304, seed=25))
    dense = sum(m <= 4 * ell for _, m, ell in shapes)
    assert 140 <= dense <= 170 and {ell for _, _, ell in shapes} == set(range(2, 9))
    for k, shape in enumerate(shapes):
        sample_graph(*shape, seed=k)
    # a forced complete graph (M = ell) needs no repair
    assert checked.events["calls"] == sum(m > ell for _, m, ell in shapes)
    assert checked.events["scan"]
    assert checked.events["bulk rows"] > 5_000


@pytest.mark.parametrize("n_left", [1 << 18, 1 << 20])
def test_large_graphs_repair_as_the_oracle(n_left, monkeypatch):
    checked = CheckedRepair(monkeypatch)
    sample_graph(n_left, 81, 2, seed=7)
    # nearly every duplicate is swapped in bulk
    assert checked.events["bulk rows"] > n_left / 81 * 0.9


def test_views_of_every_item_repair_as_the_oracle(monkeypatch):
    # a view holding all N items repairs as many duplicates as a whole graph,
    # one at a time, from bulk draws once it has taken enough
    checked = CheckedRepair(monkeypatch)
    for k, (n, m, ell) in enumerate([(60, 7, 3), (200, 9, 2), (500, 20, 4), (40, 9, 8),
                                     (5000, 81, 2)]):
        sample_defectives(n, m, ell, np.arange(n), seed=k)
    assert checked.events["calls"] == 5 and checked.events["scan"]
    assert checked.events["bulk rows"] == 0


# (shape, seed): with one repair pass, (30, 20, 2) seed 12 resamples 7 times;
# with two, (4, 7, 6) seed 12 and (7, 9, 8) seed 6 resample once after a
# blind swap.  The two larger shapes fail every layout in one pass, the first
# after bulk runs
RESAMPLED = [((1 << 14, 47, 2), 0), ((6000, 8, 3), 1), ((30, 20, 2), 12),
             ((4, 7, 6), 12), ((7, 9, 8), 6)]


@pytest.mark.parametrize("passes", [0, 1, 2])
def test_failed_repairs_leave_the_oracle_state(passes, monkeypatch):
    # a failed layout's resample reads the generator next, so a repair that
    # fails must leave it where the oracle does
    monkeypatch.setattr(graphs, "MAX_REPAIR_PASSES", passes)
    checked = CheckedRepair(monkeypatch)
    retries = []
    for shape, seed in RESAMPLED:
        try:
            retries.append(sample_graph(*shape, seed=seed).retries)
        except RuntimeError:
            retries.append(graphs.MAX_RESAMPLES)
    assert checked.events["failed"] > 0
    if passes:
        assert any(0 < r < graphs.MAX_RESAMPLES for r in retries)
        assert checked.events["bulk rows"]


def test_resampled_graphs_equal_the_oracles(monkeypatch):
    # end to end: the graphs sampled with the oracle in _repair's place
    monkeypatch.setattr(graphs, "MAX_REPAIR_PASSES", 2)
    got = [sample_graph(*shape, seed=seed) for shape, seed in RESAMPLED]
    monkeypatch.setattr(graphs, "_repair", lambda *args: oracle_repair(*args, Counter()))
    for (shape, seed), g in zip(RESAMPLED, got):
        h = sample_graph(*shape, seed=seed)
        assert h.retries == g.retries
        assert all(np.array_equal(a, b) for a, b in zip(g.right_adj, h.right_adj))
    assert [g.retries for g in got] == [0, 0, 0, 1, 1]


@pytest.mark.parametrize("n", [3, 1 << 21, 1 << 31, (1 << 32) + 1, (1 << 33) + 5])
def test_bulk_draws_are_the_scalar_draws(n):
    # graphs._Draws takes rng.integers(n) values in bulk and rewinds the
    # generator by redrawing their count; both rest on this property of numpy
    bulk, scalar = np.random.default_rng(n), np.random.default_rng(n)
    values = bulk.integers(n, size=1001)
    singles = [int(scalar.integers(n)) for _ in range(1001)]
    assert values.tolist() == singles, (
        f"Generator.integers({n}, size=k) no longer returns the values of k "
        "scalar integers(n) calls, so graphs._Draws would change every seeded graph")
    assert bulk.bit_generator.state == scalar.bit_generator.state, (
        f"Generator.integers({n}, size=k) leaves the generator in another state "
        "than k scalar calls, so graphs._Draws would shift every later draw")


@pytest.mark.parametrize("n", [3, 1 << 21, (1 << 33) + 5])
def test_draws_rewind_to_the_scalar_state(n):
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    draws = graphs._Draws(rng, n)
    got = [draws.take() for _ in range(graphs._SCALAR_DRAWS + 3)]
    got += draws.ahead(40)[:25].tolist()
    draws.skip(25)
    got += [draws.take() for _ in range(5000)]
    draws.ahead(7)  # looked at, not used
    draws.rewind()
    assert got == [int(twin.integers(n)) for _ in range(len(got))]
    assert rng.bit_generator.state == twin.bit_generator.state


def test_short_repairs_draw_one_value_at_a_time():
    # a view's one or two duplicates take no snapshot and no bulk draw
    draws = graphs._Draws(np.random.default_rng(1), 100)
    for _ in range(graphs._SCALAR_DRAWS):
        draws.take()
    assert draws.state is None and len(draws.buf) == 0
    draws.take()
    assert draws.state is not None
