"""The defectives-only sampler and the K-row view that encode and decode use.

A view built from a whole graph's own incidence must encode and decode
exactly as that graph does; the sampler must accept and reject the shapes
sample_graph does, terminate on every one of them, and give success rates
that agree with the whole-graph sampler within Monte Carlo error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgt.codec import build_signature, decode, encode
from qgt.density import lambda_threshold
from qgt.graphs import BiRegularGraph, DefectiveView, sample_defectives, sample_graph
from qgt.simulate import TrialConfig, run_trial


def edges_of(graph, items):
    """The items' right-major edge indices in graph, one row per item."""
    rights, positions = graph.incidence(items)
    starts = np.concatenate([[0], np.cumsum(graph.degrees())[:-1]])
    return starts[rights] + positions


def view_of(graph, items):
    items = np.array(sorted(items), dtype=np.int64)
    return DefectiveView(graph.n_left, graph.degrees(), items, edges_of(graph, items))


def test_view_of_a_graph_encodes_and_decodes_as_the_graph():
    rng = np.random.default_rng(20240901)
    stalled = exact = 0
    for _ in range(240):
        n = int(rng.integers(20, 400))
        ell = int(rng.integers(2, 4))
        t = int(rng.integers(1, 4))
        k = int(rng.integers(0, n // 4 + 1))
        lam = lambda_threshold(t, ell) * rng.uniform(0.6, 1.6)
        m = min(max(ell, math.ceil(max(k, 1) * ell / lam)), n)
        graph = sample_graph(n, m, ell, seed=int(rng.integers(1 << 62)))
        support = set(rng.choice(n, size=k, replace=False).tolist())
        view = view_of(graph, support)
        assert (view.n_left, view.n_right, view.max_right_degree) == \
            (graph.n_left, graph.n_right, graph.max_right_degree)
        assert np.array_equal(view.degrees(), graph.degrees())
        sig = build_signature(t, graph.max_right_degree)
        y = encode(graph, sig, support)
        assert np.array_equal(encode(view, sig, support), y)
        out = decode(graph, sig, y)
        assert decode(view, sig, y) == out
        stalled += not out.success
        exact += out.success
    assert stalled > 20 and exact > 20


def test_view_items_at_agrees_with_its_graph():
    rng = np.random.default_rng(5)
    graph = sample_graph(300, 47, 2, seed=8)
    held = set(rng.choice(300, size=60, replace=False).tolist())
    view = view_of(graph, held)
    top = graph.max_right_degree
    # every group at every position from -1 to past the largest group
    groups, positions = (a.ravel() for a in np.meshgrid(np.arange(47), np.arange(-1, top + 3)))
    whole = graph.items_at(groups, positions)
    want = np.where(np.isin(whole, list(held)), whole, -1)
    assert view.items_at(groups, positions).tolist() == want.tolist()
    # group i at position max_right_degree is not group i + 1 at 0
    nxt = view.items_at(np.arange(1, 47), np.zeros(46, dtype=np.int64))
    assert (nxt >= 0).any()
    assert (view.items_at(np.arange(46), np.full(46, top)) == -1).all()
    empty = np.zeros(0, dtype=np.int64)
    assert view.items_at(empty, empty).shape == (0,)
    assert view_of(graph, set()).items_at(groups, positions).tolist() == [-1] * len(groups)
    # a group past the last one, or below the first, is an error on both,
    # not a miss (numpy alone would read group -1 as the last group); so is
    # a non-integer group or position, which a cast would truncate
    for holder in (graph, view):
        for group in (47, -1):
            with pytest.raises(IndexError):
                holder.items_at(np.array([3, group]), np.array([0, 0]))
        for groups, positions, name in (([0.9], [1], "groups"), ([0], [1.7], "positions"),
                                        ([True], [1], "groups")):
            with pytest.raises(ValueError, match=f"{name} must be integers"):
                holder.items_at(np.array(groups), np.array(positions))
        with pytest.raises(ValueError, match=f"groups: {1 << 63} does not fit in int64"):
            holder.items_at(np.array([3, 1 << 63], dtype=np.uint64), np.array([0, 0]))


def test_view_kernels_equal_the_checked_methods():
    # decode's unchecked _incidence and _items_at answer as the checked
    # methods do on what decode hands them: held items, and every group
    # against positions from -1 to past the largest group
    rng = np.random.default_rng(31)
    graph = sample_graph(300, 47, 2, seed=8)
    top = graph.max_right_degree
    views = [view_of(graph, set(rng.choice(300, size=60, replace=False).tolist())),
             sample_defectives(300, 47, 2, rng.choice(300, size=60, replace=False), seed=3),
             view_of(graph, set())]
    positions = np.tile(np.arange(-1, top + 3), (47, 1))
    for view in views:
        for items in (view.items, view.items[::-3], view.items[:0]):
            want = view.incidence(items)
            assert all(np.array_equal(a, b) for a, b in zip(view._incidence(items), want))
        want = view.items_at(np.repeat(np.arange(47), top + 4), positions.ravel())
        got = view._items_at(np.arange(47)[:, None], positions)
        assert got.shape == positions.shape and np.array_equal(got.ravel(), want)
        assert (want >= 0).any() == bool(len(view.items))


def test_view_items_must_be_ascending_and_distinct():
    graph = sample_graph(60, 12, 2, seed=3)
    for items in (np.array([7, 3]), np.array([3, 3, 7])):
        with pytest.raises(ValueError, match="ascending and distinct"):
            DefectiveView(graph.n_left, graph.degrees(), items, edges_of(graph, items))
    # the items are checked before the rows, which are valid for two items;
    # a cast to int64 would truncate a float and read a bool as 0 or 1
    rows = edges_of(graph, np.array([3, 7]))
    for items in (np.array([3.0, 7.0]), np.array([3.5, 7.2]), np.array([False, True]),
                  np.array([-1, 7]), np.array([3, 60]), np.array([3, 2 ** 64 - 1], np.uint64),
                  np.array([[3, 7]])):
        with pytest.raises(ValueError, match=r"ascending and distinct integers in \[0, 60\)"):
            DefectiveView(graph.n_left, graph.degrees(), items, rows)


def test_view_refuses_non_integer_degrees():
    graph = sample_graph(60, 12, 2, seed=3)
    items = np.array([3, 7])
    for degrees in (graph.degrees() + 0.4, graph.degrees() > 0):
        with pytest.raises(ValueError, match="a view's degrees must be integers"):
            DefectiveView(graph.n_left, degrees, items, edges_of(graph, items))


def test_view_refuses_degrees_that_no_graph_of_its_size_has():
    # a view checks its degrees as a graph does, against N*ell for its N and
    # its rows' ell; each of the first three was once held, and decoded
    for n, degrees, message in ((4, [0, 4, 4], "every right node needs at least one edge"),
                                (4, [2, 6], "at most two adjacent values"),
                                (2, [3, 3], "right degrees sum to 6, not 4"),
                                (4, [], "at least one node on each side")):
        with pytest.raises(ValueError, match=message):
            DefectiveView(n, degrees, np.array([1]), np.array([[0, 3]]))


def oracle_split(degrees, edges):
    """Groups and positions of right-major edge indices by the rule views
    used before they shared the graph's: a binary search of the starts."""
    starts = np.concatenate([[0], np.cumsum(degrees)[:-1]])
    rights = np.searchsorted(starts, edges, side="right") - 1
    return rights, edges - starts[rights]


def test_views_and_graphs_split_edges_as_the_searchsorted_rule():
    # random shapes, with their groups also in random order, as a loaded
    # file's right lists may come; K from 0 to N; the forced complete graph
    # (M = ell); and sampled views
    rng = np.random.default_rng(29)
    shapes = [(5, 3, 3), (4, 2, 2), (60, 12, 2), (300, 47, 2)]
    shapes += [(int(n), int(rng.integers(ell, n * ell + 1)), int(ell))
               for n, ell in zip(rng.integers(4, 300, 40), rng.integers(2, 6, 40))]
    for n, m, ell in shapes:
        seed = int(rng.integers(1 << 40))
        sampled = sample_graph(n, m, ell, seed=seed)
        order = rng.permutation(m)
        shuffled = BiRegularGraph(n, ell, np.concatenate([sampled.right_adj[i] for i in order]),
                                  sampled.degrees()[order])
        for graph in (sampled, shuffled):
            degrees = graph.degrees()
            want = oracle_split(degrees, graph._left_edges.astype(np.int64))
            got = graph.incidence(np.arange(n))
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            for k in (0, 1, n // 2, n):
                items = np.sort(rng.choice(n, size=k, replace=False))
                edges = edges_of(graph, items)
                view = DefectiveView(n, degrees, items, edges)
                assert all(np.array_equal(a, b) for a, b in
                           zip((view._rights, view._positions), oracle_split(degrees, edges)))
        for k in (0, 1, n // 2, n):
            items = rng.choice(n, size=k, replace=False)
            drawn = sample_defectives(n, m, ell, items, seed=seed + k)
            degrees = drawn.degrees()
            edges = np.concatenate([[0], np.cumsum(degrees)[:-1]])[drawn._rights]
            edges += drawn._positions
            assert all(np.array_equal(a, b) for a, b in
                       zip((drawn._rights, drawn._positions), oracle_split(degrees, edges)))


def test_view_holds_only_items_of_its_design():
    # item 30 of an N = 10 design, at position 0 of groups 0 and 1: a view
    # holding it would decode item 9's test vector to success with {30}, a
    # set that encode refuses
    degrees = np.full(4, 5)
    with pytest.raises(ValueError, match=r"in \[0, 10\)"):
        DefectiveView(10, degrees, np.array([30]), np.array([[0, 5]]))
    view = DefectiveView(10, degrees, np.array([9]), np.array([[0, 5]]))
    sig = build_signature(1, 5)
    with pytest.raises(ValueError, match="out of range"):
        encode(view, sig, {30})
    out = decode(view, sig, encode(view, sig, {9}))
    assert out.recovered == {9} and out.success


def test_view_checks_the_rows_it_is_handed():
    graph = sample_graph(60, 12, 2, seed=3)
    items = np.array([3, 7, 20])
    edges = edges_of(graph, items)
    n_edges = 60 * 2
    one_row_per_item = "one row of integer edges per item"
    bad = [
        (edges[:2], one_row_per_item),                  # a row short
        (np.vstack([edges, edges[:1]]), one_row_per_item),  # a row over
        (edges.ravel(), one_row_per_item),              # not one row per item
        (edges.astype(float), one_row_per_item),
        (edges > 0, one_row_per_item),                  # bool
        (np.where(edges == edges[0, 0], -1, edges), r"lie in \[0, 120\)"),
        (np.where(edges == edges[0, 0], n_edges, edges), r"lie in \[0, 120\)"),
        (edges.astype(np.uint64) + np.uint64(2 ** 64 - 2 ** 62), r"lie in \[0, 120\)"),
    ]
    # item 3's second edge moved into its first edge's group: a parallel edge
    rights, positions = graph.incidence(items)
    twice = edges.copy()
    twice[0, 1] = twice[0, 0] + 1 if positions[0, 0] + 1 < graph.degrees()[rights[0, 0]] \
        else twice[0, 0] - 1
    bad.append((twice, "ascending groups, none twice"))
    bad.append((edges[:, ::-1], "ascending groups, none twice"))
    # item 7 at item 3's first edge
    shared = edges.copy()
    shared[1, np.argmax(rights[1] != rights[0, 0])] = edges[0, 0]
    bad.append((shared, "hold the same edge"))
    for rows, message in bad:
        with pytest.raises(ValueError, match=message):
            DefectiveView(graph.n_left, graph.degrees(), items, rows)
    # the same rows at another integer width make the same view
    view = DefectiveView(graph.n_left, graph.degrees(), items, edges.astype(np.int32))
    assert [a.tolist() for a in view.incidence(items)] == [rights.tolist(), positions.tolist()]
    empty = np.zeros(0, dtype=np.int64)
    assert len(DefectiveView(60, graph.degrees(), empty, empty.reshape(0, 2)).items) == 0


@pytest.mark.parametrize("n,m,ell", [(5, 3, 3), (4, 2, 2)])
def test_forced_view_holds_item_x_at_position_x(n, m, ell):
    # with M = ell every group holds all n items, so the view's rows are forced
    assert m == ell
    items = np.array([0, 2, n - 1])
    view = sample_defectives(n, m, ell, items, seed=0)
    rights, positions = view.incidence(items)
    assert rights.tolist() == [list(range(m))] * len(items)
    assert positions.tolist() == [[x] * m for x in items.tolist()]
    assert view.items_at(np.arange(m), np.full(m, 2)).tolist() == [2] * m


@pytest.mark.parametrize("shape", [
    (10, 2, 3),   # ell > M
    (3, 1, 2),    # ell > M, where the one right degree (6) would exceed N
    (3, 10, 2),   # M > N*ell
    (10, 5, 1),   # ell < 2
    (0, 2, 2),    # N < 1
    (60.0, 9, 3),  # not integers, which numpy refused unnamed
    (60, 9.0, 3),
    (60, 9, 3.0),
])
def test_infeasible_shapes_raise_as_sample_graph(shape):
    with pytest.raises(ValueError) as whole:
        sample_graph(*shape, seed=0)
    with pytest.raises(ValueError) as rows:
        sample_defectives(*shape, [], seed=0)
    assert str(rows.value) == str(whole.value)


def test_items_must_be_distinct_and_in_range():
    for items in ([3, 3], [-1], [40]):
        with pytest.raises(ValueError, match="distinct"):
            sample_defectives(40, 8, 2, items, seed=0)
    # a float item would be truncated and a bool read as 0 or 1
    for items in ([1.5, 2.7, 3.2], np.array([True, False])):
        with pytest.raises(ValueError, match="distinct integers"):
            sample_defectives(40, 8, 2, items, seed=0)


def placed(view, degrees):
    """The view's rows laid into right lists; -1 where the view has no item."""
    adj = [np.full(d, -1, dtype=np.int64) for d in degrees]
    rights, positions = view.incidence(view.items)
    for item, row_r, row_p in zip(view.items.tolist(), rights.tolist(), positions.tolist()):
        assert len(set(row_r)) == len(row_r), "parallel edge"
        for i, p in zip(row_r, row_p):
            assert adj[i][p] == -1, "two items at one position"
            adj[i][p] = item
    return adj


# K = N at the dense shapes where sample_graph needs its linear scan (20, 10,
# 8) and blind swap (4, 7, 6) and (7, 9, 8); K = 0; and the forced complete
# graph (every right degree equal to N)
@pytest.mark.parametrize("n,m,ell", [(20, 10, 8), (4, 7, 6), (7, 9, 8), (14, 4, 2),
                                     (120, 60, 4), (50, 11, 3), (4, 4, 2), (5, 3, 3)])
def test_sampler_terminates_and_is_simple(n, m, ell):
    degrees = np.full(m, n * ell // m)
    degrees[:n * ell % m] += 1
    for seed in range(6):
        assert len(sample_defectives(n, m, ell, [], seed=seed).items) == 0
        view = sample_defectives(n, m, ell, np.arange(n), seed=seed)
        # with every item held, the rows are a whole simple graph
        BiRegularGraph(n, ell, np.concatenate(placed(view, degrees)), degrees)
        for some in (np.arange(1, n), np.arange(0, n, 2)):  # one free item; half free
            placed(sample_defectives(n, m, ell, some, seed=seed), degrees)
    if degrees.min() == n:
        assert all(np.array_equal(a, np.arange(n)) for a in placed(view, degrees))


def test_sampler_is_seeded():
    a = sample_defectives(1000, 40, 2, [5, 99, 500], seed=3)
    b = sample_defectives(1000, 40, 2, [500, 5, 99], seed=3)
    c = sample_defectives(1000, 40, 2, [5, 99, 500], seed=4)
    items = np.array([5, 99, 500])
    assert all(np.array_equal(x, y) for x, y in zip(a.incidence(items), b.incidence(items)))
    assert not all(np.array_equal(x, y) for x, y in zip(a.incidence(items), c.incidence(items)))
    d = sample_defectives(1000, 40, 2, [5, 99, 500], seed=np.int32(3))
    assert all(np.array_equal(x, y) for x, y in zip(a.incidence(items), d.incidence(items)))
    for seed in (True, 3.0, None):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            sample_defectives(1000, 40, 2, [5, 99, 500], seed=seed)


def test_encode_rejects_an_item_not_in_the_view():
    view = sample_defectives(100, 20, 2, [3, 50], seed=1)
    sig = build_signature(2, view.max_right_degree)
    encode(view, sig, {3, 50})
    with pytest.raises(ValueError, match="not in the view"):
        encode(view, sig, {3, 4})
    with pytest.raises(ValueError, match="out of range"):
        encode(view, sig, {100})
    # a float item is refused as on a whole graph, whether or not it is whole
    for items in ([3.0, 50.0], [3.4], [3.0]):
        with pytest.raises(ValueError, match="items must be integers"):
            view.incidence(np.array(items))
    # so is a uint64 at 2^63 or above, by its own value rather than the
    # negative item that a cast to int64 makes of it
    for big in (1 << 63, (1 << 63) + 1, (1 << 64) - 1):
        with pytest.raises(ValueError, match=f"items: {big} does not fit in int64"):
            view.incidence(np.array([3, big], dtype=np.uint64))


ITEMS = list(range(0, 120, 3))
VIEW = sample_defectives(120, 12, 2, ITEMS, seed=4)
SIG = build_signature(2, VIEW.max_right_degree)


@settings(max_examples=150, deadline=None)
@given(support=st.sets(st.sampled_from(ITEMS), max_size=14),
       edits=st.lists(st.tuples(st.sampled_from(["count", "total", "parity", "column"]),
                                st.integers(0, 10 ** 6), st.integers(-3, 3)),
                      min_size=1, max_size=4))
def test_corrupted_y_on_a_view(support, edits):
    # decoding never raises, never names an item outside the view, and
    # success still means that the recovered set re-encodes to y
    y = encode(VIEW, SIG, support)
    s = SIG.s
    for kind, where, delta in edits:
        group = where % VIEW.n_right
        if kind == "count":
            y[1 + group * s] += delta or 1
        elif kind == "total":
            y[0] += delta or 1
        elif kind == "parity":  # +-2 keeps every bit and breaks the sum
            y[1 + group * s + 1 + where % (s - 1)] += 2 if delta >= 0 else -2
        else:  # any column, held by the view at this group or not
            y[1 + group * s: 1 + (group + 1) * s] += SIG.matrix[:, where % SIG.r]

    def invariant(_round, residual, recovered):
        assert np.array_equal(residual.ravel(), (y - encode(VIEW, SIG, recovered))[1:])

    out = decode(VIEW, SIG, y, trace=invariant)
    assert out.recovered <= set(ITEMS)
    assert out.success == np.array_equal(encode(VIEW, SIG, out.recovered), y)


def test_success_rates_match_the_whole_graph_sampler():
    # N = 1000, K = 30, t = 2, ell = 2: the DE threshold sits at M = K ell /
    # lambda_T = 17.9 groups.  At M = 18, 20 and 24 the two samplers' exact
    # recovery rates over 400 trials each must agree within 3 standard errors.
    n, k, t, ell, trials = 1000, 30, 2, 2, 400
    assert round(k * ell / lambda_threshold(t, ell)) == 18
    rates = []
    for m in (18, 20, 24):
        cfg = TrialConfig(n_items=n, k=k, t=t, ell=ell, m_groups=m)
        whole = rows = 0
        for j in range(trials):
            seq = np.random.SeedSequence(20240903, spawn_key=(m, j))
            graph = sample_graph(n, m, ell, seed=int(seq.generate_state(1)[0]))
            whole += run_trial(cfg, seq, graph=graph)[0]
            rows += run_trial(cfg, seq)[0]
        p = (whole + rows) / (2 * trials)
        se = math.sqrt(2 * p * (1 - p) / trials)
        assert abs(whole - rows) / trials <= 3 * se, (m, whole, rows)
        rates.append(p)
    assert rates[0] < 0.5 < rates[-1]
