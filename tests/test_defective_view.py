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


def view_of(graph, items):
    items = np.array(sorted(items), dtype=np.int64)
    return DefectiveView(graph.n_left, graph.degrees(), items, *graph.incidence(items))


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
    # group i at position max_right_degree has the key of group i + 1 at 0
    nxt = view.items_at(np.arange(1, 47), np.zeros(46, dtype=np.int64))
    assert (nxt >= 0).any()
    assert (view.items_at(np.arange(46), np.full(46, top)) == -1).all()
    empty = np.zeros(0, dtype=np.int64)
    assert view.items_at(empty, empty).shape == (0,)
    assert view_of(graph, set()).items_at(groups, positions).tolist() == [-1] * len(groups)


@pytest.mark.parametrize("shape", [
    (10, 2, 3),   # ell > M
    (3, 1, 2),    # ell > M, where the one right degree (6) would exceed N
    (3, 10, 2),   # M > N*ell
    (10, 5, 1),   # ell < 2
    (0, 2, 2),    # N < 1
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


def test_encode_rejects_an_item_not_in_the_view():
    view = sample_defectives(100, 20, 2, [3, 50], seed=1)
    sig = build_signature(2, view.max_right_degree)
    encode(view, sig, {3, 50})
    with pytest.raises(ValueError, match="not in the view"):
        encode(view, sig, {3, 4})
    with pytest.raises(ValueError, match="out of range"):
        encode(view, sig, {100})


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
