"""The batched peeling round against the per-group loop it replaced.

sequential_decode below is that loop, kept as the oracle: it resolves one
group at a time with Berlekamp-Massey and the Chien scan (find_roots),
peeling into the residual as it goes, optionally in a shuffled order.  On
genuine input the batched decoder must match it round by round; on
corrupted input it must keep its own invariant, which the loop did not (it
could peel an item twice).
"""

import hashlib
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgt.bch import DecodeFailure, decode_syndrome, syndrome_from_bits
from qgt.codec import DecodeOutcome, build_signature, decode, encode, resolve_node
from qgt.density import lambda_threshold
from qgt.graphs import BiRegularGraph, sample_defectives, sample_graph


def alpha(f, e):
    """alpha^e as an int, the exponent taken mod the group order."""
    return int(f.alog_np[e % f.order])


def oracle_resolve(z, sig):
    count = int(z[0])
    if count == 0:
        return frozenset() if not z.any() else None
    if count < 0 or count > sig.bch.t:
        return None
    syndrome = syndrome_from_bits(sig.bch, (z[1:] % 2).astype(np.uint8))
    try:
        positions = decode_syndrome(sig.bch, syndrome, count)
    except DecodeFailure:
        return None
    check = sig.matrix[:, sorted(positions)].astype(np.int64).sum(axis=1)
    if not np.array_equal(check, z):
        return None
    return frozenset(positions)


def resolved(stack, sig):
    """resolve_node as one frozenset of positions per row, or None."""
    positions, ok = resolve_node(stack, sig)
    return [frozenset(j for j in row if j >= 0) if good else None
            for row, good in zip(positions.tolist(), ok.tolist())]


def sequential_decode(graph, sig, y, order_rng=None, trace=None):
    m, s = graph.n_right, sig.s
    t = sig.bch.t
    residual = y[1:].reshape(m, s).copy()
    resolved = np.zeros(m, dtype=bool)
    recovered = set()
    frontier = [i for i in range(m) if residual[i, 0] <= t]
    iterations = 0
    while frontier:
        iterations += 1
        if order_rng is not None:
            order_rng.shuffle(frontier)
        next_frontier = []
        for i in frontier:
            if resolved[i]:
                continue
            positions = oracle_resolve(residual[i], sig)
            if positions is None:
                continue
            adj = graph.right_adj[i]
            if any(p >= len(adj) for p in positions):
                continue
            resolved[i] = True
            for p in sorted(positions):
                v = int(adj[p])
                recovered.add(v)
                rights, places = graph.incidence(np.array([v]))
                for i2, p2 in zip(rights[0].tolist(), places[0].tolist()):
                    residual[i2, :] -= sig.matrix[:, p2].astype(np.int64)
                    if not resolved[i2] and residual[i2, 0] <= t:
                        next_frontier.append(i2)
        frontier = sorted(i for i in set(next_frontier) if not resolved[i])
        if trace is not None:
            trace(iterations, residual.copy(), set(recovered))
    unresolved = int((~resolved).sum())
    success = len(recovered) == int(y[0]) and not residual.any()
    return DecodeOutcome(recovered=recovered, iterations=iterations,
                         unresolved_right=unresolved, success=success)


def layered_graph(n, q, ell, rng):
    """ell layers of q groups, each layer a random split of all n items.

    Simple by construction, so wide fields (few, large groups) cost no
    repair passes in the sampler.
    """
    right_adj = []
    for _ in range(ell):
        right_adj += [np.sort(part) for part in np.array_split(rng.permutation(n), q)]
    return BiRegularGraph(n, ell, np.concatenate(right_adj), [len(a) for a in right_adj])


def genuine_instances(count, seed):
    """(graph, sig, y) over t in 1..4 and field degrees 3..16.

    Loads straddle the peeling threshold, so about half the decodes stall.
    """
    rng = np.random.default_rng(seed)
    for idx in range(count):
        b = 3 + idx % 14
        t = 1 + (idx // 14) % 4
        ell = int(rng.integers(2, 4))
        q = int(rng.integers(2, max(3, min(20, 2 ** (17 - b))) + 1))
        r_max = int(rng.integers(max(2, 2 ** (b - 1)), 2 ** b))
        n = r_max * q
        lam = lambda_threshold(t, ell) * rng.uniform(0.6, 1.6)
        k = min(n // 4, round(lam * q))
        graph = layered_graph(n, q, ell, rng)
        sig = build_signature(t, graph.max_right_degree)
        support = set(rng.choice(n, size=k, replace=False).tolist())
        yield graph, sig, encode(graph, sig, support)


def run_with_trace(fn, graph, sig, y, **kwargs):
    rounds = []
    out = fn(graph, sig, y, **kwargs,
             trace=lambda it, res, rec: rounds.append((it, res.tobytes(), frozenset(rec))))
    return (out.recovered, out.iterations, out.success, out.unresolved_right), rounds


@pytest.mark.parametrize("order_seed", [None, 3])
def test_batched_rounds_match_sequential_oracle(order_seed):
    degrees, stalled = set(), 0
    for graph, sig, y in genuine_instances(280, seed=11 if order_seed is None else 12):
        degrees.add((sig.bch.t, sig.bch.field.degree))
        # the oracle peels in frontier order; shuffled, it must still give
        # the batched decoder's rounds
        order_rng = None if order_seed is None else np.random.default_rng(order_seed)
        got = run_with_trace(decode, graph, sig, y)
        want = run_with_trace(sequential_decode, graph, sig, y, order_rng=order_rng)
        assert got == want
        stalled += not got[0][2]
    assert {b for _, b in degrees} == set(range(3, 17))
    assert {t for t, _ in degrees} == {1, 2, 3, 4}
    assert 0 < stalled < 280


def pair_slices(sig, pairs):
    return np.array([sig.matrix[:, list(p)].sum(axis=1, dtype=np.int64) for p in pairs])


def test_count_two_closed_form_all_pairs_small_field():
    sig = build_signature(2, 15)  # b = 4, every column of the full code
    assert sig.bch.field.degree == 4 and sig.r == sig.bch.n
    pairs = list(itertools.combinations(range(sig.r), 2))
    got = resolved(pair_slices(sig, pairs), sig)
    for pair, z, positions in zip(pairs, pair_slices(sig, pairs), got):
        syndrome = syndrome_from_bits(sig.bch, z[1:] & 1)
        assert decode_syndrome(sig.bch, syndrome, 2) == set(pair)
        assert positions == frozenset(pair)


@pytest.mark.parametrize("b", [15, 16])
def test_count_two_closed_form_random_pairs_wide_field(b):
    sig = build_signature(2, 2 ** b - 1)
    assert sig.bch.field.degree == b
    rng = np.random.default_rng(b)
    pairs = [tuple(rng.choice(sig.r, size=2, replace=False).tolist()) for _ in range(40)]
    slices = pair_slices(sig, pairs)
    for pair, z, positions in zip(pairs, slices, resolved(slices, sig)):
        syndrome = syndrome_from_bits(sig.bch, z[1:] & 1)
        assert decode_syndrome(sig.bch, syndrome, 2) == set(pair)
        assert positions == frozenset(pair)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_stack_matches_oracle_on_arbitrary_slices(t):
    # counts 0..t+1 over random parity bits and small integer noise; most
    # rows fail, and every row must fail or succeed as the oracle does
    sig = build_signature(t, 30)
    rng = np.random.default_rng(t)
    rows = []
    for _ in range(300):
        count = int(rng.integers(0, t + 2))
        picked = rng.choice(sig.r, size=min(count, t), replace=False)
        z = sig.matrix[:, picked].sum(axis=1, dtype=np.int64)
        z[0] = count
        if rng.random() < 0.5:
            z[1:] ^= rng.integers(0, 2, size=sig.s - 1)
        if rng.random() < 0.2:
            z[int(rng.integers(1, sig.s))] += 2
        rows.append(z)
    stack = np.array(rows)
    got = resolved(stack, sig)
    assert got == [oracle_resolve(z, sig) for z in stack]
    assert got == [resolved(z[None], sig)[0] for z in stack]
    assert any(g is not None for g in got) and any(g is None for g in got)
    assert resolve_node(stack, sig)[0].shape == (len(stack), t)


def slice_with_syndrome(sig, count, sums):
    """A length-s slice of this count whose parity bits pack to sums."""
    f = sig.bch.field
    z = np.zeros(sig.s, dtype=np.int64)
    z[0] = count
    z[1:] = f.bit_columns(sums).T.ravel()
    return z


def test_closed_form_failure_cases():
    sig = build_signature(2, 40)  # b = 6, shortened: r = 40 < n = 63
    f, r = sig.bch.field, sig.r
    cases = {
        "S1 = 0, count 1": slice_with_syndrome(sig, 1, [0, 5]),
        "S1 = 0, count 2": slice_with_syndrome(sig, 2, [0, 5]),
    }
    # S1 = 1 and S3 = 1 + u make u the quadratic's constant, z^2 + z = u unsolvable
    u = next(a for a in range(1, f.order + 1) if f.quadratic_table[a] < 0)
    cases["z^2 + z = u unsolvable"] = slice_with_syndrome(sig, 2, [1, 1 ^ u])
    cases["sigma2 = 0"] = slice_with_syndrome(sig, 2, [alpha(f, 3), alpha(f, 9)])
    # a genuine pair of the unshortened code with one position past r
    p, q = 7, r + 5
    cases["position >= r"] = slice_with_syndrome(
        sig, 2, [alpha(f, p) ^ alpha(f, q), alpha(f, 3 * p) ^ alpha(f, 3 * q)])
    cases["position >= r, count 1"] = slice_with_syndrome(
        sig, 1, [alpha(f, q), alpha(f, 3 * q)])
    stack = np.array(list(cases.values()))
    for name, z, got in zip(cases, stack, resolved(stack, sig)):
        assert got is None, name
        assert oracle_resolve(z, sig) is None, name

    sig = build_signature(4, 40)
    f = sig.bch.field
    a = alpha(f, 5)
    cases = {
        "S1^3 + S3 = 0, count 3": slice_with_syndrome(sig, 3, [a, f.pow(a, 3), 7, 9]),
        "determinant 0, count 4": slice_with_syndrome(sig, 4, [0, 0, 7, 9]),
        "one column's syndrome, count 4": slice_with_syndrome(
            sig, 4, [a, f.pow(a, 3), f.pow(a, 5), f.pow(a, 7)]),
    }
    stack = np.array(list(cases.values()))
    for name, z, got in zip(cases, stack, resolved(stack, sig)):
        assert got is None, name
        assert oracle_resolve(z, sig) is None, name


def test_counts_up_to_four_exhaustive_small_field():
    # every pattern of 0..4 of the 15 columns at b = 4, t = 4
    sig = build_signature(4, 15)
    assert sig.bch.field.degree == 4 and sig.r == sig.bch.n
    patterns = [p for w in range(5) for p in itertools.combinations(range(sig.r), w)]
    assert len(patterns) == 1941
    stack = pair_slices(sig, patterns)
    got = resolved(stack, sig)
    assert got == [frozenset(p) for p in patterns]
    assert got == [oracle_resolve(z, sig) for z in stack]
    # S1 = 0 sends a count-3 row's extra root to 0 and leaves a count-4 row
    # the determinant S3^2
    f = sig.bch.field
    s1_zero = set()
    for p in patterns:
        s1 = 0
        for j in p:
            s1 ^= alpha(f, j)
        if s1 == 0:
            s1_zero.add(len(p))
    assert {3, 4} <= s1_zero


def corrupt(z, sig, rng):
    """A slice after one of four edits, most of which leave no genuine pattern."""
    z = z.copy()
    kind = int(rng.integers(4))
    if kind == 0:  # flip parity bits
        z[1:] ^= rng.integers(0, 2, size=sig.s - 1)
    elif kind == 1:  # +2 keeps every bit and breaks the sum
        z[int(rng.integers(1, sig.s))] += 2
    elif kind == 2:  # one more column, perhaps one already in the slice
        z += sig.matrix[:, int(rng.integers(0, sig.r))]
    else:
        z[0] += 1
    return z


@pytest.mark.parametrize("t", [3, 4])
def test_counts_three_and_four_match_oracle_across_fields(t):
    # seeded genuine and corrupted stacks at every field degree: the batch
    # resolves exactly the slices the oracle does, to the same positions
    rng = np.random.default_rng(40 + t)
    degrees = [b for b in range(3, 17) if t < 1 << (b - 1)]
    for b in degrees:
        sig = build_signature(t, int(rng.integers(2 ** (b - 1), 2 ** b)))
        assert sig.bch.field.degree == b
        rows, corrupted = [], 0
        for _ in range(200 if b < 12 else 80):
            count = int(rng.integers(0, t + 2))
            picked = rng.choice(sig.r, size=min(count, t), replace=False)
            z = sig.matrix[:, picked].sum(axis=1, dtype=np.int64)
            z[0] = count
            if rng.random() < 0.25:
                z = corrupt(z, sig, rng)
                corrupted += 1
            rows.append(z)
        stack = np.array(rows)
        got = resolved(stack, sig)
        assert got == [oracle_resolve(z, sig) for z in stack], b
        assert corrupted and any(g is not None and len(g) >= 3 for g in got), b


@pytest.mark.parametrize("t, r_max", [(1, 5), (2, 40), (3, 100), (4, 200), (2, 3000)])
def test_resolve_node_on_garbage_at_shortened_codes(t, r_max):
    # a shortened code's refused rows may carry positions past r, which the
    # integer re-check must not read as columns: resolve_node never raises,
    # an ok row's columns integer-sum to its slice, and a count-0 row is ok
    # exactly when its slice is zero
    sig = build_signature(t, r_max)
    f, n, r = sig.bch.field, sig.bch.n, sig.r
    assert r < n
    rng = np.random.default_rng(r_max)
    rows = []
    for _ in range(400):
        count = int(rng.integers(-1, t + 2))
        kind = int(rng.integers(4))
        if kind == 0:  # the syndrome of positions of the unshortened code
            picked = rng.integers(0, n, size=int(rng.integers(1, t + 1)))
            sums = [np.bitwise_xor.reduce(f.alog_np[(2 * k + 1) * picked % n])
                    for k in range(t)]
            z = slice_with_syndrome(sig, len(picked) if rng.random() < 0.7 else count, sums)
        elif kind == 1:  # genuine columns, perhaps corrupted
            picked = rng.choice(r, size=min(max(count, 0), t), replace=False)
            z = sig.matrix[:, picked].sum(axis=1, dtype=np.int64)
            z[0] = count
            if rng.random() < 0.5:
                z = corrupt(z, sig, rng)
        elif kind == 2:
            z = rng.integers(-1, 4, size=sig.s)
        else:  # zero, or one stray parity bit
            z = np.zeros(sig.s, dtype=np.int64)
            z[0] = count
            if rng.random() < 0.5:
                z[int(rng.integers(1, sig.s))] = 1
        rows.append(z)
    stack = np.array(rows)
    positions, ok = resolve_node(stack, sig)
    assert positions.shape == (len(stack), t) and ok.shape == (len(stack),)
    for z, row, good in zip(stack, positions, ok):
        if good:
            assert (row < r).all()
            assert np.array_equal(sig.matrix[:, row[row >= 0]].sum(axis=1, dtype=np.int64), z)
        if z[0] == 0:
            assert good == (not z.any())
    assert ok.any() and (positions[~ok] >= r).any()


def garbage_slices(sig, rng, rows):
    """A stack of mostly invalid slices, counts -1..t+1.

    A fifth each: sums of 1..t columns (repeats allowed) at that count 70%
    of the time; the same with one slot moved by -1, +1 or +2; uniform
    slots in -1..3; the parity bits of 1..t positions of the unshortened
    code (some past r); and zero slices, some with one stray parity bit.
    """
    f, t, n, s = sig.bch.field, sig.bch.t, sig.bch.n, sig.s
    kind = rng.integers(0, 5, size=rows)
    weight = rng.integers(1, t + 1, size=rows)
    used = np.arange(t) < weight[:, None]
    columns = sig.matrix.T.astype(np.int64)[rng.integers(0, sig.r, size=(rows, t))]
    genuine = (columns * used[..., None]).sum(axis=1)
    counts = np.where(rng.random(rows) < 0.7, weight, rng.integers(-1, t + 2, size=rows))
    genuine[:, 0] = counts
    moved = genuine.copy()
    moved[np.arange(rows), rng.integers(0, s, size=rows)] += rng.choice([-1, 1, 2], size=rows)
    uniform = rng.integers(-1, 4, size=(rows, s))
    picks = rng.integers(0, n, size=(rows, t))
    odd = 2 * np.arange(t) + 1
    sums = np.bitwise_xor.reduce(f.alog_np[(odd[:, None, None] * picks[None]) % n]
                                 * used[None], axis=2)
    unshortened = np.zeros((rows, s), dtype=np.int64)
    unshortened[:, 0] = counts
    unshortened[:, 1:] = np.concatenate([f.bit_columns(v) for v in sums]).T
    stray = np.zeros((rows, s), dtype=np.int64)
    stray[:, 0] = rng.integers(-1, t + 2, size=rows)
    stray[np.arange(rows), rng.integers(1, s, size=rows)] = rng.integers(0, 2, size=rows)
    return np.choose(kind[:, None], [genuine, moved, uniform, unshortened, stray])


def test_resolve_node_pinned_on_garbage_stacks():
    # positions and ok on every row, refused rows included, at every radius
    # over shortened codes from GF(2^3) to GF(2^16); any change to what
    # resolve_node returns on any row changes this digest
    rng = np.random.default_rng(2027)
    digest = hashlib.sha256()
    seen = set()
    for t in range(1, 5):
        for r_max in (5, 40, 200, 3000, 40000):
            sig = build_signature(t, r_max)
            stack = garbage_slices(sig, rng, 2000)
            positions, ok = resolve_node(stack, sig)
            assert positions.shape == (2000, t) and ok.shape == (2000,)
            digest.update(repr((t, r_max, str(positions.dtype), str(ok.dtype))).encode())
            digest.update(positions.tobytes())
            digest.update(ok.tobytes())
            seen |= {(int(c), bool(good)) for c, good in zip(stack[:, 0], ok)}
    # every count resolves somewhere and is refused somewhere
    assert {(c, good) for c in range(5) for good in (True, False)} <= seen
    assert digest.hexdigest() == "16b89509b3b83e2115eafebfc14a5967cdabe19edaa6c52fce90f8c99ff2021c"


def test_padding_column_is_never_peeled():
    # group 0 holds 3 items but the signature has 7 columns; a slice that
    # decodes to column 5 names no item, so the group stays unresolved
    graph = BiRegularGraph(6, 2, [0, 1, 2, 3, 4, 5, 0, 1, 3, 2, 4, 5], [3, 3, 3, 3])
    sig = build_signature(1, 7)
    y = np.zeros(4 * sig.s + 1, dtype=np.int64)
    y[0] = 1
    y[1:1 + sig.s] = sig.matrix[:, 5]
    out = decode(graph, sig, y)
    assert resolved(y[None, 1:1 + sig.s], sig) == [frozenset({5})]
    assert out.recovered == set() and not out.success
    assert out.unresolved_right == 1
    assert run_with_trace(decode, graph, sig, y) == \
        run_with_trace(sequential_decode, graph, sig, y)


GRAPH = sample_graph(120, 12, 2, seed=4)
SIG = build_signature(2, GRAPH.max_right_degree)


@settings(max_examples=150, deadline=None)
@given(support=st.sets(st.integers(0, 119), max_size=14),
       edits=st.lists(st.tuples(st.sampled_from(["count", "negate", "total", "parity",
                                                 "extra"]),
                                st.integers(0, 10 ** 6), st.integers(-3, 3)),
                      max_size=4))
def test_perturbed_y_keeps_the_invariant(support, edits):
    y = encode(GRAPH, SIG, support)
    count_slots = 1 + np.arange(GRAPH.n_right) * SIG.s
    for kind, where, delta in edits:
        if kind == "count":  # flip a group count
            y[count_slots[where % len(count_slots)]] += delta or 1
        elif kind == "negate":
            slot = 1 + where % (len(y) - 1)
            y[slot] = -abs(y[slot]) - 1
        elif kind == "total":
            y[0] += delta or 1
        elif kind == "parity":  # +-2 keeps every bit and breaks the sum
            y[slot_of_parity(where)] += 2 if delta >= 0 else -2
        else:  # one more copy of an item's column in one of its groups
            rights, positions = GRAPH.incidence(np.array([where % GRAPH.n_left]))
            group, pos = rights[0, delta % GRAPH.ell], positions[0, delta % GRAPH.ell]
            y[1 + group * SIG.s: 1 + (group + 1) * SIG.s] += SIG.matrix[:, pos]

    def invariant(_round, residual, recovered):
        assert np.array_equal(residual.ravel(), (y - encode(GRAPH, SIG, recovered))[1:])

    out = decode(GRAPH, SIG, y, trace=invariant)
    assert out.success == np.array_equal(encode(GRAPH, SIG, out.recovered), y)
    if not edits:
        assert out.recovered <= support


def slot_of_parity(where):
    group, row = divmod(where % (GRAPH.n_right * (SIG.s - 1)), SIG.s - 1)
    return 1 + group * SIG.s + 1 + row


def test_an_item_decoded_twice_is_peeled_once():
    # y = encode({v, w}) plus a second copy of v's column in group b, which
    # also holds w.  Round 1 peels v from its other group a; group b then
    # reads col_v + col_w and decodes v again.  The oracle loop subtracts v
    # a second time and its residual drifts from y - encode(recovered).
    graph = sample_graph(40, 6, 2, seed=1)
    sig = build_signature(2, graph.max_right_degree)
    v = 7
    rights, positions = graph.incidence(np.array([v]))
    (a, b), pos_b = rights[0].tolist(), int(positions[0, 1])
    w = next(int(x) for x in graph.right_adj[b] if x != v and x not in graph.right_adj[a])
    y = encode(graph, sig, {v, w})
    y[1 + b * sig.s: 1 + (b + 1) * sig.s] += sig.matrix[:, pos_b]

    def drift(fn):
        last = {}
        out = fn(graph, sig, y, trace=lambda _r, res, rec: last.update(res=res, rec=rec))
        expected = (y - encode(graph, sig, last["rec"]))[1:]
        return out, not np.array_equal(last["res"].ravel(), expected)

    out, drifted = drift(decode)
    assert out.recovered == {v, w} and not out.success and not drifted
    oracle_out, oracle_drifted = drift(sequential_decode)
    assert oracle_out.recovered == {v, w} and oracle_drifted


def calls_per_round(graph, sig, y):
    """Python-level calls (sys.setprofile "call" events) per round of one decode.

    A first decode builds the field's cached tables, so that only the rounds
    are counted.
    """
    decode(graph, sig, y)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        out = decode(graph, sig, y)
    finally:
        sys.setprofile(previous)
    assert out.success and out.iterations >= 5
    return calls / out.iterations


def seeded_view_decode():
    # a sweep-fresh trial's shape: N = 2^16, M = 69, K = 100, t = 2
    support = sorted(np.random.default_rng(7).choice(1 << 16, size=100, replace=False).tolist())
    view = sample_defectives(1 << 16, 69, 2, support, seed=11)
    sig = build_signature(2, view.max_right_degree)
    return view, sig, encode(view, sig, support)


def seeded_graph_decode():
    # a whole graph at t = 3, where count-3 groups take the cubic's tables
    graph = sample_graph(1 << 12, 60, 2, seed=5)
    sig = build_signature(3, graph.max_right_degree)
    support = np.random.default_rng(150).choice(1 << 12, size=150, replace=False).tolist()
    return graph, sig, encode(graph, sig, support)


def seeded_graph_decode_t4():
    # the same kind of graph at t = 4, where count-4 groups read the count-3
    # tables and quadratic_table; 12 rounds
    graph = sample_graph(1 << 12, 45, 2, seed=5)
    sig = build_signature(4, graph.max_right_degree)
    support = np.random.default_rng(150).choice(1 << 12, size=150, replace=False).tolist()
    return graph, sig, encode(graph, sig, support)


def seeded_graph_decode_t2():
    # the path decode-wide-field times, t = 2 through a whole graph's
    # _items_at; 17 rounds
    graph = sample_graph(1 << 12, 60, 2, seed=5)
    sig = build_signature(2, graph.max_right_degree)
    support = np.random.default_rng(150).choice(1 << 12, size=100, replace=False).tolist()
    return graph, sig, encode(graph, sig, support)


# 25% above the counts when set: 27.9, 29.6, 56.3 and 19.4 calls per round
# (numpy 2.4); the view and the t = 3 and t = 4 graphs read 19.9, 23.0 and
# 48.9 since the round's selects became masked writes
@pytest.mark.parametrize("instance, ceiling", [(seeded_view_decode, 35),
                                               (seeded_graph_decode, 37),
                                               (seeded_graph_decode_t4, 70),
                                               (seeded_graph_decode_t2, 24)])
def test_calls_per_round_stay_under_ceiling(instance, ceiling):
    per_round = calls_per_round(*instance())
    assert per_round <= ceiling, (
        f"{per_round:.1f} Python-level calls per peeling round, above the ceiling of "
        f"{ceiling}: this test guards decode's fixed per-round cost, which sets a "
        "decode's time at these sizes; a round should stay a few array operations "
        "with no numpy wrapper that a method or a ufunc call can replace")
