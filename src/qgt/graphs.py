"""Left-regular bipartite graphs from a repaired configuration model.

Every left node has degree ell; right degrees differ by at most one (the
first n_edges % M right nodes take the larger value, as _Blocks deals them).
Sampling matches left stubs to right stubs through a seeded uniform
permutation, then swaps away duplicate entries until the graph is simple.
The result is approximately uniform over simple left-regular graphs; no
exact-uniformity claim is made.

The stubs lie in consecutive blocks, one per right node, and the sampler
keeps two views of that layout: stubs[p], the item at position p, and
loc[x], the positions of item x's ell stubs in ascending order.  loc is the
inverse of the permutation, so it costs no sort.  It answers "how many
stubs of x sit in block i" in O(ell) and lists a pass's duplicates without
a sort per block.  Once the layout is simple, each block is sorted in place
and the stubs become the graph's right-major edge array.  Every graph then
groups its edges by left node with one argsort into an N x ell table of
indices into that array, the form in which a DefectiveView holds a few
items' rows, and passes the same vectorised O(N*ell) checks.

The repair swaps each duplicate stub, one at a time, with a position drawn
uniformly from [0, N*ell) where it fits.  On a large graph it takes those
draws in bulk and makes runs of such swaps in one numpy update, yet it makes
the same swaps from the same draws as the one-at-a-time loop with one scalar
rng.integers call per draw, and leaves the generator where those calls
would; a seeded graph does not depend on how the repair was computed.

Every per-edge array, in the sampler and in the graph, is int32 while N*ell
< 2^31 and int64 beyond (_index_dtype), so a graph holds 8 bytes per edge
up to that size.  The draws and the graphs are the same at either width;
what a graph returns to encode and decode is int64.
"""

from __future__ import annotations

import numpy as np

# repair passes per stub layout, and layouts drawn, before sampling gives up
MAX_REPAIR_PASSES = 200
MAX_RESAMPLES = 8

# the bulk repair (_swap_run) starts on a whole graph of at least _BULK_ITEMS
# items whose pass has at least _BULK_ROWS duplicates: a run ends at the first
# row that reads what an earlier row reads, after ~sqrt(N) rows, and a shorter
# one costs more than it saves.  It tries _BULK_ROWS rows first and doubles
# up to _CHUNK while whole chunks go through, tests _WINDOW draws per row, and
# leaves the pass to go on row by row after a run below _SHORT_RUN
_BULK_ROWS = 64
_BULK_ITEMS = 4096
_CHUNK = 512
_WINDOW = 8
_SHORT_RUN = 16
# draws a repair takes by scalar calls before it draws in bulk, and the most
# it draws at once
_SCALAR_DRAWS = 16
_DRAW_BLOCK = 4096


class BiRegularGraph:
    """Bipartite graph with N left nodes of degree ell and M right nodes.

    right_adj[i] is the neighbor list of right node i, ascending left
    indices for sampled graphs (file order for loaded ones).  The index of v
    inside right_adj[i] is the "position" of edge (i, v); signature columns
    are assigned by position.  The lists are read-only views of one flat
    edge array, right node by right node: `edges`, degrees[i] of them for
    right node i.  An edges ndarray at the graph's index width (_index_dtype)
    is adopted, not copied, and made read-only; any other is copied.  The
    only other per-edge array is the N x ell table whose row v holds v's
    edge indices in ascending order; incidence reads each edge's right node
    from a table of at most 4 entries per right node, so a graph holds 8
    bytes per edge at int32.
    """

    def __init__(self, n_left: int, ell: int, edges, degrees,
                 seed: int = -1, retries: int = 0):
        degrees = _integers(degrees, "right degrees").astype(np.int64)
        self.n_left = n_left
        self.n_right = len(degrees)
        self.ell = ell
        self.seed = seed
        self.retries = retries
        if ell < 2:
            raise ValueError(f"ell must be >= 2, got {ell}")
        if self.n_right < 1 or n_left < 1:
            raise ValueError("graph must have at least one node on each side")
        if degrees.min() < 1:
            raise ValueError("every right node needs at least one edge")
        if degrees.max() - degrees.min() > 1:
            raise ValueError("right degrees must take at most two adjacent values")
        vals = _integers(edges, "edges")
        n_edges = len(vals)
        if n_edges != n_left * ell:
            raise ValueError(f"edge count {n_edges} != N*ell = {n_left * ell}")
        if degrees.sum() != n_edges:
            raise ValueError(f"right degrees sum to {degrees.sum()}, not {n_edges}")
        # range-check at the caller's width: narrowing first would wrap an
        # index such as 2^32 + 2 into range
        if not (vals.min() >= 0 and vals.max() < n_left):
            raise ValueError("left index out of range")
        width = _index_dtype(n_edges)
        vals = vals.astype(width, copy=False)
        if np.any(np.bincount(vals, minlength=n_left) != ell):
            raise ValueError("left degrees are not all equal to ell")
        bounds = np.concatenate([[0], np.cumsum(degrees)])
        # group the edges by left node, each node's right nodes ascending: row
        # v of left_edges holds v's edge indices, as a DefectiveView's rows
        # do.  The key (left node, right node) is int32 while N*M < 2^31 (and
        # N*M < 2^63 for any graph whose N*ell edges fit in memory).  It
        # repeats only where an edge does, which is refused first, so a plain
        # argsort gives the stable order.  To keep a large build's peak low,
        # each temporary is dropped once used.
        key = vals.astype(_index_dtype(n_left * self.n_right))
        key *= self.n_right
        key += np.repeat(np.arange(self.n_right, dtype=key.dtype), degrees)
        ranked = np.sort(key)
        if np.any(ranked[1:] == ranked[:-1]):
            raise ValueError("parallel edge: left node repeated in a right list")
        del ranked
        order = np.argsort(key)
        del key
        left_edges = order.astype(width).reshape(n_left, ell)
        del order
        # edge e lies in right node buckets[e >> shift] or the next one:
        # 2^shift <= the smallest degree, so no bucket spans three nodes.  At
        # most 4 buckets per right node, int64 like the degrees and starts, as
        # an index of another width would be cast on every lookup
        shift = int(degrees.min()).bit_length() - 1
        buckets = np.searchsorted(bounds[1:], np.arange(0, n_edges, 1 << shift),
                                  side="right")
        for array in (vals, degrees, bounds, left_edges, buckets):
            array.setflags(write=False)
        self._edges = vals
        self._degrees = degrees
        self._starts = bounds[:-1]
        self._ends = bounds[1:]
        self.max_right_degree = int(degrees.max())
        self.right_adj = [vals[lo:lo + d] for lo, d in zip(bounds[:-1].tolist(), degrees.tolist())]
        self._left_edges = left_edges
        self._buckets = buckets
        self._shift = shift

    def degrees(self) -> np.ndarray:
        """Right degrees, read-only."""
        return self._degrees

    def incidence(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Right nodes and positions of the given left nodes, ell per row.

        int64 whatever the tables' width: int32 arrays in decode's peeling
        rounds cost about 3% of a decode (N = 2^20, K = 100, t = 2).
        """
        items = _integers(items, "items").astype(np.int64, copy=False)
        if items.size and items.min() < 0:  # take would read it from the end
            raise IndexError(f"item {int(items.min())} is out of range")
        return self._incidence(items)

    def _incidence(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """incidence of int64 items in [0, N), unchecked."""
        edges = self._left_edges.take(items, axis=0).astype(np.int64)
        rights = self._buckets[edges >> self._shift]
        rights += edges >= self._ends[rights]
        return rights, edges - self._starts[rights]

    def items_at(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The left node at each (group, position) pair; -1 past the group's end."""
        return self._items_at(*_pairs(groups, positions))

    def _items_at(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """items_at of int64 groups in [0, M) and int64 positions, unchecked;
        groups broadcasts against positions."""
        edges = _edge_index(self._degrees, self._starts, groups, positions)
        return np.where(edges >= 0, self._edges[edges].astype(np.int64), -1)

    # -- text serialization --------------------------------------------------
    # line 1: "N M ell seed"; then one line per right node with its ascending
    # 0-based left indices

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.n_left} {self.n_right} {self.ell} {self.seed}\n")
            for adj in self.right_adj:
                fh.write(" ".join(str(int(v)) for v in adj) + "\n")

    @classmethod
    def load(cls, path: str) -> "BiRegularGraph":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        if not lines:
            raise ValueError(f"{path}: empty graph file")
        try:
            n_left, n_right, ell, seed = (int(x) for x in lines[0].split())
        except ValueError as exc:
            raise ValueError(f"{path}: bad header {lines[0]!r}") from exc
        if len(lines) != 1 + n_right:
            raise ValueError(
                f"{path}: expected {n_right} adjacency lines, got {len(lines) - 1}"
            )
        rows = [ln.split() for ln in lines[1:]]
        degrees = [len(row) for row in rows]
        try:
            edges = np.fromiter((int(x) for row in rows for x in row), np.int64, sum(degrees))
        except OverflowError:
            raise ValueError(f"{path}: a left index does not fit in 64 bits") from None
        return cls(n_left, ell, edges, degrees, seed=seed)


def sample_graph(n_left: int, n_right: int, ell: int, seed: int) -> BiRegularGraph:
    """Draw a simple left-regular graph; deterministic for a given seed.

    Raises ValueError for infeasible shapes (see _Blocks) and RuntimeError
    if repair fails across MAX_RESAMPLES resamples, which is astronomically
    unlikely for feasible shapes.
    """
    blocks = _Blocks(n_left, n_right, ell)
    n_edges = n_left * ell
    if blocks.forced:
        # every group must hold every item exactly once, so the simple graph
        # is forced; build it directly rather than repairing collisions
        edges = np.tile(np.arange(n_left), n_right)
        return BiRegularGraph(n_left, ell, edges, blocks.degrees, seed=seed)
    width = _index_dtype(n_edges)

    rng = np.random.default_rng(seed)
    for attempt in range(MAX_RESAMPLES):
        # shuffling stub indices draws the same permutation as shuffling the
        # item labels np.repeat(arange(N), ell); stub k belongs to item k // ell.
        # Shuffling an arange of either width makes the same draws.
        perm = rng.permutation(np.arange(n_edges, dtype=width))
        stubs = perm // ell
        loc = np.empty(n_edges, dtype=width)
        loc[perm] = np.arange(n_edges, dtype=width)
        del perm
        # loc[x]: the positions of x's ell stubs, ascending (and so in
        # ascending block order); the repair keeps every row sorted
        loc = loc.reshape(n_left, ell)
        if ell == 2:  # np.sort pays per row; pairs swap in bulk
            loc[:, 0], loc[:, 1] = (np.minimum(loc[:, 0], loc[:, 1]),
                                    np.maximum(loc[:, 0], loc[:, 1]))
        else:
            loc.sort(axis=1)
        if _repair(stubs, loc, blocks, rng):
            del loc
            for lo, hi in zip(blocks.bounds[:-1], blocks.bounds[1:]):
                stubs[lo:hi].sort()
            return BiRegularGraph(n_left, ell, stubs, blocks.degrees, seed=seed, retries=attempt)
    raise RuntimeError(
        f"simple-graph repair failed after {MAX_RESAMPLES} resamples "
        f"(N={n_left}, M={n_right}, ell={ell}, seed={seed})"
    )


def sample_defectives(n_left: int, n_right: int, ell: int, items,
                      seed: int) -> DefectiveView:
    """The rows of `items` alone in a graph drawn like sample_graph's.

    The items' ell-stub rows are a uniform draw of len(items)*ell of the
    N*ell stub positions, cut into the same blocks; a stub's offset in its
    block is its position.  An item with two stubs in one block is repaired
    by _repair, which moves the stub to a free position or swaps it with
    another item's; the repaired positions are the view's edge indices.
    This is the configuration model's marginal on the items, up to the
    repairs that the other N - K items would have made; cost and memory grow
    with len(items)*ell, not N.  Shapes, errors and the forced complete
    graph are as in sample_graph; items, once sorted, must pass _view_items.
    """
    blocks = _Blocks(n_left, n_right, ell)
    items = _view_items(np.sort(np.asarray(items)), n_left)
    k = len(items)
    if blocks.forced:
        # every group holds every item, item x at position x (M = ell here)
        return DefectiveView(n_left, blocks.degrees, items,
                             items[:, None] + n_left * np.arange(n_right))
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RESAMPLES):
        loc = rng.choice(n_left * ell, size=k * ell, replace=False).reshape(k, ell)
        loc.sort(axis=1)
        held = _Held(zip(loc.ravel().tolist(), np.repeat(np.arange(k), ell).tolist()))
        if _repair(held, loc, blocks, rng):
            return DefectiveView(n_left, blocks.degrees, items, loc)
    raise RuntimeError(
        f"simple-graph repair failed after {MAX_RESAMPLES} resamples "
        f"(N={n_left}, M={n_right}, ell={ell}, K={k}, seed={seed})"
    )


class DefectiveView:
    """A few left nodes of a left-regular graph: their rows and the group sizes.

    It answers what encode and decode ask of a graph (n_left, n_right,
    max_right_degree, incidence, items_at, and the unchecked kernels
    _incidence and _items_at that decode calls) for supports inside `items`.
    incidence rejects any other item; items_at maps a position the view does
    not hold to -1, so decode leaves that group unresolved.  items pass
    _view_items; edges[k] holds the right-major edge indices of items[k] in
    ascending order, as in a BiRegularGraph of these right degrees: integers
    in [0, sum(degrees)), one row per item, no group twice in a row and no
    edge held twice.
    """

    def __init__(self, n_left: int, degrees: np.ndarray, items: np.ndarray, edges: np.ndarray):
        self.items = _view_items(items, n_left)
        self.n_left = n_left
        self._degrees = _integers(degrees, "a view's degrees").astype(np.int64, copy=False)
        self.n_right = len(self._degrees)
        self.max_right_degree = int(self._degrees.max())
        edges = np.asarray(edges)
        if edges.dtype.kind not in "iu" or edges.ndim != 2 or len(edges) != len(self.items):
            raise ValueError("a view needs one row of integer edges per item")
        n_edges = int(self._degrees.sum())
        by_edge = np.argsort(edges, axis=None)
        held = edges.ravel()[by_edge]
        # range-check at the caller's width, before a cast could wrap
        if held.size and not (held[0] >= 0 and held[-1] < n_edges):
            raise ValueError(f"a view's edges must lie in [0, {n_edges})")
        if np.any(held[1:] == held[:-1]):
            raise ValueError("two of a view's items hold the same edge")
        edges = edges.astype(np.int64, copy=False)
        self._starts = np.concatenate([[0], np.cumsum(self._degrees)[:-1]])
        self._rights = np.searchsorted(self._starts, edges, side="right") - 1
        if np.any(self._rights[:, 1:] <= self._rights[:, :-1]):
            raise ValueError("a view's rows must name ascending groups, none twice "
                             "(a parallel edge)")
        self._positions = edges - self._starts[self._rights]
        # a last edge above every other lets each lookup read a real entry
        self._edges = np.append(held.astype(np.int64, copy=False), np.iinfo(np.int64).max)
        self._edge_items = np.append(np.repeat(self.items, edges.shape[1])[by_edge], -1)

    def incidence(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        items = _integers(items, "items").astype(np.int64, copy=False)
        rows = np.searchsorted(self.items, items)
        held = rows < len(self.items)
        held[held] = self.items[rows[held]] == items[held]
        if not held.all():
            raise ValueError(f"item {int(items[~held][0])} is not in the view")
        return self._incidence(items)

    def _incidence(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """incidence of int64 items that the view holds, unchecked."""
        rows = self.items.searchsorted(items)
        return self._rights[rows], self._positions[rows]

    def items_at(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The held item at each (group, position) pair; -1 where none is held."""
        return self._items_at(*_pairs(groups, positions))

    def _items_at(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """items_at of int64 groups in [0, M) and int64 positions, unchecked;
        groups broadcasts against positions."""
        edges = _edge_index(self._degrees, self._starts, groups, positions)
        rows = self._edges.searchsorted(edges)
        return np.where(self._edges[rows] == edges, self._edge_items[rows], -1)


def _view_items(items, n_left: int) -> np.ndarray:
    """items as int64, or ValueError unless a view may hold them: 1-D integers
    (not bools), ascending, distinct and in [0, n_left), checked before a cast
    could truncate or wrap one.  An empty array may have any dtype.
    """
    items = np.asarray(items)
    if items.ndim != 1 or items.size and (
            items.dtype.kind not in "iu" or items[0] < 0 or items[-1] >= n_left
            or np.any(items[1:] <= items[:-1])):
        raise ValueError(f"a view's items must be ascending and distinct integers "
                         f"in [0, {n_left})")
    return items.astype(np.int64, copy=False)


def _pairs(groups, positions) -> tuple[np.ndarray, np.ndarray]:
    """(group, position) arrays as int64, or ValueError unless both hold
    integers; IndexError for a negative group, which numpy would read from
    the end (a group past the last raises IndexError when it is read).
    """
    groups = _integers(groups, "groups").astype(np.int64, copy=False)
    if groups.size and groups.min() < 0:
        raise IndexError(f"group {int(groups.min())} is out of range")
    return groups, _integers(positions, "positions").astype(np.int64, copy=False)


def _edge_index(degrees: np.ndarray, starts: np.ndarray, groups: np.ndarray,
                positions: np.ndarray) -> np.ndarray:
    """The right-major edge index of each (group, position); -1 outside the group."""
    inside = (positions >= 0) & (positions < degrees[groups])
    return np.where(inside, starts[groups] + positions, -1)


def _integers(values, name: str) -> np.ndarray:
    """values as an array, or ValueError unless it holds integers (not bools).

    Checked before any cast, which would truncate a float and read a bool as
    0 or 1; an empty array, such as that of an empty list, may have any dtype.
    """
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    return values


def _index_dtype(n_edges: int) -> type:
    """The integer type of a graph's per-edge arrays: int32 below 2^31 edges."""
    return np.int32 if n_edges < 1 << 31 else np.int64


class _Held(dict):
    """Stub position -> row of the item holding it; -1 for a free stub."""

    def __missing__(self, pos):
        return -1


class _Blocks:
    """N*ell stub positions dealt to M right nodes, or ValueError.

    Block i spans positions bounds[i]..bounds[i+1]-1.  The first `extra`
    blocks hold base + 1 stubs and the rest base, so the block of a position
    is computed, not looked up in a table.  With ell <= M no degree exceeds
    N, so every accepted shape has a simple graph, `forced` when base == N.
    """

    def __init__(self, n_left: int, n_right: int, ell: int):
        if ell < 2:
            raise ValueError(f"ell must be >= 2, got {ell}")
        if ell > n_right:
            raise ValueError(f"ell={ell} > M={n_right}: a left node cannot reach "
                             "ell distinct right nodes")
        if n_left < 1 or n_right > n_left * ell:
            raise ValueError("need 1 <= M <= N*ell")
        self.base, self.extra = divmod(n_left * ell, n_right)
        self.degrees = np.full(n_right, self.base, dtype=np.int64)
        self.degrees[:self.extra] += 1
        self.bounds = [0] + np.cumsum(self.degrees).tolist()
        self.split = self.extra * (self.base + 1)
        self.forced = self.base == n_left

    def of(self, pos: int) -> int:
        if pos < self.split:
            return pos // (self.base + 1)
        return self.extra + (pos - self.split) // self.base

    def of_all(self, pos: np.ndarray) -> np.ndarray:
        # in place after the first two arrays: pos may cover every stub
        head = np.minimum(pos, self.split)
        block = pos - head
        block //= self.base
        head //= self.base + 1
        block += head
        return block


def _duplicates(loc: np.ndarray, blocks: _Blocks) -> tuple[np.ndarray, np.ndarray]:
    """Positions and blocks of every in-block repeat beyond the first.

    Ordered by (block, item, position), the order in which repairs are made.
    """
    owner = blocks.of_all(loc)
    repeat = owner[:, 1:] == owner[:, :-1]
    dup_pos = loc[:, 1:][repeat]
    dup_block = owner[:, 1:][repeat]
    order = np.argsort(dup_block, kind="stable")
    return dup_pos[order], dup_block[order]


def _repair(stubs, loc: np.ndarray, blocks: _Blocks, rng) -> bool:
    """Swap duplicate in-block stubs with other stubs until simple.

    stubs[p] is the row of loc that holds position p: an array over every
    position (sample_graph), or a _Held over the rows' positions alone, where
    -1 marks a free stub (sample_defectives).  A swap is accepted when it
    fixes the duplicate without creating a new one (incoming row absent from
    this block, outgoing row absent from the target block); a free stub has
    no row and fits wherever the outgoing row does.  Whether row x sits in
    block i is read exactly from x's ell stub positions in loc, which every
    swap keeps current.  Random probes find such a target quickly in sparse
    blocks; a linear scan backs them up in dense ones, and a blind swap
    breaks ties when no clean target exists at all.  A pass of clean swaps
    alone leaves the graph simple, so only a blind swap calls for another
    look.

    The duplicates are repaired one at a time, in _duplicates' order, each
    from the next uniform draws of [0, N*ell) (_repair_rows).  On a whole
    graph with many duplicates, _swap_run makes the same swaps from the same
    draws a run of rows at a time, and the pass goes on row by row once its
    runs turn short, as on dense shapes.  _Draws takes the draws in bulk but
    leaves the generator where one scalar call per draw would, whether the
    repair succeeds or not, so the graphs and the draws after a repair (a
    failed layout's resample) are those of the row-by-row loop.
    """
    draws = _Draws(rng, blocks.bounds[-1])
    try:
        simple = False
        for _ in range(MAX_REPAIR_PASSES):
            if simple:  # the last pass swapped cleanly: nothing is left to find
                return True
            dup_pos, dup_block = _duplicates(loc, blocks)
            if not len(dup_pos):
                return True
            simple = True
            done = 0
            if (isinstance(stubs, np.ndarray) and len(dup_pos) >= _BULK_ROWS
                    and len(loc) >= _BULK_ITEMS):
                chunk = _BULK_ROWS
                while done < len(dup_pos):
                    rows = slice(done, done + chunk)
                    run = _swap_run(stubs, loc, blocks, draws, dup_pos[rows], dup_block[rows])
                    done += run
                    if run == chunk:
                        chunk = min(2 * chunk, _CHUNK)
                        continue
                    if done == len(dup_pos) or run < _SHORT_RUN:
                        break
                    rows = slice(done, done + 1)
                    simple &= _repair_rows(stubs, loc, blocks, draws,
                                           dup_pos[rows], dup_block[rows])
                    done += 1
            simple &= _repair_rows(stubs, loc, blocks, draws, dup_pos[done:], dup_block[done:])
        return False
    finally:
        draws.rewind()


def _repair_rows(stubs, loc: np.ndarray, blocks: _Blocks, draws: _Draws,
                 dup_pos: np.ndarray, dup_block: np.ndarray) -> bool:
    """Repair the given duplicates one at a time, in order; False if one took
    a blind swap."""
    bnd = blocks.bounds
    n = bnd[-1]
    of = blocks.of
    take = draws.take

    def fits(q, i, row_x):
        j = of(q)
        if j == i:
            return False
        y = stubs[q]
        if y >= 0:
            lo, hi = bnd[i], bnd[i + 1]
            for s in loc[y].tolist():
                if lo <= s < hi:
                    return False
        lo, hi = bnd[j], bnd[j + 1]
        for s in row_x:
            if lo <= s < hi:
                return False
        return True

    clean = True
    for p, i in zip(dup_pos.tolist(), dup_block.tolist()):
        x = int(stubs[p])
        row_x = loc[x].tolist()
        lo, hi = bnd[i], bnd[i + 1]
        if sum(lo <= s < hi for s in row_x) <= 1:
            continue  # already fixed by an earlier swap this pass
        q_found = -1
        for _try in range(32):
            q = take()
            if fits(q, i, row_x):
                q_found = q
                break
        if q_found < 0:
            start = take()
            for off in range(n):
                q = (start + off) % n
                if fits(q, i, row_x):
                    q_found = q
                    break
        if q_found < 0:
            q_found = take()  # blind swap, better than stalling
            clean = False
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
    return clean


def _swap_run(stubs: np.ndarray, loc: np.ndarray, blocks: _Blocks, draws: _Draws,
              pos: np.ndarray, blk: np.ndarray) -> int:
    """Make _repair_rows' swaps for the leading duplicates of pos (in blocks
    blk) in one update, from the same draws; return how many rows it made.

    Each row's three fits tests run on a window of _WINDOW consecutive draws,
    starting where its first probe falls if every earlier row that needs a
    swap takes one draw; a row already fixed takes none.  A row that finds
    its fit d draws into its window pushes the rows after it d draws further
    in.  The run stops before the first row with no fit left in its window,
    and before the first row that reads a position or item that an earlier
    row of the run reads (_first_clash), since the tests read the state
    before the run.  The row it stops at is _repair_rows'.  Its temporaries
    hold _WINDOW * ell entries per row of the chunk.
    """
    n = blocks.bounds[-1]
    rows = len(pos)
    x = stubs[pos]
    own = blocks.of_all(loc[x])
    need = (own == blk[:, None]).sum(axis=1) > 1
    first = np.cumsum(need) - need
    q = draws.ahead(int(first[-1] + need[-1]) + _WINDOW)[first[:, None] + np.arange(_WINDOW)]
    j = blocks.of_all(q)
    y = stubs[q]
    fit = ((j != blk[:, None])
           & ~(blocks.of_all(loc[y]) == blk[:, None, None]).any(axis=2)
           & ~(own[:, None, :] == j[:, :, None]).any(axis=2))
    fit[~need] = True
    # hit[r]: the window column of row r's fit, where row r + 1 starts probing
    hit = np.zeros(rows, dtype=np.intp)
    stop = rows
    col = row = 0
    while row < rows:
        miss = ~fit[row:, col]
        end = row + int(miss.argmax()) if miss.any() else rows
        hit[row:end] = col
        if end == rows:
            break
        later = fit[end, col + 1:]
        if not later.any():
            stop = end
            break
        col += 1 + int(later.argmax())
        hit[end] = col
        row = end + 1
    if stop:
        stop = min(stop, _first_clash(pos, x, q, y, need, hit, stop, n))
    swap = np.flatnonzero(need[:stop])
    p, x = pos[swap], x[swap]
    q, y = q[swap, hit[swap]], y[swap, hit[swap]]
    stubs[p] = y
    stubs[q] = x
    for item, old, new in ((x, p, q), (y, q, p)):
        row_loc = loc[item]
        row_loc[row_loc == old[:, None]] = new
        row_loc.sort(axis=1)
        loc[item] = row_loc
    draws.skip(len(swap) + (int(hit[stop - 1]) if stop else 0))
    return stop


def _first_clash(pos, x, q, y, need, hit, stop: int, n: int) -> int:
    """The first of the rows before stop that reads a position or item (keyed
    past the n positions) that an earlier one also reads, or stop.  A swap
    writes only what its row reads, so no row before it reads a change."""
    begin = np.concatenate([[0], hit[:stop - 1]])
    cols = np.arange(_WINDOW)
    by, at = np.nonzero(need[:stop, None] & (cols >= begin[:, None])
                        & (cols <= hit[:stop, None]))
    rows = np.arange(stop)
    values = np.concatenate([pos[:stop], q[by, at], n + x[:stop].astype(np.int64),
                             n + y[by, at].astype(np.int64)])
    value, reader = np.divmod(np.sort(values * stop + np.concatenate([rows, by, rows, by])),
                              stop)
    clash = (value[1:] == value[:-1]) & (reader[1:] != reader[:-1])
    return int(reader[1:][clash].min()) if clash.any() else stop


class _Draws:
    """rng.integers(n) values in order, leaving rng as scalar calls would.

    The first _SCALAR_DRAWS values are scalar calls, so a short repair, such
    as a view's one or two duplicates, pays for nothing more.  After them, or
    once _swap_run looks ahead, the values come from a buffer that
    integers(n, size=k) fills: it returns exactly the values of k scalar
    calls, and leaves the generator in the same state
    (tests/test_repair.py checks numpy for both).  The generator then runs
    ahead of the values used, so rewind restores its state from before the
    first bulk draw and redraws the count used.  The only calls to
    rng.integers in this module are here.
    """

    def __init__(self, rng, n: int):
        self.rng = rng
        self.n = n
        self.scalar = 0
        self.state = None  # the generator's state before the first bulk draw
        self.buf = np.empty(0, dtype=np.int64)
        self.values = []  # buf as ints, which take reads faster; [] until it does
        self.at = 0  # the next unused value in buf
        self.used = 0  # values used since state, before buf

    def take(self) -> int:
        if self.at < len(self.values):
            self.at += 1
            return self.values[self.at - 1]
        if self.state is None and self.scalar < _SCALAR_DRAWS:
            self.scalar += 1
            return int(self.rng.integers(self.n))
        if self.at == len(self.buf):
            self.ahead(1)
        if not self.values:  # listed once per bulk draw, when take reads it
            self.values = self.buf.tolist()
        self.at += 1
        return self.values[self.at - 1]

    def ahead(self, k: int) -> np.ndarray:
        """The next k values, without using them."""
        if self.state is None:
            self.state = self.rng.bit_generator.state
        if self.at + k > len(self.buf):
            # the first bulk draws are few, as a repair may need no more
            size = max(k, min(_DRAW_BLOCK, 2 * len(self.buf) or 256))
            fresh = self.rng.integers(self.n, size=size)
            self.used += self.at
            self.buf = np.concatenate([self.buf[self.at:], fresh])
            self.values = []
            self.at = 0
        return self.buf[self.at:self.at + k]

    def skip(self, k: int) -> None:
        self.at += k

    def rewind(self) -> None:
        if self.state is None:
            return
        self.rng.bit_generator.state = self.state
        used = self.used + self.at
        for done in range(0, used, _DRAW_BLOCK):
            self.rng.integers(self.n, size=min(_DRAW_BLOCK, used - done))
