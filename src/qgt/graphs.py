"""Left-regular bipartite graphs from a repaired configuration model.

Every left node has degree ell; right degrees differ by at most one (the
first n_edges % M right nodes take the larger value).  Sampling matches left
stubs to right stubs through a seeded uniform permutation, then swaps away
duplicate entries until the graph is simple.  The result is approximately
uniform over simple left-regular graphs; no exact-uniformity claim is made.

The sampler lays the N*ell stubs out in consecutive blocks, one per right
node, and keeps two views of that layout: stubs[p], the item at position p,
and loc[x], the positions of item x's ell stubs in ascending order.  loc is
the inverse of the permutation, so it costs no sort.  It answers "how many
stubs of x sit in block i" in O(ell) and lists a pass's duplicates without a
sort per block.  Once the layout is simple, each block is sorted in place
and the stubs become the graph's edge array.  Every graph, sampled, loaded
or built by hand, then groups its edges by left node with one sort and
passes the same vectorised O(N*ell) checks.

Every per-edge array, in the sampler and in the graph, is int32 while N*ell
< 2^31 and int64 beyond (_index_dtype), so a graph holds 12 bytes per edge
up to that size.  The draws and the graphs are the same at either width;
what a graph returns to encode and decode is int64.
"""

from __future__ import annotations

import numpy as np

# repair passes per stub layout, and layouts drawn, before sampling gives up
MAX_REPAIR_PASSES = 200
MAX_RESAMPLES = 8


class BiRegularGraph:
    """Bipartite graph with N left nodes of degree ell and M right nodes.

    right_adj[i] is the neighbor list of right node i, ascending left
    indices for sampled graphs (file order for loaded ones).  The index of v
    inside right_adj[i] is the "position" of edge (i, v); signature columns
    are assigned by position.  The lists are read-only views of one flat
    edge array, right node by right node: `edges`, degrees[i] of them for
    right node i.  An edges ndarray at the graph's index width (_index_dtype)
    is adopted, not copied, and made read-only; any other is copied.
    """

    def __init__(self, n_left: int, ell: int, edges, degrees,
                 seed: int = -1, retries: int = 0):
        degrees = np.array(degrees, dtype=np.int64)
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
        vals = np.asarray(edges)
        n_edges = len(vals)
        if n_edges != n_left * ell:
            raise ValueError(f"edge count {n_edges} != N*ell = {n_left * ell}")
        if degrees.sum() != n_edges:
            raise ValueError(f"right degrees sum to {degrees.sum()}, not {n_edges}")
        # range-check at the caller's width: narrowing first would wrap an
        # index such as 2^32 + 2 into range (a NaN fails the check too)
        if not (vals.min() >= 0 and vals.max() < n_left):
            raise ValueError("left index out of range")
        width = _index_dtype(n_edges)
        vals = vals.astype(width, copy=False)
        if np.any(np.bincount(vals, minlength=n_left) != ell):
            raise ValueError("left degrees are not all equal to ell")
        starts = np.concatenate([[0], np.cumsum(degrees)[:-1]])
        # group the edges by left node, each node's right nodes ascending.  The
        # key (left node, right node) is distinct unless an edge repeats, which
        # the check below rejects, so a plain sort gives the stable order
        # (N*M < 2^63 for any graph whose N*ell edges fit in memory).  To keep
        # a large build's peak low, each temporary is dropped once used, and
        # the edges' right nodes are repeated out again after the sort rather
        # than held through it.
        labels = np.arange(self.n_right, dtype=width)
        key = vals.astype(np.int64)
        key *= self.n_right
        key += np.repeat(labels, degrees)
        order = np.argsort(key)
        del key
        rights = np.repeat(labels, degrees)[order].reshape(n_left, ell)
        positions = order.astype(width)
        del order
        positions -= starts.astype(width)[rights.ravel()]
        positions = positions.reshape(n_left, ell)
        if np.any(rights[:, 1:] <= rights[:, :-1]):
            raise ValueError("parallel edge: left node repeated in a right list")
        for array in (vals, degrees, starts, rights, positions):
            array.setflags(write=False)
        self._edges = vals
        self._degrees = degrees
        self._starts = starts
        self.max_right_degree = int(degrees.max())
        self.right_adj = [vals[lo:lo + d] for lo, d in zip(starts.tolist(), degrees.tolist())]
        self._left_rights = rights
        self._left_positions = positions

    def degrees(self) -> np.ndarray:
        """Right degrees, read-only."""
        return self._degrees

    def incidence(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Right nodes and positions of the given left nodes, ell per row.

        int64 whatever the tables' width: int32 arrays in decode's peeling
        rounds cost about 3% of a decode (N = 2^20, K = 100, t = 2).
        """
        return (np.take(self._left_rights, items, axis=0).astype(np.int64),
                np.take(self._left_positions, items, axis=0).astype(np.int64))

    def items_at(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The left node at each (group, position) pair; -1 past the group's end."""
        groups = np.asarray(groups, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        inside = (positions >= 0) & (positions < self._degrees[groups])
        edges = np.where(inside, self._starts[groups] + positions, 0)
        return np.where(inside, self._edges[edges].astype(np.int64), -1)

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

    Raises ValueError for infeasible shapes (see _right_degrees) and
    RuntimeError if repair fails across MAX_RESAMPLES resamples, which is
    astronomically unlikely for feasible shapes.
    """
    degrees = _right_degrees(n_left, n_right, ell)
    n_edges = n_left * ell
    if int(degrees.min()) == n_left:
        # every group must hold every item exactly once, so the simple graph
        # is forced; build it directly rather than repairing collisions
        edges = np.tile(np.arange(n_left), n_right)
        return BiRegularGraph(n_left, ell, edges, degrees, seed=seed)
    blocks = _Blocks(degrees)
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
            return BiRegularGraph(n_left, ell, stubs, degrees, seed=seed, retries=attempt)
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
    another item's.  This is the configuration model's marginal on the
    items, up to the repairs that the other N - K items would have made;
    cost and memory grow with len(items)*ell, not N.  Shapes, errors and
    the forced complete graph are as in sample_graph; a float or bool item
    raises ValueError rather than being truncated.
    """
    degrees = _right_degrees(n_left, n_right, ell)
    items = np.sort(np.asarray(items))
    k = len(items)
    if k and (items.dtype.kind not in "iu" or items[0] < 0 or items[-1] >= n_left
              or np.any(items[1:] == items[:-1])):
        raise ValueError(f"items must be distinct integers in [0, {n_left})")
    items = items.astype(np.int64)
    if int(degrees.min()) == n_left:
        # every group holds every item, item x at position x (M = ell here)
        rights = np.tile(np.arange(n_right, dtype=np.int64), (k, 1))
        return DefectiveView(n_left, degrees, items, rights, np.repeat(items[:, None], ell, 1))
    blocks = _Blocks(degrees)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RESAMPLES):
        loc = rng.choice(n_left * ell, size=k * ell, replace=False).reshape(k, ell)
        loc.sort(axis=1)
        held = _Held(zip(loc.ravel().tolist(), np.repeat(np.arange(k), ell).tolist()))
        if _repair(held, loc, blocks, rng):
            rights = blocks.of_all(loc)
            starts = np.asarray(blocks.bounds[:-1], dtype=np.int64)
            return DefectiveView(n_left, degrees, items, rights, loc - starts[rights])
    raise RuntimeError(
        f"simple-graph repair failed after {MAX_RESAMPLES} resamples "
        f"(N={n_left}, M={n_right}, ell={ell}, K={k}, seed={seed})"
    )


class DefectiveView:
    """A few left nodes of a left-regular graph: their rows and the group sizes.

    It answers what encode and decode ask of a graph (n_left, n_right,
    max_right_degree, incidence, items_at) for supports inside `items`.
    incidence rejects any other item; items_at maps a position the view does
    not hold to -1, so decode leaves that group unresolved.  An edge is
    found by its key group * max_right_degree + position among the held
    edges' sorted keys.
    """

    def __init__(self, n_left: int, degrees: np.ndarray, items: np.ndarray,
                 rights: np.ndarray, positions: np.ndarray):
        self.n_left = n_left
        self.n_right = len(degrees)
        self.max_right_degree = int(np.max(degrees))
        order = np.argsort(items)
        self.items = np.asarray(items, dtype=np.int64)[order]
        self._rights = np.asarray(rights, dtype=np.int64)[order]
        self._positions = np.asarray(positions, dtype=np.int64)[order]
        keys = (self._rights * self.max_right_degree + self._positions).ravel()
        by_key = np.argsort(keys)
        # a last key above every other lets each lookup read a real entry
        self._keys = np.append(keys[by_key], np.iinfo(np.int64).max)
        self._key_items = np.append(np.repeat(self.items, self._rights.shape[1])[by_key], -1)

    def incidence(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.searchsorted(self.items, items)
        held = rows < len(self.items)
        held[held] = self.items[rows[held]] == items[held]
        if not held.all():
            raise ValueError(f"item {int(items[~held][0])} is not in the view")
        return self._rights[rows], self._positions[rows]

    def items_at(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The held item at each (group, position) pair; -1 where none is held."""
        groups = np.asarray(groups, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        # a position past max_right_degree would read as the next group's
        # key, so it looks up -1, which is no key
        inside = (positions >= 0) & (positions < self.max_right_degree)
        keys = np.where(inside, groups * self.max_right_degree + positions, -1)
        rows = np.searchsorted(self._keys, keys)
        return np.where(self._keys[rows] == keys, self._key_items[rows], -1)


def _index_dtype(n_edges: int) -> type:
    """The integer type of a graph's per-edge arrays: int32 below 2^31 edges."""
    return np.int32 if n_edges < 1 << 31 else np.int64


def _right_degrees(n_left: int, n_right: int, ell: int) -> np.ndarray:
    """Right degrees of N*ell stubs dealt to M right nodes, or ValueError.

    The first N*ell % M right nodes take one stub more.  With ell <= M no
    degree exceeds N, so every accepted shape has a simple graph.
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if ell > n_right:
        raise ValueError(f"ell={ell} > M={n_right}: a left node cannot reach "
                         "ell distinct right nodes")
    if n_left < 1 or n_right > n_left * ell:
        raise ValueError("need 1 <= M <= N*ell")
    base, extra = divmod(n_left * ell, n_right)
    degrees = np.full(n_right, base, dtype=np.int64)
    degrees[:extra] += 1
    return degrees


class _Held(dict):
    """Stub position -> row of the item holding it; -1 for a free stub."""

    def __missing__(self, pos):
        return -1


class _Blocks:
    """Stub positions cut into consecutive blocks, one per right node.

    Block i spans positions bounds[i]..bounds[i+1]-1.  The first `extra`
    blocks hold base + 1 stubs and the rest base, so the block of a position
    is computed, not looked up in a table of N*ell entries.
    """

    def __init__(self, degrees: np.ndarray):
        self.bounds = [0] + np.cumsum(degrees).tolist()
        self.base = int(degrees[-1])
        self.extra = int(np.count_nonzero(degrees > self.base))
        self.split = self.extra * (self.base + 1)

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


def _duplicates(loc: np.ndarray, blocks: _Blocks):
    """Positions and blocks of every in-block repeat beyond the first.

    Ordered by (block, item, position), the order in which repairs are made.
    """
    owner = blocks.of_all(loc)
    repeat = owner[:, 1:] == owner[:, :-1]
    dup_pos = loc[:, 1:][repeat]
    dup_block = owner[:, 1:][repeat]
    order = np.argsort(dup_block, kind="stable")
    return dup_pos[order].tolist(), dup_block[order].tolist()


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
    """
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
    for _ in range(MAX_REPAIR_PASSES):
        if simple:  # the last pass swapped cleanly: nothing is left to find
            return True
        dup_pos, dup_block = _duplicates(loc, blocks)
        if not dup_pos:
            return True
        simple = True
        for p, i in zip(dup_pos, dup_block):
            x = int(stubs[p])
            row_x = loc[x].tolist()
            lo, hi = bnd[i], bnd[i + 1]
            if sum(lo <= s < hi for s in row_x) <= 1:
                continue  # already fixed by an earlier swap this pass
            q_found = -1
            for _try in range(32):
                q = int(rng.integers(n))
                if fits(q, i, row_x):
                    q_found = q
                    break
            if q_found < 0:
                start = int(rng.integers(n))
                for off in range(n):
                    q = (start + off) % n
                    if fits(q, i, row_x):
                        q_found = q
                        break
            if q_found < 0:
                q_found = int(rng.integers(n))  # blind swap, better than stalling
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
