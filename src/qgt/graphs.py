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
stubs of x sit in block i" in O(ell), by the block rule _Blocks.of, and
lists a pass's duplicates without a sort per block.  Once the layout is
simple, two in-place sorts of reshaped rows (the blocks of base + 1 stubs,
then those of base) sort every block, and the stubs become the graph's
right-major edge array.  Every graph then
groups its edges by left node with one argsort into an N x ell table of
indices into that array, the form in which a DefectiveView holds a few
items' rows, and passes the same vectorised O(N*ell) checks.

A graph and a view share that right-major layout through one base class,
_Groups: it checks the right degrees, holds the group starts and ends, and
owns _split, the one rule from an edge index to its group and position.  A
graph splits its table's rows on each incidence call; a view splits its
rows once, when it is built.

The repair swaps each duplicate stub with a position drawn uniformly from
[0, N*ell) where it fits.  A whole graph swaps in rounds: every duplicate
proposes one position, and the fitting proposals that share no position or
item with an earlier one swap together in one numpy update.  What the rounds
leave, and a view's duplicates, are swapped one at a time, each from scalar
rng.integers draws.  tests/test_uniformity.py pins the chi-squared against
uniform of both on shapes small enough to enumerate.

Every per-edge array, in the sampler and in the graph, is int32 while N*ell
< 2^31 and int64 beyond (_index_dtype), so a graph holds 8 bytes per edge
up to that size.  The draws and the graphs are the same at either width;
what a graph returns to encode and decode is int64.
"""

from __future__ import annotations

import operator
import re

import numpy as np

from .gf2m import _integer, _integers

# repair passes per stub layout, and layouts drawn, before sampling gives up
MAX_REPAIR_PASSES = 200
MAX_RESAMPLES = 8

# a whole graph's pass swaps in rounds while it has at least this many
# duplicates (_swap_rounds)
_ROUND_ROWS = 16


class _Groups:
    """The right-major layout of a graph's N*ell edges, shared by
    BiRegularGraph and DefectiveView: group i holds degrees[i] consecutive
    edge indices, _starts[i] to _ends[i] - 1.

    Built from the right degrees and N*ell, or ValueError unless some
    left-regular graph of that size has them: integers (a non-integer array
    is refused under `name`), at least one group, every degree >= 1, at most
    two adjacent values, and a sum of N*ell.  _split is the one rule from an
    edge index to its group and position.
    """

    def __init__(self, degrees, n_edges: int, name: str):
        degrees = _integers(degrees, name).astype(np.int64)
        if len(degrees) < 1:
            raise ValueError("graph must have at least one node on each side")
        low, high = int(degrees.min()), int(degrees.max())
        if low < 1:
            raise ValueError("every right node needs at least one edge")
        if high - low > 1:
            raise ValueError("right degrees must take at most two adjacent values")
        bounds = np.concatenate([[0], np.cumsum(degrees)])
        if bounds[-1] != n_edges:
            raise ValueError(f"right degrees sum to {bounds[-1]}, not {n_edges}")
        # edge e lies in group _buckets[e >> _shift] or the next one:
        # 2^_shift <= the smallest degree, so no bucket spans three groups.
        # Bucket j starts at edge j * 2^_shift, so ceil(bound / 2^_shift)
        # buckets start below a bound, and group i is the group of as many
        # buckets as start inside it: at most 4.  int64 like the degrees and
        # starts, as an index of another width would be cast on every lookup
        self._shift = low.bit_length() - 1
        self._buckets = np.repeat(np.arange(len(degrees)), np.diff(-(-bounds >> self._shift)))
        for array in (degrees, bounds, self._buckets):
            array.setflags(write=False)
        self._degrees = degrees
        self._starts = bounds[:-1]
        self._ends = bounds[1:]
        self.n_right = len(degrees)
        self.max_right_degree = high

    def degrees(self) -> np.ndarray:
        """Right degrees, read-only."""
        return self._degrees

    def items_at(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The left node at each (group, position) pair; -1 past the group's
        end, and in a view where it holds no item."""
        groups, positions = _pairs(groups, positions)
        if groups.ndim == positions.ndim == 0:  # the kernels write into an array
            return self._items_at(groups.reshape(1), positions.reshape(1)).reshape(())
        return self._items_at(groups, positions)

    def _split(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Groups and positions of int64 edge indices in [0, N*ell), unchecked."""
        rights = self._buckets[edges >> self._shift]
        rights += edges >= self._ends[rights]
        return rights, edges - self._starts[rights]


class BiRegularGraph(_Groups):
    """Bipartite graph with N left nodes of degree ell and M right nodes.

    right_adj[i] is the neighbor list of right node i, ascending left
    indices for sampled graphs (file order for loaded ones).  The index of v
    inside right_adj[i] is the "position" of edge (i, v); signature columns
    are assigned by position.  The lists are read-only views of one flat
    edge array laid out as _Groups has it: `edges`, degrees[i] of them for
    right node i.  An edges ndarray at the graph's index width
    (_index_dtype) is adopted, not copied, and made read-only; any other is
    copied.  The only other per-edge array is the N x ell table whose row v
    holds v's edge indices in ascending order; incidence is _split of those
    rows, so a graph holds 8 bytes per edge at int32.
    """

    def __init__(self, n_left: int, ell: int, edges, degrees,
                 seed: int = -1, retries: int = 0):
        n_left, ell = _integer(n_left, "n_left"), _integer(ell, "ell")
        if ell < 2:
            raise ValueError(f"ell must be >= 2, got {ell}")
        if n_left < 1:
            raise ValueError("graph must have at least one node on each side")
        vals = _integers(edges, "edges")
        n_edges = len(vals)
        if n_edges != n_left * ell:
            raise ValueError(f"edge count {n_edges} != N*ell = {n_left * ell}")
        super().__init__(degrees, n_edges, "right degrees")
        self.n_left = n_left
        self.ell = ell
        self.seed = seed
        self.retries = retries
        # range-check at the caller's width: narrowing first would wrap an
        # index such as 2^32 + 2 into range
        if not (vals.min() >= 0 and vals.max() < n_left):
            raise ValueError("left index out of range")
        width = _index_dtype(n_edges)
        vals = vals.astype(width, copy=False)
        if np.any(np.bincount(vals, minlength=n_left) != ell):
            raise ValueError("left degrees are not all equal to ell")
        # group the edges by left node, each node's right nodes ascending: row
        # v of left_edges holds v's edge indices, as a DefectiveView's rows
        # do.  The key (left node, right node) is int32 while N*M < 2^31 (and
        # N*M < 2^63 for any graph whose N*ell edges fit in memory).  It
        # repeats only where an edge does, which is refused first, so a plain
        # argsort gives the stable order.  To keep a large build's peak low,
        # each temporary is dropped once used.
        key = vals.astype(_index_dtype(n_left * self.n_right))
        key *= self.n_right
        key += np.repeat(np.arange(self.n_right, dtype=key.dtype), self._degrees)
        ranked = np.sort(key)
        if np.any(ranked[1:] == ranked[:-1]):
            raise ValueError("parallel edge: left node repeated in a right list")
        del ranked
        order = np.argsort(key)
        del key
        left_edges = order.astype(width).reshape(n_left, ell)
        del order
        for array in (vals, left_edges):
            array.setflags(write=False)
        self._edges = vals
        self.right_adj = [vals[lo:hi] for lo, hi in zip(self._starts.tolist(), self._ends.tolist())]
        self._left_edges = left_edges

    def incidence(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Right nodes and positions of the given left nodes, ell per row.

        int64 whatever the tables' width: int32 arrays in decode's peeling
        rounds cost about 3% of a decode (N = 2^20, K = 100, t = 2).
        """
        items = _int64_array(items, "items")
        if items.size and items.min() < 0:  # take would read it from the end
            raise IndexError(f"item {int(items.min())} is out of range")
        return self._incidence(items)

    def _incidence(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """incidence of int64 items in [0, N), unchecked."""
        return self._split(self._left_edges.take(items, axis=0).astype(np.int64))

    def _items_at(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """items_at of int64 groups in [0, M) and int64 positions, unchecked;
        groups broadcasts against positions."""
        items = self._edges.take(self._starts[groups] + positions, mode="wrap").astype(np.int64)
        items[_outside(self._degrees[groups], positions)] = -1
        return items

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
        lines = _integer_lines(path)
        if not lines:
            raise ValueError(f"{path}: empty graph file")
        number, header = lines[0]
        if len(header) != 4:
            raise ValueError(f"{path}, line {number}: bad header {' '.join(header)!r}")
        n_left, n_right, ell, seed = map(int, header)
        if len(lines) != 1 + n_right:
            raise ValueError(
                f"{path}: expected {n_right} adjacency lines, got {len(lines) - 1}"
            )
        degrees = [len(row) for _, row in lines[1:]]
        try:
            edges = np.fromiter((int(x) for _, row in lines[1:] for x in row), np.int64,
                                sum(degrees))
        except OverflowError:
            raise ValueError(f"{path}: a left index does not fit in 64 bits") from None
        return cls(n_left, ell, edges, degrees, seed=seed)


# a line of a text file: integers separated by whitespace, each an optional
# sign and ASCII digits.  int() alone would also read "1_0" as 10 and "١" as
# 1.  One match per line keeps a large graph's load fast; _INTEGER finds the
# bad field of a line that fails
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INTEGER_LINE = re.compile(r"\s*[+-]?[0-9]+(?:\s+[+-]?[0-9]+)*\s*")


def _integer_lines(path: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, integer fields) of each line of a text file
    that holds any, skipping blank lines and those that start with "#".

    A field that is not an optional sign and ASCII digits raises ValueError
    naming the path and the line.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip() or line.startswith("#"):
                continue
            if not _INTEGER_LINE.fullmatch(line):
                bad = next((x for x in line.split() if not _INTEGER.fullmatch(x)), line.strip())
                raise ValueError(f"{path}, line {number}: {bad!r} is not an integer")
            lines.append((number, line.split()))
    return lines


def sample_graph(n_left: int, n_right: int, ell: int, seed: int) -> BiRegularGraph:
    """Draw a simple left-regular graph; deterministic for a given seed.

    seed is an int (numpy integers included), recorded on the graph as an
    int; a bool or any other type raises ValueError.  Raises ValueError for
    infeasible shapes (see _Blocks) and RuntimeError if repair fails across
    MAX_RESAMPLES resamples, which is astronomically unlikely for feasible
    shapes.
    """
    seed = _integer(seed, "seed")
    blocks = _Blocks(n_left, n_right, ell)
    n_edges = blocks.n_stubs
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
            # each block sorted in place: the first `extra` hold base + 1
            # stubs, the rest base
            stubs[:blocks.split].reshape(blocks.extra, blocks.base + 1).sort(axis=1)
            stubs[blocks.split:].reshape(n_right - blocks.extra, blocks.base).sort(axis=1)
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
    graph are as in sample_graph, and so is the seed; items, once sorted,
    must pass _view_items.
    """
    seed = _integer(seed, "seed")
    blocks = _Blocks(n_left, n_right, ell)
    items = _view_items(np.sort(np.asarray(items)), n_left)
    k = len(items)
    if blocks.forced:
        # every group holds every item, item x at position x (M = ell here)
        return DefectiveView(n_left, blocks.degrees, items,
                             items[:, None] + n_left * np.arange(n_right))
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RESAMPLES):
        loc = rng.choice(blocks.n_stubs, size=k * ell, replace=False).reshape(k, ell)
        loc.sort(axis=1)
        held = _Held(zip(loc.ravel().tolist(), np.repeat(np.arange(k), ell).tolist()))
        if _repair(held, loc, blocks, rng):
            return DefectiveView(n_left, blocks.degrees, items, loc)
    raise RuntimeError(
        f"simple-graph repair failed after {MAX_RESAMPLES} resamples "
        f"(N={n_left}, M={n_right}, ell={ell}, K={k}, seed={seed})"
    )


class DefectiveView(_Groups):
    """A few left nodes of a left-regular graph: their rows and the group sizes.

    It answers what encode and decode ask of a graph (n_left, n_right,
    max_right_degree, degrees, incidence, items_at, and the unchecked
    kernels _incidence and _items_at that decode calls) for supports inside
    `items`.  incidence rejects any other item; items_at maps a position the
    view does not hold to -1, so decode leaves that group unresolved.  items
    pass _view_items; edges[k] holds the right-major edge indices of
    items[k] in ascending order, as in a BiRegularGraph of these right
    degrees: integers in [0, N*ell), one row of ell per item, no group twice
    in a row and no edge held twice.  The degrees pass the graph's checks
    (_Groups), and each row's groups and positions come from the graph's
    _split, once, into per-row tables.
    """

    def __init__(self, n_left: int, degrees: np.ndarray, items: np.ndarray, edges: np.ndarray):
        self.n_left = _integer(n_left, "n_left")
        self.items = _view_items(items, self.n_left)
        edges = np.asarray(edges)
        if edges.dtype.kind not in "iu" or edges.ndim != 2 or len(edges) != len(self.items):
            raise ValueError("a view needs one row of integer edges per item")
        n_edges = self.n_left * edges.shape[1]
        super().__init__(degrees, n_edges, "a view's degrees")
        by_edge = np.argsort(edges, axis=None)
        held = edges.ravel()[by_edge]
        # range-check at the caller's width, before a cast could wrap
        if held.size and not (held[0] >= 0 and held[-1] < n_edges):
            raise ValueError(f"a view's edges must lie in [0, {n_edges})")
        if np.any(held[1:] == held[:-1]):
            raise ValueError("two of a view's items hold the same edge")
        self._rights, self._positions = self._split(edges.astype(np.int64, copy=False))
        if np.any(self._rights[:, 1:] <= self._rights[:, :-1]):
            raise ValueError("a view's rows must name ascending groups, none twice "
                             "(a parallel edge)")
        # a last edge above every other lets each lookup read a real entry
        self._edges = np.append(held.astype(np.int64, copy=False), np.iinfo(np.int64).max)
        self._edge_items = np.append(np.repeat(self.items, edges.shape[1])[by_edge], -1)

    def incidence(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        items = _int64_array(items, "items")
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

    def _items_at(self, groups: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """items_at of int64 groups in [0, M) and int64 positions, unchecked;
        groups broadcasts against positions."""
        edges = self._starts[groups] + positions
        edges[_outside(self._degrees[groups], positions)] = -1
        rows = self._edges.searchsorted(edges)
        items = self._edge_items[rows]
        items[self._edges[rows] != edges] = -1
        return items


def _outside(degrees: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Where int64 positions fall outside [0, degree) of their int64 groups'
    degrees: as uint64 a negative position reads above every degree, so one
    comparison checks both ends."""
    return positions.view(np.uint64) >= degrees.view(np.uint64)


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
    integers and the groups fit in int64; IndexError for a negative group,
    which numpy would read from the end (a group past the last raises
    IndexError when it is read).
    """
    groups = _int64_array(groups, "groups")
    if groups.size and groups.min() < 0:
        raise IndexError(f"group {int(groups.min())} is out of range")
    return groups, _integers(positions, "positions").astype(np.int64, copy=False)


def _int64_array(values, name: str) -> np.ndarray:
    """values as an int64 array, or ValueError unless it holds integers that fit.

    Checked before the cast, which would truncate a float or wrap a uint64
    at 2^63 or above.  numpy holds a list with an integer beyond int64 as
    float64 or object; that integer is named rather than the dtype.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        try:
            ints = [operator.index(v) for v in np.array(values, dtype=object).ravel().tolist()]
        except (TypeError, ValueError):
            ints = []
        big = [v for v in ints if not -(1 << 63) <= v < 1 << 63]
        if big:
            raise ValueError(f"{name}: {big[0]} does not fit in int64")
        raise ValueError(f"{name} must be integers, got dtype {array.dtype}")
    if array.dtype == np.uint64 and array.size and array.max() >= 1 << 63:
        raise ValueError(f"{name}: {int(array.max())} does not fit in int64")
    return array.astype(np.int64, copy=False)


def _index_dtype(n_edges: int) -> type:
    """The integer type of a graph's per-edge arrays: int32 below 2^31 edges."""
    return np.int32 if n_edges < 1 << 31 else np.int64


class _Held(dict):
    """Stub position -> row of the item holding it; -1 for a free stub."""

    def __missing__(self, pos):
        return -1


class _Blocks:
    """n_stubs = N*ell stub positions dealt to M right nodes, or ValueError.

    The first `extra` blocks hold base + 1 stubs and the rest base, so the
    block of a position is computed (of, of_all), never looked up: "stub s
    lies in block i" is of(s) == i.  With ell <= M no degree exceeds N, so
    every accepted shape has a simple graph, `forced` when base == N.  N*ell
    must stay below 2^63, so that every stub index fits in int64.
    """

    def __init__(self, n_left: int, n_right: int, ell: int):
        n_left, n_right = _integer(n_left, "n_left"), _integer(n_right, "n_right")
        ell = _integer(ell, "ell")
        if ell < 2:
            raise ValueError(f"ell must be >= 2, got {ell}")
        if ell > n_right:
            raise ValueError(f"ell={ell} > M={n_right}: a left node cannot reach "
                             "ell distinct right nodes")
        if n_left < 1 or n_right > n_left * ell:
            raise ValueError("need 1 <= M <= N*ell")
        self.n_stubs = n_left * ell
        if self.n_stubs >= 1 << 63:
            raise ValueError(f"N*ell = {self.n_stubs} stubs do not fit int64 indices "
                             f"(N={n_left}, ell={ell})")
        self.base, self.extra = divmod(self.n_stubs, n_right)
        self.degrees = np.full(n_right, self.base, dtype=np.int64)
        self.degrees[:self.extra] += 1
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
    swap keeps current.

    A whole graph's pass first swaps in rounds (_swap_rounds); what they
    leave, and a view's duplicates, are repaired one at a time, in
    _duplicates' order (_repair_rows).  There random probes find a target
    quickly in sparse blocks; a linear scan backs them up in dense ones, and
    a blind swap breaks ties when no clean target exists at all.  Clean swaps
    alone leave the graph simple, so only a blind swap calls for another
    pass.
    """
    simple = False
    for _ in range(MAX_REPAIR_PASSES):
        if simple:  # the last pass swapped cleanly: nothing is left to find
            return True
        dup_pos, dup_block = _duplicates(loc, blocks)
        if isinstance(stubs, np.ndarray):
            dup_pos, dup_block = _swap_rounds(stubs, loc, blocks, rng, dup_pos, dup_block)
        if not len(dup_pos):
            return True
        simple = _repair_rows(stubs, loc, blocks, rng, dup_pos, dup_block)
    return False


def _swap_rounds(stubs: np.ndarray, loc: np.ndarray, blocks: _Blocks, rng,
                 pos: np.ndarray, blk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Swap the duplicates at pos (in blocks blk) in rounds; return those left.

    In a round every duplicate, stub p of item x in block i, draws one
    position q, held by item y in block j, all in one rng.integers call, and
    _repair_rows' three tests run on every row at once.  A fitting proposal
    that shares p, q, x or y with an earlier fitting one waits; the rest swap
    in one update of stubs and loc.  No swap then touches an item or position
    that another one read, so none makes a new duplicate, and the duplicates
    left are those of the rows' items that did not swap.  Rounds go on while
    one swaps and at least _ROUND_ROWS duplicates are left: below that, a
    round's fixed numpy cost outweighs the row loop's probes.
    """
    n = blocks.n_stubs
    while len(pos) >= _ROUND_ROWS:
        x = stubs[pos]
        q = rng.integers(n, size=len(pos))
        j = blocks.of_all(q)
        y = stubs[q]
        fit = ((j != blk)
               & ~(blocks.of_all(loc[y]) == blk[:, None]).any(axis=1)
               & ~(blocks.of_all(loc[x]) == j[:, None]).any(axis=1))
        rows = fit.nonzero()[0]
        # a row's four keys, items offset past the positions; a stable sort
        # puts each key's earliest reader first
        keys = np.stack([pos[rows], q[rows], x[rows], y[rows]], axis=1, dtype=np.int64)
        keys[:, 2:] += n
        keys = keys.ravel()
        order = keys.argsort(kind="stable")
        ranked = keys[order]
        swap = np.ones(len(rows), dtype=bool)
        swap[order[1:][ranked[1:] == ranked[:-1]] // 4] = False
        if not swap.any():
            break
        rows = rows[swap]
        p, q, sx, sy = pos[rows], q[rows], x[rows], y[rows]
        stubs[p] = sy
        stubs[q] = sx
        for item, old, new in ((sx, p, q), (sy, q, p)):
            row_loc = loc[item]
            row_loc[row_loc == old[:, None]] = new
            row_loc.sort(axis=1)
            loc[item] = row_loc
        left = np.ones(len(pos), dtype=bool)
        left[rows] = False
        # the rows' items once each, ascending; np.unique's hash table would
        # leave ~6 MB of heap resident after a 2^19-item graph (numpy 2.4)
        items = np.sort(x[left])
        pos, blk = _duplicates(loc[items[np.diff(items, prepend=-1) > 0]], blocks)
    return pos, blk


def _repair_rows(stubs, loc: np.ndarray, blocks: _Blocks, rng,
                 dup_pos: np.ndarray, dup_block: np.ndarray) -> bool:
    """Repair the given duplicates one at a time, in order, each from the
    next scalar rng.integers draws; False if one took a blind swap."""
    n = blocks.n_stubs
    of = blocks.of

    def fits(q, i, row_x):
        j = of(q)
        if j == i:
            return False
        y = stubs[q]
        if y >= 0 and i in map(of, loc[y].tolist()):
            return False
        return j not in map(of, row_x)

    clean = True
    for p, i in zip(dup_pos.tolist(), dup_block.tolist()):
        x = int(stubs[p])
        row_x = loc[x].tolist()
        if list(map(of, row_x)).count(i) <= 1:
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
