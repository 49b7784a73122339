"""Measurement design, encoder, and peeling decoder.

A design pools N items into M groups through a left-regular bipartite graph.
Group i runs s = t*b + 1 tests: its items get the columns of a signature
matrix U (an all-ones row on top of the t-error BCH parity columns), so the
group's slice of the test vector is the integer column sum over its defective
items.  Test 0 counts all defectives.  A group slice with count w <= t is
inverted by BCH syndrome decoding of the slice mod 2; peeling subtracts the
recovered columns and repeats.

A design is one frozen value, TrialConfig(N, K, t, ell, M): its constructor
checks the five inputs and derives, in the one place that does,
(r_max, b, s) and the m_total = M*s + 1 tests it spends.  derive_params
sizes M from the design table and returns one; the simulator runs trials on
them.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bch import (ONES, BchSpec, _decode_syndromes, _syndromes, build_parity_columns,
                  check_radius, make_bch)
from .density import _real, design_constant, paper_test_count
from .gf2m import MAX_DEGREE, MIN_DEGREE, _integer
from .graphs import BiRegularGraph, DefectiveView, _int64_array, _integer_lines

DEFAULT_BETA = 1.35


def field_degree_for(r_max: int, t: int) -> int:
    """Smallest supported field degree addressing r_max columns at radius t.

    t must pass check_radius, and r_max, the code's r, must be an integer
    (not a bool) of at least 1; either is refused by name before the log.
    """
    check_radius(t)
    r_max = _integer(r_max, "r")
    if r_max < 1:
        raise ValueError(f"r must be at least 1, got {r_max}")
    b = max(MIN_DEGREE, math.ceil(math.log2(r_max + 1)))
    while t >= 1 << (b - 1):  # BCH validity: t < 2^(b-1)
        b += 1
    if b > MAX_DEGREE:
        raise ValueError(
            f"r_max={r_max} needs field degree {b} > {MAX_DEGREE}; "
            "increase M or lower ell"
        )
    return b


def group_shape(n_items: int, ell: int, m_groups: int, t: int) -> tuple[int, int, int]:
    """(r_max, b, s) for N items in M groups at left degree ell, radius t.

    r_max = ceil(N ell / M) is the largest group, b the field degree that
    addresses r_max columns, and s = t b + 1 the tests per group.
    """
    r_max = -(-n_items * ell // m_groups)
    b = field_degree_for(r_max, t)
    return r_max, b, t * b + 1


def design_ell(n_items: int, k: int, t: int, ell: int | str = "auto") -> int:
    """ell for N items, K defectives at radius t: the one check of the inputs
    that derive_params and run_sweep size designs from.  N, K and t are
    integers (numpy integers included, a bool or a float refused by name).
    'auto' gives ell* of design_constant(t); any other ell is an integer
    >= 2 (numpy integers included, a bool refused), returned as an int, and
    N*ell stays below 2^63 so that every stub index fits in int64.
    """
    check_radius(t)
    n_items, k = _integer(n_items, "n_items"), _integer(k, "k")
    if not 1 <= k < n_items:
        raise ValueError(f"need 1 <= K < N, got K={k}, N={n_items}")
    if ell == "auto":
        ell = design_constant(t)[1]
    elif isinstance(ell, numbers.Integral) and not isinstance(ell, bool):
        ell = int(ell)
    if not isinstance(ell, int) or ell < 2:  # a bool is below 2
        raise ValueError(f"ell must be an int >= 2 or 'auto', got {ell!r}")
    if n_items * ell >= 1 << 63:
        raise ValueError(f"N*ell = {n_items * ell} stubs do not fit int64 indices "
                         f"(N={n_items}, ell={ell})")
    return ell


@dataclass(frozen=True)
class TrialConfig:
    """One measurement design: N items in M groups at left degree ell,
    decoding radius t, K defectives.

    The five inputs fix it.  Each is an integer (numpy integers included,
    held as the Python int), a bool or any other type refused by name; t
    must decode (1..4), ell >= 2, 0 <= K <= N and ell <= M <= N*ell.  The
    rest is derived here, once, by group_shape: r_max = ceil(N ell / M)
    items in the largest group, the field degree b that addresses them (a
    design no field supports is refused), s = t*b + 1 tests per group, and
    m_total = M*s + 1 tests in all.  m_bound is the real-valued target that
    m_total tracks; m_total runs above it by the integer ceilings (field
    degree b, M) and derive_params' beta slack; see tests for the quantified
    bound.
    """

    n_items: int
    k: int
    t: int
    ell: int
    m_groups: int
    r_max: int = field(init=False)
    b: int = field(init=False)
    s: int = field(init=False)
    m_total: int = field(init=False)

    def __post_init__(self):
        check_radius(self.t)
        # frozen: each field holds the int that _integer returns
        for name in ("n_items", "k", "t", "ell", "m_groups"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        n_items, k, ell, m_groups = self.n_items, self.k, self.ell, self.m_groups
        if ell < 2:
            raise ValueError(f"ell must be >= 2, got {ell}")
        if not 0 <= k <= n_items:
            raise ValueError(f"need 0 <= K <= N, got K={k}, N={n_items}")
        if m_groups < ell:
            raise ValueError(f"M={m_groups} groups, fewer than the ell = {ell} "
                             "distinct groups each item joins")
        if m_groups > n_items * ell:
            raise ValueError(
                f"M={m_groups} groups, more than the N*ell = {n_items * ell} "
                f"edges of any graph on N={n_items} items"
            )
        r_max, b, s = group_shape(n_items, ell, m_groups, self.t)
        for name, value in (("r_max", r_max), ("b", b), ("s", s),
                            ("m_total", m_groups * s + 1)):
            object.__setattr__(self, name, value)

    @property
    def m_bound(self) -> float:
        """density.paper_test_count at c(t) and ell; at K = 0, its limit 1,
        the count test alone."""
        if self.k == 0:
            return 1.0
        return paper_test_count(self.n_items, self.k, self.t,
                                design_constant(self.t)[0], self.ell)


def derive_params(n_items: int, k: int, t: int, ell: int | str = "auto",
                  beta: float = DEFAULT_BETA) -> TrialConfig:
    """Size a design for N items with K defectives at decoding radius t:
    M = max(ell, ceil(c(t) K beta)) groups, where beta > 1 is the slack
    above the threshold."""
    ell = design_ell(n_items, k, t, ell)
    if not _real(beta, "beta") > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    c = design_constant(t)[0]
    if not math.isfinite(c * k * beta):
        raise ValueError(f"beta={beta:g} gives an infinite group count c*K*beta")
    m_groups = max(ell, math.ceil(c * k * beta))
    n_max = ((1 << MAX_DEGREE) - 1) * m_groups // ell  # r_max fits GF(2^MAX_DEGREE)
    if n_items > n_max:
        raise ValueError(
            f"N={n_items} is too large: at K={k}, t={t} the largest N this "
            f"design can size is {n_max} (M={m_groups}, ell={ell})"
        )
    return TrialConfig(n_items, k, t, ell, m_groups)


class Signature:
    """Signature matrix for one group: all-ones row over BCH parity columns.

    matrix has shape (s, r_max) = (t*b + 1, r_max), dtype uint8.  Column p is
    handed to the item at position p of a group's neighbor list; integer sums
    of up to t columns are distinct, and the mod-2 reduction of a sum is the
    BCH syndrome of its support.  slots lists each column's set slots, which
    is all that encode and decode read.
    """

    def __init__(self, bch: BchSpec):
        self.bch = bch
        parity = build_parity_columns(bch)
        self.matrix = np.vstack([np.ones((1, bch.r), dtype=np.uint8), parity])
        self.matrix.setflags(write=False)
        self.s, self.r = self.matrix.shape

    @cached_property
    def slots(self) -> np.ndarray:
        """Row p lists, ascending, the slots where column p of matrix is 1.

        uint8, of shape (r + 1, w) for the heaviest column's weight w <= s.
        A lighter column's row ends in copies of the dump slot s, and row r
        ("no column") holds only that padding.  Counting a group's rows
        over s + 1 bins and dropping the last gives its column sum.  Built
        on first use in one pass per slot, through a table one entry wider
        and one int64 index per column; nothing else grows with r * s.
        """
        s, r = self.s, self.r
        w = int(self.matrix.sum(axis=0).max())
        # pass j writes j at every column's next free entry; a column whose
        # slot j is clear has that entry overwritten by its next set slot,
        # or padded after the last pass.  The spare last entry of each row
        # keeps a full column from writing into the next row.
        slots = np.full((r + 1, w + 1), s, dtype=np.uint8)
        flat = slots.reshape(-1)
        free = np.arange(0, r * (w + 1), w + 1)
        for slot, row in enumerate(self.matrix):
            flat[free] = slot
            free += row
        flat[free] = s
        slots = np.ascontiguousarray(slots[:, :w])
        slots.setflags(write=False)
        return slots


@lru_cache(maxsize=8, typed=True)
def build_signature(t: int, r_max: int) -> Signature:
    """Signature for groups of at most r_max items at decoding radius t.

    Cached: every trial of a sweep point asks for the same one.  Its arrays
    are read-only, since every caller shares them.  The cache keys by type,
    so a float or a bool equal to a cached int reaches BchSpec's refusal.
    """
    return Signature(make_bch(field_degree_for(r_max, t), t, r_max))


@dataclass
class DecodeOutcome:
    recovered: set[int]
    iterations: int
    unresolved_right: int
    success: bool


def encode(graph: BiRegularGraph | DefectiveView, sig: Signature, support) -> np.ndarray:
    """Test vector for a defective set: y[0] counts all, then M blocks of s.

    support is any iterable of integer items (Python or numpy integers);
    repeats count once, and a bool, a float or an item outside [0, N)
    raises ValueError.  Cost is O(K * ell * w), w <= s the heaviest
    signature column: only the set slots of defective items are touched.
    encode reaches the graph only through n_left, n_right, max_right_degree
    and incidence, and decode through n_right, max_right_degree and the
    unchecked kernels _items_at and _incidence behind items_at and
    incidence.  n_right, max_right_degree and items_at come from the group
    layout that both graph classes share (graphs._Groups), and both split
    an edge into its group by its one rule, so a DefectiveView holding the
    support serves as well as the whole graph.
    """
    items = _support_items(support, graph.n_left)
    _check_covers(graph, sig)
    m = graph.n_right
    y = np.empty(m * sig.s + 1, dtype=np.int64)
    y[0] = len(items)
    y[1:].reshape(m, sig.s)[:] = _column_sums(sig, *graph.incidence(items), m)
    return y


def _check_covers(graph: BiRegularGraph | DefectiveView, sig: Signature) -> None:
    """Raise ValueError unless sig has a column for every position in a group."""
    if graph.max_right_degree > sig.r:
        raise ValueError(
            f"signature covers {sig.r} columns but a group has "
            f"{graph.max_right_degree} items"
        )


def _support_items(support, n_left: int) -> np.ndarray:
    """The distinct items of a support, ascending, as int64 in [0, n_left)."""
    items = _integer_items(support)
    if len(items) and (items[0] < 0 or items[-1] >= n_left):
        bad = items[0] if items[0] < 0 else items[-1]
        raise ValueError(f"item {bad} out of range [0, {n_left})")
    return items


def _integer_items(support) -> np.ndarray:
    """The distinct items of a support, ascending, as int64.

    A bool, a float or any other non-integer raises ValueError, and so does
    an item beyond int64.
    """
    values = list(support)
    if bool in map(type, values):
        raise ValueError("support items must be integers, got a bool")
    try:
        items = np.fromiter(map(operator.index, values), np.int64, len(values))
    except TypeError as exc:
        raise ValueError(f"support items must be integers: {exc}") from None
    except OverflowError:
        bad = next(v for v in values if not -(1 << 63) <= operator.index(v) < 1 << 63)
        raise ValueError(f"support item {bad} out of range of int64") from None
    return _distinct(np.sort(items))


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array."""
    return np.concatenate([ascending[:1], ascending[1:][ascending[1:] != ascending[:-1]]])


def _column_sums(sig: Signature, rows: np.ndarray, positions: np.ndarray,
                 n_rows: int) -> np.ndarray:
    """(n_rows, s) integer sums of the columns at positions, by row.

    rows broadcasts against positions; position r adds nothing, and so
    does -1, which wraps to it.  One bincount counts every (row, set slot)
    pair over an n_rows x (s + 1) grid whose last column takes the slot
    table's padding and is dropped.
    """
    width = sig.s + 1
    keys = (rows * width)[..., None] + sig.slots.take(positions, axis=0, mode="wrap")
    sums = np.bincount(keys.ravel(), minlength=n_rows * width)
    return sums.reshape(n_rows, width)[:, :-1]


def resolve_node(z: np.ndarray, sig: Signature) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the defectives inside a stack of group slices.

    z is an integer array of shape (f, s), one group's residual per row
    (count in slot 0); any other dtype or shape, or a value beyond int64,
    raises ValueError.  Returns (positions, ok): positions has shape (f, t),
    -1 marking an empty slot, as bch.decode_syndromes gives them, and ok
    marks the rows that resolve: those whose parity bits decode at their
    count and whose decoded columns integer-sum back to the slice exactly.
    """
    z = np.asarray(z)
    if z.dtype != np.int64:  # decode's stacks are int64 already
        z = _int64_array(z, "slices")
    if z.ndim != 2 or z.shape[1] != sig.s:
        raise ValueError(f"expected a stack of slices of length {sig.s}, got shape {z.shape}")
    syndromes = _syndromes(sig.bch, z[:, 1:] & 1)
    positions, ok = _decode_syndromes(sig.bch, syndromes, z[:, 0])
    # integer re-check of the whole slice.  An empty slot's -1 wraps to the
    # padding row; a refused row may read any row, and its ok stays False
    ok &= (_column_sums(sig, np.arange(len(z))[:, None], positions, len(z)) == z).all(axis=1)
    return positions, ok


def decode(graph: BiRegularGraph | DefectiveView, sig: Signature, y,
           trace=None) -> DecodeOutcome:
    """Peel the test vector back to the defective set.

    y is an integer array (or list) of length M*s + 1; a float or other
    non-integer dtype raises ValueError rather than being truncated, and so
    does a signature with fewer columns than the largest group, as in encode.

    Rounds are synchronous: every group in the round's frontier (unresolved,
    count at most t) is resolved from the residual as it stood when the round
    began, all in one resolve_node call, and their items are read in one
    gather.  Count 0 takes the same path: such a slice resolves exactly when
    it is zero, and names no item.  A group resolves only when every
    position it decodes names an item.  The items recovered are
    deduplicated, so each item is peeled exactly once, and the sum of their
    columns, one _column_sums call, is subtracted from the residual; the
    next frontier is the touched groups still unresolved with count at most
    t.  A round that recovers no new item changes no slice, so it is the
    last; it still counts as a round and is traced.
    After every round the residual equals y - encode(recovered), so success
    means exactly that the recovered set re-encodes to y.
    trace(round_idx, residual, recovered) is called after each round when
    provided.

    y and sig are checked here, once, and a value of y beyond int64 raises
    ValueError; each round passes the graph's _items_at and _incidence
    kernels arrays that decode built itself, which are int64, in range and
    distinct.
    """
    m, s = graph.n_right, sig.s
    y = _int64_array(y, "test vector")
    if y.shape != (m * s + 1,):
        raise ValueError(f"test vector has shape {y.shape}, expected ({m * s + 1},)")
    _check_covers(graph, sig)
    t = sig.bch.t
    residual = y[1:].reshape(m, s).copy()
    counts = residual[:, 0]  # a view, which follows the residual
    unresolved = np.ones(m, dtype=bool)
    recovered = np.zeros(0, dtype=np.int64)
    frontier = (counts <= t).nonzero()[0]
    iterations = 0
    while frontier.size:
        iterations += 1
        z = residual.take(frontier, axis=0)
        positions, ok = resolve_node(z, sig)
        items = graph._items_at(frontier[:, None], positions)
        # a padding column, or a position a view does not hold, leaves the
        # group unresolved; neither happens on genuine input.  A row that
        # resolves fills exactly its count of slots, -1 in the rest, so it
        # names an item at each of them when that many items are found
        ok &= (items >= 0) @ ONES[t] == z[:, 0]
        unresolved[frontier[ok]] = False
        # distinct items, -1 slots dropped, that no earlier round recovered
        found = items.compress(ok, axis=0).ravel()
        found.sort()
        new = _distinct(found[found.searchsorted(0):])
        if recovered.size:
            new = new[recovered.take(recovered.searchsorted(new), mode="clip") != new]
        if new.size:
            recovered = np.concatenate([recovered, new])
            recovered.sort()
            rights, positions = graph._incidence(new)
            residual -= _column_sums(sig, rights, positions, m)
            touched = np.zeros(m, dtype=bool)
            touched[rights] = True
            touched &= unresolved
            touched &= counts <= t
            frontier = touched.nonzero()[0]
        else:  # nothing peeled, so no slice changed: this round is the last
            frontier = new
        if trace is not None:
            trace(iterations, residual.copy(), set(recovered.tolist()))
    success = len(recovered) == int(y[0]) and not residual.any()
    return DecodeOutcome(recovered=set(recovered.tolist()), iterations=iterations,
                         unresolved_right=int(unresolved.sum()), success=success)


def measurement_matrix(graph: BiRegularGraph, sig: Signature) -> np.ndarray:
    """Dense 0/1 matrix of the M*s signature tests (count-all row excluded).

    Row block i covers group i; column v carries the signature column of
    item v's position in each group it belongs to.  graph must be a whole
    BiRegularGraph, since a DefectiveView cannot name the other items, and
    sig must cover its largest group, as in encode; either is refused by
    name with ValueError.
    """
    if not isinstance(graph, BiRegularGraph):
        raise ValueError(f"graph must be a BiRegularGraph, got {type(graph).__name__}")
    _check_covers(graph, sig)
    s = sig.s
    a = np.zeros((graph.n_right * s, graph.n_left), dtype=np.uint8)
    for i, adj in enumerate(graph.right_adj):
        a[i * s : (i + 1) * s, adj] = sig.matrix[:, : len(adj)]
    return a


# -- file formats ------------------------------------------------------------


def save_test_vector(path: str, y: np.ndarray) -> None:
    """One integer per line, the count-all slot first."""
    with open(path, "w", encoding="utf-8") as fh:
        for value in y:
            fh.write(f"{int(value)}\n")


def load_test_vector(path: str) -> np.ndarray:
    values = [int(value) for value in _single_integers(path)]
    if not values:
        raise ValueError(f"{path}: empty test vector")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{path}: a count does not fit in 64 bits") from None


def save_support(path: str, support) -> None:
    """Distinct items, ascending; a non-integer item raises ValueError as in encode."""
    items = _integer_items(support)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# 0-based item indices, one per line\n")
        for v in items.tolist():
            fh.write(f"{v}\n")


def load_support(path: str) -> set[int]:
    return {int(item) for item in _single_integers(path)}


def _single_integers(path: str) -> list[str]:
    """The integer on each line of a text file that holds one (see
    graphs._integer_lines); a line with more raises ValueError naming it."""
    values = []
    for number, fields in _integer_lines(path):
        if len(fields) != 1:
            raise ValueError(f"{path}, line {number}: expected one integer, "
                             f"got {len(fields)}")
        values.append(fields[0])
    return values
