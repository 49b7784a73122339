"""Measurement design, encoder, and peeling decoder.

A design pools N items into M groups through a left-regular bipartite graph.
Group i runs s = t*b + 1 tests: its items get the columns of a signature
matrix U (an all-ones row on top of the t-error BCH parity columns), so the
group's slice of the test vector is the integer column sum over its defective
items.  Test 0 counts all defectives.  A group slice with count w <= t is
inverted by BCH syndrome decoding of the slice mod 2; peeling subtracts the
recovered columns and repeats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bch import (BchSpec, build_parity_columns, check_radius, decode_syndromes, make_bch,
                  syndrome_from_bits)
from .density import design_constant, paper_test_count
from .gf2m import MAX_DEGREE, MIN_DEGREE
from .graphs import BiRegularGraph, DefectiveView

DEFAULT_BETA = 1.35


@dataclass(frozen=True)
class DesignParams:
    """Resolved shape of one measurement design.

    m_total = M*s + 1 is what the design spends; m_bound is the real-valued
    target it tracks, density.paper_test_count at this design's c and ell.
    m_total runs above m_bound by the integer ceilings (field degree b, M)
    and the beta slack; see tests for the quantified bound.
    """

    n_items: int
    k: int
    t: int
    ell: int
    beta: float
    m_groups: int
    r_max: int
    b: int
    s: int
    m_total: int
    m_bound: float


def field_degree_for(r_max: int, t: int) -> int:
    """Smallest supported field degree addressing r_max columns at radius t."""
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


def derive_params(n_items: int, k: int, t: int, ell: int | str = "auto",
                  beta: float = DEFAULT_BETA) -> DesignParams:
    """Size a design for N items with K defectives at decoding radius t."""
    check_radius(t)
    if not 1 <= k < n_items:
        raise ValueError(f"need 1 <= K < N, got K={k}, N={n_items}")
    if not beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    c, ell_star = design_constant(t)
    if not math.isfinite(c * k * beta):
        raise ValueError(f"beta={beta:g} gives an infinite group count c*K*beta")
    if ell == "auto":
        ell = ell_star
    if not isinstance(ell, int) or ell < 2:
        raise ValueError(f"ell must be an int >= 2 or 'auto', got {ell!r}")
    m_groups = max(ell, math.ceil(c * k * beta))
    if m_groups > n_items * ell:
        raise ValueError(
            f"beta={beta:g} gives M={m_groups} groups, more than the "
            f"N*ell = {n_items * ell} edges of any graph on N={n_items} items"
        )
    n_max = ((1 << MAX_DEGREE) - 1) * m_groups // ell  # r_max fits GF(2^MAX_DEGREE)
    if n_items > n_max:
        raise ValueError(
            f"N={n_items} is too large: at K={k}, t={t} the largest N this "
            f"design can size is {n_max} (M={m_groups}, ell={ell})"
        )
    r_max, b, s = group_shape(n_items, ell, m_groups, t)
    m_bound = paper_test_count(n_items, k, t, c, ell)
    return DesignParams(
        n_items=n_items, k=k, t=t, ell=ell, beta=beta, m_groups=m_groups,
        r_max=r_max, b=b, s=s, m_total=m_groups * s + 1, m_bound=m_bound,
    )


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

    @property
    def s(self) -> int:
        return self.matrix.shape[0]

    @property
    def r(self) -> int:
        return self.bch.r


@lru_cache(maxsize=8)
def build_signature(t: int, r_max: int) -> Signature:
    """Signature for groups of at most r_max items at decoding radius t.

    Cached: every trial of a sweep point asks for the same one.  Its arrays
    are read-only, since every caller shares them.
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
    encode and decode reach the graph only through n_left, n_right,
    max_right_degree, incidence and items_at, so a DefectiveView holding the
    support serves as well as the whole graph.
    """
    items = _support_items(support, graph.n_left)
    _check_covers(graph, sig)
    y = np.zeros(graph.n_right * sig.s + 1, dtype=np.int64)
    y[0] = len(items)
    _scatter(np.add, y[1:].reshape(graph.n_right, sig.s), graph, sig, items)
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
        raise ValueError(f"item {bad} out of range of int64") from None
    return _distinct(np.sort(items))


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array."""
    return np.concatenate([ascending[:1], ascending[1:][ascending[1:] != ascending[:-1]]])


def _scatter(op, tests: np.ndarray, graph: BiRegularGraph | DefectiveView,
             sig: Signature, items: np.ndarray) -> np.ndarray:
    """Add (op=np.add) or subtract (np.subtract) items' columns, in place.

    tests is the (M, s) view of a test vector's groups.  Each item's column
    goes into every group it belongs to, and two items sharing a group both
    count.  Returns the groups touched, with repeats.
    """
    rights, positions = graph.incidence(items)
    op(tests, _column_sums(sig, rights, positions, len(tests)), out=tests)
    return rights.ravel()


def _column_sums(sig: Signature, rows: np.ndarray, positions: np.ndarray,
                 n_rows: int) -> np.ndarray:
    """(n_rows, s) integer sums of the columns at positions, by row.

    rows broadcasts against positions; position r adds nothing.  One
    bincount counts every (row, set slot) pair over an n_rows x (s + 1)
    grid whose last column takes the slot table's padding and is dropped.
    """
    width = sig.s + 1
    keys = (rows * width)[..., None] + np.take(sig.slots, positions, axis=0)
    sums = np.bincount(keys.ravel(), minlength=n_rows * width)
    return sums.reshape(n_rows, width)[:, :-1]


def resolve_node(z: np.ndarray, sig: Signature) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the defectives inside a stack of group slices.

    z has shape (f, s), one group's residual per row (count in slot 0).
    Returns (positions, ok): positions has shape (f, t), -1 marking an
    empty slot, as bch.decode_syndromes gives them, and ok marks the rows
    that resolve: those whose parity bits decode at their count and whose
    decoded columns integer-sum back to the slice exactly.
    """
    z = np.asarray(z, dtype=np.int64)
    if z.ndim != 2 or z.shape[1] != sig.s:
        raise ValueError(f"expected a stack of slices of length {sig.s}, got shape {z.shape}")
    syndromes = syndrome_from_bits(sig.bch, z[:, 1:] & 1)
    positions, ok = decode_syndromes(sig.bch, syndromes, z[:, 0])
    # integer re-check of the whole slice; an empty slot reads the padding row
    look = np.where(ok[:, None] & (positions >= 0), positions, sig.r)
    ok &= (_column_sums(sig, np.arange(len(z))[:, None], look, len(z)) == z).all(axis=1)
    return positions, ok


def decode(graph: BiRegularGraph | DefectiveView, sig: Signature, y,
           trace=None) -> DecodeOutcome:
    """Peel the test vector back to the defective set.

    y is an integer array (or list) of length M*s + 1; a float or other
    non-integer dtype raises ValueError rather than being truncated, and so
    does a signature with fewer columns than the largest group, as in encode.

    Rounds are synchronous: every group in the round's frontier (unresolved,
    count at most t) is resolved from the residual as it stood when the round
    began, in one resolve_node call, and their items are read in one items_at
    gather.  A group resolves only when every position it decodes names an
    item.  The items recovered are deduplicated, so each item is peeled
    exactly once, and their columns are subtracted in one scatter; the next
    frontier is the touched groups still unresolved with count at most t.
    After every round the residual equals y - encode(recovered), so success
    means exactly that the recovered set re-encodes to y.
    trace(round_idx, residual, recovered) is called after each round when
    provided.
    """
    m, s = graph.n_right, sig.s
    y = np.asarray(y)
    if y.dtype.kind not in "iu":
        raise ValueError(f"test vector must hold integers, got dtype {y.dtype}")
    if y.shape != (m * s + 1,):
        raise ValueError(f"test vector has shape {y.shape}, expected ({m * s + 1},)")
    _check_covers(graph, sig)
    t = sig.bch.t
    residual = y[1:].reshape(m, s).astype(np.int64)
    resolved = np.zeros(m, dtype=bool)
    recovered = np.zeros(0, dtype=np.int64)
    frontier = np.flatnonzero(residual[:, 0] <= t)
    iterations = 0
    while frontier.size:
        iterations += 1
        positions, ok = resolve_node(residual[frontier], sig)
        items = graph.items_at(np.repeat(frontier, t), positions.ravel()).reshape(positions.shape)
        # a padding column, or a position a view does not hold, leaves the
        # group unresolved; neither happens on genuine input
        ok &= ((items >= 0) | (positions < 0)).all(axis=1)
        resolved[frontier[ok]] = True
        # the distinct items, -1 slots dropped, that no earlier round recovered
        found = np.sort(items[ok], axis=None)
        new = _distinct(found[found >= 0])
        new = new[np.searchsorted(recovered, new) == np.searchsorted(recovered, new, "right")]
        recovered = np.sort(np.concatenate([recovered, new]))
        touched = np.zeros(m, dtype=bool)
        touched[_scatter(np.subtract, residual, graph, sig, new)] = True
        frontier = np.flatnonzero(touched & ~resolved & (residual[:, 0] <= t))
        if trace is not None:
            trace(iterations, residual.copy(), set(recovered.tolist()))
    unresolved = int((~resolved).sum())
    success = len(recovered) == int(y[0]) and not residual.any()
    return DecodeOutcome(recovered=set(recovered.tolist()), iterations=iterations,
                         unresolved_right=unresolved, success=success)


def measurement_matrix(graph: BiRegularGraph, sig: Signature) -> np.ndarray:
    """Dense 0/1 matrix of the M*s signature tests (count-all row excluded).

    Row block i covers group i; column v carries the signature column of
    item v's position in each group it belongs to.
    """
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
    with open(path, "r", encoding="utf-8") as fh:
        values = [int(ln) for ln in fh if ln.strip() and not ln.startswith("#")]
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
    with open(path, "r", encoding="utf-8") as fh:
        return {int(ln) for ln in fh if ln.strip() and not ln.startswith("#")}

