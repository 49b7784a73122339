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
from dataclasses import dataclass

import numpy as np

from .bch import (
    BchSpec,
    DecodeFailure,
    build_parity_columns,
    decode_syndrome,
    make_bch,
    syndrome_from_bits,
)
from .density import design_constant
from .gf2m import MAX_DEGREE, MIN_DEGREE
from .graphs import BiRegularGraph

DEFAULT_BETA = 1.35


@dataclass(frozen=True)
class DesignParams:
    """Resolved shape of one measurement design.

    m_total = M*s + 1 is what the design spends; m_bound is the real-valued
    target c K (t log2(ell N/(c K) + 1) + 1) + 1 it tracks.  m_total runs
    above m_bound by the integer ceilings (field degree b, M) and the beta
    slack; see tests for the quantified bound.
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
                  beta: float = DEFAULT_BETA,
                  constants: str = "table") -> DesignParams:
    """Size a design for N items with K defectives at decoding radius t."""
    if not 1 <= k < n_items:
        raise ValueError(f"need 1 <= K < N, got K={k}, N={n_items}")
    if not beta > 1.0:
        raise ValueError(f"beta must exceed 1, got {beta}")
    c, ell_star = design_constant(t, constants)
    if ell == "auto":
        ell = ell_star
    if not isinstance(ell, int) or ell < 2:
        raise ValueError(f"ell must be an int >= 2 or 'auto', got {ell!r}")
    m_groups = max(ell, math.ceil(c * k * beta))
    r_max, b, s = group_shape(n_items, ell, m_groups, t)
    m_bound = c * k * (t * math.log2(ell * n_items / (c * k) + 1.0) + 1.0) + 1.0
    return DesignParams(
        n_items=n_items, k=k, t=t, ell=ell, beta=beta, m_groups=m_groups,
        r_max=r_max, b=b, s=s, m_total=m_groups * s + 1, m_bound=m_bound,
    )


class Signature:
    """Signature matrix for one group: all-ones row over BCH parity columns.

    matrix has shape (s, r_max) = (t*b + 1, r_max), dtype uint8.  Column p is
    handed to the item at position p of a group's neighbor list; integer sums
    of up to t columns are distinct, and the mod-2 reduction of a sum is the
    BCH syndrome of its support.
    """

    def __init__(self, bch: BchSpec):
        self.bch = bch
        parity = build_parity_columns(bch)
        self.matrix = np.vstack([np.ones((1, bch.r), dtype=np.uint8), parity])

    @property
    def s(self) -> int:
        return self.matrix.shape[0]

    @property
    def r(self) -> int:
        return self.bch.r


def build_signature(t: int, r_max: int) -> Signature:
    """Signature for groups of at most r_max items at decoding radius t."""
    return Signature(make_bch(field_degree_for(r_max, t), t, r_max))


@dataclass
class DecodeOutcome:
    recovered: set[int]
    iterations: int
    unresolved_right: int
    success: bool


def encode(graph: BiRegularGraph, sig: Signature, support) -> np.ndarray:
    """Test vector for a defective set: y[0] counts all, then M blocks of s.

    Cost is O(K * ell * s); only the columns of defective items are touched.
    """
    support = set(int(v) for v in support)
    for v in support:
        if not 0 <= v < graph.n_left:
            raise ValueError(f"item {v} out of range [0, {graph.n_left})")
    if graph.max_right_degree > sig.r:
        raise ValueError(
            f"signature covers {sig.r} columns but a group has "
            f"{graph.max_right_degree} items"
        )
    s = sig.s
    y = np.zeros(graph.n_right * s + 1, dtype=np.int64)
    y[0] = len(support)
    cols = sig.matrix.astype(np.int64)
    for v in support:
        for i, pos in graph.left_edges(v):
            y[1 + i * s : 1 + (i + 1) * s] += cols[:, pos]
    return y


def resolve_node(z: np.ndarray, sig: Signature,
                 method: str = "chien") -> frozenset[int] | None:
    """Positions of the defectives inside one group slice, or None.

    z is the length-s residual of the group (count in slot 0).  Returns the
    set of column positions when the count is at most t and the decoded
    columns integer-sum back to z exactly; otherwise None.
    """
    count = int(z[0])
    if count == 0:
        return frozenset() if not z.any() else None
    if count < 0 or count > sig.bch.t:
        return None
    syndrome = syndrome_from_bits(sig.bch, (z[1:] % 2).astype(np.uint8))
    try:
        positions = decode_syndrome(sig.bch, syndrome, count, method=method)
    except DecodeFailure:
        return None
    check = sig.matrix[:, sorted(positions)].astype(np.int64).sum(axis=1)
    if not np.array_equal(check, z):
        return None
    return frozenset(positions)


def decode(graph: BiRegularGraph, sig: Signature, y: np.ndarray,
           method: str = "chien", order_rng=None, trace=None) -> DecodeOutcome:
    """Peel the test vector back to the defective set.

    Rounds are synchronous: every group that looks resolvable at the start of
    a round is attempted before newly peeled groups are considered, so the
    iteration count matches the per-round picture.  The recovered set itself
    does not depend on processing order; order_rng, if given, shuffles each
    round's worklist (used to test exactly that).  trace(round_idx, residual,
    recovered) is called after each round when provided.
    """
    m, s = graph.n_right, sig.s
    if y.shape != (m * s + 1,):
        raise ValueError(f"test vector has shape {y.shape}, expected ({m * s + 1},)")
    t = sig.bch.t
    residual = y[1:].reshape(m, s).copy()
    resolved = np.zeros(m, dtype=bool)
    recovered: set[int] = set()
    frontier = [i for i in range(m) if residual[i, 0] <= t]
    iterations = 0
    while frontier:
        iterations += 1
        if order_rng is not None:
            order_rng.shuffle(frontier)
        next_frontier: list[int] = []
        for i in frontier:
            if resolved[i]:
                continue
            positions = resolve_node(residual[i], sig, method=method)
            if positions is None:
                # inconsistent slice; retried only if a later peel changes it
                continue
            adj = graph.right_adj[i]
            if any(p >= len(adj) for p in positions):
                # decoded a padding column; cannot happen on genuine input
                continue
            resolved[i] = True
            for p in sorted(positions):
                v = int(adj[p])
                recovered.add(v)
                for i2, p2 in graph.left_edges(v):
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
    return np.array(values, dtype=np.int64)


def save_support(path: str, support) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# 0-based item indices, one per line\n")
        for v in sorted(set(int(x) for x in support)):
            fh.write(f"{v}\n")


def load_support(path: str) -> set[int]:
    with open(path, "r", encoding="utf-8") as fh:
        return {int(ln) for ln in fh if ln.strip() and not ln.startswith("#")}


def save_dense_matrix(path: str, a: np.ndarray) -> None:
    """Row-major text dump, one space-separated row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")
