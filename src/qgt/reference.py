"""A hand-checkable 14-item reference instance.

Small enough to check by hand: N = 14 items, M = 4 groups of 7, ell = 2,
t = 1 over GF(2^3), 17 tests total.  The frozen adjacency, signature, and
test vector below are used by the CLI selftest and the demos; the test suite
carries its own independent transcription.
"""

from __future__ import annotations

import numpy as np

from .codec import Signature, build_signature, encode
from .graphs import BiRegularGraph

# groups of 7 items each; every item appears in exactly 2 groups
REFERENCE_GROUPS = [
    [0, 2, 4, 6, 8, 10, 13],
    [1, 2, 5, 7, 9, 11, 13],
    [1, 3, 5, 6, 9, 10, 12],
    [0, 3, 4, 7, 8, 11, 12],
]

REFERENCE_DEFECTIVES = (0, 3, 9)

# signature matrix for t = 1 over GF(2^3): ones row over the bit columns of
# 1, alpha, ..., alpha^6 (most significant bit first)
REFERENCE_SIGNATURE = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1],
        [0, 0, 1, 0, 1, 1, 1],
        [0, 1, 0, 1, 1, 1, 0],
        [1, 0, 0, 1, 0, 1, 1],
    ],
    dtype=np.uint8,
)

# encoding of the reference defectives: count-all slot, then 4 groups of 4
REFERENCE_TEST_VECTOR = np.array(
    [3, 1, 0, 0, 1, 1, 1, 1, 0, 2, 1, 2, 0, 2, 0, 1, 1], dtype=np.int64
)


def reference_graph() -> BiRegularGraph:
    return BiRegularGraph(14, 2, np.concatenate(REFERENCE_GROUPS),
                          [len(g) for g in REFERENCE_GROUPS])


def reference_signature() -> Signature:
    return build_signature(t=1, r_max=7)


def reference_test_vector() -> np.ndarray:
    return encode(reference_graph(), reference_signature(), REFERENCE_DEFECTIVES)
