"""Host speed: a fixed reference kernel timed next to the ops.

On a shared host the same op runs up to 1.8x slower for stretches of a
second to minutes, whatever the benchmark does, and a run's median moves
with how much of the run such stretches cover.  The kernel here does a
fixed mix of the kinds of work qgt does (shift/xor integer loops as in
GF(2^m) arithmetic, dict and sort work, small numpy calls as in density
evolution, a 2^16 permutation with fancy indexing as in graph sampling) and
never calls qgt, so a change to qgt cannot move it.  Timing it right before
and right after a stretch of ops gives the host's speed during that
stretch; the stretch's wall times are scaled by
``REFERENCE_MS / mean(kernel before, kernel after)``, which reports them in
milliseconds at the speed at which the kernel takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure inside the kernel's range on the host the README's numbers
# come from (7-12 ms on a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4); a
# fixed constant, so scaled times keep their size and compare across runs
# and commits.
REFERENCE_MS = 10.0

_TABLE = np.random.default_rng(0).permutation(1 << 16)
_SMALL = np.random.default_rng(1).random(64)


def kernel() -> int:
    """The fixed work; returns a checksum so nothing is optimised away."""
    acc = 0
    for a in range(1, 750):  # carry-less multiply, reduced mod x^15 + x + 1
        b = (a * 2654435761) & 0x7FFF
        p = 0
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a & 0x8000:
                a ^= 0x8003
            b >>= 1
        acc ^= p
    d = {}
    for i in range(15000):
        d[(i * 7919) & 4095] = i
    acc ^= sorted(d.values(), reverse=True)[0]
    x = _SMALL.copy()
    for _ in range(300):
        x = np.tanh(np.cumsum(x) * 0.1 - x.dot(x) * 1e-3)
    perm = np.random.default_rng(2).permutation(1 << 16)
    acc ^= int(np.sort(_TABLE[perm])[-1]) ^ int(x[0] > 0)
    return acc


def kernel_ms() -> float:
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


class HostSpeed:
    """Scales consecutive stretches of wall time by the kernel runs around them.

    The kernel runs once when this is made and once more at the end of
    every stretch, so each stretch is bracketed by the run before it and
    the run after it.
    """

    def __init__(self, kernel_ms=kernel_ms):
        self._kernel_ms = kernel_ms
        self.kernel_times = [kernel_ms()]

    def scale(self, wall: list[float]) -> list[float]:
        """Close a stretch: run the kernel, return ``wall`` at reference speed."""
        self.kernel_times.append(self._kernel_ms())
        factor = REFERENCE_MS / ((self.kernel_times[-2] + self.kernel_times[-1]) / 2)
        return [w * factor for w in wall]
