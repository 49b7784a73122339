"""Arithmetic in GF(2^b) via log/antilog tables.

Field elements are ints in [0, 2^b), held in int64 arrays; GF2m.mul and
GF2m.pow work element-wise on arrays or single ints.  Bit i of an element is
the coefficient of alpha^i in the polynomial basis, where alpha is a root of
the fixed primitive polynomial for that degree.  All fields of a given degree
therefore share one canonical representation.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

# One fixed primitive polynomial per degree, bit i = coefficient of x^i.
# Primitivity is re-verified at table-build time (construction raises if a
# polynomial fails to generate the full multiplicative group).
PRIMITIVE_POLY = {
    3: 0b1011,                # x^3 + x + 1
    4: 0b10011,               # x^4 + x + 1
    5: 0b100101,              # x^5 + x^2 + 1
    6: 0b1000011,             # x^6 + x + 1
    7: 0b10001001,            # x^7 + x^3 + 1
    8: 0b100011101,           # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,          # x^9 + x^4 + 1
    10: 0b10000001001,        # x^10 + x^3 + 1
    11: 0b100000000101,       # x^11 + x^2 + 1
    12: 0b1000001010011,      # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,     # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,    # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,   # x^15 + x + 1
    16: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}

MIN_DEGREE = 3
MAX_DEGREE = 16


class GF2m:
    """GF(2^b) with table-based multiplication.

    Parameters
    ----------
    degree : int
        Extension degree b, 3 <= b <= 16.  The defining polynomial is
        PRIMITIVE_POLY[degree].
    """

    def __init__(self, degree: int):
        if not MIN_DEGREE <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {degree}")
        primitive_poly = PRIMITIVE_POLY[degree]
        self.degree = degree
        self.primitive_poly = primitive_poly
        self.order = (1 << degree) - 1

        # alog[i] = alpha^i for i in [0, order); log[alog[i]] = i.  log[0] =
        # 2*order is a sentinel that mul reads (see product_alog); every other
        # reader masks the zero element or reduces mod order, giving 0
        alog = [0] * self.order
        log = [2 * self.order] * (self.order + 1)
        x = 1
        for i in range(self.order):
            alog[i] = x
            log[x] = i
            x <<= 1
            if x >> degree:
                x ^= primitive_poly
        if x != 1 or len(set(alog)) != self.order:
            raise ValueError(f"0b{primitive_poly:b} is not primitive over GF(2^{degree})")
        self.alog_np = np.array(alog, dtype=np.int64)
        self.log_np = np.array(log, dtype=np.int64)
        # weight of each bit position, most significant first
        self._bit_weights = np.int64(1) << np.arange(degree - 1, -1, -1, dtype=np.int64)

    def __repr__(self) -> str:
        return f"GF2m(degree={self.degree}, primitive_poly=0b{self.primitive_poly:b})"

    # -- arithmetic ---------------------------------------------------------

    def mul(self, a, b):
        """Element-wise product of ints or int64 arrays of field elements."""
        return self.product_alog[self.log_np[a] + self.log_np[b]]

    def pow(self, a, e: int):
        """Element-wise a^e for any integer e; 0 maps to 0 for every e.

        So pow(a, -1) is the inverse of a nonzero a, and reads 0 at a = 0.
        """
        return np.where(a == 0, 0, self.alog_np[(e * self.log_np[a]) % self.order])

    @cached_property
    def product_alog(self) -> np.ndarray:
        """alpha^i for i < 2*order, then 0 up to 4*order; read-only.

        So product_alog[log_np[a] + log_np[b]] is a*b: two logs sum below
        2*order, and a sum with the sentinel log_np[0] = 2*order in it lands
        at 2*order or above.
        """
        table = np.zeros(4 * self.order + 1, dtype=np.int64)
        table[: 2 * self.order] = np.tile(self.alog_np, 2)
        table.setflags(write=False)
        return table

    # -- bit-vector views ---------------------------------------------------

    def bit_columns(self, elements) -> np.ndarray:
        """Elements as 0/1 columns, shape (b, len(elements)), uint8.

        Row j holds the coefficient of alpha^(b-1-j): most significant first.
        """
        b = self.degree
        shifts = np.arange(b - 1, -1, -1, dtype=np.int64)
        return ((np.asarray(elements, dtype=np.int64)[None, :] >> shifts[:, None]) & 1).astype(np.uint8)

    def element_from_bits(self, bits) -> np.ndarray:
        """Inverse of bit_columns, over the last axis of a stack of bit rows.

        bits has shape (..., b); the elements come back as int64 of shape
        bits.shape[:-1].
        """
        bits = np.asarray(bits)
        if bits.ndim == 0 or bits.shape[-1] != self.degree:
            raise ValueError(f"expected {self.degree} bits in the last axis, got shape {bits.shape}")
        return bits.astype(np.int64) @ self._bit_weights

    # -- root tables --------------------------------------------------------

    @cached_property
    def quadratic_table(self) -> np.ndarray:
        """Table of z with z^2 + z = u and bit 0 clear, indexed by u; -1 if none.

        The other solution is z ^ 1.  Built on first use by squaring every
        even element at once: z and z ^ 1 share their u, so the even half of
        the field reaches each solvable u exactly once.  Read-only, as the
        other cached tables.
        """
        z = np.arange(0, self.order + 1, 2, dtype=np.int64)
        table = np.full(self.order + 1, -1, dtype=np.int64)
        table[self.pow(z, 2) ^ z] = z
        table.setflags(write=False)
        return table

    @cached_property
    def cubic_table(self) -> np.ndarray:
        """Table of the smallest y with y^3 + y = c, indexed by c; -1 unless three.

        An entry is set only when y^3 + y = c has three distinct roots in the
        field; the other two solve y'^2 + y y' + y^2 + 1 = 0.  Built on first
        use by cubing every element at once.  For c != 0 the cubic is
        separable, so 0, 1 or 3 elements reach c; c = 0 has the roots 0 and a
        double root 1, and two elements reach it.  Read-only.
        """
        y = np.arange(self.order + 1, dtype=np.int64)
        values, first, hits = np.unique(self.pow(y, 3) ^ y, return_index=True, return_counts=True)
        table = np.full(self.order + 1, -1, dtype=np.int64)
        table[values[hits == 3]] = first[hits == 3]
        table.setflags(write=False)
        return table


@lru_cache(maxsize=None)
def make_field(degree: int) -> GF2m:
    """Shared GF(2^degree) instance with the canonical primitive polynomial."""
    return GF2m(degree)
