"""Arithmetic in GF(2^b) via log/antilog tables.

Field elements are plain Python ints in [0, 2^b).  Bit i of the integer is
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

        # alog[i] = alpha^i for i in [0, order); log[alog[i]] = i.
        alog = [0] * self.order
        log = [0] * (self.order + 1)
        x = 1
        for i in range(self.order):
            alog[i] = x
            log[x] = i
            x <<= 1
            if x >> degree:
                x ^= primitive_poly
        if x != 1 or len(set(alog)) != self.order:
            raise ValueError(f"0b{primitive_poly:b} is not primitive over GF(2^{degree})")
        self._alog = alog
        self._log = log
        # numpy copies for vectorized evaluation (chien search, matrix builds)
        self.alog_np = np.array(alog, dtype=np.int64)
        self.log_np = np.array(log, dtype=np.int64)
        # weight of each bit position, most significant first
        self._bit_weights = np.int64(1) << np.arange(degree - 1, -1, -1, dtype=np.int64)
        self._quad_table: np.ndarray | None = None
        self._cubic_table: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"GF2m(degree={self.degree}, primitive_poly=0b{self.primitive_poly:b})"

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._alog[(self._log[a] + self._log[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._alog[(self.order - self._log[a]) % self.order]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self._alog[(self._log[a] * e) % self.order]

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def sqrt(self, a: int) -> int:
        # squaring is a bijection in characteristic 2
        if a == 0:
            return 0
        return self.pow(a, 1 << (self.degree - 1))

    def alpha_pow(self, e: int) -> int:
        """alpha^e, exponent taken mod the group order."""
        return self._alog[e % self.order]

    def dlog(self, a: int) -> int:
        """Discrete log base alpha; a must be nonzero."""
        if a == 0:
            raise ValueError("discrete log of 0 is undefined")
        return self._log[a]

    # -- bit-vector views ---------------------------------------------------

    def bit_column(self, a: int) -> np.ndarray:
        """Element as a length-b 0/1 column, most significant bit first.

        Entry j holds the coefficient of alpha^(b-1-j).
        """
        b = self.degree
        return np.array([(a >> (b - 1 - j)) & 1 for j in range(b)], dtype=np.uint8)

    def bit_columns(self, elements: np.ndarray) -> np.ndarray:
        """Vectorized bit_column: shape (b, len(elements))."""
        b = self.degree
        shifts = np.arange(b - 1, -1, -1, dtype=np.int64)
        return ((np.asarray(elements, dtype=np.int64)[None, :] >> shifts[:, None]) & 1).astype(np.uint8)

    def element_from_bits(self, bits):
        """Inverse of bit_column, over the last axis of a stack of bit rows.

        bits has shape (..., b).  A single row gives a Python int; a stack
        gives an int64 array of shape bits.shape[:-1].
        """
        bits = np.asarray(bits)
        if bits.ndim == 0 or bits.shape[-1] != self.degree:
            raise ValueError(f"expected {self.degree} bits in the last axis, got shape {bits.shape}")
        values = bits.astype(np.int64) @ self._bit_weights
        return int(values) if bits.ndim == 1 else values

    @cached_property
    def product_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(zlog, zalog): products of arrays by one add and table reads.

        zlog[a] is the log of a, and zlog[0] = 2*order, a sentinel.  zalog
        holds alpha^i for i < 2*order and 0 from 2*order to 4*order, so
        zalog[zlog[a] + zlog[b]] is a*b: two logs sum below 2*order, and a
        sum with a sentinel in it lands at 2*order or above.
        """
        zlog = self.log_np.copy()
        zlog[0] = 2 * self.order
        zalog = np.zeros(4 * self.order + 1, dtype=np.int64)
        zalog[: 2 * self.order] = np.tile(self.alog_np, 2)
        for table in (zlog, zalog):
            table.setflags(write=False)
        return zlog, zalog

    # -- the quadratic table ------------------------------------------------

    def quadratic_table(self) -> np.ndarray:
        """Table of z with z^2 + z = u and bit 0 clear, indexed by u; -1 if none.

        The other solution is z ^ 1.  Built on first use by squaring every
        even element at once: z and z ^ 1 share their u, so the even half of
        the field reaches each solvable u exactly once.
        """
        if self._quad_table is None:
            z = np.arange(0, self.order + 1, 2, dtype=np.int64)
            u = self.alog_np[(2 * self.log_np[z]) % self.order] ^ z
            u[0] = 0  # log_np[0] is a placeholder; 0^2 + 0 = 0
            table = np.full(self.order + 1, -1, dtype=np.int64)
            table[u] = z
            self._quad_table = table
        return self._quad_table

    def cubic_table(self) -> np.ndarray:
        """Table of the smallest y with y^3 + y = c, indexed by c; -1 unless three.

        An entry is set only when y^3 + y = c has three distinct roots in the
        field; the other two solve y'^2 + y y' + y^2 + 1 = 0.  Built on first
        use by cubing every element at once.  For c != 0 the cubic is
        separable, so 0, 1 or 3 elements reach c; c = 0 has the roots 0 and a
        double root 1, and two elements reach it.
        """
        if self._cubic_table is None:
            y = np.arange(self.order + 1, dtype=np.int64)
            c = self.alog_np[(3 * self.log_np[y]) % self.order] ^ y
            c[0] = 0  # log_np[0] is a placeholder; 0^3 + 0 = 0
            values, first, hits = np.unique(c, return_index=True, return_counts=True)
            table = np.full(self.order + 1, -1, dtype=np.int64)
            table[values[hits == 3]] = first[hits == 3]
            self._cubic_table = table
        return self._cubic_table


@lru_cache(maxsize=None)
def make_field(degree: int) -> GF2m:
    """Shared GF(2^degree) instance with the canonical primitive polynomial."""
    return GF2m(degree)
