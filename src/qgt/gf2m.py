"""Arithmetic in GF(2^b) via log/antilog tables.

Field elements are ints in [0, 2^b), held in int64 arrays; GF2m.mul and
GF2m.pow work element-wise on arrays or single ints.  Bit i of an element is
the coefficient of alpha^i in the polynomial basis, where alpha is a root of
the fixed primitive polynomial for that degree.  All fields of a given degree
therefore share one canonical representation.

The antilog table alpha^i is built in two levels, with no Python loop over
the 2^b elements.  With width L = 2^ceil(b/2) and i = qL + r, alpha^i is
alpha^r times alpha^(qL), so it is the xor of alpha^(r+j) over the set bits
j of alpha^(qL).  Python steps out only the L + b low powers and the 2^b / L
row heads alpha^(qL); b masked xors over the (2^b / L) x L table make the
rest, and the log table is one scatter of the powers' exponents.

Every other table is a cached property, built on first use and read-only:
product_alog for mul, the quadratic root table, and the steps of bch's
closed-form decoder that depend on one element (its cube, the log of its
inverse, the logs of a cubic's roots by its constant, ...), so that the
decoder reads each such step instead of computing it with mul and pow.  pow
holds no table: it works alpha^(e log a) out from log_np and alog_np on each
call, and the tables that need a power of every element call it once.  Each
fact is held once: a t = 4 field solves its cubic once and its quadratic at
most three times, and the bool tables that say whether a root equation is
solvable are read off the log tables of its roots, where the last element's
log marks a row without them.
"""

from __future__ import annotations

import operator
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
        degree = _integer(degree, "degree")
        if not MIN_DEGREE <= degree <= MAX_DEGREE:
            raise ValueError(f"degree must be in [{MIN_DEGREE}, {MAX_DEGREE}], got {degree}")
        primitive_poly = PRIMITIVE_POLY[degree]
        self.degree = degree
        self.primitive_poly = primitive_poly
        self.order = (1 << degree) - 1

        # alpha^i for i in [0, order], two-level (see the module docstring).
        # Multiplying by alpha is linear for any polynomial of degree b, and
        # alpha^j is the element 1 << j for j < b, so the table is exactly
        # what stepping x <- x * alpha one power at a time gives, primitive
        # or not
        width = 1 << (degree + 1) // 2
        lows = [1]  # alpha^0 .. alpha^(width + b - 1)
        for _ in range(width + degree - 1):
            x = lows[-1] << 1
            lows.append(x ^ primitive_poly if x >> degree else x)
        # alpha^(q * width); the next head is the xor of alpha^(width + j)
        # over the set bits j of this one
        steps = lows[width:]
        heads = [1]
        for _ in range((self.order + 1) // width - 1):
            x, y = heads[-1], 0
            for step in steps:
                if x & 1:
                    y ^= step
                x >>= 1
            heads.append(y)
        # the narrowest unsigned type that holds every element
        self._narrow = np.min_scalar_type(self.order)
        heads = np.array(heads, dtype=self._narrow)
        lows = np.array(lows, dtype=self._narrow)
        powers = np.zeros((len(heads), width), dtype=self._narrow)
        for j in range(degree):
            np.bitwise_xor(powers, lows[j : j + width], out=powers,
                           where=((heads >> j) & 1).astype(bool)[:, None])
        powers = powers.ravel()

        # alog[i] = alpha^i for i in [0, order); log[alog[i]] = i.  log[0] =
        # 2*order is a sentinel that mul reads (see product_alog); every other
        # reader masks the zero element or reduces mod order, giving 0.  Every
        # log written is below order, so the powers are distinct exactly when
        # order entries of log lost the sentinel
        alog = powers[:-1].astype(np.int64)
        log = np.full(self.order + 1, 2 * self.order, dtype=np.int64)
        log[alog] = np.arange(self.order)
        if powers[-1] != 1 or np.count_nonzero(log != 2 * self.order) != self.order:
            raise ValueError(f"0b{primitive_poly:b} is not primitive over GF(2^{degree})")
        alog.setflags(write=False)
        log.setflags(write=False)
        self.alog_np = alog
        self.log_np = log
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
        Worked out on each call as alpha^(e log a mod order), from the log
        and antilog tables; nothing is built or held.  Like every table
        read, a = -1 reads the last element, 2^b - 1, and an int a gives a
        numpy scalar.  e is any int, numpy integers included; a bool or a
        float raises ValueError.
        """
        e = _integer(e, "e") % self.order
        powers = self.alog_np[e * self.log_np[a] % self.order]
        return np.where(np.equal(a, 0), 0, powers)[()]

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
        # the narrow copy keeps the low bits, which hold all b that the rows read
        shifts = np.arange(b - 1, -1, -1, dtype=self._narrow)
        narrow = np.asarray(elements, dtype=np.int64).astype(self._narrow)
        columns = (narrow[None, :] >> shifts[:, None]).astype(np.uint8)
        columns &= 1
        return columns

    def element_from_bits(self, bits) -> np.ndarray:
        """Inverse of bit_columns, over the last axis of a stack of bit rows.

        bits has shape (..., b); the elements come back as int64 of shape
        bits.shape[:-1].
        """
        bits = np.asarray(bits)
        if bits.ndim == 0 or bits.shape[-1] != self.degree:
            raise ValueError(f"expected {self.degree} bits in the last axis, got shape {bits.shape}")
        return bits.astype(np.int64, copy=False) @ self._bit_weights

    # -- root tables --------------------------------------------------------

    @cached_property
    def quadratic_table(self) -> np.ndarray:
        """Table of z with z^2 + z = u and bit 0 clear, indexed by u; -1 if none.

        The other solution is z ^ 1.  Read-only, as the other cached tables;
        see _quadratic_solutions.
        """
        return _read_only(self._quadratic_solutions())

    def _quadratic_solutions(self) -> np.ndarray:
        """quadratic_table, built without caching it.

        Squaring every even element at once: z and z ^ 1 share their u, so
        the even half of the field reaches each solvable u exactly once.
        """
        z = np.arange(0, self.order + 1, 2, dtype=np.int64)
        table = np.full(self.order + 1, -1, dtype=np.int64)
        table[self.pow(z, 2) ^ z] = z
        return table

    def _cubic_solutions(self) -> np.ndarray:
        """The smallest y with y^3 + y = c, indexed by c; -1 unless three.

        An entry is set only when y^3 + y = c has three distinct roots in the
        field; the other two solve y'^2 + y y' + y^2 + 1 = 0.  Built without
        caching it, by cubing every element at once: for c != 0 the cubic is
        separable, so 0, 1 or 3 elements reach c; c = 0 has the roots 0 and a
        double root 1, and two elements reach it.
        cubic_logs, the one table built from it, and cubic_splits, read off
        cubic_logs, are what a decode reads of it.
        """
        y = np.arange(self.order + 1, dtype=np.int64)
        values, first, hits = np.unique(self.pow(y, 3) ^ y, return_index=True,
                                        return_counts=True)
        table = np.full(self.order + 1, -1, dtype=np.int64)
        table[values[hits == 3]] = first[hits == 3]
        return table

    # -- steps of the closed-form decoder (bch.decode_syndromes) -------------
    #
    # Each table is one step of the decoder's closed forms that depends on a
    # single element, evaluated at every element and built on first use.
    # Its entries are exactly what the step computes with mul, pow and the
    # tables above, the entries read at x = 0 and at -1 (the last element)
    # included, so a refused row reads what it always did.  A log here is as
    # log_np has it, 2*order at 0, unless the table says "mod order".  All
    # are read-only.  The count-2 tables are all that a t = 2 decode builds,
    # so they take the narrowest unsigned dtype; the count-3 and count-4
    # tables, built once a count-3 row appears, are int64 like log_np,
    # because their reads feed index arithmetic, where a narrow read would
    # be cast on every use.

    @cached_property
    def cube_by_log(self) -> np.ndarray:
        """alpha^(3 log x mod order) for every x: x^3, but 1 at x = 0.

        The count-2 step forms S1^3 this way; at S1 = 0 the sentinel log is
        a multiple of order, so it reads alpha^0.
        """
        return _narrowest(self.alog_np[(3 * self.log_np) % self.order])

    @cached_property
    def quadratic_logs(self) -> np.ndarray:
        """log z and log(z ^ 1) mod order, for u = alpha^e; shape (order, 2).

        Indexed by the exponent e of u, z is quadratic_table[u].  Where
        z^2 + z = u has no solution, z = -1 reads the logs of the last two
        elements.  A solution z has bit 0 clear, so it is never the last
        element, and quadratic_solvable is read off column 0.
        """
        z = self._quadratic_solutions()[self.alog_np]
        return _narrowest(self.log_np[z[:, None] ^ np.array([0, 1])] % self.order)

    @cached_property
    def quadratic_solvable(self) -> np.ndarray:
        """Whether z^2 + z = alpha^e has a solution, indexed by e; bool.

        Read off quadratic_logs: a row reads the last element's log exactly
        where there is no solution.
        """
        return _read_only(self.quadratic_logs[:, 0] != self.log_np[-1])

    @cached_property
    def squares(self) -> np.ndarray:
        """x^2 for every x."""
        return _read_only(self.pow(np.arange(self.order + 1), 2))

    @cached_property
    def cubes(self) -> np.ndarray:
        """x^3 for every x."""
        return _read_only(self.pow(np.arange(self.order + 1), 3))

    @cached_property
    def inverse_log(self) -> np.ndarray:
        """log x^-1 for every x; 2*order at x = 0, where pow(x, -1) reads 0."""
        return _read_only(self.log_np[self.pow(np.arange(self.order + 1), -1)])

    @cached_property
    def sqrt_log(self) -> np.ndarray:
        """log sqrt(x) = log x^(2^(b-1)) for every x; 2*order at x = 0."""
        return _read_only(self.log_np[self.pow(np.arange(self.order + 1), 1 << (self.degree - 1))])

    @cached_property
    def cubic_scale_log(self) -> np.ndarray:
        """log x^(-3 * 2^(b-1)), the log of x^(-3/2), for every x; 2*order at 0.

        w = sqrt(p) y turns w^3 + p w + q into y^3 + y = q / p^(3/2).
        """
        return _read_only(self.log_np[self.pow(np.arange(self.order + 1), -3 << (self.degree - 1))])

    @cached_property
    def cubic_logs(self) -> np.ndarray:
        """The logs of y1, y2 and y1 + y2 for y^3 + y = c, by c; shape (2^b, 3).

        y1 is _cubic_solutions()[c], -1 reading as the last element where
        there are not three roots (y1, the smallest of three distinct roots,
        is never the last element), and y2 = y1 z with
        z = quadratic_table[y1^-2 + 1] (see bch._cubic_roots), so a product
        by sqrt(p) of each is one add and a product_alog read.
        """
        log = self.log_np
        y1 = self._cubic_solutions() & self.order  # -1 reads as the last element
        z = self._quadratic_solutions()[self.pow(y1, -2) ^ 1]
        y2 = self.product_alog[log[y1] + log[z]]
        return _read_only(log[np.stack([y1, y2, y1 ^ y2], axis=1)])

    @cached_property
    def cubic_splits(self) -> np.ndarray:
        """Whether y^3 + y = c has three distinct roots, indexed by c; bool.

        Read off cubic_logs: a row reads the last element's log as y1
        exactly where there are not three.
        """
        return _read_only(self.cubic_logs[:, 0] != self.log_np[-1])


def _narrowest(values: np.ndarray) -> np.ndarray:
    """Non-negative integers in the narrowest unsigned dtype that holds them, read-only."""
    return _read_only(values.astype(np.min_scalar_type(values.max())))


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _integer(value, name: str) -> int:
    """value as a Python int, numpy integers included; ValueError naming it otherwise.

    A bool is refused: it would read as 0 or 1.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def make_field(degree: int) -> GF2m:
    """Shared GF(2^degree) instance with the canonical primitive polynomial.

    The degree passes _integer before the cache: lru_cache would key a numpy
    integer apart from the equal int and build the field twice.  cache_clear
    and cache_info are the cache's.
    """
    return _shared_field(_integer(degree, "degree"))


@lru_cache(maxsize=None)
def _shared_field(degree: int) -> GF2m:
    return GF2m(degree)


make_field.cache_clear = _shared_field.cache_clear
make_field.cache_info = _shared_field.cache_info
