"""Binary t-error-correcting BCH codes in syndrome form.

The parity-check matrix over GF(2^b) has column j carrying the bit expansions
of alpha^j, alpha^(3j), ..., alpha^((2t-1)j), stacked most significant bit
first.  Any two distinct integer sums of at most t columns differ, which is
what lets a column subset of size <= t be recovered from its binary syndrome.
Codes are shortened by keeping the first r columns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2m import GF2m, make_field, solve_gf2

MAX_T = 8


class DecodeFailure(Exception):
    """Syndrome is not explained by any error pattern within the contract."""


@dataclass(frozen=True)
class BchSpec:
    """A t-error-correcting BCH code over GF(2^b), shortened to r columns.

    Attributes
    ----------
    field : GF2m
        Symbol field; n = field.order is the unshortened length.
    t : int
        Guaranteed decoding radius, 1 <= t <= 8 and t < 2^(b-1).
    r : int
        Number of columns kept, 1 <= r <= n.
    """

    field: GF2m
    t: int
    r: int

    def __post_init__(self):
        if not 1 <= self.t <= MAX_T:
            raise ValueError(f"t must be in [1, {MAX_T}], got {self.t}")
        if self.t >= 1 << (self.field.degree - 1):
            raise ValueError(
                f"t={self.t} too large for GF(2^{self.field.degree}); need t < 2^(b-1)"
            )
        if not 1 <= self.r <= self.n:
            raise ValueError(f"r must be in [1, {self.n}], got {self.r}")

    @property
    def n(self) -> int:
        return self.field.order

    @property
    def syndrome_bits(self) -> int:
        return self.t * self.field.degree


@lru_cache(maxsize=None)
def make_bch(degree: int, t: int, r: int) -> BchSpec:
    return BchSpec(make_field(degree), t, r)


def build_parity_columns(spec: BchSpec) -> np.ndarray:
    """Binary parity-check matrix, shape (t*b, r), dtype uint8.

    Row block k (0-based) holds bit_column(alpha^((2k+1) j)) for column j.
    """
    f = spec.field
    j = np.arange(spec.r, dtype=np.int64)
    blocks = []
    for k in range(spec.t):
        exps = ((2 * k + 1) * j) % spec.n
        blocks.append(f.bit_columns(f.alog_np[exps]))
    return np.vstack(blocks)


def syndrome_from_bits(spec: BchSpec, bits):
    """Unpack t*b syndrome bits into the odd power sums [S_1, S_3, ...].

    bits has shape (..., t*b).  A single row gives a list of t ints; a stack
    gives an int64 array of shape bits.shape[:-1] + (t,).
    """
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] != spec.syndrome_bits:
        raise ValueError(
            f"expected {spec.syndrome_bits} syndrome bits in the last axis, "
            f"got shape {bits.shape}"
        )
    sums = spec.field.element_from_bits(
        bits.reshape(bits.shape[:-1] + (spec.t, spec.field.degree)))
    return sums.tolist() if bits.ndim == 1 else sums


def find_error_locator(spec: BchSpec, syndrome: list[int]) -> tuple[list[int], int]:
    """Berlekamp-Massey error locator from the odd power sums.

    Even power sums are filled in via S_2k = S_k^2 (Frobenius on binary
    patterns).  Returns (coefficients low order first, constant term 1,
    trailing zeros trimmed; LFSR length L).  For a true syndrome of weight
    w <= t both the degree and L equal w.
    """
    f = spec.field
    if len(syndrome) != spec.t:
        raise ValueError(f"expected {spec.t} odd power sums, got {len(syndrome)}")
    two_t = 2 * spec.t
    s = [0] * (two_t + 1)  # 1-indexed
    for k in range(spec.t):
        s[2 * k + 1] = syndrome[k]
    for i in range(2, two_t + 1, 2):
        s[i] = f.sqr(s[i // 2])

    c = [1]
    prev = [1]
    length = 0
    gap = 1
    prev_disc = 1
    for i in range(1, two_t + 1):
        disc = s[i]
        for k in range(1, length + 1):
            if k < len(c) and c[k]:
                disc ^= f.mul(c[k], s[i - k])
        if disc == 0:
            gap += 1
            continue
        scale = f.div(disc, prev_disc)
        update = c[:]
        if len(prev) + gap > len(update):
            update.extend([0] * (len(prev) + gap - len(update)))
        for k, pk in enumerate(prev):
            if pk:
                update[k + gap] ^= f.mul(scale, pk)
        if 2 * length <= i - 1:
            prev = c
            prev_disc = disc
            length = i - length
            gap = 1
        else:
            gap += 1
        c = update
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c, length


def poly_eval(field: GF2m, coeffs: list[int], x: int) -> int:
    """Evaluate a polynomial (coefficients low order first) at x."""
    acc = 0
    for coef in reversed(coeffs):
        acc = field.mul(acc, x) ^ coef
    return acc


# Field degree from which degree <= 4 locators take the closed-form solvers
# instead of the Chien scan, which costs O(2^b) per locator against a few
# b-bit GF(2) solves.  Per weight-3 locator, Chien/closed form, one core of a
# 2-vCPU Xeon host: 58/75 us at b=10, 78/78 at b=11, 135/95 at b=12, 838/119
# at b=15 (weight 4 alike; see README's Decoder section).
DIRECT_ROOTS_MIN_FIELD_DEGREE = 12


def find_roots(spec: BchSpec, locator: list[int]) -> set[int]:
    """Distinct roots of the locator polynomial among the field elements.

    Locators of degree 1..4 over fields of degree DIRECT_ROOTS_MIN_FIELD_DEGREE
    or more go to the closed-form characteristic-2 solvers, all others to the
    Chien scan.  Both finders return the same set.
    """
    if not locator or locator[0] != 1:
        raise ValueError("locator must have constant term 1")
    degree = len(locator) - 1
    if 1 <= degree <= 4 and spec.field.degree >= DIRECT_ROOTS_MIN_FIELD_DEGREE:
        return _direct_roots(spec.field, locator)
    return _chien_roots(spec.field, locator)


def _chien_roots(f: GF2m, locator: list[int]) -> set[int]:
    # evaluate at alpha^i for every i at once; sigma(0) = 1 so 0 is never a root
    n = f.order
    i = np.arange(n, dtype=np.int64)
    acc = np.full(n, locator[0], dtype=np.int64)
    for k in range(1, len(locator)):
        if locator[k] == 0:
            continue
        idx = (f.dlog(locator[k]) + k * i) % n
        acc ^= f.alog_np[idx]
    return {int(f.alog_np[e]) for e in np.nonzero(acc == 0)[0]}


def _affine_solutions(f: GF2m, a4: int, a2: int, a1: int, rhs: int) -> list[int]:
    """All x with a4*x^4 + a2*x^2 + a1*x = rhs, via a GF(2) linear solve."""
    cols = []
    for j in range(f.degree):
        e = 1 << j
        img = f.mul(a4, f.sqr(f.sqr(e))) ^ f.mul(a2, f.sqr(e)) ^ f.mul(a1, e)
        cols.append(img)
    sol = solve_gf2(cols, rhs, f.degree)
    if sol is None:
        return []
    particular, kernel = sol
    out = [particular]
    for vec in kernel:
        out = out + [x ^ vec for x in out]
    return out


def _roots_monic_quadratic(f: GF2m, p: int, q: int) -> list[int]:
    # x^2 + p x + q
    if p == 0:
        return [f.sqrt(q)]
    u = f.div(q, f.sqr(p))
    z = f.solve_quadratic_unit(u)
    if z is None:
        return []
    return [f.mul(p, z), f.mul(p, z ^ 1)]


def _roots_monic_cubic(f: GF2m, p: int, q: int, r: int) -> list[int]:
    # x^3 + p x^2 + q x + r; shift x = y + p leaves y^3 + s y + w, and every
    # root of that is in the kernel of the linearized y^4 + s y^2 + w y
    s = f.sqr(p) ^ q
    w = f.mul(p, q) ^ r
    candidates = _affine_solutions(f, 1, s, w, 0)
    roots = []
    for y in candidates:
        x = y ^ p
        if poly_eval(f, [r, q, p, 1], x) == 0:
            roots.append(x)
    return roots


def _roots_monic_quartic(f: GF2m, a: int, b: int, c: int, d: int) -> list[int]:
    # x^4 + a x^3 + b x^2 + c x + d with d != 0
    if a == 0:
        return [x for x in _affine_solutions(f, 1, b, c, d)
                if poly_eval(f, [d, c, b, 0, 1], x) == 0]
    # kill the linear term with x = y + h, then invert: u = 1/y turns
    # y^4 + a y^3 + B y^2 + D into the affine u^4 + (B/D) u^2 + (a/D) u + 1/D
    h = f.sqrt(f.div(c, a))
    big_b = f.mul(a, h) ^ b
    big_d = poly_eval(f, [d, c, b, a, 1], h)
    if big_d == 0:
        roots = {h}
        # synthetic division by (x + h)
        c2 = a ^ h
        c1 = b ^ f.mul(h, c2)
        c0 = c ^ f.mul(h, c1)
        roots.update(_roots_monic_cubic(f, c2, c1, c0))
        return sorted(roots)
    inv_d = f.inv(big_d)
    roots = []
    for u in _affine_solutions(f, 1, f.mul(big_b, inv_d), f.mul(a, inv_d), inv_d):
        if u == 0:
            continue
        x = f.inv(u) ^ h
        if poly_eval(f, [d, c, b, a, 1], x) == 0:
            roots.append(x)
    return roots


def _direct_roots(f: GF2m, locator: list[int]) -> set[int]:
    degree = len(locator) - 1
    lead_inv = f.inv(locator[degree])
    monic = [f.mul(coef, lead_inv) for coef in locator]
    if degree == 1:
        roots = [monic[0]]  # x + m0
    elif degree == 2:
        roots = _roots_monic_quadratic(f, monic[1], monic[0])
    elif degree == 3:
        roots = _roots_monic_cubic(f, monic[2], monic[1], monic[0])
    else:
        roots = _roots_monic_quartic(f, monic[3], monic[2], monic[1], monic[0])
    return {x for x in roots if poly_eval(f, locator, x) == 0}


def decode_syndrome(spec: BchSpec, syndrome: list[int], weight: int) -> set[int]:
    """Positions of the `weight` columns whose mod-2 sum has this syndrome.

    Raises DecodeFailure when no weight-sized error pattern inside the
    shortened range explains the syndrome.
    """
    if weight == 0:
        if any(syndrome):
            raise DecodeFailure("nonzero syndrome with claimed weight 0")
        return set()
    if weight > spec.t:
        raise DecodeFailure(f"claimed weight {weight} exceeds t={spec.t}")
    locator, length = find_error_locator(spec, syndrome)
    if length != weight or len(locator) - 1 != weight:
        raise DecodeFailure(
            f"locator degree {len(locator) - 1} (L={length}) != claimed weight {weight}"
        )
    roots = find_roots(spec, locator)
    if len(roots) != weight:
        raise DecodeFailure(f"{len(roots)} distinct roots for degree {weight} locator")
    n = spec.n
    positions = {(n - spec.field.dlog(rho)) % n for rho in roots}
    if any(j >= spec.r for j in positions):
        raise DecodeFailure("root maps outside the shortened column range")
    return positions
