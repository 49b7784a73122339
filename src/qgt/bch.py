"""Binary t-error-correcting BCH codes in syndrome form.

The parity-check matrix over GF(2^b) has column j carrying the bit expansions
of alpha^j, alpha^(3j), ..., alpha^((2t-1)j), stacked most significant bit
first.  Any two distinct integer sums of at most t columns differ, which is
what lets a column subset of size <= t be recovered from its binary syndrome.
Codes are shortened by keeping the first r columns only.
decode_syndromes decodes in closed form at every radius 1..MAX_T.
Berlekamp-Massey and the Chien scan (decode_syndrome) are the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2m import GF2m, make_field

MAX_T = 4  # the paper's decoding radii; analysis in density goes to 8


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
        Guaranteed decoding radius, 1 <= t <= MAX_T = 4 and t < 2^(b-1).
    r : int
        Number of columns kept, 1 <= r <= n.
    """

    field: GF2m
    t: int
    r: int

    def __post_init__(self):
        check_radius(self.t)
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


def check_radius(t: int) -> None:
    """Raise ValueError unless t is a decoding radius, 1 <= t <= MAX_T."""
    if not 1 <= t <= MAX_T:
        raise ValueError(f"t must be in 1..{MAX_T} to decode, got t={t}")


@lru_cache(maxsize=None)
def make_bch(degree: int, t: int, r: int) -> BchSpec:
    return BchSpec(make_field(degree), t, r)


def build_parity_columns(spec: BchSpec) -> np.ndarray:
    """Binary parity-check matrix, shape (t*b, r), dtype uint8.

    Row block k (0-based) holds the bits of alpha^((2k+1) j) for column j, as
    GF2m.bit_columns lays them out.
    """
    f = spec.field
    j = np.arange(spec.r, dtype=np.int64)
    blocks = []
    for k in range(spec.t):
        exps = ((2 * k + 1) * j) % spec.n
        blocks.append(f.bit_columns(f.alog_np[exps]))
    return np.vstack(blocks)


def syndrome_from_bits(spec: BchSpec, bits) -> np.ndarray:
    """Unpack t*b syndrome bits into the odd power sums [S_1, S_3, ...].

    bits has shape (..., t*b); the sums come back as int64 of shape
    bits.shape[:-1] + (t,).
    """
    bits = np.asarray(bits)
    if bits.ndim == 0 or bits.shape[-1] != spec.syndrome_bits:
        raise ValueError(
            f"expected {spec.syndrome_bits} syndrome bits in the last axis, "
            f"got shape {bits.shape}"
        )
    return spec.field.element_from_bits(
        bits.reshape(bits.shape[:-1] + (spec.t, spec.field.degree)))


def find_error_locator(spec: BchSpec, syndrome) -> tuple[list[int], int]:
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
        s[2 * k + 1] = int(syndrome[k])
    for i in range(2, two_t + 1, 2):
        s[i] = int(f.mul(s[i // 2], s[i // 2]))

    c = [1]
    prev = [1]
    length = 0
    gap = 1
    prev_disc = 1
    for i in range(1, two_t + 1):
        disc = s[i]
        for k in range(1, length + 1):
            if k < len(c) and c[k]:
                disc ^= int(f.mul(c[k], s[i - k]))
        if disc == 0:
            gap += 1
            continue
        scale = f.mul(disc, f.pow(prev_disc, -1))
        update = c[:]
        if len(prev) + gap > len(update):
            update.extend([0] * (len(prev) + gap - len(update)))
        for k, pk in enumerate(prev):
            if pk:
                update[k + gap] ^= int(f.mul(scale, pk))
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


def find_roots(spec: BchSpec, locator: list[int]) -> set[int]:
    """Distinct roots of the locator polynomial among the field elements.

    A Chien scan: the locator is evaluated at alpha^i for every i at once.
    sigma(0) = 1, so 0 is never a root.
    """
    if not locator or locator[0] != 1:
        raise ValueError("locator must have constant term 1")
    f = spec.field
    n = f.order
    i = np.arange(n, dtype=np.int64)
    acc = np.full(n, locator[0], dtype=np.int64)
    for k in range(1, len(locator)):
        if locator[k] == 0:
            continue
        idx = (f.log_np[locator[k]] + k * i) % n
        acc ^= f.alog_np[idx]
    return {int(f.alog_np[e]) for e in np.nonzero(acc == 0)[0]}


def decode_syndrome(spec: BchSpec, syndrome, weight: int) -> set[int]:
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
    positions = {(n - int(spec.field.log_np[rho])) % n for rho in roots}
    if any(j >= spec.r for j in positions):
        raise DecodeFailure("root maps outside the shortened column range")
    return positions


def decode_syndromes(spec: BchSpec, syndromes, counts) -> tuple[np.ndarray, np.ndarray]:
    """Decode a stack of syndromes in closed form: row i claims counts[i] columns.

    syndromes has shape (f, t), the odd power sums as syndrome_from_bits
    packs a stack, and counts has shape (f,).  Returns (positions, ok):
    positions has shape (f, t), -1 marking an empty slot, and ok marks the
    rows whose locator of degree counts[i] has that many distinct nonzero
    roots, all inside the shortened range.  On the syndrome of a pattern of
    that weight these are its positions, as decode_syndrome finds them one
    row at a time.  A row that is no such syndrome may pass too, so callers
    check the positions against what they hold.

    Every count 0..t is solved over the whole stack.  The locators
    X = alpha^j of a weight-w pattern are the roots of
    x^w + sigma1 x^(w-1) + ... + sigma_w, with sigma1 = S1.  Count 1 has
    X = S1.  For count 2, x = S1 z turns the quadratic into
    z^2 + z = (S3 + S1^3)/S1^3, read from the field's quadratic table.
    Counts 3 and 4 reduce to table reads too (see _locators_3 and
    _locators_4), each on its own rows.
    """
    f, t = spec.field, spec.t
    n = f.order
    syn = np.asarray(syndromes, dtype=np.int64).reshape(-1, t)
    counts = np.asarray(counts, dtype=np.int64)
    roots = np.zeros((len(counts), t), dtype=np.int64)  # 0: empty slot
    ok = (counts >= 0) & (counts <= t) & ((counts != 0) | ~syn.any(axis=1))
    s1 = syn[:, 0]
    one = counts == 1
    roots[one, 0] = s1[one]

    two = np.flatnonzero((counts == 2) & ok)
    if two.size:
        l1 = f.log_np[s1[two]]
        cube_term = syn[two, 1] ^ f.alog_np[(3 * l1) % n]  # S1 sigma2
        z = f.quadratic_table[f.alog_np[(f.log_np[cube_term] - 3 * l1) % n]]
        ok[two] &= (s1[two] != 0) & (cube_term != 0) & (z >= 0)
        roots[two, 0] = f.alog_np[(l1 + f.log_np[z]) % n]
        roots[two, 1] = f.alog_np[(l1 + f.log_np[z ^ 1]) % n]

    for count, locators in zip(range(3, t + 1), (_locators_3, _locators_4)):
        rows = np.flatnonzero(ok & (counts == count))
        if rows.size:
            roots[rows, :count], solved = locators(f, *syn[rows, :count].T)
            ok[rows] &= solved

    filled = roots != 0
    ok &= filled.sum(axis=1) == counts
    positions = np.where(filled, f.log_np[roots], -1)
    ok &= (positions < spec.r).all(axis=1)
    return positions, ok


def _cubic_roots(f: GF2m, p, q) -> tuple[np.ndarray, np.ndarray]:
    """The roots of w^3 + p w + q, row by row, when three distinct.

    Returns (roots, three), roots of shape (rows, 3); three marks the rows
    whose cubic has three distinct roots in the field.  With p != 0,
    w = sqrt(p) y gives y^3 + y = q / p^(3/2), whose root y1 the field's
    cubic table holds.  The other two solve y^2 + y1 y + y1^2 + 1 = 0, and
    y = y1 z turns that into z^2 + z = 1 + 1/y1^2, a quadratic-table read.
    With p = 0, w^3 = q has three cube roots exactly when 3 divides both the
    group order (the degree is even) and log q.
    """
    n, half = f.order, 1 << (f.degree - 1)  # a^half is the square root of a
    # -1 where there are not three roots, p = 0 among them: such a row reads
    # table entries from the end below, and three leaves it out
    y1 = f.cubic_table[f.mul(q, f.pow(p, -3 * half))]
    y2 = f.mul(y1, f.quadratic_table[f.pow(y1, -2) ^ 1])
    w1, w2 = f.mul(f.pow(p, half)[:, None], np.stack([y1, y2], axis=1)).T
    roots, three = np.stack([w1, w2, w1 ^ w2], axis=1), y1 >= 0
    cube = p == 0
    if n % 3 == 0 and cube.any():
        cube &= (q != 0) & (f.log_np[q] % 3 == 0)
        roots[cube] = f.alog_np[f.log_np[q[cube], None] // 3 + np.arange(3) * (n // 3)]
        three |= cube
    return roots, three


def _locators_3(f: GF2m, s1, s3, s5) -> tuple[np.ndarray, np.ndarray]:
    """The three locators of count-3 rows, and which rows have them.

    Peterson's sigma2 = (S1^2 S3 + S5)/den with den = S1^3 + S3, and
    sigma3 = den + S1 sigma2, so x = S1 + w turns the locator into
    w^3 + (S1^2 + sigma2) w + den.  A zero den leaves w = 0 a root, so
    _cubic_roots refuses the row, as a true syndrome never has den = 0.
    """
    s1_2 = f.mul(s1, s1)
    den = s3 ^ f.mul(s1_2, s1)
    sigma2 = f.mul(f.mul(s1_2, s3) ^ s5, f.pow(den, -1))
    w, three = _cubic_roots(f, s1_2 ^ sigma2, den)
    return w ^ s1[:, None], three


def _locators_4(f: GF2m, s1, s3, s5, s7) -> tuple[np.ndarray, np.ndarray]:
    """The four locators of count-4 rows, and which rows have them.

    Newton's identities leave a 2 x 2 system in sigma2 and sigma4 with
    determinant S3 (S3 + S1^3) + S1 (S5 + S1^5), solved by Cramer's rule,
    and sigma3 = S3 + S1^3 + S1 sigma2.  The locator is the quartic
    x^4 + S1 x^3 + sigma2 x^2 + sigma3 x + sigma4.  With S1 = 0 it is
    already affine in x.  Otherwise x = h + 1/u, where h^2 = sigma3/S1,
    makes it u^4 + (S1 h + sigma2)/P(h) u^2 + S1/P(h) u = 1/P(h).  h is never
    a root there: with the linear term gone, a root at h is a double root,
    whose power sums are those of a quadratic, and those make the
    determinant 0.  On a zero determinant the inverse reads 0, so sigma4 = 0
    makes 0 a root and the row is refused; a true syndrome never has one.

    Either way the row reads L(u) = u^4 + A2 u^2 + A1 u = R, and L is
    GF(2)-linear.  Four solutions need its kernel {0, k1, k2, k1 + k2}, whose
    nonzero elements are the roots of u^3 + A2 u + A1.  With
    Q(u) = u^2 + k1 u, L(u) = Q(u) (Q(u) + Q(k2)), so v^2 + Q(k2) v = R and
    then Q(u) = v give one solution u0 by two quadratic-table reads, and the
    four are u0 plus the kernel.
    """
    s1_2 = f.mul(s1, s1)
    s1_4 = f.mul(s1_2, s1_2)
    den = s3 ^ f.mul(s1_2, s1)
    num = f.mul(s1_2, s3) ^ s5
    d2 = s5 ^ f.mul(s1_4, s1)
    r2 = s7 ^ f.mul(s1, f.mul(s3, s3)) ^ f.mul(s1_4, den)  # S1^4 S3 + S1^7 = S1^4 den
    det = f.mul(s3, den) ^ f.mul(s1, d2)
    inv_det = f.pow(det, -1)
    sigma2 = f.mul(f.mul(num, s3) ^ f.mul(s1, r2), inv_det)
    sigma3 = den ^ f.mul(s1, sigma2)
    sigma4 = f.mul(f.mul(den, r2) ^ f.mul(d2, num), inv_det)

    h = f.pow(f.mul(sigma3, f.pow(s1, -1)), 1 << (f.degree - 1))
    h_2 = f.mul(h, h)
    inv_at_h = f.pow(f.mul(h_2, h_2) ^ f.mul(sigma2, h_2) ^ sigma4, -1)
    linear = s1 == 0
    kernel, four = _cubic_roots(
        f,
        np.where(linear, sigma2, f.mul(f.mul(s1, h) ^ sigma2, inv_at_h)),
        np.where(linear, sigma3, f.mul(s1, inv_at_h)),
    )
    k1, k2 = kernel[:, 0], kernel[:, 1]
    q2 = f.mul(k2, k2 ^ k1)  # Q(k2)
    z = f.quadratic_table[f.mul(np.where(linear, sigma4, inv_at_h), f.pow(q2, -2))]
    y = f.quadratic_table[f.mul(f.mul(q2, z), f.pow(k1, -2))]
    u = f.mul(k1, y)[:, None] ^ np.concatenate([np.zeros_like(kernel[:, :1]), kernel], axis=1)
    x = np.where(linear[:, None], u, f.pow(u, -1) ^ h[:, None])
    return x, four & (z >= 0) & (y >= 0)

