"""Binary t-error-correcting BCH codes in syndrome form.

The parity-check matrix over GF(2^b) has column j carrying the bit expansions
of alpha^j, alpha^(3j), ..., alpha^((2t-1)j), stacked most significant bit
first.  Any two distinct integer sums of at most t columns differ, which is
what lets a column subset of size <= t be recovered from its binary syndrome.
Codes are shortened by keeping the first r columns only.
decode_syndromes decodes in closed form at every radius 1..MAX_T; each
step of the closed forms that depends on one field element is a read of a
table that the field builds on first use (see gf2m), so a stack costs a few
table reads, adds and product_alog reads per count.  A row takes its own
count's answer by an in-place masked write into an array the call owns,
never np.where: at a peeling round's ~14 rows a numpy call's fixed cost is
the time, and the masked write has the smaller one.  Berlekamp-Massey and
the Chien scan (decode_syndrome) are the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf2m import GF2m, _integer, _read_only, make_field

MAX_T = 4  # the paper's decoding radii; analysis in density goes to 8

# ONES[t] sums a row of t slots by a product, cheaper than a reduction along
# so short an axis.  int64, as the syndromes and counts are: a product or
# compare with a narrower operand costs a cast on every call
ONES = tuple(_read_only(np.ones(t, dtype=np.int64)) for t in range(MAX_T + 1))


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

    t and r are integers, numpy integers included.  A bool or a float is
    refused by name; make_bch's cache keys by type, so 2.0 and True miss
    the equal ints' entries and reach this check.
    """

    field: GF2m
    t: int
    r: int

    def __post_init__(self):
        check_radius(self.t)
        _integer(self.r, "r")
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
    """Raise ValueError unless t is a decoding radius: an integer (not a
    bool), 1 <= t <= MAX_T."""
    if not 1 <= _integer(t, "t") <= MAX_T:
        raise ValueError(f"t must be in 1..{MAX_T} to decode, got t={t}")


@lru_cache(maxsize=None, typed=True)
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

    Any count is accepted, and one outside 0..t is refused row by row; a
    non-integer dtype (bools included), another shape, or a syndrome that
    is no element of GF(2^b) raises ValueError.  _decode_syndromes is the
    unchecked kernel that codec.resolve_node calls on syndromes it packed.
    """
    syn, counts = np.asarray(syndromes), np.asarray(counts)
    for name, values in (("syndromes", syn), ("counts", counts)):
        if values.size and values.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integers, got {values.ravel()[:1].tolist()[0]!r} "
                             f"(dtype {values.dtype})")
    if syn.ndim != 2 or syn.shape[1] != spec.t or counts.shape != syn.shape[:1]:
        raise ValueError(f"expected syndromes of shape (f, {spec.t}) and counts of shape "
                         f"(f,), got {syn.shape} and {counts.shape}")
    outside = syn[(syn < 0) | (syn > spec.n)]
    if outside.size:
        raise ValueError(f"syndrome {int(outside[0])} is not an element of "
                         f"GF(2^{spec.field.degree})")
    return _decode_syndromes(spec, syn.astype(np.int64, copy=False),
                             counts.astype(np.int64, copy=False))


def _decode_syndromes(spec: BchSpec, syn: np.ndarray,
                      counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """decode_syndromes of int64 syndromes of shape (f, t), each an element,
    and int64 counts of shape (f,); unchecked.

    Counts 1 and 2 are solved over the whole stack, and the rows of each
    count take its answer by a masked write (np.copyto(..., where=)) into
    positions and ok, which this call owns; no np.where, whose scalar fill
    costs about twice as much at a round's size.  The locators X = alpha^j of
    a weight-w pattern are the roots of x^w + sigma1 x^(w-1) + ... + sigma_w,
    with sigma1 = S1.  Count 1 has X = S1.  For count 2, x = S1 z turns the
    quadratic into z^2 + z = u = (S3 + S1^3)/S1^3.  S1^3 is a read of the
    field's cube_by_log, and log S1^-3 is -3 log S1 (0 at S1 = 0, whose
    sentinel log is a multiple of the order), so log u is one subtraction
    mod the order.  The field's quadratic_logs then give log z and
    log(z + 1) by log u (quadratic_solvable, whether z exists, is read off
    them), and the positions log S1 + log z and log S1 + log(z + 1) never
    leave the log domain.  Counts 3 and 4 reduce to table reads too (see
    _locators_3 and _locators_4), each on its own rows only, and a zero
    locator is marked -1 in the fresh gather of its log before the rows
    are written.  Every output is what the np.where form gave, refused
    rows included.
    """
    f, t = spec.field, spec.t
    n, log = f.order, f.log_np
    ones = ONES[t]
    # count 0 needs a zero syndrome; a row of elements sums to 0 only when
    # all are 0
    ok = syn @ ones == 0
    ok |= counts != 0
    s1 = syn[:, 0]
    l1 = log[s1]
    nonzero = s1 != 0
    positions = np.empty((len(counts), t), dtype=np.int64)
    positions.fill(-1)  # -1: empty slot
    one = counts == 1
    one &= nonzero
    np.copyto(positions[:, 0], l1, where=one)
    if t > 1:
        cube_term = syn[:, 1] ^ f.cube_by_log[s1]  # S1 sigma2
        log_u = log[cube_term]
        log_u -= 3 * l1
        log_u %= n
        two = counts == 2
        solved = f.quadratic_solvable[log_u]
        solved &= nonzero
        solved &= cube_term != 0
        np.copyto(ok, solved, where=two)
        pair = l1[:, None] + f.quadratic_logs[log_u]
        pair %= n
        np.copyto(positions[:, :2], pair, where=two[:, None])

    for count, locators in zip(range(3, t + 1), (_locators_3, _locators_4)):
        rows = (ok & (counts == count)).nonzero()[0]
        if rows.size:
            roots, solved = locators(f, *syn[rows, :count].T)
            found = log[roots]
            found[roots == 0] = -1
            positions[rows, :count] = found
            ok[rows] &= solved

    # a row fills at most its count of slots, so counting the slots inside
    # [0, r) (an empty slot's -1 reads as 2^64 - 1) refuses a short row, a
    # row past the shortened range and every count outside 0..t
    ok &= (positions.view(np.uint64) < spec.r) @ ones == counts
    return positions, ok


def _cubic_roots(f: GF2m, p, q) -> tuple[np.ndarray, np.ndarray]:
    """The roots of w^3 + p w + q, row by row, when three distinct.

    Returns (roots, three), roots of shape (rows, 3); three marks the rows
    whose cubic has three distinct roots in the field.  With p != 0,
    w = sqrt(p) y gives y^3 + y = c = q / p^(3/2), with one root y1 where
    there are three.  The other two solve y^2 + y1 y + y1^2 + 1 = 0, and
    y = y1 z turns that into z^2 + z = 1 + 1/y1^2, a quadratic.  All of
    that is a function of c alone, which the field tabulates as the
    logs of y1, y2 and y1 + y2 (cubic_logs) and as whether there are three
    roots (cubic_splits, read off cubic_logs); with log sqrt(p) from a table
    too, each root is one add and a product_alog read.  With p = 0, w^3 = q has three cube
    roots exactly when 3 divides both the group order (the degree is even)
    and log q.
    """
    n = f.order
    # a row without three roots, p = 0 among them, reads the tables' entries
    # for -1, and three leaves it out
    c = f.product_alog[f.log_np[q] + f.cubic_scale_log[p]]
    roots = f.product_alog[f.sqrt_log[p, None] + f.cubic_logs[c]]
    three = f.cubic_splits[c]
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
    S1^2, S1^3 and log(1/den) are table reads.
    """
    s1_2 = f.squares[s1]
    den = s3 ^ f.cubes[s1]
    sigma2 = f.product_alog[f.log_np[f.mul(s1_2, s3) ^ s5] + f.inverse_log[den]]
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
    determinant 0.  On a zero determinant the inverse's log is the sentinel
    and the products it feeds read 0, so sigma4 = 0 makes 0 a root and the
    row is refused; a true syndrome never has one.

    Either way the row reads L(u) = u^4 + A2 u^2 + A1 u = R, and L is
    GF(2)-linear.  Four solutions need its kernel {0, k1, k2, k1 + k2}, whose
    nonzero elements are the roots of u^3 + A2 u + A1.  With
    Q(u) = u^2 + k1 u, L(u) = Q(u) (Q(u) + Q(k2)), so v^2 + Q(k2) v = R and
    then Q(u) = v give one solution u0 by two quadratic-table reads, and the
    four are u0 plus the kernel.

    Every step is a table read: an inverse is an inverse_log read added
    into the product_alog read of the product it feeds, log h is a sqrt_log
    read of h^2, and x^-2 is the squares entry of the inverse.
    """
    prod, log, inv_log = f.product_alog, f.log_np, f.inverse_log
    s1_2 = f.squares[s1]
    s1_4 = f.squares[s1_2]
    den = s3 ^ f.cubes[s1]
    num = f.mul(s1_2, s3) ^ s5
    d2 = s5 ^ f.mul(s1_4, s1)
    r2 = s7 ^ f.mul(s1, f.mul(s3, s3)) ^ f.mul(s1_4, den)  # S1^4 S3 + S1^7 = S1^4 den
    det = f.mul(s3, den) ^ f.mul(s1, d2)
    inv_det = inv_log[det]  # log 1/det
    sigma2 = prod[log[f.mul(num, s3) ^ f.mul(s1, r2)] + inv_det]
    sigma3 = den ^ f.mul(s1, sigma2)
    sigma4 = prod[log[f.mul(den, r2) ^ f.mul(d2, num)] + inv_det]

    h_2 = prod[log[sigma3] + inv_log[s1]]
    log_h = f.sqrt_log[h_2]
    inv_at_h = inv_log[f.squares[h_2] ^ f.mul(sigma2, h_2) ^ sigma4]  # log 1/P(h)
    linear = s1 == 0
    p = prod[log[prod[log[s1] + log_h] ^ sigma2] + inv_at_h]
    np.copyto(p, sigma2, where=linear)
    q = prod[log[s1] + inv_at_h]
    np.copyto(q, sigma3, where=linear)
    kernel, four = _cubic_roots(f, p, q)
    k1, k2 = kernel[:, 0], kernel[:, 1]
    q2 = f.mul(k2, k2 ^ k1)  # Q(k2)
    log_r = inv_at_h  # log R, as log 1/P(h) is no longer read
    np.copyto(log_r, log[sigma4], where=linear)
    z = f.quadratic_table[prod[log_r + log[f.squares[prod[inv_log[q2]]]]]]
    y = f.quadratic_table[f.mul(f.mul(q2, z), f.squares[prod[inv_log[k1]]])]
    u = f.mul(k1, y)[:, None] ^ np.concatenate([np.zeros_like(kernel[:, :1]), kernel], axis=1)
    x = prod[inv_log[u]]
    x ^= prod[log_h][:, None]
    np.copyto(x, u, where=linear[:, None])
    return x, four & (z >= 0) & (y >= 0)
