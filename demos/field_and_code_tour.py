"""Tour of the arithmetic layers: GF(2^b) tables, parity columns, and
syndrome decoding, one syndrome at a time and as a batch.

Run:  python3 demos/field_and_code_tour.py
"""

import numpy as np

from qgt.bch import (build_parity_columns, decode_syndrome, decode_syndromes,
                     find_error_locator, find_roots, make_bch, syndrome_from_bits)
from qgt.gf2m import make_field

# ---- the field GF(2^3) ------------------------------------------------------
# Elements are integers 0..7; alpha = 2 generates the 7 nonzero elements.

f = make_field(3)
print("powers of alpha in GF(2^3):",
      [f.alpha_pow(i) for i in range(f.order)])
print("alpha^3 =", f.alpha_pow(3), " (alpha^3 = alpha + 1 under x^3 + x + 1)")
print("mul(5, 7) =", f.mul(5, 7), "  inv(3) =", f.inv(3),
      "  check: mul(3, inv(3)) =", f.mul(3, f.inv(3)))
print()

# ---- parity columns ---------------------------------------------------------
# A single-error code of length 7 stores one field element per position:
# column j is the bit pattern of alpha^j, highest power first.  Any single
# defective position is read off directly; the all-ones row on top (added by
# the signature builder) carries the count.

spec1 = make_bch(3, 1, 7)
print("single-error parity columns over GF(2^3):")
print(build_parity_columns(spec1))
print()

# ---- decoding a multi-error syndrome ---------------------------------------
# For t errors the columns stack t field elements (odd powers alpha^j,
# alpha^3j, ...).  decode_syndrome recovers the error locator polynomial
# from the power sums by Berlekamp-Massey, then finds its roots with a full
# (Chien) scan over the positions; the tests keep it as the oracle.  The
# peeling decoder hands a whole stack of syndromes to decode_syndromes,
# which solves every count up to the largest radius, t = 4, in closed form
# by table reads: a count-3 locator becomes y^3 + y = c, whose root the
# field's cubic table holds.  Both must agree.

spec3 = make_bch(6, 3, 63)
cols = build_parity_columns(spec3)
rng = np.random.default_rng(7)
errors = set(rng.choice(63, size=3, replace=False).tolist())
print(f"planted error positions: {sorted(errors)}")

bits = np.zeros(spec3.syndrome_bits, dtype=np.int64)
for j in errors:
    bits ^= cols[:, j].astype(np.int64)
syndrome = syndrome_from_bits(spec3, bits.astype(np.uint8))
print(f"power-sum syndrome [S1, S3, S5]: {syndrome}")

locator, degree = find_error_locator(spec3, syndrome)
print(f"error locator coefficients (degree {degree}): {locator}")

# a root alpha^-j of the locator marks position j
n = spec3.n
positions = sorted((n - spec3.field.dlog(rho)) % n for rho in find_roots(spec3, locator))
print(f"roots via the Chien scan -> positions {positions}")
got = decode_syndrome(spec3, syndrome, 3)
print(f"decode_syndrome: {sorted(got)}")
assert set(positions) == got == errors

batch, ok = decode_syndromes(spec3, [syndrome], [3])
print(f"decode_syndromes (closed form): {sorted(batch[0].tolist())}, ok={bool(ok[0])}")
assert ok[0] and set(batch[0].tolist()) == errors
print("\nboth decoders recover the planted positions exactly")
