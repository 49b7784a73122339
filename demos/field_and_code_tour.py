"""Tour of the arithmetic layers: GF(2^b) tables, parity columns, and
syndrome decoding in closed form.

Run:  python3 demos/field_and_code_tour.py
"""

import numpy as np

from qgt.bch import build_parity_columns, decode_syndromes, make_bch, syndrome_from_bits
from qgt.gf2m import make_field

# ---- the field GF(2^3) ------------------------------------------------------
# Elements are integers 0..7; alpha = 2 generates the 7 nonzero elements.
# mul and pow work element-wise on int64 arrays (or single ints), and
# pow(a, -1) is the inverse of a nonzero a.

f = make_field(3)
print("powers of alpha in GF(2^3):", f.alog_np.tolist())
print("alpha^3 =", int(f.pow(2, 3)), " (alpha^3 = alpha + 1 under x^3 + x + 1)")
elements = np.arange(1, 8)
inverses = f.pow(elements, -1)
print("inverses of 1..7:", inverses.tolist(),
      "  check: mul(a, pow(a, -1)) =", f.mul(elements, inverses).tolist())
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
# alpha^3j, ...), so the syndrome of a pattern holds the odd power sums
# S1, S3, ... of its locators X = alpha^j.  The peeling decoder hands a whole
# stack of syndromes to decode_syndromes, which solves every count up to the
# largest radius, t = 4, in closed form: a fixed number of table reads per
# syndrome, whatever the field size.

spec3 = make_bch(6, 3, 63)
f6 = spec3.field
cols = build_parity_columns(spec3)
rng = np.random.default_rng(7)
errors = set(rng.choice(63, size=3, replace=False).tolist())
print(f"planted error positions: {sorted(errors)}")

bits = cols[:, sorted(errors)].sum(axis=1) & 1
syndrome = syndrome_from_bits(spec3, bits)
print(f"power-sum syndrome [S1, S3, S5]: {syndrome.tolist()}")

# One closed-form step, for count 2.  Two locators X1, X2 are the roots of
# x^2 + S1 x + X1 X2, and S1^3 + S3 = S1 X1 X2, so x = S1 z turns it into
# z^2 + z = u with u = (S3 + S1^3) / S1^3.  The field's quadratic table holds
# one root z for every solvable u; the other is z + 1.  Counts 3 and 4 reduce
# the same way to reads of tables indexed by one field element.
pair = sorted(errors)[:2]
x1, x2 = f6.alog_np[pair]  # the pair's locators alpha^j
s1, s3 = x1 ^ x2, f6.pow(x1, 3) ^ f6.pow(x2, 3)
u = f6.mul(s3 ^ f6.pow(s1, 3), f6.pow(s1, -3))
z = int(f6.quadratic_table[u])
pair_positions = sorted(f6.log_np[f6.mul(s1, np.array([z, z ^ 1]))].tolist())
print(f"count 2 on {pair}: S1={int(s1)}, S3={int(s3)}, z^2 + z = {int(u)} "
      f"read as z={z} -> positions {pair_positions}")
assert pair_positions == pair

batch, ok = decode_syndromes(spec3, [syndrome], [3])
print(f"decode_syndromes (closed form): {sorted(batch[0].tolist())}, ok={bool(ok[0])}")
assert ok[0] and set(batch[0].tolist()) == errors
print("\nthe closed forms recover the planted positions exactly")
