"""
Path falsification probabilities, exact and approximate
=======================================================

For a b-bit hash and a path with m siblings, a substituted datum slips
through verification when any of the m+1 fold steps collides:

    exact   P = 1 - (1 - 2^-b)^(m+1)
    approx  P = 2^-b + exp(-2^-b) - exp(-(m+1) * 2^-b)

The approximation is good for moderate m but saturates badly for small b.
"""

from fractions import Fraction

import mpmath

from merkle_falsify import (
    PathParams,
    approx_falsification_prob,
    approximation_error,
    diff_table,
    exact_falsification_prob,
    exact_falsification_prob_termsum,
    format_sig,
)

# --- one cell, all three views -------------------------------------------

params = PathParams(bits=2, path_len=10)
exact = exact_falsification_prob(params)
approx = approx_falsification_prob(params)

print("b=2, m=10")
print("  exact      :", format_sig(exact))
print("  approx     :", format_sig(approx))
print("  |diff|     :", format_sig(approximation_error(params).abs_diff))

# The literal term sum (sum of 2^-b * (1-2^-b)^j) is an exact Fraction at
# small sizes (b <= 16), and it agrees exactly with the closed form written
# out as a Fraction -- a useful cross-check.
termsum = exact_falsification_prob_termsum(params).exact_rational
print("  as fraction:", termsum)
print("  termsum == closed form:", termsum == 1 - Fraction(3, 4) ** 11)

# --- where the approximation dies ----------------------------------------

# At b=2 the per-step rate 2^-b = 1/4 is not small, and for large m the
# approximation overshoots past 1 while the true probability saturates at 1.
# The absolute difference freezes at e^(-1/4) - 3/4.
print()
print("b=2 difference as m grows:")
for m in (10, 50, 100, 500, 1000):
    d = approximation_error(PathParams(2, m)).abs_diff
    print(f"  m={m:5d}  |diff| = {format_sig(d)}")

with mpmath.workdps(30):
    limit = mpmath.exp(mpmath.mpf(1) / -4) - mpmath.mpf(3) / 4
print("  limit e^(-1/4) - 3/4 =", mpmath.nstr(limit, 17))

# --- the full comparison grid --------------------------------------------

print()
print("default grid (25 cells), worst and best approximation:")
rows = diff_table()
worst = max(rows, key=lambda r: r.abs_diff)
best = min(rows, key=lambda r: r.abs_diff)
for tag, row in (("worst", worst), ("best", best)):
    print(
        f"  {tag}: b={row.params.bits:2d} m={row.params.path_len:4d}"
        f"  |diff| = {format_sig(row.abs_diff)}"
    )

# --- precision at cryptographic widths -----------------------------------

# With 256-bit digests the survival probability is 1 - eps with
# eps ~ (m+1) * 2^-256; double precision would round the whole thing to 0.
wide = exact_falsification_prob(PathParams(256, 10**6))
first_order = Fraction(10**6 + 1, 1 << 256)
print()
print("b=256, m=1e6:")
print("  exact       :", format_sig(wide))
print("  (m+1)*2^-256:", format_sig(first_order))
