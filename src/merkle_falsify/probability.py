"""Falsification probability of a truncated-hash authentication path.

Substituting one data block and re-folding a fixed path of length ``m``
gives ``m + 1`` independent chances for the forged chain to collide with
the genuine one -- one at the leaf, one per level.  With ``b`` output bits
each chance hits with probability ``2^-b``, so

    exact   P(b, m) = 1 - (1 - 2^-b)^(m+1)
    approx  P(b, m) ~ 2^-b + exp(-2^-b) - exp(-(m+1) * 2^-b)

The exact form is evaluated in the log domain, as
``-expm1((m+1) * log1p(-2^-b))``, so it survives ``2^-b`` being far below
double-precision resolution.  The literal term sum is the one exact
evaluation: ``exact_falsification_prob_termsum`` adds the ``m + 1`` terms
over their common denominator ``2^(b(m+1))`` and reduces the sum once, a
cross-check of the closed form at small scales.  Horner's rule alone would
shift the whole partial numerator, up to ``b(m+1)`` bits long, once per
term, which is O(b * m^2) bit work; so runs of up to ``_TERMSUM_LEAF``
consecutive terms are summed by Horner's rule and adjacent runs are merged
pairwise, which keeps most shifts and products on short numbers.
The approximation is reported raw: it exceeds 1 for small ``b`` and large
``m`` and is a diagnostic of the expansion, not a probability.

Both closed forms and their difference are computed on mpmath's raw
``libmp`` tuples at ``_PREC_BITS`` = 243 bits, the binary precision of
``PRECISION_DPS + _GUARD_DPS`` = 72 digits, each operation rounded to
nearest.  No mpmath context is read or written, so a caller's ``mp.prec``
neither changes a value nor is changed by one.

``_expm1`` serves both forms, whose arguments ``y`` are never positive.
Below ``2^-(prec+10)`` in magnitude it returns ``y + y^2/2``, as mpmath's
``expm1`` does.  Otherwise it evaluates ``exp(y)`` at
``wp = prec + 35 + max(0, -mag(y))`` bits and subtracts 1 at ``wp`` bits.
Where ``|y| < 1``, ``exp(y) - 1`` is about ``2^mag(y)`` in magnitude, so
the subtraction cancels about ``-mag(y)`` leading bits of ``exp(y)``; the
``max`` term pays for them and leaves 35 bits beyond ``prec``.  Where
``y <= -1`` the difference lies in ``(-1, 1/e - 1]`` and nothing cancels.
Either way the difference is within ``2^(2-wp)`` of ``exp(y) - 1``, and it
is returned only if both ends of that interval round alike to ``prec``
bits, so the result is correctly rounded.  If they do not, the value lies
within about ``2^-35`` of an ulp of a rounding boundary, and ``exp`` is
evaluated again with twice the guard bits.  The arguments here,
``(m+1) * log1p(-2^-b)`` and ``-m * 2^-b``, have short binary expansions
that put about 0.3 % of random cells there, and no cell of bits 1..32 by
path lengths up to 10^6.  mpmath's own ``expm1`` evaluates ``exp`` twice
whenever ``|y|`` is below about ``2^-10``: once to measure the
cancellation and again at a precision that covers it.

The terms that depend on ``b`` alone -- ``x = 2^-b``, ``log1p(-x)`` and
``exp(-x)`` -- are computed once per width and kept in a bounded
``lru_cache`` of ``_WIDTH_TERMS_CACHE`` entries, so a table over many path
lengths pays one ``exp`` per cell and function.  They are made with
mpmath's ``log1p`` and ``exp`` inside their own ``workdps`` at the
formulas' precision, whatever precision the caller has set, so a cached
term is the very tuple an uncached evaluation gives.

``exact_falsification_prob_float`` is the same closed form at double
precision, for callers that only draw the value (the figure's curve).

Imports: mpmath is imported inside each function that evaluates with it,
never at module level.  The package imports this module, but tree builds,
proofs and verification compute no probability, so they never load mpmath;
the ``prob``, ``table``, ``simulate`` and ``figure`` commands load it with
their first value.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .hashing import _require_int

if TYPE_CHECKING:
    from mpmath import mpf

# Stated working precision of the closed forms; computations carry a few
# guard digits on top.
PRECISION_DPS = 64
_GUARD_DPS = 8
# The same precision in bits, as mpmath.libmp.dps_to_prec gives it (243).
_PREC_BITS = round((PRECISION_DPS + _GUARD_DPS + 1) * math.log2(10))

# Distinct widths whose per-width terms are kept; a table rarely spans more.
_WIDTH_TERMS_CACHE = 256

# Grids reproducing the published difference table.
DEFAULT_BITS = (2, 4, 6, 8, 10)
DEFAULT_PATH_LENS = (10, 50, 100, 500, 1000)

# Scale guard for the literal term-by-term sum (cross-check oracle only).
TERMSUM_MAX_BITS = 16
TERMSUM_MAX_PATH_LEN = 4096
# Longest run of terms the term sum adds by Horner's rule before it splits
# the run in two.  Leaves of 16 to 128 terms time alike over the bench's
# grid; leaves of one term, pure recursion, take twice as long.
_TERMSUM_LEAF = 32


@dataclass(frozen=True)
class PathParams:
    """A (bits, path length) cell: b output bits, m path levels."""

    bits: int
    path_len: int

    def __post_init__(self) -> None:
        _require_int("bits", self.bits, 1)
        _require_int("path_len", self.path_len, 0)


@dataclass(frozen=True)
class Probability:
    """An exact probability, as the literal term sum gives it."""

    exact_rational: Fraction


@dataclass(frozen=True)
class FalsificationEstimate:
    """Exact and approximate probabilities for one cell, and their gap."""

    params: PathParams
    exact: mpf
    approx: mpf
    abs_diff: mpf


@lru_cache(maxsize=_WIDTH_TERMS_CACHE)
def _width_terms(bits: int) -> tuple[tuple, tuple, tuple]:
    """(x, log1p(-x), exp(-x)) for x = 2^-bits as raw mpf tuples, at the
    formulas' precision."""
    import mpmath

    with mpmath.workdps(PRECISION_DPS + _GUARD_DPS):
        x = mpmath.mpf(2) ** (-bits)
        return x._mpf_, mpmath.log1p(-x)._mpf_, mpmath.exp(-x)._mpf_


def _expm1(y: tuple, prec: int) -> tuple:
    """exp(y) - 1 for a raw mpf y <= 0, correctly rounded to nearest at prec bits."""
    import mpmath

    libmp = mpmath.libmp
    rnd = libmp.round_nearest
    if y == libmp.fzero:
        return y
    mag = y[2] + y[3]
    if mag < -(prec + 10):
        return libmp.mpf_add(y, libmp.mpf_shift(libmp.mpf_mul(y, y), -1), prec, rnd)
    wp = prec + 35 + max(0, -mag)
    while True:
        d = libmp.mpf_sub(libmp.mpf_exp(y, wp, rnd), libmp.fone, wp, rnd)
        # exp(y) <= 1 and |d| < 1 each carry at most 2^-wp of error
        err = (0, libmp.MPZ_ONE, 2 - wp, 1)  # 2^(2-wp)
        lo = libmp.mpf_sub(d, err, prec, rnd)
        if lo == libmp.mpf_add(d, err, prec, rnd):
            return lo
        wp += wp - prec  # the guard bits left a rounding boundary in reach


def exact_falsification_prob(params: PathParams) -> mpf:
    """Exact match probability 1 - (1 - 2^-b)^(m+1).

    Evaluated as -expm1((m+1) * log1p(-2^-b)) so no precision is lost when
    2^-b underflows ordinary doubles.
    """
    import mpmath

    libmp = mpmath.libmp
    _, log1p_neg_x, _ = _width_terms(params.bits)
    y = libmp.mpf_mul_int(
        log1p_neg_x, params.path_len + 1, _PREC_BITS, libmp.round_nearest
    )
    return mpmath.mp.make_mpf(libmp.mpf_neg(_expm1(y, _PREC_BITS)))


def exact_falsification_prob_float(params: PathParams) -> float:
    """The exact form 1 - (1 - 2^-b)^(m+1) in double precision, for drawing.

    Same log-domain evaluation as ``exact_falsification_prob``; within a few
    units in the last place of that value rounded to a float.
    """
    return -math.expm1((params.path_len + 1) * math.log1p(-(2.0**-params.bits)))


def exact_falsification_prob_termsum(params: PathParams) -> Probability:
    """Literal sum 1/2^b + sum_{k=1}^{m} (1 - 1/2^b)^k / 2^b, exact rationals.

    Term k is q^k / 2^(b(k+1)) with q = 2^b - 1, so over the common
    denominator 2^(b(m+1)) its numerator is q^k * 2^(b(m-k)).  A run of n
    consecutive terms, counted from its own first term, sums to
    N(n) = sum_{k<n} q^k * 2^(b(n-1-k)).  A run of at most
    ``_TERMSUM_LEAF`` terms is summed term by term with Horner's rule
    (N <- N * 2^b + q^k); a longer one is split into a first run of n1
    terms and a second of n2, which merge as
    N(n1 + n2) = (N(n1) << b*n2) + q^n1 * N(n2): in the merged run, each
    term of the first run carries 2^(b*n2) more than in N(n1), and each
    term of the second carries q^n1 more than in N(n2).  The whole sum is
    N(m + 1) over 2^(b(m+1)), reduced once.

    Every term is added in its own leaf.  The doubling identity
    N(2n) = N(n) * (2^(bn) + q^n) would reuse one half of the sum as the
    other; it is the geometric-series step behind the closed form this sum
    cross-checks, so it is not used.  Guarded to small scales because the
    numerators grow by b bits with every level.
    """
    b, m = params.bits, params.path_len
    if b > TERMSUM_MAX_BITS or m > TERMSUM_MAX_PATH_LEN:
        raise ValueError(
            f"term sum limited to bits <= {TERMSUM_MAX_BITS} and "
            f"path_len <= {TERMSUM_MAX_PATH_LEN}, got ({b}, {m})"
        )
    q = (1 << b) - 1

    def run(n: int) -> int:
        if n <= _TERMSUM_LEAF:
            num = 0
            q_k = 1
            for _ in range(n):
                num = (num << b) + q_k
                q_k *= q
            return num
        n2 = n // 2
        n1 = n - n2
        return (run(n1) << (b * n2)) + q**n1 * run(n2)

    num = run(m + 1)
    return Probability(Fraction(num, 1 << (b * (m + 1))))


def approx_falsification_prob(params: PathParams) -> mpf:
    """Exponential approximation 2^-b + exp(-2^-b) - exp(-(m+1) * 2^-b).

    Computed as 2^-b - exp(-x) * expm1(-m*x), which is the same expression
    with the near-cancelling exponentials folded into one expm1.  Not
    clamped: values above 1 are reported as-is.
    """
    import mpmath

    libmp = mpmath.libmp
    rnd = libmp.round_nearest
    x, _, exp_neg_x = _width_terms(params.bits)
    y = libmp.mpf_mul_int(x, -params.path_len, _PREC_BITS, rnd)
    folded = libmp.mpf_mul(exp_neg_x, _expm1(y, _PREC_BITS), _PREC_BITS, rnd)
    return mpmath.mp.make_mpf(libmp.mpf_sub(x, folded, _PREC_BITS, rnd))


def approximation_error(params: PathParams) -> FalsificationEstimate:
    """Exact and approximate values side by side with |approx - exact|."""
    import mpmath

    libmp = mpmath.libmp
    exact = exact_falsification_prob(params)
    approx = approx_falsification_prob(params)
    diff = libmp.mpf_sub(approx._mpf_, exact._mpf_, _PREC_BITS, libmp.round_nearest)
    return FalsificationEstimate(
        params, exact, approx, mpmath.mp.make_mpf(libmp.mpf_abs(diff))
    )


def validate_grid(bits_list, path_lens) -> None:
    """Reject a grid of cells with an empty axis or an axis that repeats a value."""
    if not bits_list or not path_lens:
        raise ValueError("bits_list and path_lens must be non-empty")
    for name, values in (("bits", bits_list), ("path_len", path_lens)):
        value, count = Counter(values).most_common(1)[0]
        if count > 1:
            raise ValueError(f"{name} {value} appears more than once")


def diff_table(
    bits_list=DEFAULT_BITS, path_lens=DEFAULT_PATH_LENS
) -> list[FalsificationEstimate]:
    """approximation_error over bits_list x path_lens, row-major."""
    validate_grid(bits_list, path_lens)
    return [
        approximation_error(PathParams(b, m)) for b in bits_list for m in path_lens
    ]
