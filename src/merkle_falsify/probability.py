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

``_expm1(table, n)`` serves both forms.  Its argument is ``y = n * a``
rounded to nearest at ``prec`` = ``_PREC_BITS``: ``a = log1p(-2^-b)`` (as
cached) and ``n = m + 1`` for the exact form, ``a = -2^-b`` and ``n = m``
for the approximation, so ``y`` is never positive.  Below ``2^-(prec+10)``
in magnitude it returns ``y + y^2/2``, as mpmath's ``expm1`` does.  From
``|y| = 2^8``, more than ``prec + 4``, it returns -1: ``exp(y)`` is below
``2^-(prec+4)``, so ``exp(y) - 1`` rounds to -1.  Otherwise it takes
``e = exp(y)`` from the width's power table for ``a``, within ``2^-wp`` of
the true value at ``wp = prec + 35 + max(0, -mag(y))``, and rounds
``e - 1`` once.

A power table holds ``E_j = exp(2^j * a)`` for ``j = 0, 1, ...`` as
mantissas of ``W = prec + 41 - mag(a)`` bits with their exponents.
``E_0`` is one ``mpf_exp`` at ``W`` bits, counted as within 2 ulps (it
rounds an evaluation 14 bits longer); each further
entry is the square of the last, truncated to ``W`` bits, and entries are
added only as a longer ``n`` asks for them: a width whose arguments all
take the series, as at ``b = 10^9``, never evaluates one.  ``exp(n * a)`` is the product
of the entries for ``n``'s set bits, each partial product truncated to
``W`` bits or more.  With ``u = 2^(1-W)``, ``E_j`` is within
``(3 * 2^j - 1) * u`` of its value, relatively, and with
``L = bit_length(n)`` the product is within ``(3 * 2^L - 4) * u``.
Rounding ``n * a`` to ``y`` leaves ``delta = y - n * a``, at most half an
ulp of ``y``; it is formed exactly on integers (it is 0 for the
approximation while ``m < 2^243``), and the product times ``1 + delta``,
truncated once more, is ``e``.  ``1 + delta`` is within ``delta^2`` of
``exp(delta)``, relatively, which is below ``2^(49-prec)`` times
``2^-wp``; the rest of ``e``'s error is below ``3 * 2^(L+1-W)``,
relatively.  As ``|y| >= 2^(L + mag(a) - 2)``, where ``mag(y) <= 0`` that
is less than ``2^-(wp+2)``, since ``wp <= prec + 36 - L - mag(a)``.  Where
``0 < mag(y) <= 8``, ``wp`` is ``prec + 35`` while ``L`` can reach
``mag(y) + 1 - mag(a)``, but ``exp(y) <= exp(-2^(mag(y)-1))`` more than
pays for those bits, and the absolute error is again below ``2^-(wp+2)``.

With ``e = man * 2^exp`` in ``(0, 1)``, ``1 - e = (2^-exp - man) * 2^exp``
is formed exactly as an integer; where ``e < 2^-(prec+4)`` the result is
-1 without it, which keeps the integer below about ``2 * wp`` bits.
Where ``|y| < 1``, ``exp(y) - 1`` is about ``2^mag(y)`` in magnitude, so
``1 - e`` cancels about ``-mag(y)`` leading bits of ``e``; the ``max`` term
pays for them and leaves 35 bits beyond ``prec``.  Where ``y <= -1`` the
difference lies in ``(-1, 1/e - 1]`` and nothing cancels.  The difference
is returned, rounded to nearest at ``prec`` bits, only if no rounding
boundary lies within ``5 * 2^-wp`` of it, more than ``e``'s error, so the
result is correctly rounded.  That test is made on the integer with
shifts and masks: at these precisions the one boundary in reach is the
midpoint between the two ``prec``-bit values around the difference, so the
test compares the bits that rounding drops with half an ulp.  If a
boundary is in reach, the value lies within about ``2^-32`` of an ulp of
it, and ``exp(y)`` is evaluated again by ``mpf_exp`` with twice the guard
bits, and again with twice those until the rounding is decided.  The
arguments here have short binary expansions that put about 0.3 % of
random cells there, and no cell of bits 1..32 by path lengths up to 10^6.
mpmath's own ``expm1`` evaluates ``exp`` twice whenever ``|y|`` is below
about ``2^-10``: once to measure the cancellation and again at a precision
that covers it.

The terms that depend on ``b`` alone -- ``x = 2^-b``, ``exp(-x)`` and the
power tables of ``log1p(-x)`` and ``-x`` -- are made once per width and
kept in a bounded ``lru_cache`` of ``_WIDTH_TERMS_CACHE`` entries.  A
table over many path lengths pays, per width, mpmath's ``log1p`` and
``exp`` and one ``mpf_exp`` per power table, and, unless a rounding
boundary is in reach, no exp per cell.  A table's length is at most
the bit length of the longest ``n`` it has served, and, by the -1 above,
at most ``9 - mag(a)`` entries.  ``x``, ``log1p(-x)`` and ``exp(-x)`` are
made with mpmath's ``log1p`` and ``exp`` inside their own ``workdps`` at the
formulas' precision, and the tables on ``libmp`` alone, whatever precision
the caller has set, so a cached term is the very tuple an uncached
evaluation gives.

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


class _PowerTable:
    """exp(2^j * a) for j = 0, 1, ..., for one ``a`` in (-1, 0), as
    ``(man, exp)`` pairs with ``man`` of ``bits`` bits; entries are made as
    multiples of ``a`` ask for them, the first by ``mpf_exp`` and the rest
    by squaring."""

    __slots__ = ("a", "bits", "powers")

    def __init__(self, a: tuple) -> None:
        self.a = a
        self.bits = _PREC_BITS + 41 - (a[2] + a[3])
        self.powers: list[tuple[int, int]] = []

    def exp(self, n: int, y: tuple) -> tuple:
        """exp(y) as a raw tuple, for n >= 1 and y = n * a rounded to nearest
        at ``_PREC_BITS``: the entries for n's set bits times 1 + (y - n * a)."""
        bits, powers = self.bits, self.powers
        if len(powers) < n.bit_length():
            # Extended in a copy and swapped in whole, so that a caller in
            # another thread never reads an entry squared from a stale one.
            powers = list(powers)
            if not powers:
                import mpmath

                libmp = mpmath.libmp
                _, man, exp, bc = libmp.mpf_exp(self.a, bits, libmp.round_nearest)
                powers.append((man << (bits - bc), exp - (bits - bc)))
            while len(powers) < n.bit_length():
                man, exp = powers[-1]
                man *= man
                shift = man.bit_length() - bits
                powers.append((man >> shift, 2 * exp + shift))
            self.powers = powers
        # Each entry is at least 2^(bits-1), so a product shifted right by
        # bits - 1 is too: its mantissa grows by at most a bit per entry.
        shift = bits - 1
        man, exp = 1 << shift, -shift
        for bit, (p_man, p_exp) in zip(bin(n)[:1:-1], powers):
            if bit == "1":
                man = man * p_man >> shift
                exp += p_exp + shift
        # y - n * a = d * 2^low, exactly (both are negative)
        _, a_man, a_exp, _ = self.a
        _, y_man, y_exp, _ = y
        low = min(a_exp, y_exp)
        d = (n * a_man << (a_exp - low)) - (y_man << (y_exp - low))
        man += man * d >> -low
        return (0, man, exp, man.bit_length())


@lru_cache(maxsize=_WIDTH_TERMS_CACHE)
def _width_terms(bits: int) -> tuple[tuple, tuple, _PowerTable, _PowerTable]:
    """(x, exp(-x)) for x = 2^-bits as raw mpf tuples at the formulas'
    precision, and the power tables of log1p(-x) and -x."""
    import mpmath

    with mpmath.workdps(PRECISION_DPS + _GUARD_DPS):
        x = mpmath.mpf(2) ** (-bits)
        return (
            x._mpf_,
            mpmath.exp(-x)._mpf_,
            _PowerTable(mpmath.log1p(-x)._mpf_),
            _PowerTable((-x)._mpf_),
        )


def _expm1(table: _PowerTable, n: int) -> tuple:
    """exp(y) - 1 for y = n * table.a rounded to nearest at _PREC_BITS bits,
    itself correctly rounded to nearest at _PREC_BITS bits."""
    import mpmath

    libmp = mpmath.libmp
    rnd = libmp.round_nearest
    prec = _PREC_BITS
    y = libmp.mpf_mul_int(table.a, n, prec, rnd)
    if y == libmp.fzero:
        return y
    mag = y[2] + y[3]
    if mag < -(prec + 10):
        return libmp.mpf_add(y, libmp.mpf_shift(libmp.mpf_mul(y, y), -1), prec, rnd)
    if mag > (prec + 4).bit_length():
        return libmp.fnone  # y < -(prec + 4), so exp(y) < 2^-(prec+4)
    wp = prec + 35 + max(0, -mag)
    e = table.exp(n, y)
    while (d := _exp_minus_one(e, wp, prec)) is None:
        wp += wp - prec  # the guard bits left a rounding boundary in reach
        e = libmp.mpf_exp(y, wp, rnd)
    return d


def _exp_minus_one(e: tuple, wp: int, prec: int) -> tuple | None:
    """e - 1 rounded to nearest at prec bits, for e in (0, 1) within 2^-wp
    of exp(y), as ``mpf_exp`` at wp bits or a power table gives it; None if
    a rounding boundary lies within ``5 * 2^-wp`` of e - 1, where e's own
    error could decide the rounding."""
    import mpmath

    libmp = mpmath.libmp
    _, man, exp, bc = e
    if exp + bc < -(prec + 3):
        return libmp.fnone  # e < 2^-(prec+4): e - 1 rounds to -1
    if exp > -wp:
        man <<= exp + wp
        exp = -wp
    n = (1 << -exp) - man  # 1 - e = n * 2^exp, exactly
    # The radius, in units of 2^exp: 2^(2-wp) bounds e's error, and 2^-wp
    # more covers every boundary that a radius of 2^(2-wp) around e - 1
    # rounded to wp bits would reach.
    shift = -wp - exp
    radius = 5 << shift
    drop = n.bit_length() - prec  # bits that rounding to prec bits drops
    # With radius below 2^(drop-2), the one boundary in reach is the midpoint
    # of the kept part's ulp: the neighbours' midpoints, and the boundary a
    # quarter ulp below a power-of-two kept part, lie at least 2^(drop-2) away.
    if shift + 5 > drop or abs((n & ((1 << drop) - 1)) - (1 << (drop - 1))) <= radius:
        return None
    return libmp.from_man_exp(-n, exp, prec, libmp.round_nearest)


def exact_falsification_prob(params: PathParams) -> mpf:
    """Exact match probability 1 - (1 - 2^-b)^(m+1).

    Evaluated as -expm1((m+1) * log1p(-2^-b)) so no precision is lost when
    2^-b underflows ordinary doubles.
    """
    import mpmath

    _, _, table, _ = _width_terms(params.bits)
    expm1 = _expm1(table, params.path_len + 1)
    return mpmath.mp.make_mpf(mpmath.libmp.mpf_neg(expm1))


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
    x, exp_neg_x, _, table = _width_terms(params.bits)
    folded = libmp.mpf_mul(exp_neg_x, _expm1(table, params.path_len), _PREC_BITS, rnd)
    return mpmath.mp.make_mpf(libmp.mpf_sub(x, folded, _PREC_BITS, rnd))


def approximation_error(params: PathParams) -> FalsificationEstimate:
    """Exact and approximate values side by side with |approx - exact|.

    ``abs_diff`` is the difference of the two returned 243-bit values,
    rounded to 243 bits.  The two share about their first ``b * log10(2)``
    digits, so at wide widths the difference keeps few correct digits: its
    17 printed digits first go wrong at b = 242, 239, 236 and 229 for
    m = 1, 10, 1000 and 10^6 (ROADMAP item 1, defect B), and at (256, 10)
    it reads 0.  ``tests/test_probability.py`` pins that as the strict
    xfail ``test_gap_keeps_its_digits_at_256_bits``.
    """
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
