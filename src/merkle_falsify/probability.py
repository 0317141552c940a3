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

Both closed forms and their difference are mpmath raw ``libmp`` tuples at
``_PREC_BITS`` = 243 bits, the binary precision of ``PRECISION_DPS +
_GUARD_DPS`` = 72 digits, each operation rounded to nearest.  No mpmath
context is read or written, so a caller's ``mp.prec`` neither changes a
value nor is changed by one.

A cell's own steps run on Python integers, each rounded once by
``_round``: it rounds a positive mantissa to ``_PREC_BITS`` bits, ties to
even, and strips its trailing zero bits, which is what ``libmp``'s
``normalize`` does under ``round_nearest``.  Those steps are the argument
``y = n * a`` as ``a``'s mantissa times ``n``; the difference ``1 - e``
in ``_expm1``; the product ``exp(-x) * expm1(-m*x)``; the sum
``x - exp(-x) * expm1(-m*x)``; and ``|approx - exact|``.  ``_add`` aligns
the two operands of a sum exactly, save where the one with the larger
exponent exceeds the other by more than ``prec + 4`` bits of magnitude:
there it replaces the smaller by a sticky unit, as ``mpf_add`` does.
Each of these values is thus correctly rounded from exact integers, and
is the tuple ``libmp``'s ``mpf_mul_int``, ``from_man_exp``, ``mpf_mul``
and ``mpf_sub`` give.  ``tests/test_probability.py`` pins that:
``test_round_is_libmp_normalize`` against ``from_man_exp``,
``test_add_rounds_as_mpf_add`` against ``mpf_add``, and
``test_closed_forms_are_correctly_rounded`` on whole cells.  ``libmp`` is
still called for the per-width terms and for the ``mpf_exp`` retry near a
rounding boundary.

``_expm1(table, n)`` serves both forms.  Its argument is ``y = n * a``
rounded to nearest at ``prec`` = ``_PREC_BITS``: ``a = log1p(-2^-b)`` (as
cached) and ``n = m + 1`` for the exact form, ``a = -2^-b`` and ``n = m``
for the approximation, so ``y`` is never positive.  Below ``2^-(prec+10)``
in magnitude it returns ``y`` itself.  mpmath's ``expm1`` returns
``y + y^2/2`` there, but ``y^2/2 < 2^-(prec+11) * |y|`` is under a quarter
ulp of ``y`` -- half an ulp of the binade below, where ``y`` is a power of
two -- so that sum rounds back to ``y``.  From
``|y| = 2^8``, more than ``prec + 4``, it returns -1: ``exp(y)`` is below
``2^-(prec+4)``, so ``exp(y) - 1`` rounds to -1.  Otherwise it takes
``e = exp(y)`` from the width's power table for ``a`` (or, for an ``n``
of more than ``_MAX_POWERS`` bits, from one ``mpf_exp``), within ``2^-wp``
of the true value at ``wp = prec + 35 + max(0, -mag(y))``, and rounds
``e - 1`` once.

A power table holds ``E_j = exp(2^j * a)`` for ``j`` below
``min(_MAX_POWERS, 9 - mag(a))`` = ``min(60, 8 + b)`` as mantissas of
``W = prec + 41 - mag(a)`` bits with their exponents.  ``E_0`` is one
``mpf_exp`` at ``W`` bits, counted as within 2 ulps (it rounds an
evaluation 14 bits longer); each further entry is the square of the last,
truncated to ``W`` bits.  Those are all the entries ``_expm1`` can read: an
``n`` of ``L`` bits gives ``mag(y) >= L + mag(a) - 1``, and from
``mag(y) = 9`` the result is -1 without the table.  An ``n`` of at most
``_MAX_POWERS`` bits gives ``mag(y) <= _MAX_POWERS + mag(a)``, so from
``b = 315`` every such ``n`` takes the series and the width gets no table:
without that cut, ``b = 10^9`` would need entries of ``10^9`` bits.
``_expm1`` reads the table exactly when ``n`` has at most as many bits as
it has entries.  ``exp(n * a)`` is the product
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
table over many path lengths pays, per width, one ``log1p`` and one ``exp``
and one ``mpf_exp`` per power table, and, unless a rounding boundary is in
reach, no exp per cell.  A table is made whole, as a tuple, before the
cache holds it, and nothing changes it after: threads that share a width
share only values, and two that make the same width at once make equal
tables.  An ``n`` of more than ``_MAX_POWERS`` = 60 bits takes ``exp(y)``
from one ``mpf_exp`` at ``wp`` bits, as the retry does.  ``exp(-x)`` is
``mpf_exp(-x)`` at ``prec`` bits.
``log1p(-x)`` follows mpmath 1.3.0's ``log1p`` rule at ``prec + 10`` bits: below
``2^-(prec+10)`` in magnitude, that is for ``b > 254``, it is
``-x - x^2/2``, which rounds to ``-x``; otherwise it is ``mpf_log`` of the
exact ``1 - x``; either is then rounded to ``prec`` bits.  These are the
tuples mpmath's ``log1p`` and ``exp`` return at 72 digits, made on
``libmp`` alone like the tables, so a cached term is the very tuple an
uncached evaluation gives, in any thread and whatever precision a caller
has set.

``_cell_scores`` scores a simulated cell against the exact form on
``libmp`` calls rounded at ``_PREC_BITS``, like the closed forms, in the
operations and order of mpmath's context arithmetic, without setting
``mp.prec``.  Its three floats keep 53 of those bits; they are the ones
that context arithmetic gives under ``workdps(PRECISION_DPS)``, at 216
bits, on every cell ``tests/test_simulate.py`` draws, and scoring at 216
bits changed none of 200 000 random cells' floats.  Every
value this module returns is thus a pure function of its arguments, and
the closed forms and cell scores may be called from several threads at
once.

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
# The most entries a power table holds; for an n of more bits, _expm1 takes
# exp(y) from one mpf_exp at wp bits.  A table serves only |y| >= 2^-(prec+10),
# so each entry has at most 2 * prec + 51 + _MAX_POWERS bits and a full table
# about 4.5 KB.  At 60 entries a table's product costs about three mpf_exp
# calls (37 against 13 us at b = 64, n = 2^64 - 1, on mpmath's pure-Python
# backend); a path of up to 10^6 levels needs 20.
_MAX_POWERS = _PREC_BITS // 4

# Zero and -1 as raw mpf tuples: libmp's fzero and fnone.
_ZERO = (0, 0, 0, 0)
_MINUS_ONE = (1, 1, 0, 1)

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


def _powers(a: tuple) -> tuple[tuple[int, int], ...]:
    """exp(2^j * a) for one ``a`` in (-1, 0) and j below
    ``min(_MAX_POWERS, 9 - mag(a))``, as ``(man, exp)`` pairs with ``man``
    of ``_PREC_BITS + 41 - mag(a)`` bits, the first by ``mpf_exp`` and the
    rest by squaring; none where every n of at most ``_MAX_POWERS`` bits
    puts ``n * a`` in ``_expm1``'s series."""
    mag = a[2] + a[3]
    if _MAX_POWERS + mag < -(_PREC_BITS + 10):
        return ()
    from mpmath import libmp

    bits = _PREC_BITS + 41 - mag
    _, man, exp, bc = libmp.mpf_exp(a, bits, libmp.round_nearest)
    powers = [(man << (bits - bc), exp - (bits - bc))]
    # An n of more than 9 - mag bits puts mag(n * a) past
    # (prec + 4).bit_length() = 8, where _expm1 returns -1.
    for _ in range(min(_MAX_POWERS, 9 - mag) - 1):
        man, exp = powers[-1]
        man *= man
        shift = man.bit_length() - bits
        powers.append((man >> shift, 2 * exp + shift))
    return tuple(powers)


def _powers_exp(table: tuple, n: int, y: tuple) -> tuple:
    """exp(y) as a raw tuple, for ``table`` = ``(a, powers)``,
    1 <= n < 2^len(powers) and y = n * a rounded to nearest at
    ``_PREC_BITS``: the entries for n's set bits times 1 + (y - n * a)."""
    (_, a_man, a_exp, a_bc), powers = table
    # Each entry's mantissa has W = prec + 41 - mag(a) bits, so a product
    # shifted right by W - 1 is at least 2^(W-1) too: its mantissa grows by
    # at most a bit per entry.
    shift = _PREC_BITS + 40 - (a_exp + a_bc)
    man, exp = 1 << shift, -shift
    for bit, (p_man, p_exp) in zip(bin(n)[:1:-1], powers):
        if bit == "1":
            man = man * p_man >> shift
            exp += p_exp + shift
    # y - n * a = d * 2^low, exactly (both are negative)
    _, y_man, y_exp, _ = y
    low = min(a_exp, y_exp)
    d = (n * a_man << (a_exp - low)) - (y_man << (y_exp - low))
    man += man * d >> -low
    return (0, man, exp, man.bit_length())


@lru_cache(maxsize=_WIDTH_TERMS_CACHE)
def _width_terms(bits: int) -> tuple[tuple, tuple, tuple, tuple]:
    """(x, exp(-x)) for x = 2^-bits as raw mpf tuples at the formulas'
    precision, and ``(a, _powers(a))`` for a = log1p(-x) and for a = -x."""
    from mpmath import libmp

    rnd = libmp.round_nearest
    x = libmp.mpf_shift(libmp.fone, -bits)
    neg_x = libmp.mpf_neg(x)
    # mpmath's log1p at prec + 10 bits: -x - x^2/2 below 2^-(prec+10),
    # which rounds to -x, and otherwise the log of the exact 1 - x.
    if 1 - bits < -(_PREC_BITS + 10):
        log1p = neg_x
    else:
        log = libmp.mpf_log(libmp.mpf_sub(libmp.fone, x), _PREC_BITS + 10, rnd)
        log1p = libmp.mpf_pos(log, _PREC_BITS, rnd)
    exp_neg_x = libmp.mpf_exp(neg_x, _PREC_BITS, rnd)
    return x, exp_neg_x, (log1p, _powers(log1p)), (neg_x, _powers(neg_x))


def _round(sign: int, man: int, exp: int) -> tuple:
    """(-1)^sign * man * 2^exp as a raw mpf tuple, for man > 0: man rounded
    to nearest at _PREC_BITS bits, ties to even, with its trailing zero bits
    stripped, as libmp's normalize does under round_nearest."""
    drop = man.bit_length() - _PREC_BITS
    if drop > 0:
        low = man & ((1 << drop) - 1)
        man >>= drop
        exp += drop
        half = 1 << (drop - 1)
        if low > half or low == half and man & 1:
            man += 1  # a carry to 2^prec leaves prec zeros to strip
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return (sign, man, exp + zeros, man.bit_length())


def _add(s_man: int, s_exp: int, t_man: int, t_exp: int) -> tuple[int, int]:
    """s + t as (man, exp) for s = s_man * 2^s_exp and t = t_man * 2^t_exp,
    nonzero mantissas of either sign and at most _PREC_BITS bits.  Exact,
    except where the operand with the larger exponent exceeds the other by
    more than prec + 4 bits of magnitude: there, as in libmp's mpf_add, the
    other becomes one unit of its sign prec + 4 bits below the larger's
    last bit, which rounds to the same prec bits as the exact sum."""
    if s_exp < t_exp:
        s_man, s_exp, t_man, t_exp = t_man, t_exp, s_man, s_exp
    offset = s_exp - t_exp
    if offset + s_man.bit_length() - t_man.bit_length() > _PREC_BITS + 4:
        shift = _PREC_BITS + 4
        return (s_man << shift) + (1 if t_man > 0 else -1), s_exp - shift
    return (s_man << offset) + t_man, t_exp


def _expm1(table: tuple, n: int) -> tuple:
    """exp(y) - 1, correctly rounded to nearest at _PREC_BITS bits, for
    ``table`` = ``(a, _powers(a))``, n >= 1 and y = n * a rounded to nearest
    at _PREC_BITS bits."""
    prec = _PREC_BITS
    a, powers = table
    y = _round(1, a[1] * n, a[2])
    mag = y[2] + y[3]
    if mag < -(prec + 10):
        return y  # y^2/2 is below a quarter ulp of y
    if mag > (prec + 4).bit_length():
        return _MINUS_ONE  # y < -(prec + 4), so exp(y) < 2^-(prec+4)
    wp = prec + 35 + max(0, -mag)
    if n.bit_length() <= len(powers):
        e = _powers_exp(table, n, y)
    else:
        from mpmath import libmp

        e = libmp.mpf_exp(y, wp, libmp.round_nearest)
    while (d := _exp_minus_one(e, wp)) is None:
        from mpmath import libmp

        wp += wp - prec  # the guard bits left a rounding boundary in reach
        e = libmp.mpf_exp(y, wp, libmp.round_nearest)
    return d


def _exp_minus_one(e: tuple, wp: int) -> tuple | None:
    """e - 1 rounded to nearest at _PREC_BITS bits, for e in (0, 1) within
    2^-wp of exp(y), as ``mpf_exp`` at wp bits or a power table gives it;
    None if a rounding boundary lies within ``5 * 2^-wp`` of e - 1, where
    e's own error could decide the rounding."""
    prec = _PREC_BITS
    _, man, exp, bc = e
    if exp + bc < -(prec + 3):
        return _MINUS_ONE  # e < 2^-(prec+4): e - 1 rounds to -1
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
    return _round(1, n, exp)


def exact_falsification_prob(params: PathParams) -> mpf:
    """Exact match probability 1 - (1 - 2^-b)^(m+1).

    Evaluated as -expm1((m+1) * log1p(-2^-b)) so no precision is lost when
    2^-b underflows ordinary doubles.  At m = 0 it is 2^-b itself.
    """
    import mpmath

    x, _, table, _ = _width_terms(params.bits)
    if not params.path_len:
        return mpmath.mp.make_mpf(x)  # 1 - (1 - x) is x
    _, man, exp, bc = _expm1(table, params.path_len + 1)
    return mpmath.mp.make_mpf((0, man, exp, bc))


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

    x, (_, e_man, e_exp, _), _, table = _width_terms(params.bits)
    if not params.path_len:
        return mpmath.mp.make_mpf(x)  # exp(-x) * expm1(0) is 0
    _, d_man, d_exp, _ = _expm1(table, params.path_len)
    # expm1(-m*x) < 0, so x - exp(-x) * expm1(-m*x) is x + |folded|
    _, f_man, f_exp, _ = _round(0, e_man * d_man, e_exp + d_exp)
    return mpmath.mp.make_mpf(_round(0, *_add(x[1], x[2], f_man, f_exp)))


def approximation_error(params: PathParams) -> FalsificationEstimate:
    """Exact and approximate values side by side with |approx - exact|.

    ``abs_diff`` is the difference of the two returned 243-bit values,
    rounded to 243 bits; at m = 0 both are 2^-b and it is 0.  The two share
    about their first ``b * log10(2)`` digits, so at wide widths the
    difference keeps few correct digits: its 17 printed digits first go
    wrong at b = 242, 239, 236 and 229 for m = 1, 10, 1000 and 10^6 (ROADMAP
    item 1, defect B), and at (256, 10) it reads 0.  ``tests/test_probability.py`` pins that as the strict
    xfail ``test_gap_keeps_its_digits_at_256_bits``.
    """
    import mpmath

    exact = exact_falsification_prob(params)
    approx = approx_falsification_prob(params)
    _, e_man, e_exp, _ = exact._mpf_
    _, a_man, a_exp, _ = approx._mpf_
    man, exp = _add(a_man, a_exp, -e_man, e_exp)
    abs_diff = _round(0, abs(man), exp) if man else _ZERO
    return FalsificationEstimate(params, exact, approx, mpmath.mp.make_mpf(abs_diff))


def _cell_scores(exact: mpf, total: int, matches: int) -> tuple[float, float, float]:
    """(P, std_error, z) as floats for ``matches`` of ``total`` trials
    against P = ``exact``: std_error = sqrt(P(1 - P) / total) and
    z = (matches / total - P) / std_error, each step rounded to nearest at
    ``_PREC_BITS``.  Where std_error is 0, z is 0 if every trial matched
    and -inf otherwise."""
    from mpmath import libmp

    prec, rnd = _PREC_BITS, libmp.round_nearest
    p, n = exact._mpf_, libmp.from_int(total)
    var = libmp.mpf_mul(p, libmp.mpf_sub(libmp.fone, p, prec, rnd), prec, rnd)
    std_error = libmp.mpf_sqrt(libmp.mpf_div(var, n, prec, rnd), prec, rnd)
    if std_error != libmp.fzero:
        rate = libmp.mpf_div(libmp.from_int(matches, prec, rnd), n, prec, rnd)
        z = libmp.mpf_div(libmp.mpf_sub(rate, p, prec, rnd), std_error, prec, rnd)
        z_score = libmp.to_float(z, rnd=rnd)
    else:
        z_score = 0.0 if matches == total else -math.inf
    return libmp.to_float(p, rnd=rnd), libmp.to_float(std_error, rnd=rnd), z_score


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
