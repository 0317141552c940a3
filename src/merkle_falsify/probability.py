"""Falsification probability of a truncated-hash authentication path.

Substituting one data block and re-folding a fixed path of length ``m``
gives ``m + 1`` independent chances for the forged chain to collide with
the genuine one -- one at the leaf, one per level.  With ``b`` output bits
each chance hits with probability ``2^-b``, so

    exact   P(b, m) = 1 - (1 - 2^-b)^(m+1)
    approx  P(b, m) ~ 2^-b + exp(-2^-b) - exp(-(m+1) * 2^-b)

The exact form is evaluated in the log domain (``log1p``/``expm1``) at
``PRECISION_DPS`` significant digits, so it survives ``2^-b`` being far
below double-precision resolution.  The literal term sum is the one exact
evaluation: ``exact_falsification_prob_termsum`` adds the ``m + 1`` terms
as one ``Fraction``, a cross-check of the closed form at small scales.
The approximation is reported raw: it exceeds 1 for small ``b`` and large
``m`` and is a diagnostic of the expansion, not a probability.

The terms that depend on ``b`` alone -- ``x = 2^-b``, ``log1p(-x)`` and
``exp(-x)`` -- are computed once per width and kept in a bounded
``lru_cache`` of ``_WIDTH_TERMS_CACHE`` entries, so a table over many path
lengths pays one ``expm1`` per cell and function.  Caching changes no
value: the terms are evaluated inside their own ``workdps`` at the
formulas' precision, whatever precision the caller has set, so a cached
term is the very ``mpf`` an uncached evaluation gives.

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

if TYPE_CHECKING:
    from mpmath import mpf

# Stated working precision of the closed forms; computations carry a few
# guard digits on top.
PRECISION_DPS = 64
_GUARD_DPS = 8

# Distinct widths whose per-width terms are kept; a table rarely spans more.
_WIDTH_TERMS_CACHE = 256

# Grids reproducing the published difference table.
DEFAULT_BITS = (2, 4, 6, 8, 10)
DEFAULT_PATH_LENS = (10, 50, 100, 500, 1000)

# Scale guard for the literal term-by-term sum (cross-check oracle only).
TERMSUM_MAX_BITS = 16
TERMSUM_MAX_PATH_LEN = 4096


@dataclass(frozen=True)
class PathParams:
    """A (bits, path length) cell: b output bits, m path levels."""

    bits: int
    path_len: int

    def __post_init__(self) -> None:
        # type() rather than isinstance(): bool is an int subclass.
        if type(self.bits) is not int or self.bits < 1:
            raise ValueError(f"bits must be a positive integer, got {self.bits!r}")
        if type(self.path_len) is not int or self.path_len < 0:
            raise ValueError(
                f"path_len must be a non-negative integer, got {self.path_len!r}"
            )


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
def _width_terms(bits: int) -> tuple[mpf, mpf, mpf]:
    """(x, log1p(-x), exp(-x)) for x = 2^-bits, at the formulas' precision."""
    import mpmath

    with mpmath.workdps(PRECISION_DPS + _GUARD_DPS):
        x = mpmath.mpf(2) ** (-bits)
        return x, mpmath.log1p(-x), mpmath.exp(-x)


def exact_falsification_prob(params: PathParams) -> mpf:
    """Exact match probability 1 - (1 - 2^-b)^(m+1).

    Evaluated as -expm1((m+1) * log1p(-2^-b)) so no precision is lost when
    2^-b underflows ordinary doubles.
    """
    import mpmath

    b, m = params.bits, params.path_len
    _, log1p_neg_x, _ = _width_terms(b)
    with mpmath.workdps(PRECISION_DPS + _GUARD_DPS):
        return -mpmath.expm1((m + 1) * log1p_neg_x)


def exact_falsification_prob_float(params: PathParams) -> float:
    """The exact form 1 - (1 - 2^-b)^(m+1) in double precision, for drawing.

    Same log-domain evaluation as ``exact_falsification_prob``; within a few
    units in the last place of that value rounded to a float.
    """
    return -math.expm1((params.path_len + 1) * math.log1p(-(2.0**-params.bits)))


def exact_falsification_prob_termsum(params: PathParams) -> Probability:
    """Literal sum 1/2^b + sum_{k=1}^{m} (1 - 1/2^b)^k / 2^b, exact rationals.

    Term k is (2^b - 1)^k / 2^(b(k+1)), so over the common denominator
    2^(b(m+1)) its numerator is (2^b - 1)^k * 2^(b(m-k)).  The numerators are
    summed term by term with Horner's rule and the sum is reduced once.
    Cross-check oracle for the closed form; guarded to small scales because
    the numerators grow by b bits with every level.
    """
    b, m = params.bits, params.path_len
    if b > TERMSUM_MAX_BITS or m > TERMSUM_MAX_PATH_LEN:
        raise ValueError(
            f"term sum limited to bits <= {TERMSUM_MAX_BITS} and "
            f"path_len <= {TERMSUM_MAX_PATH_LEN}, got ({b}, {m})"
        )
    q = (1 << b) - 1
    num = 0
    q_k = 1
    for _ in range(m + 1):
        num = (num << b) + q_k
        q_k *= q
    return Probability(Fraction(num, 1 << (b * (m + 1))))


def approx_falsification_prob(params: PathParams) -> mpf:
    """Exponential approximation 2^-b + exp(-2^-b) - exp(-(m+1) * 2^-b).

    Computed as 2^-b - exp(-x) * expm1(-m*x), which is the same expression
    with the near-cancelling exponentials folded into one expm1.  Not
    clamped: values above 1 are reported as-is.
    """
    import mpmath

    b, m = params.bits, params.path_len
    x, _, exp_neg_x = _width_terms(b)
    with mpmath.workdps(PRECISION_DPS + _GUARD_DPS):
        return x - exp_neg_x * mpmath.expm1(-m * x)


def approximation_error(params: PathParams) -> FalsificationEstimate:
    """Exact and approximate values side by side with |approx - exact|."""
    import mpmath

    exact = exact_falsification_prob(params)
    approx = approx_falsification_prob(params)
    with mpmath.workdps(PRECISION_DPS + _GUARD_DPS):
        diff = abs(approx - exact)
    return FalsificationEstimate(params, exact, approx, diff)


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
