import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mpf

from merkle_falsify import probability
from merkle_falsify.probability import (
    DEFAULT_BITS,
    DEFAULT_PATH_LENS,
    PathParams,
    approx_falsification_prob,
    approximation_error,
    diff_table,
    exact_falsification_prob,
    exact_falsification_prob_float,
    exact_falsification_prob_termsum,
)
from merkle_falsify.simulate import CellResult

from frozen_values import EXACT_10_10_DECIMAL
from reference import PUBLISHED_DIFFS, closed_form_rational

# Cells whose expm1 lies within about 2^-33 of an ulp of a 243-bit rounding
# boundary: 35 guard bits do not decide these, the approx at the first two
# and the exact at the rest.
NEAR_BOUNDARY_CELLS = ((118, 81), (78, 79), (238, 73), (198, 89011869679925))


def closed_forms_500(b: int, m: int) -> tuple[mpf, mpf]:
    """(exact, approx) from the formulas' own 243-bit per-width terms and
    expm1 arguments, with each expm1 taken at 500 digits and the result of
    every step rounded to the formulas' precision.  At m = 0 both are 2^-b."""
    with mpmath.workdps(probability.PRECISION_DPS + probability._GUARD_DPS):
        x = mpf(2) ** -b
        if not m:
            return x, x
        y_exact = (m + 1) * mpmath.log1p(-x)
        y_approx = -m * x
        exp_neg_x = mpmath.exp(-x)
    with mpmath.workdps(500):
        expm1_exact = mpmath.expm1(y_exact)
        expm1_approx = mpmath.expm1(y_approx)
    with mpmath.workdps(probability.PRECISION_DPS + probability._GUARD_DPS):
        return -(+expm1_exact), x - exp_neg_x * (+expm1_approx)


def assert_near_rational(value, r: Fraction):
    # relative gap below 10^-60, measured above the formulas' precision
    with mpmath.workdps(90):
        assert abs(value / (mpf(r.numerator) / mpf(r.denominator)) - 1) < mpf(10) ** -60


def test_params_validation():
    with pytest.raises(ValueError):
        PathParams(0, 5)
    with pytest.raises(ValueError):
        PathParams(4, -1)
    with pytest.raises(ValueError):
        PathParams(True, 5)  # bool is an int subclass, not a width
    PathParams(1, 0)


def test_single_collision_256():
    p = exact_falsification_prob(PathParams(256, 0))
    assert closed_form_rational(256, 0) == Fraction(1, 1 << 256)
    assert_near_rational(p, closed_form_rational(256, 0))
    assert float(p) == pytest.approx(8.636e-78, rel=1e-3)
    assert p > 0


def test_exact_m0_is_single_collision():
    for b in (1, 2, 7, 16):
        assert closed_form_rational(b, 0) == Fraction(1, 1 << b)
        assert_near_rational(exact_falsification_prob(PathParams(b, 0)), closed_form_rational(b, 0))


def test_exact_b1_m1():
    # leaf collision or one level: 1/2 + (1/2)(1/2)
    assert closed_form_rational(1, 1) == Fraction(3, 4)
    assert_near_rational(exact_falsification_prob(PathParams(1, 1)), closed_form_rational(1, 1))


def test_exact_2_10():
    p = exact_falsification_prob(PathParams(2, 10))
    assert closed_form_rational(2, 10) == Fraction(4017157, 4194304)
    assert_near_rational(p, closed_form_rational(2, 10))
    assert float(p) == pytest.approx(0.9577648639678955, rel=1e-15)


def test_exact_10_10_decimal():
    p = exact_falsification_prob(PathParams(10, 10))
    with mpmath.workdps(45):
        assert abs(p - mpf(EXACT_10_10_DECIMAL)) < mpf(10) ** -38
    assert_near_rational(p, closed_form_rational(10, 10))


def test_exact_rational_agrees_with_value():
    for b, m in ((1, 3), (5, 40), (11, 100), (16, 250), (256, 15), (2, 1000)):
        assert_near_rational(exact_falsification_prob(PathParams(b, m)), closed_form_rational(b, m))


def test_termsum_hand_values():
    assert exact_falsification_prob_termsum(PathParams(1, 1)).exact_rational == Fraction(3, 4)
    # 1/4 + (3/4)(1/4) + (9/16)(1/4)
    assert exact_falsification_prob_termsum(PathParams(2, 2)).exact_rational == Fraction(37, 64)


def test_termsum_guard():
    with pytest.raises(ValueError):
        exact_falsification_prob_termsum(PathParams(17, 10))
    with pytest.raises(ValueError):
        exact_falsification_prob_termsum(PathParams(4, 4097))
    got = exact_falsification_prob_termsum(PathParams(16, 4096))
    assert got.exact_rational == closed_form_rational(16, 4096)


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=80))
@example(1, 4096)
@example(16, 4095)
@example(16, 4096)
@settings(max_examples=60, deadline=None)
def test_termsum_identity_property(b, m):
    assert exact_falsification_prob_termsum(PathParams(b, m)).exact_rational == closed_form_rational(b, m)


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=120))
# m + 1 terms at one leaf, one past it, two leaves and one past two
@example(16, probability._TERMSUM_LEAF - 1)
@example(16, probability._TERMSUM_LEAF)
@example(16, 2 * probability._TERMSUM_LEAF - 1)
@example(16, 2 * probability._TERMSUM_LEAF)
@settings(max_examples=60, deadline=None)
def test_termsum_matches_per_term_fraction_sum(b, m):
    # the term-by-term sum written out with a Fraction per term
    p = Fraction(1, 1 << b)
    total = p
    term = p
    for _ in range(m):
        term *= 1 - p
        total += term
    got = exact_falsification_prob_termsum(PathParams(b, m))
    assert got.exact_rational == total


def test_termsum_numerator_is_odd():
    # Every term but the last carries a factor 2^(b(m-k)), and the last is
    # (2^b - 1)^m, which is odd: the numerator is odd, so the sum never
    # reduces and its denominator is 2^(b(m+1)) (ROADMAP item 9).
    for b in range(1, 17):
        for m in (*range(65), 1000, 4096):
            got = exact_falsification_prob_termsum(PathParams(b, m)).exact_rational
            assert got.denominator == 1 << b * (m + 1), (b, m)
            assert got.numerator % 2 == 1, (b, m)


def test_approx_m0_cancellation_exact():
    # At m = 0 both forms are 2^-b exactly, at every width, and their
    # difference is exactly 0.
    for b in range(1, 257):
        cell = approximation_error(PathParams(b, 0))
        assert cell.exact._mpf_ == cell.approx._mpf_ == (0, 1, -b, 1), b
        assert cell.abs_diff._mpf_ == libmp.fzero, b


def test_approx_2_10():
    p = approx_falsification_prob(PathParams(2, 10))
    # independent arrangement of the same expression
    with mpmath.workdps(80):
        expect = mpf(1) / 4 + mpmath.exp(mpf(-1) / 4) - mpmath.exp(mpf(-11) / 4)
        assert abs(p - expect) < mpf(10) ** -60
    assert float(p) == pytest.approx(0.96487292, abs=1e-8)


def test_approx_exceeds_one_for_small_bits():
    for m in (50, 100, 500, 1000):
        assert approx_falsification_prob(PathParams(2, m)) > 1


def test_approx_2_1000_value():
    p = approx_falsification_prob(PathParams(2, 1000))
    assert float(p) == pytest.approx(1.02880078307, rel=1e-11)


# The discrepancy analysis: with x = 2^-b, approx - exact is
# (x^2/2) * (1 - (m+1) * e^(-(m+1)x)) + O(x^3).  Widths stay below 229,
# where the 243-bit difference of the two forms starts to lose digits.


@pytest.mark.parametrize(
    "b, m_star",
    [(2, 9), (4, 67), (6, 379), (10, 9362), (16, 898_388), (32, 109_161_285_243)],
)
def test_approx_crosses_exact_once_near_lambert_w(b, m_star):
    # approx < exact for 1 <= m < m*, approx > exact from m* on; to leading
    # order (m* + 1) x = -W(-x) on the lower branch of Lambert's W
    def sign(m):
        cell = approximation_error(PathParams(b, m))
        return (cell.approx > cell.exact) - (cell.approx < cell.exact)

    ms = range(1, 4 * m_star) if b <= 6 else (1, m_star - 1, m_star, 4 * m_star)
    assert [sign(m) for m in ms] == [-1 if m < m_star else 1 for m in ms]
    x = mpf(2) ** -b
    assert abs(m_star - (-mpmath.lambertw(-x, -1).real / x - 1)) <= 6


@pytest.mark.parametrize("b", [10, 20])
def test_gap_is_minus_x_over_2e_at_m_plus_1_equal_2_to_b(b):
    # the leading term's minimum, at (m + 1) x = 1
    cell = approximation_error(PathParams(b, 2**b - 1))
    x = mpf(2) ** -b
    assert cell.approx < cell.exact
    assert abs(cell.abs_diff / (x / (2 * mpmath.e)) - 1) < 0.003


@pytest.mark.parametrize("b", [64, 128, 200])
def test_gap_matches_leading_term_at_wide_widths(b):
    m = 10
    cell = approximation_error(PathParams(b, m))
    with mpmath.workdps(60):
        x = mpf(2) ** -b
        lead = x**2 / 2 * (1 - (m + 1) * mpmath.exp(-(m + 1) * x))
        assert abs(cell.abs_diff / abs(lead) - 1) < 1e-15


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, defect B: abs_diff subtracts two values that share "
    "their first ~77 digits at 72 digits, so it reads 0.0 at (256, 10)",
)
def test_gap_keeps_its_digits_at_256_bits():
    cell = approximation_error(PathParams(256, 10))
    with mpmath.workdps(400):
        x = mpf(2) ** -256
        exact = 1 - (1 - x) ** 11
        approx = x + mpmath.exp(-x) - mpmath.exp(-11 * x)
        reference = abs(approx - exact)
        assert abs(reference / mpf("3.7291703656001034e-154") - 1) < 1e-15
        assert abs(cell.abs_diff / reference - 1) < 1e-15


def test_gap_tends_to_x_plus_expm1_minus_x_as_m_grows():
    # m -> infinity: (1 - x)^(m+1) and e^(-(m+1)x) vanish, so approx - exact
    # tends to x + e^(-x) - 1 (about x^2 / 2, criterion 2's saturation).  At
    # m = 1000 * 2^b both terms are below e^(-1000), far under the tolerance.
    for b in range(1, 33):
        cell = approximation_error(PathParams(b, 1000 * 2**b))
        with mpmath.workdps(500):
            x = mpf(2) ** -b
            limit = x + mpmath.expm1(-x)
            assert abs(cell.abs_diff / limit - 1) < mpf(10) ** -50, b


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10**9))
@example(1, 0)
@example(1, 10**9)
@example(4, 5)
@example(10, 45)
@example(20, 1447)
@example(200, 10**9)
@settings(max_examples=200, deadline=None)
def test_gap_is_below_proved_bound(b, m):
    # |approx - exact| < 2^-(b+1) * exact for m >= 1, and approx = exact at
    # m = 0 (README, "When the approximation is good").  Sharp where
    # 1 << m << 2^b, e.g. (20, 1447) and (200, 10^9).  Above b = 200 the
    # 243-bit difference's rounding noise outgrows the bound's slack.
    cell = approximation_error(PathParams(b, m))
    assert cell.abs_diff < mpmath.ldexp(cell.exact, -(b + 1))


def test_diff_table_default_shape():
    rows = diff_table()
    assert len(rows) == 25
    assert [ (r.params.bits, r.params.path_len) for r in rows ] == [
        (b, m) for b in DEFAULT_BITS for m in DEFAULT_PATH_LENS
    ]
    for row in rows:
        with mpmath.workdps(40):
            assert abs(row.abs_diff - abs(row.approx - row.exact)) < mpf(10) ** -30


def test_diff_table_spot_values():
    for cell in ((2, 10), (4, 50), (10, 10)):
        row = diff_table([cell[0]], [cell[1]])[0]
        reference = mpf(PUBLISHED_DIFFS[cell])
        assert abs(float(row.abs_diff) / float(reference) - 1) <= 1e-10


def test_diff_table_zero_cell():
    row = diff_table([4], [0])[0]
    assert row.abs_diff == 0
    assert_near_rational(row.exact, Fraction(1, 16))


def test_diff_table_rejects_empty():
    with pytest.raises(ValueError):
        diff_table([], [10])
    with pytest.raises(ValueError):
        diff_table([2], [])
    with pytest.raises(ValueError, match="bits 4 appears more than once"):
        diff_table([4, 2, 4], [10])
    with pytest.raises(ValueError, match="path_len 0 appears more than once"):
        diff_table([2], [0, 0])


def test_monotonic_in_path_len():
    # value-level, where the survival mass is representable
    for b, m in ((1, 50), (8, 1000), (64, 10**6 - 1)):
        lo = exact_falsification_prob(PathParams(b, m))
        hi = exact_falsification_prob(PathParams(b, m + 1))
        assert hi > lo


def test_monotonic_in_bits():
    for b, m in ((1, 10), (7, 1000), (63, 10**6)):
        wide = exact_falsification_prob(PathParams(b + 1, m))
        narrow = exact_falsification_prob(PathParams(b, m))
        assert wide < narrow


def test_range_invariant():
    # P can round to exactly 1.0 once the survival mass drops below the
    # working precision, so the upper bound is inclusive.
    for b, m in ((1, 0), (1, 10**6), (64, 0), (64, 10**6), (256, 10**6)):
        v = exact_falsification_prob(PathParams(b, m))
        assert 0 < v <= 1


def test_precision_stress_256_bits():
    p = exact_falsification_prob(PathParams(256, 10**6))
    with mpmath.workdps(80):
        first_order = (10**6 + 1) * mpf(2) ** -256
        assert p > 0
        assert abs(p / first_order - 1) <= mpf(10) ** -9


def test_probability_rational_decimal_crosscheck():
    # Fraction -> Decimal -> mpf path agrees with the log-domain evaluation
    p = exact_falsification_prob(PathParams(6, 33))
    r = closed_form_rational(6, 33)
    dec = Decimal(r.numerator) / Decimal(r.denominator)
    assert float(p) == pytest.approx(float(dec), rel=1e-15)


@given(
    b=st.integers(min_value=1, max_value=300),
    m=st.integers(min_value=0, max_value=10**7),
    caller_dps=st.sampled_from((15, 200)),
)
@settings(max_examples=100, deadline=None)
def test_cached_width_terms_match_uncached_evaluation(b, m, caller_dps):
    # The per-width terms, power tables included, are cached on the first
    # call for a width; made under a caller's low or high working precision,
    # that call must still cache the terms and build the tables at the
    # formulas' own precision.
    exact, approx = closed_forms_500(b, m)
    probability._width_terms.cache_clear()
    params = PathParams(b, m)
    with mpmath.workdps(caller_dps):
        first = (exact_falsification_prob(params), approx_falsification_prob(params))
    assert first == (exact, approx)
    assert exact_falsification_prob(PathParams(b, m)) == exact
    assert approx_falsification_prob(PathParams(b, m)) == approx


def _with_examples(cells):
    """Hypothesis ``@example(b=b, m=m)`` for each (b, m) in cells."""

    def decorate(test):
        for b, m in cells:
            test = example(b=b, m=m)(test)
        return test

    return decorate


@given(b=st.integers(min_value=1, max_value=300), m=st.integers(min_value=0, max_value=10**15))
# m = 0: the approximation's expm1 is 0, and approx is x itself
@example(b=1, m=0)
@example(b=64, m=0)
@example(b=1, m=10**18)
@example(b=256, m=0)
@example(b=256, m=10)
@example(b=300, m=10**9)
@example(b=78, m=1486)  # mpmath's own expm1 at 72 digits is 1 ulp off here
# log1p(-2^-b) is a log at b = 254 and its series at b = 255; b = 242 is
# the one width where the log rounded from 253 bits differs from a log
# taken at 243 bits.
@example(b=242, m=10)
@example(b=254, m=10)
@example(b=255, m=10)
@example(b=10**4, m=10**12)
@example(b=10**6, m=1)
# -m * x = -(2^250 - 1) * 2^-300 carries to -2^-50 when rounded
@example(b=300, m=2**250 - 1)
# x - folded with |folded| near 1 and x past prec + 4 bits below it; the
# exponents lie 10^6, 300 and 57 apart, and mpf_add perturbs only past 100
@example(b=10**6, m=2 ** (10**6 + 8))
@example(b=300, m=2**320)
@example(b=300, m=2**300)
@_with_examples(NEAR_BOUNDARY_CELLS)
# The exact form saturates at 1 from m = 243 (b = 1) and m = 587 (b = 2),
# and its exp(y) falls below the -1 shortcut's 2^-247 from m = 246 (b = 1)
# and m = 595 (b = 2).
@_with_examples([(1, m) for m in range(240, 248)] + [(2, m) for m in range(585, 596)])
@settings(max_examples=100, deadline=None)
def test_closed_forms_are_correctly_rounded(b, m):
    # Each expm1 is rounded once, correctly, so both forms equal the same
    # steps taken with a 500-digit expm1; abs_diff is the 243-bit |approx - exact|.
    want_exact, want_approx = closed_forms_500(b, m)
    got = approximation_error(PathParams(b, m))
    assert got.exact == exact_falsification_prob(PathParams(b, m)) == want_exact
    assert got.approx == approx_falsification_prob(PathParams(b, m)) == want_approx
    with mpmath.workdps(probability.PRECISION_DPS + probability._GUARD_DPS):
        assert got.abs_diff == abs(got.approx - got.exact)
    # log1p(-2^-b) and (m + 1) * log1p(-2^-b) are rounded at 243 bits before
    # the expm1, so against the closed forms taken wholly at 500 digits each
    # value keeps an error of up to 2.5 units in its last place.  The
    # approximation is taken as x - exp(-x) * expm1(-m * x): written as
    # x + exp(-x) - exp(-(m + 1) * x), it cancels about b * log10(2)
    # digits, all 500 of them from b = 1661.
    with mpmath.workdps(500):
        x = mpf(2) ** -b
        for got_value, true in (
            (got.exact, -mpmath.expm1((m + 1) * mpmath.log1p(-x))),
            (got.approx, x - mpmath.exp(-x) * mpmath.expm1(-m * x)),
        ):
            ulp = mpmath.ldexp(1, mpmath.mag(true) - probability._PREC_BITS)
            assert abs(got_value - true) <= 2.5 * ulp, (b, m)


def _count_exp_calls(monkeypatch) -> list:
    """The precision of every libmp.mpf_exp call made from now on."""
    calls = []
    real_exp = libmp.mpf_exp

    def mpf_exp(y, wp, rnd):
        calls.append(wp)
        return real_exp(y, wp, rnd)

    monkeypatch.setattr(libmp, "mpf_exp", mpf_exp)
    return calls


def test_expm1_retries_only_where_a_boundary_is_in_reach(monkeypatch):
    # The analytic-table benchmark's grid, bits 1..32 by 16 path lengths
    # from 0 to 10^6: once the power tables are built, every exp comes from
    # them, and no cell retries.
    from workloads import AnalyticTable

    bits, path_lens = AnalyticTable.BITS, AnalyticTable.PATH_LENS
    diff_table(bits, path_lens)  # builds the tables first
    calls = _count_exp_calls(monkeypatch)
    diff_table(bits, path_lens)
    assert calls == []
    # Near a boundary: the table's exp leaves it open, and one mpf_exp at
    # twice the guard bits decides it.
    prec = probability._PREC_BITS
    for b, m in NEAR_BOUNDARY_CELLS:
        approximation_error(PathParams(b, 1))  # builds both tables
        calls.clear()
        got = approximation_error(PathParams(b, m))
        assert len(calls) == 1 and calls[0] - prec >= 2 * 35, (b, m, calls)
        assert (got.exact, got.approx) == closed_forms_500(b, m)


def _assert_power_table_exp_within_radius(b: int, n: int, table_index: int) -> None:
    """exp(n * a) from a width's table lies within relative
    3 * 2^(L+1-W) of mpf_exp at twice the table's W bits, L = n.bit_length().
    With n * a rounded to the formulas' precision, wherever _expm1 takes the
    table's exp(y), that lies within 2^-wp of exp(y), at the wp _expm1 hands
    to _exp_minus_one."""
    table = probability._width_terms(b)[table_index]
    a, powers = table
    assert 1 <= n.bit_length() <= len(powers)
    prec, rnd = probability._PREC_BITS, libmp.round_nearest
    bits = prec + 41 - (a[2] + a[3])

    def error(y):
        want = libmp.mpf_exp(y, 2 * bits, rnd)
        return want, libmp.mpf_abs(libmp.mpf_sub(probability._powers_exp(table, n, y), want))

    na = libmp.mpf_mul(a, libmp.from_int(n))  # exact
    want, err = error(na)
    radius = libmp.mpf_shift(libmp.mpf_mul(want, libmp.from_int(3)), n.bit_length() + 1 - bits)
    assert libmp.mpf_le(err, radius), (b, n, table_index)
    y = libmp.mpf_mul_int(a, n, prec, rnd)
    mag = y[2] + y[3]
    if -(prec + 10) <= mag <= (prec + 4).bit_length():
        _, err = error(y)
        assert libmp.mpf_le(err, libmp.from_man_exp(1, -(prec + 35 + max(0, -mag)))), (b, n)


@given(
    b=st.integers(min_value=1, max_value=314),
    length=st.integers(min_value=1, max_value=probability._MAX_POWERS),
    low=st.integers(min_value=0, max_value=2**59 - 1),
    table_index=st.sampled_from((2, 3)),
)
# the longest n each table admits: 9 bits at b = 1, 60 from b = 52 to 314
@example(b=1, length=9, low=2**59 - 1, table_index=2)
@example(b=1, length=9, low=2**59 - 1, table_index=3)
@example(b=52, length=60, low=2**59 - 1, table_index=2)
@example(b=314, length=60, low=2**59 - 1, table_index=3)
@example(b=314, length=60, low=0, table_index=2)
@settings(max_examples=100, deadline=None)
def test_power_table_exp_is_within_its_radius(b, length, low, table_index):
    # n has as many bits as length and the table allow, the lower ones from low
    length = min(length, len(probability._width_terms(b)[table_index][1]))
    n = 1 << (length - 1) | low & ((1 << (length - 1)) - 1)
    _assert_power_table_exp_within_radius(b, n, table_index)


def test_power_table_exp_at_every_entry_count():
    # every number of entries a product can read, 1 to 60, at its largest
    # and smallest n, at the first width whose tables hold 60
    for length in range(1, probability._MAX_POWERS + 1):
        for n in ((1 << length) - 1, 1 << (length - 1)):
            for table_index in (2, 3):
                _assert_power_table_exp_within_radius(52, n, table_index)


# The last width with power tables: from b = 315 an n of at most
# _MAX_POWERS = 60 bits keeps |n * a| below 2^-(prec+10), in _expm1's series.
LAST_TABLE_BITS = probability._PREC_BITS + 11 + probability._MAX_POWERS


def test_power_tables_hold_what_expm1_can_read():
    # A table holds min(_MAX_POWERS, 9 - mag(a)) = min(60, 8 + b) entries of
    # W = prec + 41 - mag(a) bits: an n of more bits gives |n * a| >= 2^8,
    # where expm1 is -1 without the table.  Past LAST_TABLE_BITS no n of at
    # most 60 bits leaves the series, and the width has no table.
    assert LAST_TABLE_BITS == 314
    prec = probability._PREC_BITS
    for b in range(1, 331):
        for a, powers in probability._width_terms(b)[2:]:
            assert isinstance(powers, tuple)
            assert len(powers) == (min(60, 8 + b) if b <= LAST_TABLE_BITS else 0), b
            bits = prec + 41 - (a[2] + a[3])
            assert all(man.bit_length() == bits for man, _ in powers), b
    # at b = 1 no table needs more than 9 entries, however long the path
    for m in (300, 10**30):
        got = approximation_error(PathParams(1, m))
        assert (got.exact, got.approx) == closed_forms_500(1, m)


def test_cells_where_a_table_is_first_reached():
    # |n * a| first reaches 2^-(prec+10), where the series ends, at
    # n = 2^(b-254): n = m + 1 for the exact form and n = m for the
    # approximation.  Up to b = 314 the table serves it, and beyond that
    # one mpf_exp does.
    for b in range(300, 321):
        k = b - 254
        for m in (2**k - 2, 2**k - 1, 2**k, 2**k + 1):
            got = approximation_error(PathParams(b, m))
            assert (got.exact, got.approx) == closed_forms_500(b, m), (b, m)


def test_expm1_series_returns_y():
    # Below 2^-(prec+10), y^2/2 < 2^-(prec+11) * |y| is under a quarter ulp
    # of y, so mpmath's y + y^2/2 rounds back to y, and y is expm1(y)
    # correctly rounded.  A power of two, where the ulp below y is half the
    # one above, and an all-ones mantissa are the tightest cases.
    prec, rnd = probability._PREC_BITS, libmp.round_nearest
    for b in (255, 256, 300, 400, 497, 1000, 10**4, 10**5):
        top = b - 254  # n < 2^top keeps |n * 2^-b| below 2^-(prec+10)
        ones = min(top, prec)
        for table in probability._width_terms(b)[2:]:
            for n in (1, 1 << (top - 1), ((1 << ones) - 1) << (top - ones)):
                y = libmp.mpf_mul_int(table[0], n, prec, rnd)
                assert y[2] + y[3] < -(prec + 10), (b, n)
                assert probability._expm1(table, n) == y, (b, n)
                y_sq_half = libmp.mpf_shift(libmp.mpf_mul(y, y), -1)
                assert libmp.mpf_add(y, y_sq_half, prec, rnd) == y, (b, n)
                with mpmath.workdps(500):
                    true = mpmath.expm1(mpmath.mp.make_mpf(y))
                assert libmp.mpf_pos(true._mpf_, prec, rnd) == y, (b, n)


def test_width_caches_stay_bounded():
    # After 300 distinct widths the per-width terms and tables are kept for
    # at most _WIDTH_TERMS_CACHE widths.
    probability._width_terms.cache_clear()
    for b in range(1, 301):
        approximation_error(PathParams(b, 1000 * b))
    cached = probability._width_terms.cache_info().currsize
    assert cached <= probability._WIDTH_TERMS_CACHE < 300
    # An n of more than _MAX_POWERS bits takes exp(y) from one mpf_exp: at
    # (10^4, 2^(10^4 + 7)) a table would need 10^4 + 8 entries of 10^4 + 283
    # bits each, and the width has none; the value is the one the
    # 500-digit expm1 gives.
    assert probability._MAX_POWERS == 60
    b, m = 10**4, 2 ** (10**4 + 7)
    got = approximation_error(PathParams(b, m))
    assert [len(powers) for _, powers in probability._width_terms(b)[2:]] == [0, 0]
    assert (got.exact, got.approx) == closed_forms_500(b, m)


def test_power_tables_shared_between_threads():
    # Four threads make the same widths' terms from an empty cache, start
    # and extend their tables at once, and score simulated cells, and still
    # get the serial values: no entry is squared from a stale last one, and
    # no call sets the process-wide mp.prec that another thread computes at.
    widths = (1, 7, 30, 100, 200)
    cells = [PathParams(b, 2**k) for b in widths for k in range(1, 42, 4)]
    scored = [(b, m, 10**6, 10**5, 0) for b in widths for m in (10, 10**4)]
    want = [approximation_error(p) for p in cells]
    want_scored = [CellResult(*args) for args in scored]
    prec = mpmath.mp.prec
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            probability._width_terms.cache_clear()
            with ThreadPoolExecutor(4) as pool:
                scoring = [pool.submit(CellResult, *args) for args in scored]
                futures = [pool.submit(approximation_error, p) for p in cells]
                assert [f.result(timeout=60) for f in scoring] == want_scored
                assert [f.result(timeout=60) for f in futures] == want
    finally:
        sys.setswitchinterval(interval)
    assert mpmath.mp.prec == prec


def _mpf_exp_minus_one(e: tuple, wp: int, prec: int):
    """The boundary test in mpf operations: e - 1 rounded to wp bits, then
    rounded to prec bits from 2^(2-wp) below and from 2^(2-wp) above; None
    if the two differ."""
    rnd = libmp.round_nearest
    d = libmp.mpf_sub(e, libmp.fone, wp, rnd)
    err = (0, 1, 2 - wp, 1)
    lo = libmp.mpf_sub(d, err, prec, rnd)
    return lo if lo == libmp.mpf_add(d, err, prec, rnd) else None


def _exp_below_one(wp: int, x: int, z: int, kept: int, low: int) -> tuple:
    """e with 1 - e = n * 2^-(wp + x), where n is kept followed by low in
    the wp - z + x - prec bits below it, so 1 - e is in [2^-(z+1), 2^-z)."""
    n = (kept << (wp - z + x - probability._PREC_BITS)) + low
    return libmp.from_man_exp((1 << (wp + x)) - n, -(wp + x))


@st.composite
def _exp_outputs(draw):
    """(e, wp): a made-up exp(y) in (0, 1) and the precision it came at."""
    prec = probability._PREC_BITS
    wp = prec + draw(st.sampled_from((35, 70, 140))) + draw(st.integers(0, 40))
    kind = draw(st.sampled_from(("boundary", "short", "near zero")))
    if kind == "near zero":
        # either side of the -1 shortcut, which takes e < 2^-(prec+4)
        bc = draw(st.integers(1, wp))
        man = draw(st.integers(1 << (bc - 1), (1 << bc) - 1))
        mag = draw(st.integers(-(prec + 7), -prec))
        return libmp.from_man_exp(man, mag - bc), wp
    z = draw(st.integers(0, wp - prec - 8))
    if kind == "short":
        # 1 - e has at most prec significant bits
        n = draw(st.integers(1, (1 << prec) - 1))
        width = n.bit_length() + z
        return libmp.from_man_exp((1 << width) - n, -width), wp
    # For x > 0, e - 1 has more than wp bits, so rounding it to wp bits
    # moves it.  Below the prec bits kept, n holds 0, a half ulp or all
    # ones, plus an offset within a few radii (a radius is 4 or 5 units of
    # 2^x), so the edges of both boundary tests are in reach.
    x = draw(st.integers(0, 12))
    drop = wp - z + x - prec
    kept = draw(
        st.sampled_from((1 << (prec - 1), (1 << prec) - 1))
        | st.integers(1 << (prec - 1), (1 << prec) - 1)
    )
    base = draw(st.sampled_from((0, 1 << (drop - 1), (1 << drop) - 1)))
    offset = (draw(st.integers(-6, 6)) << x) + draw(st.integers(-(1 << x), 1 << x))
    return _exp_below_one(wp, x, z, kept, min(max(base + offset, 0), (1 << drop) - 1)), wp


_WP = probability._PREC_BITS + 35


@given(_exp_outputs())
# 9 units of 2^-(wp+1) above the midpoint: the mpf test reaches the boundary
# from e - 1 rounded to wp bits; a radius of 2^(2-wp) around the exact
# e - 1 would not.
@example(case=(_exp_below_one(_WP, 1, 0, 3 << (probability._PREC_BITS - 2), (1 << 35) + 9), _WP))
@settings(max_examples=400, deadline=None)
def test_integer_boundary_test_is_as_cautious_as_mpf_one(case):
    # Wherever rounding e - 1 to wp bits and then 2^(2-wp) either side of
    # it to prec bits leaves the result open, the integer test retries too;
    # where both decide, they give the same tuple, e - 1 correctly rounded.
    # The integer test retries only with a boundary within 2^(3-wp) of e - 1.
    e, wp = case
    prec = probability._PREC_BITS
    rnd = libmp.round_nearest
    got = probability._exp_minus_one(e, wp)
    if got is not None:
        assert got == _mpf_exp_minus_one(e, wp, prec) == libmp.mpf_sub(e, libmp.fone, prec, rnd)
    else:
        d = libmp.mpf_sub(e, libmp.fone)  # exact
        err = (0, 1, 3 - wp, 1)
        assert libmp.mpf_sub(d, err, prec, rnd) != libmp.mpf_add(d, err, prec, rnd)


@st.composite
def _mantissas(draw):
    """(sign, man, exp) for probability._round: a mantissa already of at most
    prec bits, or prec kept bits (all ones among them, which carry to 2^prec
    when rounded up) over dropped bits at, beside or away from the tie; then
    trailing zeros."""
    prec = probability._PREC_BITS
    if draw(st.booleans()):
        man = draw(st.integers(1, (1 << prec) - 1))
    else:
        kept = draw(
            st.sampled_from(((1 << prec) - 1, (1 << prec) - 2, 1 << (prec - 1)))
            | st.integers(1 << (prec - 1), (1 << prec) - 1)
        )
        drop = draw(st.integers(1, 300))
        half = 1 << (drop - 1)
        low = draw(
            st.sampled_from((0, 1, half - 1, half, half + 1, 2 * half - 1))
            | st.integers(0, 2 * half - 1)
        )
        man = kept << drop | min(low, 2 * half - 1)
    man <<= draw(st.integers(0, 70))
    return draw(st.sampled_from((0, 1))), man, draw(st.integers(-(10**6), 10**6))


@given(_mantissas())
@example(case=(0, (1 << 250) - 1, -300))  # carries to 2^-50
@example(case=(1, (1 << 244) - 1, 0))  # a tie, rounded up to even 2^244
@example(case=(0, (1 << 244) - 3, 0))  # a tie, rounded down to even
@example(case=(0, 1 << 400, 7))  # a lone 1 bit over 400 trailing zeros
@settings(max_examples=500, deadline=None)
def test_round_is_libmp_normalize(case):
    sign, man, exp = case
    want = libmp.from_man_exp(-man if sign else man, exp, probability._PREC_BITS, libmp.round_nearest)
    assert probability._round(sign, man, exp) == want


@st.composite
def _addends(draw):
    """Two nonzero raw tuples of at most prec bits, of either sign, with
    exponents up to 3000 apart: near the prec + 4 bit gap past which _add
    perturbs instead of adding, and near cancellation."""
    prec = probability._PREC_BITS
    s = libmp.from_man_exp(
        draw(st.sampled_from((-1, 1))) * draw(st.integers(1, (1 << prec) - 1)),
        draw(st.integers(-5000, 5000)),
    )
    kind = draw(st.sampled_from(("any", "near cancel", "near gap")))
    if kind == "near cancel":
        _, man, exp, _ = s
        t_man = draw(st.integers(max(1, man - 8), min(man + 8, (1 << prec) - 1)))
        sign = 1 - s[0] if draw(st.booleans()) else s[0]
        return s, libmp.from_man_exp(-t_man if sign else t_man, exp)
    t_man = draw(st.sampled_from((-1, 1))) * draw(
        st.sampled_from((1, (1 << prec) - 1)) | st.integers(1, (1 << prec) - 1)
    )
    if kind == "near gap":
        # magnitude of t about prec + 4 bits below s, either side
        gap = prec + 4 + draw(st.integers(-3, 3))
        exp = s[2] + s[3] - gap - abs(t_man).bit_length()
    else:
        exp = s[2] + draw(st.integers(-3000, 3000))
    return s, libmp.from_man_exp(t_man, exp)


@given(_addends())
@settings(max_examples=500, deadline=None)
def test_add_rounds_as_mpf_add(case):
    # _add's sum, exact or perturbed, rounds to the tuple mpf_add gives.
    s, t = case
    s_man = -s[1] if s[0] else s[1]
    t_man = -t[1] if t[0] else t[1]
    man, exp = probability._add(s_man, s[2], t_man, t[2])
    got = probability._round(int(man < 0), abs(man), exp) if man else probability._ZERO
    rnd = libmp.round_nearest
    assert got == libmp.mpf_add(s, t, probability._PREC_BITS, rnd)
    assert got == libmp.mpf_add(t, s, probability._PREC_BITS, rnd)


def test_bit_precision_matches_digits():
    assert probability._PREC_BITS == libmp.dps_to_prec(
        probability.PRECISION_DPS + probability._GUARD_DPS
    ) == 243


def test_float_closed_form_tracks_mpmath():
    for b in range(1, 257):
        for m in (0, 1, 2, 7, 64, 1000, 12345, 10**5, 999_999, 10**6):
            params = PathParams(b, m)
            want = float(exact_falsification_prob(params))
            got = exact_falsification_prob_float(params)
            assert abs(got - want) <= 1e-15 * want, (b, m, got, want)
