from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from merkle_falsify.probability import (
    DEFAULT_BITS,
    DEFAULT_PATH_LENS,
    PathParams,
    approx_falsification_prob,
    approximation_error,
    diff_table,
    exact_falsification_prob,
    exact_falsification_prob_termsum,
)

from frozen_values import EXACT_10_10_DECIMAL, REFERENCE_DIFFS


def closed_form_rational(b: int, m: int) -> Fraction:
    # independent closed form for cross-checks
    return 1 - (1 - Fraction(1, 1 << b)) ** (m + 1)


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
    assert p.exact_rational == Fraction(1, 1 << 256)
    assert float(p.value) == pytest.approx(8.636e-78, rel=1e-3)
    assert p.value > 0


def test_exact_m0_is_single_collision():
    for b in (1, 2, 7, 16):
        assert exact_falsification_prob(PathParams(b, 0)).exact_rational == Fraction(1, 1 << b)


def test_exact_b1_m1():
    # leaf collision or one level: 1/2 + (1/2)(1/2)
    assert exact_falsification_prob(PathParams(1, 1)).exact_rational == Fraction(3, 4)


def test_exact_2_10():
    p = exact_falsification_prob(PathParams(2, 10))
    assert p.exact_rational == Fraction(4017157, 4194304)
    assert float(p.value) == pytest.approx(0.9577648639678955, rel=1e-15)


def test_exact_10_10_decimal():
    p = exact_falsification_prob(PathParams(10, 10))
    with mpmath.workdps(45):
        assert abs(p.value - mpf(EXACT_10_10_DECIMAL)) < mpf(10) ** -38
    assert p.exact_rational == closed_form_rational(10, 10)


def test_rational_presence_boundary():
    assert exact_falsification_prob(PathParams(256, 15)).exact_rational is not None
    assert exact_falsification_prob(PathParams(256, 16)).exact_rational is None
    assert exact_falsification_prob(PathParams(2, 1000)).exact_rational is not None
    assert exact_falsification_prob(PathParams(2, 2048)).exact_rational is None


def test_exact_rational_agrees_with_value():
    for b, m in ((1, 3), (5, 40), (11, 100), (16, 250)):
        p = exact_falsification_prob(PathParams(b, m))
        r = p.exact_rational
        with mpmath.workdps(70):
            gap = abs(p.value - mpf(r.numerator) / mpf(r.denominator))
            assert gap < mpf(10) ** -60


def test_termsum_hand_values():
    assert exact_falsification_prob_termsum(PathParams(1, 1)).exact_rational == Fraction(3, 4)
    # 1/4 + (3/4)(1/4) + (9/16)(1/4)
    assert exact_falsification_prob_termsum(PathParams(2, 2)).exact_rational == Fraction(37, 64)


def test_termsum_guard():
    with pytest.raises(ValueError):
        exact_falsification_prob_termsum(PathParams(17, 10))
    with pytest.raises(ValueError):
        exact_falsification_prob_termsum(PathParams(4, 4097))
    exact_falsification_prob_termsum(PathParams(16, 4096))


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=80))
@settings(max_examples=60, deadline=None)
def test_termsum_identity_property(b, m):
    assert exact_falsification_prob_termsum(PathParams(b, m)).exact_rational == closed_form_rational(b, m)


@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=120))
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
    with mpmath.workdps(80):
        gap = abs(got.value - mpf(total.numerator) / mpf(total.denominator))
    assert gap < mpf(10) ** -60


def test_approx_m0_cancellation_exact():
    for b in (1, 8, 52, 64):
        approx = approx_falsification_prob(PathParams(b, 0))
        assert approx.value == mpf(2) ** -b
        assert approx.exact_rational is None


def test_approx_2_10():
    p = approx_falsification_prob(PathParams(2, 10))
    # independent arrangement of the same expression
    with mpmath.workdps(80):
        expect = mpf(1) / 4 + mpmath.exp(mpf(-1) / 4) - mpmath.exp(mpf(-11) / 4)
        assert abs(p.value - expect) < mpf(10) ** -60
    assert float(p.value) == pytest.approx(0.96487292, abs=1e-8)


def test_approx_exceeds_one_for_small_bits():
    for m in (50, 100, 500, 1000):
        assert approx_falsification_prob(PathParams(2, m)).value > 1


def test_approx_2_1000_value():
    p = approx_falsification_prob(PathParams(2, 1000))
    assert float(p.value) == pytest.approx(1.02880078307, rel=1e-11)


def test_diff_table_default_shape():
    rows = diff_table()
    assert len(rows) == 25
    assert [ (r.params.bits, r.params.path_len) for r in rows ] == [
        (b, m) for b in DEFAULT_BITS for m in DEFAULT_PATH_LENS
    ]
    for row in rows:
        with mpmath.workdps(40):
            assert abs(row.abs_diff - abs(row.approx.value - row.exact.value)) < mpf(10) ** -30


def test_diff_table_spot_values():
    for cell in ((2, 10), (4, 50), (10, 10)):
        row = diff_table([cell[0]], [cell[1]])[0]
        reference = mpf(REFERENCE_DIFFS[cell])
        assert abs(float(row.abs_diff) / float(reference) - 1) <= 1e-10


def test_diff_table_zero_cell():
    row = diff_table([4], [0])[0]
    assert row.abs_diff == 0
    assert row.exact.exact_rational == Fraction(1, 16)


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
        lo = exact_falsification_prob(PathParams(b, m)).value
        hi = exact_falsification_prob(PathParams(b, m + 1)).value
        assert hi > lo


def test_monotonic_in_bits():
    for b, m in ((1, 10), (7, 1000), (63, 10**6)):
        wide = exact_falsification_prob(PathParams(b + 1, m)).value
        narrow = exact_falsification_prob(PathParams(b, m)).value
        assert wide < narrow


def test_range_invariant():
    # P can round to exactly 1.0 once the survival mass drops below the
    # working precision, so the upper bound is inclusive.
    for b, m in ((1, 0), (1, 10**6), (64, 0), (64, 10**6), (256, 10**6)):
        v = exact_falsification_prob(PathParams(b, m)).value
        assert 0 < v <= 1


def test_precision_stress_256_bits():
    p = exact_falsification_prob(PathParams(256, 10**6))
    with mpmath.workdps(80):
        first_order = (10**6 + 1) * mpf(2) ** -256
        assert p.value > 0
        assert abs(p.value / first_order - 1) <= mpf(10) ** -9


def test_probability_rational_decimal_crosscheck():
    # Fraction -> Decimal -> mpf path agrees with the log-domain evaluation
    p = exact_falsification_prob(PathParams(6, 33))
    r = p.exact_rational
    dec = Decimal(r.numerator) / Decimal(r.denominator)
    assert float(p.value) == pytest.approx(float(dec), rel=1e-15)
