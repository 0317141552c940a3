import csv
import hashlib
import math
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mpf

from merkle_falsify import report
from merkle_falsify.figure import render_figure
from merkle_falsify.probability import (
    PathParams,
    approx_falsification_prob,
    approximation_error,
    diff_table,
    exact_falsification_prob,
)
from merkle_falsify.report import (
    SIMULATION_HEADER,
    TABLE_HEADER,
    ReportTable,
    format_sig,
    read_simulation_csv,
    simulation_row,
)
from merkle_falsify.simulate import CellResult, ExperimentConfig, build_grid, run_grid


def _writer_row(bits, path_len, total_trials, matches, seed):
    """One CSV line as simulate writes it for these integers."""
    return ",".join(simulation_row(CellResult(bits, path_len, total_trials, matches, seed)))


def test_format_sig_plain_values():
    assert format_sig(mpf("0.0625")) == "0.0625"
    assert format_sig(Fraction(487, 1000)) == "0.487"
    assert format_sig(Fraction(1, 16)) == "0.0625"
    assert format_sig(mpf(0)) == "0.0"


@pytest.mark.parametrize(
    "value, name",
    [(3, "int"), (True, "bool"), ("0.5", "str"), (None, "NoneType"), (Decimal("0.5"), "Decimal")],
)
def test_format_sig_rejects_other_types(value, name):
    with pytest.raises(TypeError, match=f"an mpf, a Fraction or a float, got {name}$"):
        format_sig(value)


def test_format_sig_17_digits():
    from merkle_falsify.probability import exact_falsification_prob

    value = exact_falsification_prob(PathParams(2, 10))
    assert format_sig(value) == "0.95776486396789551"


def test_format_sig_small_values_use_exponent():
    out = format_sig(mpf("4.71585051471136e-6"))
    assert "e-6" in out
    assert float(out) == pytest.approx(4.71585051471136e-6, rel=1e-14)


def _nstr_at_27_digits(x) -> str:
    # mpmath's own conversion and printing under workdps(27)
    with mpmath.workdps(27):
        if isinstance(x, Fraction):
            x = mpf(x.numerator) / mpf(x.denominator)
        else:
            x = mpf(x)
        return mpmath.nstr(x, 17, strip_zeros=True)


def _mpf_72(n: int, d: int) -> mpf:
    with mpmath.workdps(72):
        return mpf(n) / d


_FORMAT_SIG_INPUTS = st.one_of(
    st.fractions(min_value=-(2**200), max_value=2**200, max_denominator=2**200),
    st.builds(Fraction, st.integers(1, 2**300), st.integers(1, 2**300)),
    st.floats(),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.builds(_mpf_72, st.integers(-(10**80), 10**80), st.integers(1, 10**80)),
)


@given(_FORMAT_SIG_INPUTS)
@example(Fraction(3**70, 5**50))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072009e-308)
@example(1.7976931348618157e308)
@example(0.1)
@example(mpmath.pi(dps=72))
# Inputs whose printed digits change unless each is rounded to 93 bits
# first: to_str reads 76 bits, and each lies just off a 76-bit point next
# to a 17-digit halfway.  The numerator, the denominator and the mpf are
# each such an input.
@example(Fraction(106677926831785015500000000000000000002908726, 3))
@example(Fraction(820511101124607325703503872, 2**119 + 2**26 - 1))
@example(_mpf_72(18656262480467542575377 * (2**100 - 1), 2**177))
@settings(max_examples=100, deadline=None)
def test_format_sig_matches_nstr_at_27_digits(x):
    assert format_sig(x) == _nstr_at_27_digits(x)


@st.composite
def _raw_mpfs(draw):
    bits = draw(st.integers(1, 300))
    man = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    mag = draw(st.integers(-3700, 500))  # exp + bc, across the 3500 cut
    return libmp.from_man_exp(-man if draw(st.booleans()) else man, mag - bits)


def _tie_at_18th_digit(prefix: int) -> tuple:
    # A 94-bit value exactly halfway between two 93-bit neighbours, with the
    # 18-digit boundary prefix·10 + 5 (times 10^43) between them: to_str
    # prints the two neighbours differently, so the tie's parity rule shows.
    k = (prefix * 10 + 5) * 10**43 >> 107
    return (0, 2 * k + 1, 106, 94)


@given(_raw_mpfs())
@example(libmp.from_man_exp(2**243 - 1, -243))  # carries to 2^93
@example(libmp.from_man_exp(-(2**243 - 1), 3500 - 243))  # carries past 3500
@example(libmp.from_man_exp(2**243 - 1, -3500 - 243))
@example(libmp.from_man_exp(3, -3502))
@example(libmp.from_man_exp(3, 3499))
@example((0, 2**93 + 1, -94, 94))  # ties: the even neighbour is below
@example((1, 2**93 + 3, -94, 94))  # the even neighbour is above
@example(_tie_at_18th_digit(10**16))  # even k: rounds down, prints 1.0e+60
@example(_tie_at_18th_digit(10**16 + 3))  # odd k: rounds up
# 20 digits 99999999999999999599999: the 18th digit carries to 10^17
@example(libmp.from_rational(10**18 - 4, 10**18, 93, libmp.round_nearest))
@example(libmp.from_rational(-(10**18 - 5), 10**18, 93, libmp.round_nearest))
# leading digit at 10^-5, 10^-4, 10^16 and 10^17: the fixed-point window's edges
@example(libmp.from_rational(15, 10**6, 93, libmp.round_nearest))
@example(libmp.from_rational(15, 10**5, 93, libmp.round_nearest))
@example(libmp.from_int(15 * 10**15))
@example(libmp.from_int(-(10**17)))
@example(libmp.fzero)
@example(libmp.finf)
@example(libmp.fninf)
@example(libmp.fnan)
@settings(max_examples=300, deadline=None)
def test_sig_str_matches_to_str(t):
    # mpmath's rounding and printing of a raw mpf, as format_sig did them
    want = libmp.to_str(libmp.mpf_pos(t, 93, libmp.round_nearest), 17, strip_zeros=True)
    assert report._sig_str(t) == want


def test_format_sig_calls_to_str_only_outside_the_integer_path(monkeypatch):
    calls = []
    to_str = libmp.to_str

    def recording_to_str(s, *args, **kwargs):
        calls.append(s)
        return to_str(s, *args, **kwargs)

    monkeypatch.setattr(libmp, "to_str", recording_to_str)
    for e in diff_table((1, 2, 32, 256, 3000), (0, 10)):
        for value in (e.exact, e.approx, e.abs_diff):
            if value:
                format_sig(value)
    format_sig(Fraction(1, 3))
    format_sig(0.1)
    assert calls == []
    # |exp + bc| is 3501 for 2^3500 and 2^-3502, past the cut, and for
    # 2^3500 - 2^3257 once it is rounded to 2^3500; it is 3500 for 2^3499
    # and 2^-3501, which stay on the integer path
    specials = [libmp.fzero, libmp.finf, libmp.fninf, libmp.fnan]
    for t in [
        libmp.from_man_exp(1, 3500),
        libmp.from_man_exp(1, -3502),
        libmp.from_man_exp(2**243 - 1, 3257),
        libmp.from_man_exp(1, 3499),
        libmp.from_man_exp(1, -3501),
        *specials,
    ]:
        format_sig(mpmath.mp.make_mpf(t))
    two_3500 = libmp.from_man_exp(1, 3500)
    assert calls == [two_3500, libmp.from_man_exp(1, -3502), two_3500, *specials]


def test_format_sig_bit_precision_matches_digits():
    assert report._SIG_BITS == libmp.dps_to_prec(report.SIG_DIGITS + 10) == 93
    # to_digits_exp's bits for the SIG_DIGITS + 3 digits to_str asks for
    assert report._DIGIT_BITS == int(20 * math.log(10, 2)) + 10 == 76


@pytest.mark.parametrize("caller_dps", [15, 200])
def test_caller_precision_changes_no_value(caller_dps):
    params = [PathParams(b, m) for b, m in ((2, 10), (78, 1486), (256, 10), (1, 10**18))]
    values = [mpf("0.1"), Fraction(2**95 + 1, 3), 0.1]

    def run():
        out = []
        for p in params:
            for value in (
                exact_falsification_prob(p),
                approx_falsification_prob(p),
                approximation_error(p).abs_diff,
            ):
                out.append((value._mpf_, format_sig(value)))
        out.extend(format_sig(v) for v in values)
        return out

    want = run()
    with mpmath.workdps(caller_dps):
        prec = mpmath.mp.prec
        assert run() == want
        assert mpmath.mp.prec == prec


def test_table_from_estimates_sorted():
    rows = [approximation_error(PathParams(b, m)) for (b, m) in ((4, 10), (2, 50), (2, 10))]
    table = ReportTable.from_estimates(rows)
    assert table.header == TABLE_HEADER
    assert [(r[0], r[1]) for r in table.rows] == [("2", "10"), ("2", "50"), ("4", "10")]


def test_table_csv_shape():
    table = ReportTable.from_estimates(diff_table())
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "b,m,exact,approx,abs_diff"
    assert len(lines) == 26
    assert lines[1].startswith("2,10,0.95776486396789551,")


def test_table_markdown_shape():
    table = ReportTable.from_estimates(diff_table([2], [10]))
    lines = table.to_markdown().strip().split("\n")
    assert lines[0].startswith("| b | m |")
    assert set(lines[1].replace("|", "").split()) == {"---"}
    assert len(lines) == 3


def _small_grid():
    configs = [
        ExperimentConfig(bits=b, path_len=m, trials_per_experiment=60, num_experiments=2, master_seed=4)
        for b in (3, 5)
        for m in (0, 6)
    ]
    return run_grid(configs)


@pytest.mark.parametrize(
    "common, workers",
    [({}, 1), ({"oracle_kind": "ideal"}, 2), ({"sibling_mode": "truncated"}, 1)],
    ids=["sha256-wide", "ideal-2-workers", "truncated"],
)
def test_simulation_table_and_csv_roundtrip(common, workers):
    # the grid runs in reverse order, so the CSV's sort shows in the result
    configs = build_grid(
        [3, 5], [0, 6], trials_per_experiment=60, num_experiments=2, master_seed=4, **common
    )
    cells = run_grid(configs[::-1], workers=workers)
    table = ReportTable.from_simulation(cells)
    assert table.header == SIMULATION_HEADER
    assert read_simulation_csv(table.to_csv()) == sorted(cells, key=lambda c: (c.bits, c.path_len))


def test_read_simulation_csv_rejects_malformed():
    good = ReportTable.from_simulation(
        run_grid([ExperimentConfig(bits=2, path_len=0, trials_per_experiment=20, num_experiments=1)])
    ).to_csv()
    with pytest.raises(ValueError):
        read_simulation_csv("")
    with pytest.raises(ValueError):
        read_simulation_csv("a,b,c\n1,2,3\n")
    header = good.split("\n")[0]
    with pytest.raises(ValueError):
        read_simulation_csv(header + "\n")  # no data rows
    with pytest.raises(ValueError):
        read_simulation_csv(header + "\n1,2,3\n")  # wrong arity
    body = good.split("\n")[1]
    broken = body.split(",")
    broken[4] = "not-a-number"
    with pytest.raises(ValueError):
        read_simulation_csv(header + "\n" + ",".join(broken) + "\n")
    # parseable rows that simulate cannot write: integers out of range or not
    # written canonically, and float fields that are not the writer's text
    # for the row's integers (columns: 0 bits, 1 path_len, 2 total_trials,
    # 3 matches, 4 empirical_p, 5 exact_p, 6 std_error, 7 z_score, 8 seed);
    # at b=2, m=0, T=20, p = 0.25
    z_score = body.split(",")[7]
    impossible = [{k: v} for k in (4, 5, 6, 7) for v in ("nan", "inf", "-inf")]
    impossible += [{2: "0", 3: "0"}, {2: "-1", 3: "0"}, {3: "-1"}, {3: "21"}]
    impossible += [{0: "0"}, {0: "257"}, {0: "1100"}, {1: "-1"}]
    impossible += [{8: "-1"}, {8: "18446744073709551616"}]
    impossible += [{0: "+2"}, {0: "02"}, {0: " 2"}, {2: "2_0"}]
    impossible += [{3: "1", 4: "0.9"}, {3: "1", 4: "0.050000000000001"}, {3: "0", 4: "1e-300"}]
    impossible += [{5: "0.9"}, {5: "0.25000000001"}, {5: "0"}, {5: "0.250"}, {1: "1"}, {0: "3"}]
    impossible += [{6: "0.0968"}, {6: "0"}, {6: "0.09682458366"}, {2: "40", 3: "0", 4: "0"}]
    impossible += [{7: "0.05"}, {7: z_score[:-1] + str((int(z_score[-1]) + 1) % 10)}]
    for fields in impossible:
        broken = body.split(",")
        for k, v in fields.items():
            broken[k] = v
        with pytest.raises(ValueError, match="row 1 "):
            read_simulation_csv(header + "\n" + ",".join(broken) + "\n")
    assert read_simulation_csv(header + "\n" + body + "\n")[0].total_trials == 20
    assert body.split(",")[5:7] == ["0.25", "0.096824583655185426"]
    # rows that simulate writes one at a time but never together: a repeated
    # cell, and a seed or total_trials other than the first row's
    seed = int(body.split(",")[8])
    assert body == _writer_row(2, 0, 20, int(body.split(",")[3]), seed)
    for second in (
        body,
        _writer_row(2, 0, 20, 0, seed),
        _writer_row(2, 1, 20, 5, seed + 1),
        _writer_row(2, 1, 40, 5, seed),
    ):
        with pytest.raises(ValueError, match="row 2 "):
            read_simulation_csv(f"{header}\n{body}\n{second}\n")
    assert len(read_simulation_csv(f"{header}\n{body}\n{_writer_row(2, 1, 20, 5, seed)}\n")) == 2


def test_read_simulation_csv_messages():
    # the reader's messages name the row, the header being row 0, and a
    # cell's range check under the row's number
    header = ",".join(SIMULATION_HEADER)
    body = _writer_row(2, 0, 20, 8, 0)
    big = "x" * (csv.field_size_limit() + 1)
    cases = [
        ("", "empty CSV"),
        (header + "\n\n", "CSV has no data rows"),
        (f"{big}\n{body}\n", "row 0 is not valid CSV: field larger than field limit (131072)"),
        (f"{header}\n{body}\n{big}\n", "row 2 is not valid CSV: field larger than field limit (131072)"),
        (f"{header}\n\n1,2\n", "row 2 has 2 fields, want 9"),
        (f"{header}\nx{body[1:]}\n", "row 1 is not numeric: invalid literal for int() with base 10: 'x'"),
        (f"{header}\n{body.replace('20', '0', 1)}\n", "row 1 total_trials must be an integer >= 1, got 0"),
        (f"{header}\n{body.replace('8', '21', 1)}\n", "row 1 matches must be an integer in 0..20, got 21"),
        (f"{header}\n257{body[1:]}\n", "row 1 bits must be an integer in 1..256, got 257"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError) as info:
            read_simulation_csv(text)
        assert str(info.value) == message


@given(
    bits=st.integers(min_value=1, max_value=256),
    path_len=st.integers(min_value=0, max_value=10**9),
    total_trials=st.integers(min_value=1, max_value=10**9),
    matches_frac=st.fractions(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    changed=st.sampled_from(("empirical_p", "exact_p", "std_error", "z_score")),
)
@settings(max_examples=60, deadline=None)
def test_read_simulation_csv_accepts_exactly_the_writers_rows(
    bits, path_len, total_trials, matches_frac, seed, changed
):
    cell = CellResult(bits, path_len, total_trials, int(matches_frac * total_trials), seed)
    text = ReportTable.from_simulation([cell]).to_csv()
    assert read_simulation_csv(text) == [cell]
    # the nearest float above the written value is a different row
    header, line = text.splitlines()
    fields = line.split(",")
    col = SIMULATION_HEADER.index(changed)
    fields[col] = repr(math.nextafter(float(fields[col]), math.inf))
    with pytest.raises(ValueError, match=f"row 1 has {changed} "):
        read_simulation_csv(header + "\n" + ",".join(fields) + "\n")


def test_render_single_cell_structure():
    [cell] = run_grid(
        [ExperimentConfig(bits=1, path_len=0, trials_per_experiment=100, num_experiments=1, oracle_kind="ideal")]
    )
    svg = render_figure(read_simulation_csv(ReportTable.from_simulation([cell]).to_csv()))
    assert svg.count('class="marker"') == 1
    assert svg.count('class="curve"') == 1
    assert svg.count('class="band"') == 1
    assert ">b=1</text>" in svg
    ET.fromstring(svg)  # well-formed, self-contained


def test_render_grid_structure():
    svg = render_figure(read_simulation_csv(ReportTable.from_simulation(_small_grid()).to_csv()))
    assert svg.count('class="curve"') == 2  # one per distinct bit width
    assert svg.count('class="marker"') == 4
    assert svg.count('class="legend"') == 2
    ET.fromstring(svg)


def test_render_handles_zero_empirical():
    # a cell with zero matches must still plot (clamped to the axis floor)
    [cell] = run_grid(
        [ExperimentConfig(bits=60, path_len=0, trials_per_experiment=10, num_experiments=1)]
    )
    assert cell.matches == 0
    svg = render_figure(read_simulation_csv(ReportTable.from_simulation([cell]).to_csv()))
    assert svg.count('class="marker"') == 1
    ET.fromstring(svg)
    # a cell whose every plotted value is 1 still gets a decade of axis
    svg = render_figure([CellResult(1, 1000, 100, 100, 0)])
    assert svg.count('class="marker"') == 1
    assert ">1e-1</text>" in svg and ">1</text>" in svg
    ET.fromstring(svg)


def test_render_rejects_empty():
    with pytest.raises(ValueError):
        render_figure([])


def test_render_pinned_svg():
    # 3 widths x 4 path lengths; the digest was taken before the curve moved
    # from 64-digit to double-precision samples, which must draw the same SVG
    T = 4000
    lines = [",".join(SIMULATION_HEADER)]
    for bits, matches in ((3, (480, 2600, 3990, 4000)), (10, (3, 40, 1500, 4000)), (20, (0, 0, 4, 3800))):
        for m, k in zip((0, 30, 2000, 10**7), matches):
            lines.append(_writer_row(bits, m, T, k, 7))
    svg = render_figure(read_simulation_csv("\n".join(lines) + "\n"))
    assert svg.count('class="curve"') == 3 and svg.count('class="marker"') == 12
    digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
    assert digest == "df422b9a982e81e20c40e07095459db1593ded474a8b1ff4e6ece78d32e79606"
