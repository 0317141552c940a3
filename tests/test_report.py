import hashlib
import math
import xml.etree.ElementTree as ET
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp, mpf

from merkle_falsify import report, simulate
from merkle_falsify.figure import read_simulation_csv, render_figure
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
    simulation_row,
)
from merkle_falsify.simulate import ExperimentConfig, cell_statistics, run_grid


def _writer_row(bits, path_len, total_trials, matches, seed):
    """One CSV line as simulate writes it for these integers."""
    stats = cell_statistics(bits, path_len, total_trials, matches)
    return ",".join(simulation_row(bits, path_len, total_trials, matches, *stats, seed))


def test_format_sig_plain_values():
    assert format_sig(mpf("0.0625")) == "0.0625"
    assert format_sig(Fraction(487, 1000)) == "0.487"
    assert format_sig(Fraction(1, 16)) == "0.0625"
    assert format_sig(mpf(0)) == "0.0"


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


def test_format_sig_bit_precision_matches_digits():
    assert report._SIG_BITS == libmp.dps_to_prec(report.SIG_DIGITS + 10) == 93


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


def test_simulation_table_and_csv_roundtrip():
    cells = _small_grid()
    table = ReportTable.from_simulation(cells)
    assert table.header == SIMULATION_HEADER
    text = table.to_csv()
    rows = read_simulation_csv(text)
    assert len(rows) == 4
    for parsed, cell in zip(rows, cells):
        assert parsed["bits"] == cell.config.bits
        assert parsed["path_len"] == cell.config.path_len
        assert parsed["matches"] == cell.matches
        assert parsed["total_trials"] == cell.total_trials
        assert parsed["empirical_p"] == pytest.approx(cell.empirical_p, rel=1e-15)
        assert parsed["exact_p"] == pytest.approx(cell.exact_p, rel=1e-15)
        assert parsed["seed"] == 4


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
    assert read_simulation_csv(header + "\n" + body + "\n")[0]["total_trials"] == 20
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
    matches = int(matches_frac * total_trials)
    config = ExperimentConfig(
        bits=bits, path_len=path_len, trials_per_experiment=total_trials,
        num_experiments=1, master_seed=seed,
    )
    text = ReportTable.from_simulation([simulate._finalize_cell(config, matches)]).to_csv()
    [row] = read_simulation_csv(text)
    assert (row["bits"], row["path_len"], row["total_trials"], row["matches"], row["seed"]) == (
        bits, path_len, total_trials, matches, seed
    )
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
    rows = read_simulation_csv(ReportTable.from_simulation([cell]).to_csv())
    svg = render_figure(rows)
    assert svg.count('class="marker"') == 1
    assert svg.count('class="curve"') == 1
    assert svg.count('class="band"') == 1
    assert ">b=1</text>" in svg
    ET.fromstring(svg)  # well-formed, self-contained


def test_render_grid_structure():
    cells = _small_grid()
    rows = read_simulation_csv(ReportTable.from_simulation(cells).to_csv())
    svg = render_figure(rows)
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
    rows = read_simulation_csv(ReportTable.from_simulation([cell]).to_csv())
    svg = render_figure(rows)
    assert svg.count('class="marker"') == 1
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
