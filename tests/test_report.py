import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from mpmath import mpf

from merkle_falsify.figure import read_simulation_csv, render_figure
from merkle_falsify.probability import PathParams, approximation_error, diff_table
from merkle_falsify.report import (
    SIMULATION_HEADER,
    TABLE_HEADER,
    ReportTable,
    format_sig,
)
from merkle_falsify.simulate import ExperimentConfig, run_grid


def test_format_sig_plain_values():
    assert format_sig(mpf("0.0625")) == "0.0625"
    assert format_sig(Fraction(487, 1000)) == "0.487"
    assert format_sig(Fraction(1, 16)) == "0.0625"
    assert format_sig(mpf(0)) == "0.0"


def test_format_sig_17_digits():
    from merkle_falsify.probability import exact_falsification_prob

    value = exact_falsification_prob(PathParams(2, 10)).value
    assert format_sig(value) == "0.95776486396789551"


def test_format_sig_small_values_use_exponent():
    out = format_sig(mpf("4.71585051471136e-6"))
    assert "e-6" in out
    assert float(out) == pytest.approx(4.71585051471136e-6, rel=1e-14)


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
    # parseable but impossible rows: non-finite floats, no trials, matches
    # outside 0..total_trials, bits outside 1..256, negative path_len, and an
    # empirical_p that is not matches / total_trials (columns: 0 bits,
    # 1 path_len, 2 total_trials, 3 matches, 4-7 floats)
    impossible = [{k: v} for k in (4, 5, 6, 7) for v in ("nan", "inf", "-inf")]
    impossible += [{2: "0", 3: "0"}, {2: "-1", 3: "0"}, {3: "-1"}, {3: "21"}]
    impossible += [{0: "0"}, {0: "257"}, {0: "1100"}, {1: "-1"}]
    impossible += [{3: "1", 4: "0.9"}, {3: "1", 4: "0.050000000000001"}, {3: "0", 4: "1e-300"}]
    for fields in impossible:
        broken = body.split(",")
        for k, v in fields.items():
            broken[k] = v
        with pytest.raises(ValueError, match="row 1 "):
            read_simulation_csv(header + "\n" + ",".join(broken) + "\n")
    assert read_simulation_csv(header + "\n" + body + "\n")[0]["total_trials"] == 20


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
