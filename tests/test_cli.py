import json
import tracemalloc

import pytest

from merkle_falsify import cli, hashing, simulate
from merkle_falsify.cli import build_parser, main
from merkle_falsify.hashing import HashSpec
from merkle_falsify.simulate import MAX_DRAW_BYTES, ExperimentConfig

from frozen_values import SHA_ABC_HEX


@pytest.mark.parametrize(
    "bits, path_len, want",
    [
        pytest.param("2", "10", "0.95776486396789551", id="2-10"),
        # binary magnitude past 3500: format_sig leaves these to libmp.to_str
        pytest.param("100000", "1", "2.0019978075973883e-30103", id="100000-1"),
        pytest.param("1000000000", "3", "8.671191870467736e-301029996", id="1000000000-3"),
        # on format_sig's integer path, with 10^925 as its power of ten
        pytest.param("3000", "5", "4.8771291753346413e-903", id="3000-5"),
    ],
)
def test_prob_exact(capsys, bits, path_len, want):
    assert main(["prob", "exact", "--bits", bits, "--path-len", path_len]) == 0
    assert capsys.readouterr().out.strip() == want


def test_prob_exact_m0(capsys):
    assert main(["prob", "exact", "--bits", "4", "--path-len", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0.0625"


def test_prob_diff(capsys):
    assert main(["prob", "diff", "--bits", "2", "--path-len", "10"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.00710805789680180, rel=1e-10)


def test_prob_diff_m0(capsys):
    # both forms are 2^-64 exactly, so their difference is 0
    assert main(["prob", "diff", "--bits", "64", "--path-len", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0.0"


def test_prob_approx(capsys):
    assert main(["prob", "approx", "--bits", "2", "--path-len", "1000"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.02880078307, rel=1e-10)


def test_prob_usage_errors(capsys):
    assert main(["prob", "exact", "--bits", "x", "--path-len", "1"]) == 2
    assert main(["prob", "exact", "--path-len", "1"]) == 2
    assert main(["prob", "exact", "--bits", "0", "--path-len", "1"]) == 2
    assert main(["prob", "nope", "--bits", "2", "--path-len", "1"]) == 2
    capsys.readouterr()


def test_table_defaults(capsys):
    assert main(["table"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "b,m,exact,approx,abs_diff"
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[:2] == ["2", "10"]
    assert float(first[4]) == pytest.approx(0.00710805789680180, rel=1e-10)


def test_table_markdown_and_file(tmp_path, capsys):
    out = tmp_path / "t.md"
    assert main(["table", "--bits", "10", "--path-lens", "10", "--format", "md", "--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("| b | m |")
    assert "| 10 | 10 |" in text
    assert capsys.readouterr().out == ""


def test_table_bad_lists(capsys):
    assert main(["table", "--bits", "2,zz"]) == 2
    assert main(["table", "--bits", ""]) == 2
    capsys.readouterr()
    assert main(["table", "--bits", "2,2"]) == 2
    assert "bits 2 appears more than once" in capsys.readouterr().err
    for text in ("2,,4", "2,4,", ",2"):
        assert main(["table", "--bits", text]) == 2
        err = capsys.readouterr().err
        assert f"--bits must be a comma-separated list of integers: {text!r}" in err


def test_simulate_repeated_grid_values(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    common = ["--trials", "10", "--experiments", "1", "--output", str(out)]
    assert main(["simulate", "--bits", "2,2", "--path-lens", "10", *common]) == 2
    assert "bits 2 appears more than once" in capsys.readouterr().err
    assert main(["simulate", "--bits", "2", "--path-lens", "10,10", *common]) == 2
    assert "path_len 10 appears more than once" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_trials_cap(tmp_path, capsys):
    # refused before any draw: no CSV, and no 64 MB of draw arrays
    out = tmp_path / "sim.csv"
    tracemalloc.start()
    try:
        rc = main([
            "simulate", "--bits", "2", "--path-lens", "1", "--experiments", "1",
            # 64 draw bytes per trial at simulate.DATA_LENGTH = 16
            "--trials", str(MAX_DRAW_BYTES // 64 + 1), "--output", str(out),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "--experiments" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 1 << 20


def test_simulate_small_grid(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--bits", "1", "--path-lens", "0", "--trials", "1000",
        "--experiments", "1", "--oracle", "ideal", "--seed", "42",
        "--output", str(out),
    ])
    assert rc == 0
    status = capsys.readouterr().out
    assert "PASS" in status and "FAIL" not in status
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "bits,path_len,total_trials,matches,empirical_p,exact_p,std_error,z_score,seed"
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[2] == "1000" and fields[8] == "42"
    assert abs(float(fields[4]) - 0.5) < 0.079


def test_simulate_stdout_csv(capsys):
    rc = main(["simulate", "--bits", "2", "--path-lens", "0", "--trials", "200", "--experiments", "1", "--seed", "1"])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("bits,path_len,")
    assert "PASS" in captured.err


def test_simulate_determinism(tmp_path, capsys):
    args = [
        "simulate", "--bits", "2,6", "--path-lens", "0,4", "--trials", "300",
        "--experiments", "2", "--seed", "11",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b), "--workers", "2"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_simulate_env_seed(tmp_path, capsys, monkeypatch):
    # the seed comes from --seed alone: an environment variable that once
    # set it changes nothing, and a run without --seed records seed 0
    args = ["simulate", "--bits", "3", "--path-lens", "2", "--trials", "150", "--experiments", "1"]
    plain = tmp_path / "plain.csv"
    env = tmp_path / "env.csv"
    assert main(args + ["--output", str(plain)]) == 0
    for value in ("77", "abc"):
        monkeypatch.setenv("MERKLE_FALSIFY_SEED", value)
        assert main(args + ["--output", str(env)]) == 0
        assert env.read_bytes() == plain.read_bytes()
    assert env.read_text().splitlines()[1].rsplit(",", 1)[1] == "0"
    capsys.readouterr()


def test_parser_defaults_are_the_librarys():
    parser = build_parser()
    args = parser.parse_args(["simulate"])
    for name, dest in (
        ("trials_per_experiment", "trials"),
        ("num_experiments", "experiments"),
        ("oracle_kind", "oracle"),
        ("sibling_mode", "siblings"),
        ("master_seed", "seed"),
    ):
        assert getattr(args, dest) == getattr(ExperimentConfig, name), name
    for argv in (["merkle", "build", "in.txt"], ["merkle", "prove", "in.txt", "--index", "0"]):
        assert parser.parse_args(argv).bits == HashSpec().bits
    (commands,) = (a for a in parser._actions if a.dest == "command")
    choices = {a.dest: a.choices for a in commands.choices["simulate"]._actions}
    assert choices["oracle"] is hashing._ALGORITHMS
    assert choices["siblings"] is simulate._SIBLING_MODES


def test_shared_parser_keeps_calls_apart(tmp_path, capsys):
    # one parser serves every call in a process, so nothing a call parses may
    # reach the next: a usage error and another command between two equal
    # runs leave their CSVs byte-identical, and each call's --seed is its own
    assert build_parser() is build_parser()
    args = ["simulate", "--bits", "3,6", "--path-lens", "0,5", "--trials", "120", "--experiments", "2"]
    first, again, other = (tmp_path / f"{name}.csv" for name in ("first", "again", "other"))
    assert main(args + ["--seed", "9", "--output", str(first)]) == 0
    assert main(["simulate", "--trials", "many"]) == 2
    assert main(["figure", str(first), "--output", str(tmp_path / "fig.svg")]) == 0
    assert main(args + ["--seed", "9", "--output", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert main(args + ["--seed", "10", "--output", str(other)]) == 0
    seeds = {line.rsplit(",", 1)[1] for line in other.read_text().splitlines()[1:]}
    assert seeds == {"10"}
    capsys.readouterr()


def test_simulate_saturated_shortfall_fails(tmp_path, monkeypatch, capsys):
    # P rounds to 1 at (2, 1000); a cell one match short of its trials is a
    # FAIL with z = -inf, and figure accepts the row simulate writes for it
    def short_grid(configs, workers=1):
        return [
            simulate.CellResult(c.bits, c.path_len, c.total_trials, c.total_trials - 1, c.master_seed)
            for c in configs
        ]

    monkeypatch.setattr(cli, "run_grid", short_grid)
    sim = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--bits", "2", "--path-lens", "1000", "--trials", "100",
        "--experiments", "1", "--output", str(sim),
    ])
    assert rc == 1
    status = capsys.readouterr().out
    assert "matches=99/100" in status and "z=-inf FAIL" in status
    assert sim.read_text().splitlines()[1].split(",")[7] == "-inf"
    assert main(["figure", str(sim), "--output", str(tmp_path / "fig.svg")]) == 0
    assert (tmp_path / "fig.svg").read_text().startswith("<svg")


def test_simulate_truncated_flag(capsys):
    rc = main([
        "simulate", "--bits", "8", "--path-lens", "3", "--trials", "200",
        "--experiments", "1", "--siblings", "truncated", "--seed", "2",
    ])
    assert rc == 0
    capsys.readouterr()


def test_merkle_build_reference(tmp_path, capsys):
    blocks = tmp_path / "blocks.txt"
    blocks.write_bytes(b"abc\n")
    assert main(["merkle", "build", str(blocks)]) == 0
    assert capsys.readouterr().out.strip() == SHA_ABC_HEX


def test_merkle_prove_verify_roundtrip(tmp_path, capsys):
    blocks = tmp_path / "blocks.txt"
    blocks.write_bytes(b"alpha\nbeta\ngamma\n")
    assert main(["merkle", "build", str(blocks)]) == 0
    root = capsys.readouterr().out.strip()

    proof = tmp_path / "proof.json"
    assert main(["merkle", "prove", str(blocks), "--index", "2", "--output", str(proof)]) == 0
    parsed = json.loads(proof.read_text())
    assert parsed["version"] == 1 and parsed["leaf_index"] == 2

    block = tmp_path / "block.txt"
    block.write_bytes(b"gamma")
    assert main(["merkle", "verify", "--block", str(block), "--proof", str(proof), "--root", root]) == 0
    assert capsys.readouterr().out.strip() == "OK"

    # a trailing newline on the block file is tolerated
    block.write_bytes(b"gamma\n")
    assert main(["merkle", "verify", "--block", str(block), "--proof", str(proof), "--root", root]) == 0
    capsys.readouterr()

    block.write_bytes(b"gamma!")
    assert main(["merkle", "verify", "--block", str(block), "--proof", str(proof), "--root", root]) == 1
    assert capsys.readouterr().out.strip() == "MISMATCH"


def test_merkle_truncated_tree_cli(tmp_path, capsys):
    blocks = tmp_path / "blocks.txt"
    blocks.write_bytes(b"a\nb\n")
    assert main(["merkle", "build", str(blocks), "--bits", "12"]) == 0
    root = capsys.readouterr().out.strip()
    assert len(root) == 4  # two bytes of hex
    proof = tmp_path / "p.json"
    assert main(["merkle", "prove", str(blocks), "--index", "0", "--bits", "12", "--output", str(proof)]) == 0
    block = tmp_path / "d.txt"
    block.write_bytes(b"a")
    assert main(["merkle", "verify", "--block", str(block), "--proof", str(proof), "--root", root]) == 0
    capsys.readouterr()


def test_merkle_error_paths(tmp_path, capsys):
    blocks = tmp_path / "blocks.txt"
    blocks.write_bytes(b"a\nb\n")
    assert main(["merkle", "prove", str(blocks), "--index", "5"]) == 2
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    assert main(["merkle", "build", str(empty)]) == 2
    assert main(["merkle", "build", str(tmp_path / "missing.txt")]) == 2

    proof = tmp_path / "proof.json"
    assert main(["merkle", "prove", str(blocks), "--index", "0", "--output", str(proof)]) == 0
    block = tmp_path / "d.txt"
    block.write_bytes(b"a")
    good_root = "00" * 32
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["merkle", "verify", "--block", str(block), "--proof", str(bad), "--root", good_root]) == 2
    assert main(["merkle", "verify", "--block", str(block), "--proof", str(proof), "--root", "zz"]) == 2
    capsys.readouterr()
    # nested past the JSON parser's recursion limit: bad input, not a crash
    bad.write_text("[" * 100_000)
    assert main(["merkle", "verify", "--block", str(block), "--proof", str(bad), "--root", good_root]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: proof is not valid JSON: ")
    assert "Traceback" not in captured.err


def test_merkle_verify_relabelled_proof_is_bad_input(tmp_path, capsys):
    # a proof file whose leaf_index contradicts its sides is malformed input
    # (exit 2), not a failed verification (exit 1)
    blocks = tmp_path / "blocks.txt"
    blocks.write_bytes(b"a\nb\n")
    assert main(["merkle", "build", str(blocks)]) == 0
    root = capsys.readouterr().out.strip()
    proof = tmp_path / "proof.json"
    assert main(["merkle", "prove", str(blocks), "--index", "0", "--output", str(proof)]) == 0
    obj = json.loads(proof.read_text())
    obj["leaf_index"] = 1
    proof.write_text(json.dumps(obj))
    block = tmp_path / "d.txt"
    block.write_bytes(b"a")
    assert main(["merkle", "verify", "--block", str(block), "--proof", str(proof), "--root", root]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "proof sides spell leaf_index 0 over 1 steps, not the claimed 1" in captured.err


def test_merkle_verify_root_hex_is_exact(tmp_path, capsys):
    # --root must be exactly the root's hex digits, in either case: text
    # with whitespace around or inside it is bad input (exit 2)
    blocks = tmp_path / "blocks.txt"
    blocks.write_bytes(b"a\nb\n")
    assert main(["merkle", "build", str(blocks), "--bits", "16"]) == 0
    root = capsys.readouterr().out.strip()
    proof = tmp_path / "proof.json"
    assert main(["merkle", "prove", str(blocks), "--index", "1", "--bits", "16", "--output", str(proof)]) == 0
    block = tmp_path / "d.txt"
    block.write_bytes(b"b")
    verify = ["merkle", "verify", "--block", str(block), "--proof", str(proof), "--root"]
    assert main(verify + [root.upper()]) == 0
    capsys.readouterr()
    for loose in (f" {root}\t", f"{root[:2]} {root[2:]}"):
        assert main(verify + [loose]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid hex digest {loose!r}: 16 bits take exactly 4 hex digits" in captured.err


def test_figure_cli(tmp_path, capsys):
    sim = tmp_path / "sim.csv"
    assert main([
        "simulate", "--bits", "2,4", "--path-lens", "1,8", "--trials", "150",
        "--experiments", "1", "--seed", "5", "--output", str(sim),
    ]) == 0
    svg = tmp_path / "fig.svg"
    assert main(["figure", str(sim), "--output", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count('class="curve"') == 2
    assert text.count('class="marker"') == 4
    capsys.readouterr()


def test_figure_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    assert main(["figure", str(bad)]) == 2
    assert main(["figure", str(tmp_path / "none.csv")]) == 2
    # rows that parse but cannot come from a simulation: exit 2, no SVG
    header = "bits,path_len,total_trials,matches,empirical_p,exact_p,std_error,z_score,seed"
    for row in (
        "2,1,100,40,nan,0.4375,0.0496,-0.7,0",
        "2,1,100,40,0.4,0.4375,inf,-0.7,0",
        "2,1,100,101,1.01,0.4375,0.0496,11.4,0",
        "2,1,100,-1,-0.01,0.4375,0.0496,-9,0",
        "2,1,0,0,0,0.4375,0,0,0",
        "1100,1,100,0,0,0,0,0,0",
        "2,-1,100,40,0.4,0.4375,0.0496,-0.7,0",
        "2,1,100,1,0.9,0.4375,0.0496,9.3,0",
        # exact_p not the closed form (0.4375), std_error not
        # sqrt(p(1 - p) / 100) (0.049607837082461075)
        "2,1,100,44,0.44,0.9,0.0496,-0.7,0",
        "2,1,100,44,0.44,0.9,0.049607837082461075,-0.7,0",
        "2,1,100,44,0.44,0.4375,0.0496,0.05,0",
        "2,1,100,44,0.44,0.4375,0.5,0.005,0",
        # right exact_p and std_error, but z_score is not (0.44 - p) / std_error
        "2,1,100,44,0.44,0.4375,0.049607837082461075,0.05,0",
    ):
        bad.write_text(f"{header}\n{row}\n")
        svg = tmp_path / "bad.svg"
        assert main(["figure", str(bad), "--output", str(svg)]) == 2
        assert not svg.exists()
        assert "row 1 " in capsys.readouterr().err
    # a field past the csv module's size limit: bad input, not a crash
    bad.write_text(f"{header}\n2,1,100,44,{'4' * 200_000},0.4375,0.0496,0.05,0\n")
    assert main(["figure", str(bad), "--output", str(svg)]) == 2
    assert not svg.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: row 1 is not valid CSV: field larger than")
    assert "Traceback" not in err
    # the row as the emitter writes it draws
    good = "2,1,100,44,0.44,0.4375,0.049607837082461075,0.050395263067896962,0"
    bad.write_text(f"{header}\n{good}\n")
    assert main(["figure", str(bad), "--output", str(svg)]) == 0
    assert svg.read_text().count('class="band"') == 1
    capsys.readouterr()
    # writer rows that one simulate run cannot write together: the same cell
    # twice, then b=2, m=0 (p = 0.25) at another seed and at another total
    svg.unlink()
    for second in (
        good,
        "2,0,100,25,0.25,0.25,0.043301270189221933,0.0,1",
        "2,0,50,25,0.5,0.25,0.06123724356957945,4.0824829046386304,0",
    ):
        bad.write_text(f"{header}\n{good}\n{second}\n")
        assert main(["figure", str(bad), "--output", str(svg)]) == 2
        assert not svg.exists()
        assert "row 2 " in capsys.readouterr().err
    # writer rows of one run that are not the sorted bits x path_len grid
    sim = tmp_path / "sim.csv"
    assert main([
        "simulate", "--bits", "2,3", "--path-lens", "0,1", "--trials", "20",
        "--experiments", "1", "--output", str(sim),
    ]) == 0
    capsys.readouterr()
    head, r20, r21, r30, r31 = sim.read_text().splitlines()
    for rows, message in (
        ((r20, r21, r30), "no row for bits 3, path_len 1;"),
        ((r21, r20, r30, r31), "row 1 has bits 2, path_len 1 where simulate writes bits 2, path_len 0;"),
        ((r20, r21, r31, r30), "row 3 has bits 3, path_len 1 where simulate writes bits 3, path_len 0;"),
    ):
        bad.write_text("\n".join((head, *rows)) + "\n")
        assert main(["figure", str(bad), "--output", str(svg)]) == 2
        assert not svg.exists()
        assert message in capsys.readouterr().err
    bad.write_text("\n".join((head, r20, r21, r30, r31)) + "\n")
    assert main(["figure", str(bad), "--output", str(svg)]) == 0
    capsys.readouterr()


def test_unwritable_output(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.csv"
    assert main(["table", "--output", str(target)]) == 1
    capsys.readouterr()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
