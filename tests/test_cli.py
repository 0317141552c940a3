import json
import tracemalloc

import pytest

from merkle_falsify.cli import main
from merkle_falsify.simulate import MAX_DRAW_BYTES

from frozen_values import SHA_ABC_HEX


def test_prob_exact(capsys):
    assert main(["prob", "exact", "--bits", "2", "--path-len", "10"]) == 0
    assert capsys.readouterr().out.strip() == "0.95776486396789551"


def test_prob_exact_m0(capsys):
    assert main(["prob", "exact", "--bits", "4", "--path-len", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0.0625"


def test_prob_diff(capsys):
    assert main(["prob", "diff", "--bits", "2", "--path-len", "10"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.00710805789680180, rel=1e-10)


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
    flag = tmp_path / "flag.csv"
    env = tmp_path / "env.csv"
    args = ["simulate", "--bits", "3", "--path-lens", "2", "--trials", "150", "--experiments", "1"]
    assert main(args + ["--seed", "77", "--output", str(flag)]) == 0
    monkeypatch.setenv("MERKLE_FALSIFY_SEED", "77")
    assert main(args + ["--output", str(env)]) == 0
    capsys.readouterr()
    assert flag.read_bytes() == env.read_bytes()
    monkeypatch.setenv("MERKLE_FALSIFY_SEED", "abc")
    assert main(args) == 2
    capsys.readouterr()


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
