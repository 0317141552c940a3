import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import merkle_falsify
from merkle_falsify import (
    Digest,
    ExperimentConfig,
    HashSpec,
    PathParams,
    cli,
    probability,
    proof_from_json,
    report,
    run_grid,
)

ROOT = Path(__file__).resolve().parent.parent


def test_package_all_resolves():
    # every exported name exists, once, and a star import binds all of them
    names = merkle_falsify.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(merkle_falsify, name)]
    assert missing == []
    namespace = {}
    exec("from merkle_falsify import *", namespace)
    assert set(names) <= namespace.keys()


def test_bench_span_targets_resolve(monkeypatch):
    # A traced benchmark run wraps each (owner, attribute) a workload names;
    # a name the package no longer binds fails there with KeyError.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    for workload in workloads.WORKLOADS.values():
        for owner, attr, _ in workload.span_targets():
            assert attr in vars(owner), (workload.name, owner.__name__, attr)


def test_bench_oracle_count_sees_every_query(monkeypatch):
    # A traced benchmark run counts ideal-oracle queries by wrapping
    # OracleState.value64 after import, so every ideal node hash must go
    # through that method, looked up when a kernel is bound.
    from merkle_falsify import hashing, merkle, simulate

    calls = {"value64": 0, "sha256": 0}
    real_value64 = hashing.OracleState.value64
    real_sha256 = hashing._sha256

    def value64(self, data):
        calls["value64"] += 1
        return real_value64(self, data)

    def sha256(data=b""):
        calls["sha256"] += 1
        return real_sha256(data)

    monkeypatch.setattr(hashing.OracleState, "value64", value64)
    monkeypatch.setattr(hashing, "_sha256", sha256)

    node = hashing.node_fn(HashSpec(hashing.IDEAL, 10, seed=3))
    for data in (b"a", b"b", b"a"):
        node(data)
    assert calls["value64"] == 3

    calls["value64"] = 0
    merkle.build_tree([bytes([i]) for i in range(8)], HashSpec(hashing.IDEAL, 10, seed=3))
    assert calls["value64"] == 15

    # the benchmark's ideal.sha256_is_seeds_plus_misses identity at unit
    # scale: one SHA-256 node hash per oracle query (the seed derivations
    # go through hashlib, not the kernel's constructor)
    calls.update(value64=0, sha256=0)
    config = ExperimentConfig(
        bits=6, path_len=5, trials_per_experiment=50, num_experiments=1, oracle_kind="ideal"
    )
    simulate.run_experiment(config, 0)
    assert calls["value64"] == calls["sha256"] > 0


# Runs in a fresh interpreter: this test module's own imports (numpy among
# them, through the simulation call below) would hide a module that the
# package loads too early.
_IMPORT_BOUNDARY = r'''
import concurrent.futures
import contextlib
import io
import os
import sys
import traceback

import merkle_falsify
from merkle_falsify import cli, figure, hashing, merkle, probability, report, simulate

tmp, sim_csv = sys.argv[1:]


def heavy():
    return [name for name in ("numpy", "concurrent.futures.process") if name in sys.modules]


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue()


def in_fork(check):
    """Exit code of check() run in a forked copy of this interpreter."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            check()
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)  # the child never runs the rest of this script
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def path(name):
    return os.path.join(tmp, name)


assert heavy() == [], heavy()
assert "mpmath" not in sys.modules
# The parser is built by the first main call, not at import.
assert cli.build_parser.cache_info().currsize == 0
with open(path("blocks.txt"), "w") as fh:
    fh.write("a\nb\nc\n")
with open(path("block.txt"), "w") as fh:
    fh.write("b\n")
# The tree commands compute no probability, so they run before the first one.
root = run("merkle", "build", path("blocks.txt"), "--bits", "12").split()[-1]
run("merkle", "prove", path("blocks.txt"), "--index", "1", "--bits", "12", "--output", path("p.json"))
assert run("merkle", "verify", "--block", path("block.txt"), "--proof", path("p.json"),
           "--root", root).strip() == "OK"
assert "mpmath" not in sys.modules
for which in ("exact", "approx", "diff"):
    run("prob", which, "--bits", "8", "--path-len", "10")
assert "mpmath" in sys.modules
run("table", "--bits", "2,8", "--path-lens", "0,10")
run("table", "--bits", "2,8", "--path-lens", "0,10", "--format", "md", "--output", path("t.md"))
run("figure", sim_csv, "--output", path("fig.svg"))
assert heavy() == [], heavy()


def pool_sees_numpy():
    # A stand-in pool records what is loaded when run_grid constructs it; the
    # usable CPU count is patched so that two workers are asked for on any
    # host.
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            # numpy 2 loads numpy.random lazily, on first use
            seen.append(("numpy" in sys.modules, "numpy.random" in sys.modules))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    concurrent.futures.ProcessPoolExecutor = RecordingPool
    simulate._usable_cpus = lambda: 2
    grid = simulate.build_grid([2], [1], trials_per_experiment=3, num_experiments=2)
    simulate.run_grid(grid, workers=2)
    assert seen == [(True, True)], seen


# Both remaining checks need numpy not yet loaded, so the pool check runs
# in a fork.
assert in_fork(pool_sees_numpy) == 0
run("simulate", "--bits", "2", "--path-lens", "1", "--trials", "5", "--experiments", "1",
    "--workers", "1", "--output", path("s.csv"))
assert heavy() == ["numpy"], heavy()
# Every command above shared one parser.
assert cli.build_parser.cache_info().misses == 1, cli.build_parser.cache_info()
'''


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool check forks")
def test_import_boundary(tmp_path):
    # import, prob, table, merkle and figure load neither numpy nor the
    # process pool, and import and merkle load no mpmath either; prob loads
    # mpmath, a serial simulation loads numpy, and run_grid loads
    # numpy.random before it constructs a pool; import builds no argument parser, and
    # every command then shares the one the first builds
    sim_csv = tmp_path / "sim.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([
            "simulate", "--bits", "2,4", "--path-lens", "1,8", "--trials", "50",
            "--experiments", "1", "--output", str(sim_csv),
        ]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY, str(tmp_path), str(sim_csv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


_FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Under the suite's warning filters a failing @given test is reported
    # as one failure (exit 1); a warning raised as an error in Hypothesis's
    # report hook would stop the whole session with INTERNALERROR (exit 3).
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(_FAILING_GIVEN)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "-p", "no:cacheprovider", "-q", str(test_file),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: HashSpec("ideal", 65), "ideal bits must be an integer in 1..64, got 65"),
        (lambda: Digest(b"\x80", 1.0), "digest bits must be an integer >= 1, got 1.0"),
        (lambda: PathParams(True, 0), "bits must be an integer >= 1, got True"),
        (
            lambda: ExperimentConfig(2, 10, master_seed=1 << 64),
            "master_seed must be an integer in 0..18446744073709551615, got 18446744073709551616",
        ),
        (
            lambda: run_grid([ExperimentConfig(2, 1)], workers=0),
            "workers must be an integer >= 1, got 0",
        ),
        (
            lambda: proof_from_json('{"version": true}'),
            "proof version must be an integer in 1..1, got True",
        ),
    ],
)
def test_integer_inputs_name_field_bounds_and_value(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_no_call_sets_the_mpmath_context(tmp_path, monkeypatch):
    # mpmath's precision and rounding are process-wide, so a package call
    # that set them, even briefly, would race with other threads and with a
    # caller's own settings.  With their setters made to raise, every
    # command that computes a probability, and the CSV reader and
    # format_sig, still run from an empty width-terms cache.
    value = mpmath.mpf(2) ** -20
    context = type(mpmath.mp)

    def refuse(self, value):
        raise RuntimeError("a package call set the mpmath context")

    guards = {
        "prec": property(context.prec.fget, refuse),
        "dps": property(context.dps.fget, refuse),
        # mpmath 1.3.0 keeps the rounding mode in _prec_rounding[1] and
        # gives it no property of its own.
        "rounding": property(lambda ctx: ctx._prec_rounding[1], refuse),
    }
    for name, guard in guards.items():
        monkeypatch.setattr(context, name, guard, raising=False)
    with pytest.raises(RuntimeError):
        mpmath.mp.prec = 100
    with pytest.raises(RuntimeError):
        mpmath.mp.rounding = "f"
    before = list(mpmath.mp._prec_rounding)
    probability._width_terms.cache_clear()

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv

    for which in ("exact", "approx", "diff"):
        run("prob", which, "--bits", "30", "--path-len", "10")
    run("table", "--bits", "2,200,300", "--path-lens", "0,10")
    run("table", "--format", "md")
    sim_csv = tmp_path / "s.csv"
    run("simulate", "--bits", "2,6", "--path-lens", "1,1000", "--trials", "20",
        "--experiments", "2", "--seed", "0", "--output", str(sim_csv))
    run("figure", str(sim_csv), "--output", str(tmp_path / "f.svg"))
    cells = report.read_simulation_csv(sim_csv.read_text())
    assert [c.std_error == 0 for c in cells] == [False, True, False, False]
    assert report.format_sig(value) == "9.5367431640625e-7"
    assert report.format_sig(Fraction(1, 3)) == "0.33333333333333333"
    assert report.format_sig(0.1) == "0.10000000000000001"
    assert mpmath.mp._prec_rounding == before
