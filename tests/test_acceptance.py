"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints exactly one `ACCEPTANCE <n> PASS|FAIL - <name>` line (with
a short detail suffix), then asserts.  Run with `-rA` (the default options)
to see all verdict lines, or `-m slow` for the opt-in full-scale grid.
"""

import math
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from merkle_falsify.cli import main
from merkle_falsify.hashing import HashSpec, SHA256
from merkle_falsify.merkle import build_tree, generate_proof, verify_proof
from merkle_falsify.probability import (
    PathParams,
    approx_falsification_prob,
    diff_table,
    exact_falsification_prob,
    exact_falsification_prob_termsum,
)
from merkle_falsify import simulate
from merkle_falsify.simulate import CellResult, ExperimentConfig, _usable_cpus, build_grid, run_grid
import test_merkle as merkle_suite

from frozen_values import REFERENCE_DIFFS


def _by_cell(cells) -> dict:
    """Cells keyed by (bits, path_len)."""
    return {(c.bits, c.path_len): c for c in cells}


def _gate(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_difference_table_reproduction():
    start = time.perf_counter()
    rows = diff_table()
    elapsed = time.perf_counter() - start
    worst = 0.0
    with mpmath.workdps(40):
        for row in rows:
            reference = mpf(REFERENCE_DIFFS[(row.params.bits, row.params.path_len)])
            worst = max(worst, float(abs(row.abs_diff / reference - 1)))
    _gate(
        1,
        "difference table reproduces all 25 reference cells",
        len(rows) == 25 and worst <= 1e-10 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed * 1000:.0f}ms",
    )


def test_criterion_2_constant_diff_saturation():
    # 80 dps: the recomputed limit must be sharper than the 1e-50 closeness
    # checks below, which a 40-digit context cannot deliver.
    with mpmath.workdps(80):
        d500 = diff_table([2], [500])[0].abs_diff
        d1000 = diff_table([2], [1000])[0].abs_diff
        target = mpf("0.0288007830714048")
        both_close = abs(d500 - target) <= 1e-12 and abs(d1000 - target) <= 1e-12
        stable = abs(d500 - d1000) < mpf(10) ** -50
        # saturation mechanics: approx -> 1/4 + e^(-1/4), exact -> 1
        approx_limit = mpf(1) / 4 + mpmath.exp(mpf(-1) / 4)
        approx_ok = abs(approx_falsification_prob(PathParams(2, 1000)) - approx_limit) < mpf(10) ** -50
        exact_ok = float(exact_falsification_prob(PathParams(2, 1000))) == 1.0
    _gate(
        2,
        "diff(2,500) == diff(2,1000) == 0.0288007830714048",
        both_close and stable and approx_ok and exact_ok,
        f"|d500-d1000| < 1e-50: {stable}",
    )


def test_criterion_3_termsum_identity_suite():
    start = time.perf_counter()
    ok = True
    for b in range(1, 17):
        q = 1 - Fraction(1, 1 << b)
        for m in (0, 1, 2, 3, 7, 64, 1000):
            closed = 1 - q ** (m + 1)
            ok = ok and exact_falsification_prob_termsum(PathParams(b, m)).exact_rational == closed
    elapsed = time.perf_counter() - start
    _gate(
        3,
        "term-sum equals closed form exactly for b in [1,16], m in {0,1,2,3,7,64,1000}",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def _criterion_4_grid() -> list[ExperimentConfig]:
    """Criterion 4's sha256 cells: b in {2,4,6,8} x m in {10,50}, then the
    saturated (2, 1000) cell last."""
    grid = build_grid(
        [2, 4, 6, 8], [10, 50],
        trials_per_experiment=1000, num_experiments=100, master_seed=0,
    )
    return grid + [
        ExperimentConfig(
            bits=2, path_len=1000,
            trials_per_experiment=1000, num_experiments=10, master_seed=0,
        )
    ]


def _criterion_5_grid() -> list[ExperimentConfig]:
    """Criterion 5's ideal-oracle cells: b in {1,2,4} x m in {0,1,10}."""
    return build_grid(
        [1, 2, 4], [0, 1, 10],
        trials_per_experiment=1000, num_experiments=100,
        oracle_kind="ideal", master_seed=0,
    )


def test_criterion_4_statistical_replay_sha256():
    start = time.perf_counter()
    *cells, long_cell = run_grid(_criterion_4_grid(), workers=1)
    elapsed = time.perf_counter() - start

    by_cell = _by_cell(cells)
    all_z = [abs(c.z_score) for c in cells] + [abs(long_cell.z_score)]
    z_ok = max(all_z) <= 5.0
    # saturated cell: the closed form predicts < 1e-120 mismatch mass
    saturated_ok = long_cell.matches == long_cell.total_trials
    decreasing_in_b = all(
        by_cell[(b, m)].empirical_p > by_cell[(b_next, m)].empirical_p
        for m in (10, 50)
        for b, b_next in ((2, 4), (4, 6), (6, 8))
    )
    increasing_in_m = all(
        by_cell[(b, 10)].empirical_p < by_cell[(b, 50)].empirical_p for b in (2, 4, 6, 8)
    )
    _gate(
        4,
        "sha256 desk-scale replay: all |z| <= 5 and both trends hold",
        z_ok and saturated_ok and decreasing_in_b and increasing_in_m and elapsed < 180,
        f"max|z|={max(all_z):.2f}, {elapsed:.0f}s single-worker",
    )


def test_criterion_5_random_oracle_exactness():
    start = time.perf_counter()
    cells = run_grid(_criterion_5_grid(), workers=1)
    elapsed = time.perf_counter() - start
    worst = max(abs(c.z_score) for c in cells)
    _gate(
        5,
        "ideal-oracle grid: all |z| <= 5 at 100,000 trials per cell",
        worst <= 5.0 and elapsed < 30.0,
        f"max|z|={worst:.2f}, {elapsed:.0f}s",
    )


# Simulator faults, each as the cell a faulty simulator would run in place
# of (bits, path_len).
_FAULTS = {
    "folds m - 1 levels": lambda b, m: (b, m - 1),
    "folds m + 1 levels": lambda b, m: (b, m + 1),
    "kernel keeps b - 1 bits": lambda b, m: (b - 1, m),
    "kernel keeps b + 1 bits": lambda b, m: (b + 1, m),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_gates_see_named_faults(fault):
    # Criteria 4 and 5 each fail at least one cell under each fault.  No
    # simulation runs: a cell is scored at the match count the faulty
    # simulator expects, round(T * P_fault), against the true P.  A cell
    # the fault has no counterpart for (m - 1 at m = 0, b - 1 at b = 1) is
    # skipped.
    for criterion, grid in ((4, _criterion_4_grid()), (5, _criterion_5_grid())):
        worst = 0.0
        failed = 0
        for config in grid:
            bits, path_len = _FAULTS[fault](config.bits, config.path_len)
            if bits < 1 or path_len < 0:
                continue
            p_fault = float(exact_falsification_prob(PathParams(bits, path_len)))
            T = config.total_trials
            cell = CellResult(config.bits, config.path_len, T, round(T * p_fault), 0)
            worst = max(worst, abs(cell.z_score))
            failed += not cell.passed
        assert failed, (criterion, fault, worst)


def test_acceptance_seeds_are_distinct(monkeypatch):
    # Within each of the criteria 4 and 5 grids, every seed run_experiment
    # derives, draw seeds and ideal-oracle seeds alike, is distinct, so no
    # two experiments of one gate share a stream.  The experiments stop when
    # they bind the kernel, after both seeds are derived and before any draw.
    derived = []
    real = simulate._derive_seed

    def derive(tag, *key):
        derived.append(real(tag, *key))
        return derived[-1]

    class Bound(Exception):
        pass

    def stop(spec):
        raise Bound

    monkeypatch.setattr(simulate, "_derive_seed", derive)
    monkeypatch.setattr(simulate, "node_fn", stop)
    seeds = []
    for grid in (_criterion_4_grid(), _criterion_5_grid()):
        derived.clear()
        for config in grid:
            for k in range(config.num_experiments):
                with pytest.raises(Bound):
                    simulate.run_experiment(config, k)
        assert len(set(derived)) == len(derived)
        seeds.append(set(derived))
    # one seed per sha256 experiment, two per ideal one
    assert [len(s) for s in seeds] == [810, 1800]
    # The seed text names no oracle, so the cells both grids hold, (2, 10)
    # and (4, 10), draw the same data and paths in both, each under its own
    # kernel.
    assert len(seeds[0] & seeds[1]) == 200


def test_criterion_6_merkle_property_suite():
    start = time.perf_counter()
    ok = True
    for bits in (8, 64, 256):
        spec = HashSpec(SHA256, bits)
        for n in range(1, 34):
            blocks = [f"leaf-{n}-{i}".encode() for i in range(n)]
            tree = build_tree(blocks, spec)
            for i in range(n):
                proof = generate_proof(tree, i)
                ok = ok and verify_proof(blocks[i], proof, tree.root, spec)

    # frozen tamper vectors and the duplication example live in the merkle
    # suite; rerun them here so this criterion stands alone
    merkle_suite.test_tamper_matrix()
    merkle_suite.test_three_leaf_duplication_structure()
    merkle_suite.test_four_leaf_frozen_vectors()
    elapsed = time.perf_counter() - start
    _gate(
        6,
        "proof round-trip n in [1,33] x all indices x b in {8,64,256} + tamper vectors",
        ok and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_7_simulate_determinism(tmp_path, capsys):
    args = [
        "simulate", "--bits", "2,8", "--path-lens", "0,10",
        "--trials", "500", "--experiments", "4", "--seed", "0",
    ]
    runs = []
    for tag, extra in (("a", []), ("b", []), ("c", ["--workers", "3"])):
        out = tmp_path / f"{tag}.csv"
        rc = main(args + extra + ["--output", str(out)])
        assert rc == 0
        runs.append(out.read_bytes())
    capsys.readouterr()
    identical = runs[0] == runs[1] == runs[2]
    _gate(
        7,
        "simulate CSV byte-identical across reruns and worker counts",
        identical,
        f"{len(runs[0])} bytes",
    )


def test_criterion_8_precision_stress():
    p = exact_falsification_prob(PathParams(256, 10**6))
    with mpmath.workdps(80):
        first_order = (10**6 + 1) * mpf(2) ** -256
        rel = float(abs(p / first_order - 1))
    _gate(
        8,
        "exact(256, 1e6) = (1e6+1) * 2^-256 to 1e-9 relative, no underflow",
        p > 0 and rel <= 1e-9,
        f"rel err {rel:.2e}",
    )


@pytest.mark.slow
def test_full_scale_grid_sha256():
    # the headline experiment at full scale: 100,000 trials per cell over
    # b in {2,4,6,8,10} x m in {10,100,1000}; minutes of runtime, so opt-in
    workers = min(4, _usable_cpus())
    grid = build_grid(
        [2, 4, 6, 8, 10], [10, 100, 1000],
        trials_per_experiment=1000, num_experiments=100, master_seed=0,
    )
    cells = run_grid(grid, workers=workers)
    by_cell = _by_cell(cells)
    assert max(abs(c.z_score) for c in cells) <= 5.0
    # saturated cells tie at empirical 1.0, so the trends are non-strict here
    for m in (10, 100, 1000):
        seq = [by_cell[(b, m)].empirical_p for b in (2, 4, 6, 8, 10)]
        assert all(x >= y for x, y in zip(seq, seq[1:]))
        assert seq[0] > seq[-1]
    for b in (2, 4, 6, 8, 10):
        seq = [by_cell[(b, m)].empirical_p for m in (10, 100, 1000)]
        assert all(x <= y for x, y in zip(seq, seq[1:]))
        assert seq[0] < seq[-1]
