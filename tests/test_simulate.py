import concurrent.futures
import hashlib
import multiprocessing
import os
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from merkle_falsify import simulate
from merkle_falsify.hashing import IDEAL, SHA256, HashSpec, node_fn
from merkle_falsify.probability import PRECISION_DPS, PathParams, exact_falsification_prob
from merkle_falsify.simulate import (
    ALPHABET,
    TRUNCATED,
    WIDE,
    CellResult,
    ExperimentConfig,
    _derive_seed,
    build_grid,
    run_experiment,
    run_grid,
)

from frozen_values import CELL_SEED_0_2_10_0


def test_alphabet():
    assert len(ALPHABET) == 62
    assert ALPHABET == ALPHABET.strip()


def _seed(tag: str, cfg: ExperimentConfig, experiment_index: int) -> int:
    # independent recompute of the documented seed text
    text = f"{tag}:{cfg.master_seed}:{cfg.bits}:{cfg.path_len}:{experiment_index}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[-8:], "big")


def _spec(cfg: ExperimentConfig, experiment_index: int) -> HashSpec:
    # the documented rule: an ideal-oracle experiment hashes with the oracle
    # seed derived for it, a sha256 one with seed 0
    seed = _seed("oracle", cfg, experiment_index) if cfg.oracle_kind == IDEAL else 0
    return HashSpec(cfg.oracle_kind, cfg.bits, seed=seed)


def _width(cfg: ExperimentConfig) -> int:
    # the documented path-element width: 32 bytes wide, ceil(b / 8) truncated
    return 32 if cfg.sibling_mode == WIDE else -(-cfg.bits // 8)


def _record_kernel(cfg: ExperimentConfig, experiment_index: int):
    # run_experiment with node_fn wrapped: the specs it binds and every
    # (input, output) of the kernel calls it makes, in order
    specs, calls = [], []

    def recording_node_fn(spec):
        specs.append(spec)
        node = node_fn(spec)

        def recorded(x):
            y = node(x)
            calls.append((x, y))
            return y

        return recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "node_fn", recording_node_fn)
        matches = run_experiment(cfg, experiment_index)
    return matches, specs, calls


def test_derive_cell_seed_frozen():
    assert _derive_seed("seed", 0, 2, 10, 0) == CELL_SEED_0_2_10_0
    cfg = ExperimentConfig(bits=2, path_len=10, master_seed=0)
    assert _seed("seed", cfg, 0) == CELL_SEED_0_2_10_0


def test_derive_cell_seed_sensitivity():
    base = _derive_seed("seed", 0, 2, 10, 0)
    assert _derive_seed("seed", 0, 2, 10, 1) != base
    assert _derive_seed("seed", 1, 2, 10, 0) != base
    assert _derive_seed("seed", 0, 3, 10, 0) != base
    assert _derive_seed("seed", 0, 2, 11, 0) != base
    assert _derive_seed("oracle", 0, 2, 10, 0) != base


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(bits=0, path_len=1)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=65, path_len=1, oracle_kind=IDEAL)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=1, oracle_kind="md5")
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=True)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=0, trials_per_experiment=0)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=0, num_experiments=0)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=0, sibling_mode="narrow")
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=0, master_seed=1 << 64)
    # one experiment's draws above MAX_DRAW_BYTES: refused when built
    over_cap = simulate.MAX_DRAW_BYTES // (4 * simulate.DATA_LENGTH) + 1
    with pytest.raises(ValueError, match=f"trials_per_experiment {over_cap} needs"):
        ExperimentConfig(bits=2, path_len=0, trials_per_experiment=over_cap)
    # counts are integers by type: floats and bools are rejected up front
    # rather than failing later inside run_experiment or rng.integers
    for field in ("trials_per_experiment", "num_experiments", "master_seed"):
        for bad in (2.5, True):
            with pytest.raises(ValueError):
                ExperimentConfig(bits=2, path_len=0, **{field: bad})


def test_sibling_width():
    # A fold input is a node (nb bytes) and a path element: 32 bytes wide,
    # nb bytes truncated.  Every other kernel input is a leaf datum.
    for oracle_kind in (SHA256, IDEAL):
        for bits in (2, 12):
            nb = (bits + 7) // 8
            for sibling_mode, fold_len in ((WIDE, nb + 32), (TRUNCATED, 2 * nb)):
                cfg = ExperimentConfig(
                    bits=bits, path_len=3, trials_per_experiment=20, num_experiments=1,
                    oracle_kind=oracle_kind, sibling_mode=sibling_mode,
                )
                _, _, calls = _record_kernel(cfg, 0)
                lengths = {len(x) for x, _ in calls}
                assert lengths == {simulate.DATA_LENGTH, fold_len}, cfg


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(bits=6, path_len=4, trials_per_experiment=300, num_experiments=2)
    assert run_experiment(cfg, 0) == run_experiment(cfg, 0)
    # the index is part of the seed text: 1.0 or True would draw another stream
    for bad in (2, -1, 1.0, True, False):
        with pytest.raises(ValueError):
            run_experiment(cfg, bad)


def _one_shot_draws(cfg: ExperimentConfig, experiment_index: int):
    # the documented draws, all taken up front: path bytes (pad bits cleared
    # in truncated mode), base data, substitute data, per-row resamples
    rng = np.random.default_rng(_seed("seed", cfg, experiment_index))
    m, width, length = cfg.path_len, _width(cfg), simulate.DATA_LENGTH
    trials = cfg.trials_per_experiment
    blob = rng.bytes(trials * m * width) if m else b""
    if cfg.sibling_mode == TRUNCATED and cfg.bits % 8:
        # keep the high b mod 8 bits of each element's last byte
        mask = (0xFF << (8 - cfg.bits % 8)) & 0xFF
        elements = [blob[k : k + width] for k in range(0, len(blob), width)]
        blob = b"".join(e[:-1] + bytes((e[-1] & mask,)) for e in elements)
    base = rng.integers(0, 62, size=(trials, length), dtype=np.uint8)
    sub = rng.integers(0, 62, size=(trials, length), dtype=np.uint8)
    for row in np.nonzero((base == sub).all(axis=1))[0]:
        while True:
            redraw = rng.integers(0, 62, size=length, dtype=np.uint8)
            if not np.array_equal(redraw, base[row]):
                sub[row] = redraw
                break
    leaves = [
        ("".join(ALPHABET[i] for i in base[t]).encode(), "".join(ALPHABET[i] for i in sub[t]).encode())
        for t in range(trials)
    ]
    return blob, leaves


def _replay_with_public_api(cfg: ExperimentConfig, experiment_index: int) -> int:
    # independent re-implementation of the trial loop on top of the hashing
    # kernel: both chains folded to the root, repeating the documented seeds
    # and draw order
    node = node_fn(_spec(cfg, experiment_index))
    blob, leaves = _one_shot_draws(cfg, experiment_index)
    m, width = cfg.path_len, _width(cfg)
    matches = 0
    for t, (d1, d2) in enumerate(leaves):
        offset = t * m * width
        r1, r2 = node(d1), node(d2)
        for k in range(m):
            sib = blob[offset + k * width : offset + (k + 1) * width]
            r1, r2 = node(r1 + sib), node(r2 + sib)
        matches += r1 == r2
    return matches


def _check_kernel_calls(cfg: ExperimentConfig, experiment_index: int) -> None:
    # Every kernel call run_experiment makes, in order, against the one-shot
    # draws: two leaf hashes per trial, then one fold pair per level until
    # the chains meet or reach the root, each pair sharing the path element
    # at that trial and level.  The kernel is bound once, to the
    # experiment's spec.
    matches, specs, calls = _record_kernel(cfg, experiment_index)
    assert specs == [_spec(cfg, experiment_index)]
    blob, leaves = _one_shot_draws(cfg, experiment_index)
    m, width = cfg.path_len, _width(cfg)
    pairs = iter(zip(calls[::2], calls[1::2]))
    met = 0
    for t, leaf_pair in enumerate(leaves):
        (x1, genuine), (x2, forged) = next(pairs)
        assert (x1, x2) == leaf_pair
        for k in range(m):
            if genuine == forged:
                break
            (x1, g), (x2, f) = next(pairs)
            sib = blob[(t * m + k) * width : (t * m + k + 1) * width]
            assert (x1, x2) == (genuine + sib, forged + sib), (t, k)
            genuine, forged = g, f
        met += genuine == forged
    assert len(calls) % 2 == 0 and next(pairs, None) is None
    assert matches == met


def test_run_experiment_matches_public_fold_sha256():
    cfg = ExperimentConfig(bits=4, path_len=6, trials_per_experiment=150, num_experiments=1, master_seed=5)
    assert run_experiment(cfg, 0) == _replay_with_public_api(cfg, 0)


def test_run_experiment_matches_public_fold_sha256_unaligned():
    cfg = ExperimentConfig(bits=11, path_len=3, trials_per_experiment=150, num_experiments=1, master_seed=6)
    assert run_experiment(cfg, 0) == _replay_with_public_api(cfg, 0)


def test_run_experiment_matches_public_fold_ideal():
    cfg = ExperimentConfig(
        bits=5, path_len=4, trials_per_experiment=150, num_experiments=1,
        oracle_kind=IDEAL, master_seed=7,
    )
    assert run_experiment(cfg, 0) == _replay_with_public_api(cfg, 0)


def test_run_experiment_matches_public_fold_truncated_mode():
    cfg = ExperimentConfig(
        bits=6, path_len=5, trials_per_experiment=150, num_experiments=1,
        sibling_mode=TRUNCATED, master_seed=8,
    )
    assert run_experiment(cfg, 0) == _replay_with_public_api(cfg, 0)


@given(
    oracle_kind=st.sampled_from([SHA256, IDEAL]),
    bits=st.integers(min_value=1, max_value=12),
    path_len=st.integers(min_value=0, max_value=40),
    sibling_mode=st.sampled_from([WIDE, TRUNCATED]),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
@settings(max_examples=40, deadline=None)
def test_lockstep_fold_matches_full_fold(oracle_kind, bits, path_len, sibling_mode, seed):
    # run_experiment stops each trial at the first coincidence of the two
    # chains; the public-API replay folds both chains to the root
    cfg = ExperimentConfig(
        bits=bits, path_len=path_len, trials_per_experiment=60, num_experiments=1,
        oracle_kind=oracle_kind, sibling_mode=sibling_mode, master_seed=seed,
    )
    assert run_experiment(cfg, 0) == _replay_with_public_api(cfg, 0)


@pytest.mark.parametrize(
    "oracle_kind, sibling_mode, bits, path_len",
    [
        (SHA256, WIDE, 16, 300),
        (IDEAL, WIDE, 20, 300),
        (SHA256, TRUNCATED, 12, 2100),  # 2-byte elements
        (SHA256, TRUNCATED, 20, 1400),  # 3-byte elements: windows of 4080 bytes
        (IDEAL, TRUNCATED, 44, 800),  # 6-byte elements
        (SHA256, TRUNCATED, 40, 900),  # 5-byte elements: windows of 40-byte units
        (SHA256, TRUNCATED, 56, 640),  # 7-byte elements: windows of 56-byte units
        (SHA256, TRUNCATED, 248, 140),  # 31-byte elements: windows of 248-byte units
    ],
)
def test_path_windows_refill_mid_trial(oracle_kind, sibling_mode, bits, path_len):
    # Each trial's path outgrows one read window, and at these widths the
    # chains almost never meet, so every trial reads across window edges.
    # A window holds whole elements, lcm(width, 8) bytes at a time, so at
    # widths that are not a power of two it ends short of 4 KiB.
    cfg = ExperimentConfig(
        bits=bits, path_len=path_len, trials_per_experiment=8, num_experiments=1,
        oracle_kind=oracle_kind, sibling_mode=sibling_mode, master_seed=bits * path_len,
    )
    assert path_len * _width(cfg) > simulate._WINDOW_BYTES
    assert run_experiment(cfg, 0) == _replay_with_public_api(cfg, 0)
    _check_kernel_calls(cfg, 0)


@given(
    oracle_kind=st.sampled_from([SHA256, IDEAL]),
    bits=st.integers(min_value=1, max_value=64),
    path_len=st.integers(min_value=0, max_value=600),
    sibling_mode=st.sampled_from([WIDE, TRUNCATED]),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
@settings(max_examples=40, deadline=None)
def test_path_windows_match_one_shot_bytes(oracle_kind, bits, path_len, sibling_mode, seed):
    # The path element behind every fold equals the same bytes of a one-shot
    # Generator.bytes draw, so a numpy change to that draw fails here.
    cfg = ExperimentConfig(
        bits=bits, path_len=path_len, trials_per_experiment=6, num_experiments=1,
        oracle_kind=oracle_kind, sibling_mode=sibling_mode, master_seed=seed,
    )
    _check_kernel_calls(cfg, 0)


@pytest.mark.parametrize("sibling_mode, trials", [(WIDE, 100), (TRUNCATED, 3000)])
def test_experiment_memory_is_independent_of_path_len(sibling_mode, trials):
    # Path bytes are read in fixed windows, so an experiment's peak does not
    # grow with T * m * width.  At m = 2000 these sizes hold 6 MB of path
    # bytes; at bits=2 the chains meet after a few levels, so the runs are
    # short.
    def peak(m: int) -> int:
        cfg = ExperimentConfig(
            bits=2, path_len=m, trials_per_experiment=trials, num_experiments=1,
            sibling_mode=sibling_mode, master_seed=11,
        )
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run_experiment(cfg, 0)
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        peak(2000)  # warm-up
        small, large = peak(200), peak(2000)
    finally:
        tracemalloc.stop()
    assert abs(large - small) < 1 << 20, (small, large)


def test_ideal_experiment_memory_is_bounded():
    # The oracle keeps no per-query state, so an experiment's peak allocation
    # stays below its T * m * 32 bytes of wide siblings (plus transient
    # copies), whatever the 2 * T * (m + 1) oracle queries its folds make.
    T, m = 200, 200
    cfg = ExperimentConfig(
        bits=14, path_len=m, trials_per_experiment=T, num_experiments=1,
        oracle_kind=IDEAL, master_seed=3,
    )
    tracemalloc.start()
    try:
        run_experiment(cfg, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * T * m * 32 + (1 << 20)


def test_draw_cap_counts_data_length(monkeypatch):
    # The cap is on draw bytes, not trials: 10^4 + 1 trials of 1600-byte
    # data need 4 * (10^4 + 1) * 1600 bytes, one trial over the budget, and
    # the config is refused when it is built, before anything is drawn;
    # 10^4 trials fit.
    monkeypatch.setattr(simulate, "DATA_LENGTH", 1600)
    assert 4 * (10**4 + 1) * simulate.DATA_LENGTH > simulate.MAX_DRAW_BYTES
    assert 4 * 10**4 * simulate.DATA_LENGTH <= simulate.MAX_DRAW_BYTES
    ExperimentConfig(bits=2, path_len=0, trials_per_experiment=10**4, num_experiments=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="--experiments"):
            ExperimentConfig(
                bits=2, path_len=0, trials_per_experiment=10**4 + 1, num_experiments=1,
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_b1_m0_ideal_close_to_half():
    cfg = ExperimentConfig(
        bits=1, path_len=0, trials_per_experiment=1000, num_experiments=1,
        oracle_kind=IDEAL, master_seed=42,
    )
    cell = run_grid([cfg])[0]
    assert abs(cell.empirical_p - 0.5) < 0.079
    # golden count under numpy's seeded PCG64; regenerate if the generator
    # or draw order ever changes
    assert cell.matches == 487


def test_resample_guard_single_char_data(monkeypatch):
    # with 1-char data and a 16-bit hash, base/substitute collisions would
    # add ~1/62 of false matches if the guard were missing
    monkeypatch.setattr(simulate, "DATA_LENGTH", 1)
    cfg = ExperimentConfig(
        bits=16, path_len=0, trials_per_experiment=20_000, num_experiments=1,
        master_seed=3,
    )
    cell = run_grid([cfg])[0]
    assert cell.matches < 100


def test_run_grid_aggregates_experiments():
    # one cell per config, in config order, each the sum of its experiments
    configs = build_grid([2, 8], [0, 2], trials_per_experiment=200, num_experiments=3)
    cells = run_grid(configs)
    assert [(c.bits, c.path_len) for c in cells] == [(2, 0), (2, 2), (8, 0), (8, 2)]
    for cell, cfg in zip(cells, configs):
        matches = sum(run_experiment(cfg, k) for k in range(3))
        assert cell == CellResult(cfg.bits, cfg.path_len, 600, matches, cfg.master_seed)
        assert cell.empirical_p == cell.matches / 600
        expect_se = (cell.exact_p * (1 - cell.exact_p) / 600) ** 0.5
        assert cell.std_error == pytest.approx(expect_se, rel=1e-12)
        if cell.std_error:
            assert cell.z_score == pytest.approx(
                (cell.empirical_p - cell.exact_p) / cell.std_error, rel=1e-9
            )


def test_zscore_zero_when_exact_saturates():
    # (2, 1000): exact rounds to 1 even at 64 digits, so the z rule kicks in
    cfg = ExperimentConfig(bits=2, path_len=1000, trials_per_experiment=2, num_experiments=1)
    cell = run_grid([cfg])[0]
    assert cell.exact_p == 1.0
    assert cell.std_error == 0.0
    assert cell.z_score == 0.0
    assert cell.matches == 2


@pytest.mark.parametrize("matches", [0, 9999])
def test_zscore_minus_inf_when_saturated_cell_falls_short(matches):
    # P rounds to 1 at (2, 1000), so std_error is 0; a cell short of its
    # trials must fail |z| <= Z_LIMIT instead of reading z = 0
    cell = CellResult(2, 1000, 10000, matches, 0)
    assert (cell.exact_p, cell.std_error) == (1.0, 0.0)
    assert cell.z_score == float("-inf")
    assert not cell.passed


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1, defect A: std_error takes 1 - P from P at 243 bits, "
    "which is one ulp at (2, 586), so it reads 24 % high",
)
def test_std_error_keeps_its_digits_one_ulp_below_saturation():
    cell = CellResult(2, 586, 10000, 0, 0)
    with mpmath.workdps(400):
        q = (mpmath.mpf(3) / 4) ** 587  # (1 - 2^-2)^(m + 1)
        reference = mpmath.sqrt((1 - q) * q / 10000)
        assert abs(reference / mpmath.mpf("2.1403303283891745e-39") - 1) < 1e-15
        assert abs(cell.std_error / reference - 1) < 1e-12


def test_zero_matches_at_14_50_lie_in_the_exact_tail():
    # The exact two-sided tail of 0 matches in 8000 trials at P(14, 50),
    # 2 (1 - P)^8000 (about 3e-11), is far below the 5-sigma level
    # erfc(5 / sqrt(2)) (about 5.7e-7): such a cell should fail.
    with mpmath.workdps(60):
        q = (1 - mpmath.mpf(2) ** -14) ** 51
        tail = 2 * q**8000
        assert tail < mpmath.erfc(5 / mpmath.sqrt(2))
        assert 3e-11 < tail < 3.1e-11


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the |z| <= 5 rule passes 0 matches at (14, 50, 8000) "
    "with z = -4.994, although the exact tail of 0 is about 3e-11",
)
def test_zero_match_cell_at_14_50_fails():
    assert not CellResult(14, 50, 8000, 0, 0).passed


def _scores_in_context(bits, path_len, total, matches):
    """A cell's three floats from mpmath's context arithmetic under
    workdps(PRECISION_DPS), the reference for CellResult's own scoring."""
    exact = exact_falsification_prob(PathParams(bits, path_len))
    with mpmath.workdps(PRECISION_DPS):
        std_error = mpmath.sqrt(exact * (1 - exact) / total)
        if std_error != 0:
            z = (mpmath.mpf(matches) / total - exact) / std_error
        else:
            z = mpmath.mpf(0) if matches == total else mpmath.ninf
    return float(exact), float(std_error), float(z)


@st.composite
def _cells(draw):
    total = draw(st.integers(1, 10**12))
    return (
        draw(st.integers(1, 256)),
        draw(st.integers(0, 10**12)),
        total,
        draw(st.integers(0, total)),
    )


@given(_cells())
@example((2, 586, 10000, 0))  # P is 1 - 2^-243, one ulp below 1 at 243 bits
@example((2, 1000, 1000, 1000))  # P rounds to 1, every trial matched
@example((2, 1000, 1000, 999))  # and one short
@example((14, 10, 8000, 0))  # no match where 5.4 are expected
@settings(max_examples=200, deadline=None)
def test_cell_scores_match_context_arithmetic(cell):
    got = CellResult(*cell, seed=0)
    want = _scores_in_context(*cell)
    assert [v.hex() for v in (got.exact_p, got.std_error, got.z_score)] == [
        v.hex() for v in want
    ]


def test_run_grid_worker_invariance():
    configs = build_grid(
        [1, 8], [0, 5], trials_per_experiment=250, num_experiments=4,
        oracle_kind=IDEAL, master_seed=13,
    )
    serial = run_grid(configs, workers=1)
    parallel = run_grid(configs, workers=3)
    assert [c.matches for c in serial] == [c.matches for c in parallel]


@pytest.fixture
def pool_calls(monkeypatch):
    """Stand in for the process pool, so no pool starts; the returned list
    gets one (pool size, [(bits, start, stop), ...]) entry per pool run."""
    calls = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            calls.append((self.max_workers, [(c.bits, lo, hi) for c, lo, hi in tasks]))
            return map(fn, tasks)

    # run_grid imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return calls


def test_run_grid_pool_size_is_capped(monkeypatch, pool_calls):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
    forty = build_grid([2, 3], [1], trials_per_experiment=3, num_experiments=20)
    serial = [c.matches for c in run_grid(forty)]
    three = build_grid([2], [1], trials_per_experiment=3, num_experiments=3)

    assert [c.matches for c in run_grid(forty, workers=1000)] == serial
    run_grid(three, workers=1000)
    run_grid(forty, workers=2)
    # pool size; ranges of ceil(tasks / (4 * pool size)) experiments per cell
    sizes = [(pool, [hi - lo for _, lo, hi in ranges]) for pool, ranges in pool_calls]
    assert sizes == [(4, ([3] * 6 + [2]) * 2), (3, [1, 1, 1]), (2, [5] * 8)]
    assert pool_calls[1][1] == [(2, 0, 1), (2, 1, 2), (2, 2, 3)]
    assert pool_calls[2][1] == [(b, lo, lo + 5) for b in (2, 3) for lo in (0, 5, 10, 15)]


def test_usable_cpus_is_the_affinity_set(monkeypatch, pool_calls):
    # the pool is capped by the CPUs this process may run on, not the host's
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assert simulate._usable_cpus() == 1
    grid = build_grid([2], [1], trials_per_experiment=3, num_experiments=8)
    serial = [c.matches for c in run_grid(grid)]
    assert [c.matches for c in run_grid(grid, workers=64)] == serial
    assert pool_calls == []  # a 1-CPU affinity runs in-process

    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 3, 5})
    assert simulate._usable_cpus() == 3
    # without an affinity call, the host count; an unknown count is one CPU
    monkeypatch.delattr(simulate.os, "sched_getaffinity")
    assert simulate._usable_cpus() == 64
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    assert simulate._usable_cpus() == 1


def test_run_grid_pool_tasks_are_bounded(monkeypatch, pool_calls):
    # the pool receives at most len(configs) + 4 * pool size ranges, each
    # within one cell and together tiling it, whatever the experiment count
    monkeypatch.setattr(simulate, "run_experiment", lambda config, k: k % 2)
    for cpus in (2, 3, 8):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        for counts in ((1, 1), (5, 9, 2), (7,) * 5, (10**6, 3)):
            configs = [
                ExperimentConfig(bits=b, path_len=1, num_experiments=n)
                for b, n in zip(range(2, 9), counts)
            ]
            cells = run_grid(configs, workers=cpus)
            pool_size, ranges = pool_calls.pop()
            assert len(ranges) <= len(configs) + 4 * pool_size, (cpus, counts)
            for cell, config in zip(cells, configs):
                bounds = [lo_hi for b, *lo_hi in ranges if b == config.bits]
                edges = [lo for lo, _ in bounds] + [config.num_experiments]
                assert [hi for _, hi in bounds] == edges[1:] and edges[0] == 0
                assert cell.matches == config.num_experiments // 2


def test_pool_run_grid_memory_is_independent_of_experiments(monkeypatch):
    # The pool receives a bounded number of ranges, so the parent's peak
    # does not grow with the number of experiments (a task or count held
    # per experiment costs about 90 B: ~9 MiB at 10^5).
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the stubbed run_experiment reaches pool workers only by fork")
    monkeypatch.setattr(simulate, "run_experiment", lambda config, k: 0)
    workers = min(2, os.cpu_count() or 1)

    def peak(experiments: int) -> int:
        configs = [ExperimentConfig(bits=2, path_len=1, num_experiments=experiments)]
        tracemalloc.start()
        try:
            assert run_grid(configs, workers=workers)[0].matches == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # warm-up: imports and per-width caches
    assert abs(peak(10**5) - peak(10**3)) < 1 << 20


def test_serial_run_grid_memory_is_independent_of_experiments(monkeypatch):
    # The serial path sums each cell as its counts arrive, so its peak does
    # not grow with the number of experiments (a per-experiment list of
    # tasks and counts costs about 100 B each: ~10 MB at 10^5).
    monkeypatch.setattr(simulate, "run_experiment", lambda config, k: 0)

    def peak(experiments: int) -> int:
        configs = [ExperimentConfig(bits=2, path_len=1, num_experiments=experiments)]
        tracemalloc.start()
        try:
            assert run_grid(configs)[0].matches == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # warm-up: imports and per-width caches
    assert abs(peak(10**5) - peak(10**3)) < 64 * 1024


def test_run_grid_validation():
    with pytest.raises(ValueError):
        run_grid([])
    with pytest.raises(ValueError):
        run_grid(build_grid([2], [0]), workers=0)
    for bad in (2.5, True):
        with pytest.raises(ValueError):
            run_grid(build_grid([2], [0]), workers=bad)
    with pytest.raises(ValueError):
        build_grid([], [1])
    with pytest.raises(ValueError, match="bits 2 appears more than once"):
        build_grid([2, 2], [10, 10])
    with pytest.raises(ValueError, match="path_len 10 appears more than once"):
        build_grid([2, 3], [10, 0, 10])


def test_truncated_mode_changes_draws():
    wide = ExperimentConfig(bits=8, path_len=4, trials_per_experiment=400, num_experiments=1, master_seed=21)
    narrow = ExperimentConfig(
        bits=8, path_len=4, trials_per_experiment=400, num_experiments=1,
        sibling_mode=TRUNCATED, master_seed=21,
    )
    # both modes stay near the closed form at 8 bits, where path-element
    # granularity no longer matters
    for cfg in (wide, narrow):
        cell = run_grid([cfg])[0]
        assert abs(cell.empirical_p - cell.exact_p) < 0.03
