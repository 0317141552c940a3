import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merkle_falsify import simulate
from merkle_falsify.hashing import IDEAL, SHA256, OracleState, node_fn
from merkle_falsify.simulate import (
    ALPHABET,
    TRUNCATED,
    WIDE,
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
        ExperimentConfig(bits=2, path_len=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=True)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=0, trials_per_experiment=0)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=0, num_experiments=0)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=0, data_length=0)
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=0, sibling_mode="narrow")
    with pytest.raises(ValueError):
        ExperimentConfig(bits=2, path_len=0, master_seed=1 << 64)
    # counts are integers by type: floats and bools are rejected up front
    # rather than failing later inside run_experiment or rng.integers
    for field in ("trials_per_experiment", "num_experiments", "data_length", "master_seed"):
        for bad in (2.5, True):
            with pytest.raises(ValueError):
                ExperimentConfig(bits=2, path_len=0, **{field: bad})


def test_sibling_width():
    assert ExperimentConfig(bits=2, path_len=1).sibling_nbytes == 32
    assert ExperimentConfig(bits=12, path_len=1, sibling_mode=TRUNCATED).sibling_nbytes == 2
    assert ExperimentConfig(bits=2, path_len=1, oracle_kind=IDEAL).sibling_nbytes == 32


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(bits=6, path_len=4, trials_per_experiment=300, num_experiments=2)
    assert run_experiment(cfg, 0) == run_experiment(cfg, 0)
    # the index is part of the seed text: 1.0 or True would draw another stream
    for bad in (2, -1, 1.0, True, False):
        with pytest.raises(ValueError):
            run_experiment(cfg, bad)


def _replay_with_public_api(cfg: ExperimentConfig, experiment_index: int) -> int:
    # independent re-implementation of the trial loop on top of the hashing
    # kernel: both chains folded to the root, repeating the documented seeds
    # and draw order
    spec = cfg.hash_spec()
    oracle = None
    if cfg.oracle_kind == IDEAL:
        oracle = OracleState(_seed("oracle", cfg, experiment_index))
    node = node_fn(spec, oracle)
    rng = np.random.default_rng(_seed("seed", cfg, experiment_index))
    m, width, length = cfg.path_len, cfg.sibling_nbytes, cfg.data_length
    trials = cfg.trials_per_experiment
    blob = rng.bytes(trials * m * width) if m else b""
    base = rng.integers(0, 62, size=(trials, length), dtype=np.uint8)
    sub = rng.integers(0, 62, size=(trials, length), dtype=np.uint8)
    for row in np.nonzero((base == sub).all(axis=1))[0]:
        while True:
            redraw = rng.integers(0, 62, size=length, dtype=np.uint8)
            if not np.array_equal(redraw, base[row]):
                sub[row] = redraw
                break
    matches = 0
    for t in range(trials):
        offset = t * m * width
        sibs = []
        for k in range(m):
            raw = blob[offset + k * width : offset + (k + 1) * width]
            if cfg.sibling_mode == TRUNCATED and cfg.bits % 8:
                raw = raw[:-1] + bytes((raw[-1] & spec.last_byte_mask,))
            sibs.append(raw)
        d1 = "".join(ALPHABET[i] for i in base[t]).encode()
        d2 = "".join(ALPHABET[i] for i in sub[t]).encode()
        r1, r2 = node(d1), node(d2)
        for sib in sibs:
            r1, r2 = node(r1 + sib), node(r2 + sib)
        matches += r1 == r2
    return matches


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


def test_ideal_experiment_memory_is_bounded():
    # The oracle keeps no per-query state, so an experiment's peak allocation
    # follows its T * m * 32 bytes of drawn wide siblings (plus transient
    # copies), not the 2 * T * (m + 1) oracle queries its folds make.
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


def test_resample_guard_single_char_data():
    # with 1-char data and a 16-bit hash, base/substitute collisions would
    # add ~1/62 of false matches if the guard were missing
    cfg = ExperimentConfig(
        bits=16, path_len=0, trials_per_experiment=20_000, num_experiments=1,
        data_length=1, master_seed=3,
    )
    cell = run_grid([cfg])[0]
    assert cell.matches < 100


def test_run_grid_aggregates_experiments():
    # one cell per config, in config order, each the sum of its experiments
    configs = build_grid([2, 8], [0, 2], trials_per_experiment=200, num_experiments=3)
    cells = run_grid(configs)
    assert [(c.config.bits, c.config.path_len) for c in cells] == [
        (2, 0), (2, 2), (8, 0), (8, 2),
    ]
    for cell, cfg in zip(cells, configs):
        assert cell.config == cfg
        assert cell.total_trials == 600
        assert cell.matches == sum(run_experiment(cfg, k) for k in range(3))
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


def test_run_grid_worker_invariance():
    configs = build_grid(
        [1, 8], [0, 5], trials_per_experiment=250, num_experiments=4,
        oracle_kind=IDEAL, master_seed=13,
    )
    serial = run_grid(configs, workers=1)
    parallel = run_grid(configs, workers=3)
    assert [c.matches for c in serial] == [c.matches for c in parallel]


def test_run_grid_pool_size_is_capped(monkeypatch):
    # a stand-in records the pool it is asked for, so no large pool starts
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            requested.append((self.max_workers, chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 4)
    forty = build_grid([2, 3], [1], trials_per_experiment=3, num_experiments=20)
    serial = [c.matches for c in run_grid(forty)]
    three = build_grid([2], [1], trials_per_experiment=3, num_experiments=3)

    assert [c.matches for c in run_grid(forty, workers=1000)] == serial
    run_grid(three, workers=1000)
    run_grid(forty, workers=2)
    # (pool size, chunksize = tasks // (4 * pool size))
    assert requested == [(4, 2), (3, 1), (2, 5)]

    requested.clear()
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    assert [c.matches for c in run_grid(forty, workers=1000)] == serial
    assert requested == []  # one usable CPU runs in-process


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
