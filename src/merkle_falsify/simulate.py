"""Monte Carlo estimation of path falsification probabilities.

Each trial builds one authentication-path fold from scratch: a fresh random
path, a fresh base datum D, and a fresh substitute D' (resampled while it
equals D), then counts whether both data fold to the same root.  Trials are
therefore independent Bernoulli draws, and the per-cell z-score against the
closed-form probability is a clean known-p binomial statistic.

The two chains are folded in lockstep, level by level, and a trial stops at
the first level where they coincide.  Stopping there is exact, not an
approximation: every later level hashes the same (node, sibling) input on
both sides, so equal running digests stay equal up to the root.  Skipped
queries cannot perturb anything either -- each trial's path bytes sit at a
fixed offset of the experiment's random stream, so reading only the windows
the folds consume yields the same bytes a full read would, and an
ideal-oracle value depends only on (oracle seed, input), not on which
inputs were queried before.  A trial whose chains never meet still folds
all m levels, so cells with small P cost what a full fold costs.

Every fold step is one call of the package's single hashing kernel,
``hashing.node_fn``, bound once per experiment; the simulator keeps no copy
of the truncation or oracle logic, and hashes raw bytes without building
``Digest`` values.

Path elements are full-width random values (32 bytes) by default.  That is
what the closed form models: every level then contributes an independent
2^-b collision opportunity.  The opt-in "truncated" mode draws b-bit path
elements instead -- faithful to a fully truncated tree, but at small b the
handful of distinct (node, sibling) fold inputs makes levels strongly
dependent and the closed form no longer applies (try b <= 4 and watch the
z-scores blow up).

Reproducibility: every experiment derives its own 64-bit seed from
(master_seed, bits, path_len, experiment_index), so results are identical
across runs, platforms, and worker counts.  Draws come from numpy's
default PCG64 generator in a fixed order (path bytes, base data, substitute
data, then per-row resamples); golden match counts must be regenerated if
either the generator or the draw order changes.  The path bytes are the
first trials * m * width bytes of the stream, byte o being byte o % 8
(little-endian) of 64-bit output o // 8 -- the bytes ``Generator.bytes``
would return -- and memory stays bounded by one window of them whatever
trials and m are.

Imports: the package imports this module, but only ``simulate`` runs
experiments, so it loads neither numpy nor mpmath at import.
``run_experiment`` imports numpy itself, and ``run_grid`` imports
``concurrent.futures.ProcessPoolExecutor`` only when it starts a pool.
Before it starts one, ``run_grid`` imports numpy, so that workers started by
fork inherit the loaded module instead of each importing it again.
``cell_statistics`` imports mpmath, as do the closed-form functions of
``probability``, so of the commands only ``prob``, ``table``, ``simulate``
and ``figure`` load mpmath, and only ``simulate`` loads numpy; ``merkle``
builds, proofs and verification load neither.
"""

from __future__ import annotations

import copy
import hashlib
import os
import string
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

from .hashing import _MAX_SEED, IDEAL, SHA256, HashSpec, OracleState, _require_int, node_fn
from .probability import PRECISION_DPS, PathParams, exact_falsification_prob, validate_grid

if TYPE_CHECKING:
    import numpy as np

ALPHABET = string.ascii_letters + string.digits
_ALPHABET_BYTES = ALPHABET.encode("ascii")

WIDE = "wide"
TRUNCATED = "truncated"

# Length of every base and substitute datum, in alphabet characters.
DATA_LENGTH = 16

# Bytes one experiment's draws may take: four trials x DATA_LENGTH uint8
# arrays, so 10**6 trials.  A larger total is spread over more experiments.
MAX_DRAW_BYTES = 64 * 10**6

# Width of a wide path element; matches the full SHA-256 digest.
WIDE_SIBLING_BYTES = 32

# Path bytes are read from the stream in windows of this many 64-bit
# outputs (4 KiB), enough for 128 wide levels per refill.
_WINDOW_WORDS = 512
_WINDOW_BYTES = 8 * _WINDOW_WORDS


@dataclass(frozen=True)
class ExperimentConfig:
    bits: int
    path_len: int
    trials_per_experiment: int = 1000
    num_experiments: int = 100
    oracle_kind: str = SHA256
    sibling_mode: str = WIDE
    master_seed: int = 0

    def __post_init__(self) -> None:
        self.hash_spec()  # validates oracle_kind and bits range
        PathParams(self.bits, self.path_len)  # validates path_len
        _require_int("trials_per_experiment", self.trials_per_experiment, 1)
        _require_int("num_experiments", self.num_experiments, 1)
        if self.sibling_mode not in (WIDE, TRUNCATED):
            raise ValueError(f"sibling_mode must be {WIDE!r} or {TRUNCATED!r}")
        _require_int("master_seed", self.master_seed, 0, _MAX_SEED)

    def hash_spec(self) -> HashSpec:
        return HashSpec(algorithm=self.oracle_kind, bits=self.bits)

    @property
    def total_trials(self) -> int:
        return self.trials_per_experiment * self.num_experiments

    @property
    def sibling_nbytes(self) -> int:
        if self.sibling_mode == WIDE:
            return WIDE_SIBLING_BYTES
        return self.hash_spec().nbytes


@dataclass(frozen=True)
class CellResult:
    config: ExperimentConfig
    matches: int
    total_trials: int
    empirical_p: float
    exact_p: float
    std_error: float
    z_score: float


def _derive_seed(tag: str, master_seed: int, bits: int, path_len: int, index: int) -> int:
    """Low 64 bits of SHA-256("<tag>:<master>:<bits>:<path_len>:<index>").

    Tag "seed" seeds an experiment's draws; tag "oracle" seeds its ideal
    oracle, so the oracle's randomness never overlaps the draw stream.
    """
    text = f"{tag}:{master_seed}:{bits}:{path_len}:{index}"
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[-8:], "big")


def run_experiment(config: ExperimentConfig, experiment_index: int) -> int:
    """Match count for one seeded batch of trials_per_experiment trials."""
    draw_bytes = 4 * config.trials_per_experiment * DATA_LENGTH
    if draw_bytes > MAX_DRAW_BYTES:
        raise ValueError(
            f"trials_per_experiment {config.trials_per_experiment} needs "
            f"{draw_bytes} bytes of draws, above {MAX_DRAW_BYTES}; spread the "
            "trials over more experiments (--experiments)"
        )
    # The index is part of the seed text, so 1.0 or True would silently
    # draw a different stream than 1.
    _require_int("experiment_index", experiment_index, 0, config.num_experiments - 1)
    import numpy as np

    key = (config.master_seed, config.bits, config.path_len, experiment_index)
    rng = np.random.default_rng(_derive_seed("seed", *key))
    oracle = None
    if config.oracle_kind == IDEAL:
        oracle = OracleState(_derive_seed("oracle", *key))
    spec = config.hash_spec()
    node = node_fn(spec, oracle)

    trials = config.trials_per_experiment
    m = config.path_len
    length = DATA_LENGTH
    width = config.sibling_nbytes

    # Fixed draw order: path bytes, base data, substitute data, resamples.
    # The path bytes are read later, from a copy of the generator, and only
    # where a fold consumes them; the main generator skips past them.  Like
    # Generator.bytes(n), which draws ceil(n / 4) 32-bit halves, it ends with
    # the high half of the last output buffered when that count is odd.
    paths = copy.deepcopy(rng.bit_generator)
    n32 = (trials * m * width + 3) // 4
    rng.bit_generator.advance(n32 // 2)
    if n32 % 2:
        rng.bytes(4)
    base_idx = rng.integers(0, len(ALPHABET), size=(trials, length), dtype=np.uint8)
    sub_idx = rng.integers(0, len(ALPHABET), size=(trials, length), dtype=np.uint8)
    for row in np.nonzero((base_idx == sub_idx).all(axis=1))[0]:
        while True:
            redraw = rng.integers(0, len(ALPHABET), size=length, dtype=np.uint8)
            if not np.array_equal(redraw, base_idx[row]):
                sub_idx[row] = redraw
                break

    codes = np.frombuffer(_ALPHABET_BYTES, dtype=np.uint8)
    base_data = codes[base_idx]
    sub_data = codes[sub_idx]

    # b-bit path elements in truncated mode: every element's last byte loses
    # its pad bits.
    mask = spec.last_byte_mask if config.sibling_mode == TRUNCATED else 0xFF

    # Lockstep fold; the first coincidence decides the trial (see the module
    # docstring for why stopping there is exact).  ``window`` holds stream
    # bytes lo..hi, and ``paths`` sits at output hi // 8.
    window = b""
    lo = hi = 0
    matches = 0
    stride = m * width
    for t in range(trials):
        genuine = node(base_data[t].tobytes())
        forged = node(sub_data[t].tobytes())
        start = t * stride
        end = start + stride
        while genuine != forged and start < end:
            if start + width > hi:
                lo = start - start % 8
                paths.advance(lo // 8 - hi // 8)  # backwards is exact too
                window = _read_window(paths, lo, width, mask)
                hi = lo + _WINDOW_BYTES
            # Fold the levels whose elements lie wholly in the window.  The
            # inner loop makes no refill test, so a level costs no more
            # than with the whole path in memory.
            i = start - lo
            stop = min(end, hi - width + 1) - lo
            while genuine != forged and i < stop:
                s = window[i : i + width]
                genuine = node(genuine + s)
                forged = node(forged + s)
                i += width
            start = lo + i
        matches += genuine == forged
    return matches


def _read_window(paths: np.random.BitGenerator, lo: int, width: int, mask: int) -> bytes:
    """The next _WINDOW_BYTES stream bytes, which start at stream byte ``lo``.

    ``mask`` is applied to the last byte of every ``width``-byte path element
    in the window; elements start at stream byte 0.
    """
    raw = paths.random_raw(_WINDOW_WORDS).astype("<u8", copy=False).view("u1")
    if mask != 0xFF:
        raw[(width - 1 - lo) % width :: width] &= mask
    return raw.tobytes()


# A cell passes when |z_score| is at most this.
Z_LIMIT = 5.0


def cell_statistics(
    bits: int, path_len: int, total_trials: int, matches: int
) -> tuple[float, float, float]:
    """(exact_p, std_error, z_score): the closed form P at (bits, path_len),
    sqrt(P(1 - P) / total_trials), and (matches / total_trials - P) / std_error
    (0 where std_error is 0)."""
    import mpmath

    exact = exact_falsification_prob(PathParams(bits, path_len))
    with mpmath.workdps(PRECISION_DPS):
        std_error = mpmath.sqrt(exact * (1 - exact) / total_trials)
        z = (
            (mpmath.mpf(matches) / total_trials - exact) / std_error
            if std_error != 0
            else mpmath.mpf(0)
        )
    return float(exact), float(std_error), float(z)


def _finalize_cell(config: ExperimentConfig, matches: int) -> CellResult:
    total = config.total_trials
    stats = cell_statistics(config.bits, config.path_len, total, matches)
    return CellResult(config, matches, total, matches / total, *stats)


def _run_range(task: tuple[ExperimentConfig, int, int]) -> int:
    # Pool workers receive this function by name and look run_experiment up
    # when called, so a wrapper installed on it (a tracer, say) runs there too.
    config, start, stop = task
    return sum(run_experiment(config, k) for k in range(start, stop))


def run_grid(configs: list[ExperimentConfig], workers: int = 1) -> list[CellResult]:
    """One CellResult per config, in order; independent of worker count.

    Experiments fan out over a process pool of at most
    min(workers, number of experiments, CPU count) processes, as ranges of
    one cell's consecutive experiments, about four ranges per process.  The
    pool receives at most len(configs) + 4 * pool size ranges, so the
    parent's memory does not grow with the number of experiments.  Range
    counts come back in order, and each cell is summed as they arrive.
    """
    if not configs:
        raise ValueError("run_grid needs at least one config")
    _require_int("workers", workers, 1)
    num_tasks = sum(config.num_experiments for config in configs)
    # The pool starts all of its processes up front, so never ask for more
    # than there are tasks or CPUs to run them.
    pool_size = min(workers, num_tasks, os.cpu_count() or 1)
    # ceil, so that whole ranges number at most 4 * pool_size; each cell
    # adds at most one part-filled range.
    step = -(-num_tasks // (4 * pool_size))
    tasks = (
        (config, start, min(start + step, config.num_experiments))
        for config in configs
        for start in range(0, config.num_experiments, step)
    )
    if pool_size == 1:
        return _sum_cells(configs, step, map(_run_range, tasks))
    # numpy first, so that forked workers inherit it and none imports it
    # again (see the module docstring).
    import numpy  # noqa: F401
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return _sum_cells(configs, step, pool.map(_run_range, tasks))


def _sum_cells(configs: list[ExperimentConfig], step: int, counts) -> list[CellResult]:
    """Each config's CellResult from its next ceil(num_experiments / step) range counts."""
    return [
        _finalize_cell(config, sum(islice(counts, -(-config.num_experiments // step))))
        for config in configs
    ]


def build_grid(
    bits_list,
    path_lens,
    **common,
) -> list[ExperimentConfig]:
    """Configs for bits_list x path_lens, row-major, sharing common settings."""
    validate_grid(bits_list, path_lens)
    return [
        ExperimentConfig(bits=b, path_len=m, **common)
        for b in bits_list
        for m in path_lens
    ]
