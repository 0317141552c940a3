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
``hashing.node_fn``, bound once per experiment to the experiment's
``HashSpec``; an ideal-oracle experiment's spec carries its own oracle seed.
The simulator keeps no copy of the truncation or oracle logic, and hashes raw
bytes without building ``Digest`` values.

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
trials and m are.  A window holds whole path elements: it starts at a
multiple of ``lcm(width, 8)`` stream bytes, a whole number of both elements
and 64-bit outputs, and holds as many such units as fit in 4 KiB.  So no
element spans two windows, and the stream is only ever read forward.

Imports: the package imports this module, but only ``simulate`` runs
experiments, so it loads neither numpy nor mpmath at import.
``run_experiment`` imports numpy itself, and ``run_grid`` imports
``concurrent.futures.ProcessPoolExecutor`` only when it starts a pool.
Before it starts one, ``run_grid`` imports ``numpy.random``, so that workers
started by fork inherit the loaded modules instead of each importing them
again; numpy 2 loads ``numpy.random`` lazily, so ``import numpy`` alone
leaves each worker to import it on its first experiment.
``CellResult`` scores a cell with ``probability``'s closed form and its
private ``_cell_scores``, which import mpmath's ``libmp`` on their first
value; this module imports no mpmath.  So of the commands only ``prob``,
``table``, ``simulate`` and ``figure`` load mpmath, and only ``simulate``
loads numpy; ``merkle`` builds, proofs and verification load neither.
"""

from __future__ import annotations

import hashlib
import math
import os
import string
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from .hashing import _MAX_BITS, _MAX_SEED, IDEAL, SHA256, HashSpec, _require_int, node_fn
from .probability import PathParams, _cell_scores, exact_falsification_prob, grid_cells

if TYPE_CHECKING:
    import numpy as np

ALPHABET = string.ascii_letters + string.digits
_ALPHABET_BYTES = ALPHABET.encode("ascii")

WIDE = "wide"
TRUNCATED = "truncated"
_SIBLING_MODES = (WIDE, TRUNCATED)

# Length of every base and substitute datum, in alphabet characters.
DATA_LENGTH = 16

# Bytes one experiment's draws may take: four trials x DATA_LENGTH uint8
# arrays, so 10**6 trials.  A larger total is spread over more experiments.
# ExperimentConfig refuses a config above it.
MAX_DRAW_BYTES = 64 * 10**6

# Width of a wide path element; matches the full SHA-256 digest.
WIDE_SIBLING_BYTES = 32

# Path bytes are read from the stream in windows of at most this many bytes
# (4 KiB, 128 wide levels), cut to a whole number of path elements.
_WINDOW_BYTES = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell's settings, each checked at construction.

    ``bits`` is the hash width (1..256 for sha256, 1..64 for the ideal
    oracle) and ``path_len`` the number of fold levels m >= 0.
    ``trials_per_experiment`` and ``num_experiments`` are counts >= 1, and
    ``total_trials`` is their product.  ``oracle_kind`` is ``sha256`` or
    ``ideal``, ``sibling_mode`` is ``wide`` (32-byte path elements) or
    ``truncated`` (b-bit ones), and ``master_seed`` is in 0..2^64 - 1.
    Last, one experiment's draws, ``4 * trials_per_experiment * DATA_LENGTH``
    bytes, must fit in ``MAX_DRAW_BYTES``, so an over-cap grid is refused
    when it is built, before any draw.

    The config holds settings only.  ``run_experiment`` derives the rest from
    ``(config, experiment_index)``: the draw seed, the oracle seed, the one
    ``HashSpec`` it hashes with, the path-element width and the pad mask.
    """

    bits: int
    path_len: int
    trials_per_experiment: int = 1000
    num_experiments: int = 100
    oracle_kind: str = SHA256
    sibling_mode: str = WIDE
    master_seed: int = 0

    def __post_init__(self) -> None:
        HashSpec(self.oracle_kind, self.bits)  # validates oracle_kind and bits range
        PathParams(self.bits, self.path_len)  # validates path_len
        _require_int("trials_per_experiment", self.trials_per_experiment, 1)
        _require_int("num_experiments", self.num_experiments, 1)
        if self.sibling_mode not in _SIBLING_MODES:
            raise ValueError(f"sibling_mode must be {WIDE!r} or {TRUNCATED!r}")
        _require_int("master_seed", self.master_seed, 0, _MAX_SEED)
        draw_bytes = 4 * self.trials_per_experiment * DATA_LENGTH
        if draw_bytes > MAX_DRAW_BYTES:
            raise ValueError(
                f"trials_per_experiment {self.trials_per_experiment} needs "
                f"{draw_bytes} bytes of draws, above {MAX_DRAW_BYTES}; spread the "
                "trials over more experiments (--experiments)"
            )

    @property
    def total_trials(self) -> int:
        return self.trials_per_experiment * self.num_experiments


# A cell passes (CellResult.passed) when |z_score| is at most this.
Z_LIMIT = 5.0


@dataclass(frozen=True)
class CellResult:
    """One simulated cell: the integers of its CSV row, scored against the
    closed form.

    The five fields are range-checked, in the order listed here: total_trials
    >= 1, matches in 0..total_trials, bits in 1..256 (SHA-256 is the widest
    hash a simulation runs), path_len >= 0 and seed in 0..2^64 - 1.  Then
    exact_p is the closed form P at (bits, path_len), std_error is
    sqrt(P(1 - P) / total_trials) and z_score is
    (matches / total_trials - P) / std_error.  Each step is rounded to
    nearest at 243 bits, the closed forms' own precision, on mpmath's
    ``libmp`` tuples, and no mpmath context is read or written.

    std_error is 0 only where the closed form's P rounds to 1.  There
    z is 0 if every trial matched and -inf otherwise, so a saturated cell with
    a shortfall fails instead of passing.  ``passed`` is |z_score| <= Z_LIMIT.
    """

    bits: int
    path_len: int
    total_trials: int
    matches: int
    seed: int
    exact_p: float = field(init=False)
    std_error: float = field(init=False)
    z_score: float = field(init=False)

    def __post_init__(self) -> None:
        _require_int("total_trials", self.total_trials, 1)
        _require_int("matches", self.matches, 0, self.total_trials)
        _require_int("bits", self.bits, 1, _MAX_BITS[SHA256])
        _require_int("path_len", self.path_len, 0)
        _require_int("seed", self.seed, 0, _MAX_SEED)
        exact = exact_falsification_prob(PathParams(self.bits, self.path_len))
        exact_p, std_error, z_score = _cell_scores(exact, self.total_trials, self.matches)
        object.__setattr__(self, "exact_p", exact_p)
        object.__setattr__(self, "std_error", std_error)
        object.__setattr__(self, "z_score", z_score)

    @property
    def empirical_p(self) -> float:
        return self.matches / self.total_trials

    @property
    def passed(self) -> bool:
        return abs(self.z_score) <= Z_LIMIT


def _derive_seed(tag: str, master_seed: int, bits: int, path_len: int, index: int) -> int:
    """Low 64 bits of SHA-256("<tag>:<master>:<bits>:<path_len>:<index>").

    Tag "seed" seeds an experiment's draws; tag "oracle" is the seed of its
    ideal-oracle ``HashSpec``, so the oracle's randomness never overlaps the
    draw stream.  A ``sha256`` experiment derives only the first.
    """
    text = f"{tag}:{master_seed}:{bits}:{path_len}:{index}"
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[-8:], "big")


def run_experiment(config: ExperimentConfig, experiment_index: int) -> int:
    """Match count for one seeded batch of trials_per_experiment trials.

    ``config`` checked its settings, the draw cap among them, when it was
    built; only ``experiment_index`` is checked here.
    """
    # The index is part of the seed text, so 1.0 or True would silently
    # draw a different stream than 1.
    _require_int("experiment_index", experiment_index, 0, config.num_experiments - 1)
    import numpy as np

    key = (config.master_seed, config.bits, config.path_len, experiment_index)
    seed = _derive_seed("seed", *key)
    rng = np.random.default_rng(seed)
    oracle_seed = _derive_seed("oracle", *key) if config.oracle_kind == IDEAL else 0
    spec = HashSpec(config.oracle_kind, config.bits, seed=oracle_seed)
    node = node_fn(spec)
    # Path elements: 32 bytes wide, or b bits in truncated mode, where every
    # element's last byte loses its pad bits.
    truncated = config.sibling_mode == TRUNCATED
    width = spec.nbytes if truncated else WIDE_SIBLING_BYTES
    mask = spec.last_byte_mask if truncated else 0xFF

    trials = config.trials_per_experiment
    m = config.path_len
    length = DATA_LENGTH

    # Fixed draw order: path bytes, base data, substitute data, resamples.
    # The path bytes are read later, from a second PCG64 seeded like the
    # main generator (so it starts at the same state), and only where a fold
    # consumes them; the main generator skips past them.  Like
    # Generator.bytes(n), which draws ceil(n / 4) 32-bit halves, it ends with
    # the high half of the last output buffered when that count is odd.
    paths = np.random.PCG64(seed)
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

    # Lockstep fold; the first coincidence decides the trial (see the module
    # docstring for why stopping there is exact).  Windows start at a
    # multiple of ``unit`` stream bytes, a whole number of both path elements
    # and 64-bit outputs, and are a whole number of units long, so no element
    # crosses a window's edge.  ``window`` holds stream bytes
    # lo .. lo + len(window), and ``paths`` sits just past them.
    unit = math.lcm(width, 8)
    size = _WINDOW_BYTES - _WINDOW_BYTES % unit
    window = b""
    lo = 0
    matches = 0
    stride = m * width
    for t in range(trials):
        genuine = node(base_data[t].tobytes())
        forged = node(sub_data[t].tobytes())
        start = t * stride
        end = start + stride
        while genuine != forged and start < end:
            if start >= lo + len(window):
                paths.advance((start - start % unit - lo - len(window)) // 8)
                lo = start - start % unit
                window = _read_window(paths, size, width, mask)
            # Fold this trial's levels in the window.  The inner loop makes
            # no refill test, so a level costs no more than with the whole
            # path in memory.
            for i in range(start - lo, min(end - lo, size), width):
                s = window[i : i + width]
                genuine = node(genuine + s)
                forged = node(forged + s)
                if genuine == forged:
                    break
            start = lo + i + width
        matches += genuine == forged
    return matches


def _read_window(paths: np.random.BitGenerator, size: int, width: int, mask: int) -> bytes:
    """The next ``size`` stream bytes, a whole number of ``width``-byte path
    elements that starts on an element's first byte.

    ``mask`` is applied to the last byte of every element in the window.
    """
    raw = paths.random_raw(size // 8).astype("<u8", copy=False).view("u1")
    if mask != 0xFF:
        raw[width - 1 :: width] &= mask
    return raw.tobytes()


def _run_range(task: tuple[ExperimentConfig, int, int]) -> int:
    # Pool workers receive this function by name and look run_experiment up
    # when called, so a wrapper installed on it (a tracer, say) runs there too.
    config, start, stop = task
    return sum(run_experiment(config, k) for k in range(start, stop))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one.

    ``os.cpu_count()`` counts the host's CPUs, which can be many more than a
    cpuset or ``taskset`` lets this process use.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid(configs: list[ExperimentConfig], workers: int = 1) -> list[CellResult]:
    """One CellResult per config, in order; independent of worker count.

    ``configs`` may be any iterable; it is read once.

    Experiments fan out over a process pool of at most
    min(workers, number of experiments, usable CPUs) processes, as ranges of
    one cell's consecutive experiments, about four ranges per process.  The
    pool receives at most len(configs) + 4 * pool size ranges, so the
    parent's memory does not grow with the number of experiments.  Range
    counts come back in order, and each cell is summed as they arrive.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_grid needs at least one config")
    _require_int("workers", workers, 1)
    num_tasks = sum(config.num_experiments for config in configs)
    # The pool starts all of its processes up front, so never ask for more
    # than there are tasks or CPUs to run them.
    pool_size = min(workers, num_tasks, _usable_cpus())
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
    # numpy.random first, so that forked workers inherit it and none imports
    # it again (see the module docstring).
    import numpy.random  # noqa: F401
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return _sum_cells(configs, step, pool.map(_run_range, tasks))


def _sum_cells(configs: list[ExperimentConfig], step: int, counts) -> list[CellResult]:
    """Each config's CellResult from its next ceil(num_experiments / step) range counts."""
    return [
        CellResult(
            config.bits,
            config.path_len,
            config.total_trials,
            sum(islice(counts, -(-config.num_experiments // step))),
            config.master_seed,
        )
        for config in configs
    ]


def build_grid(
    bits_list,
    path_lens,
    **common,
) -> list[ExperimentConfig]:
    """Configs for bits_list x path_lens, row-major, sharing common settings."""
    return [
        ExperimentConfig(bits=b, path_len=m, **common)
        for b, m in grid_cells(bits_list, path_lens)
    ]
