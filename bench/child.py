"""One fresh interpreter per role; ``run.py`` starts these and reads the last
stdout line, a JSON object.

Roles:

- ``setup``: import the package and build the inputs, then exit;
- ``measure``: set up, then repeat the workload for ``--seconds``, untraced,
  with the reference loop timed before and after every repetition;
- ``count``: wrap hashlib and the package's counted calls, run the workload
  once, and report the exact counts, the count identities and the closed
  formulas of this commit;
- ``trace``: alternate untraced and traced repetitions for ``--seconds``,
  then write the spans and report per-layer timings.

Run from the repository root: the package is imported from ``./src``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing


def peak_rss_mib() -> float:
    """Peak RSS of this process or of any waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def merge(into: dict, samples: dict) -> None:
    for key, value in samples.items():
        if isinstance(value, list):
            into.setdefault(key, []).extend(value)
        else:
            into[key] = value


def timed_rep(wl, inp, checks) -> tuple[float, dict]:
    gc.collect()
    t0 = perf_counter()
    samples = wl.rep(inp, checks)
    return perf_counter() - t0, samples


# Calls in the reference loop that measures the host's speed beside each
# repetition: about 25 ms.
REF_CALLS = 40_000


def sha256_loop_s(size: int, loops: int) -> float:
    """Wall time of ``loops`` raw ``hashlib.sha256(x).digest()`` calls."""
    sha = hashlib.sha256
    data = bytes(range(size))
    t0 = perf_counter()
    for _ in range(loops):
        sha(data).digest()
    return perf_counter() - t0


def raw_sha256_ns(size: int, loops: int = 100_000, repeats: int = 5) -> float:
    """Median ns per raw ``hashlib.sha256(x).digest()`` call on ``size`` bytes."""
    return statistics.median(sha256_loop_s(size, loops) for _ in range(repeats)) / loops * 1e9


# Per-layer timings taken from spans: metric, span name, statistic, scale, unit.
# "per_rep" sums the span durations and divides by the traced repetitions.
SPAN_METRICS = (
    ("simulate.run_grid_s", "simulate.run_grid", "per_rep", 1.0, "s"),
    ("simulate.run_experiment_ms_p50", "simulate.run_experiment", "p50", 1e3, "ms"),
    ("simulate.run_experiment_ms_max", "simulate.run_experiment", "max", 1e3, "ms"),
    ("merkle.build_tree_s", "merkle.build_tree", "per_rep", 1.0, "s"),
    ("merkle.generate_proof_us_p50", "merkle.generate_proof", "p50", 1e6, "us"),
    ("merkle.proof_to_json_us_p50", "merkle.proof_to_json", "p50", 1e6, "us"),
    ("merkle.proof_from_json_us_p50", "merkle.proof_from_json", "p50", 1e6, "us"),
    ("merkle.verify_proof_us_p50", "merkle.verify_proof", "p50", 1e6, "us"),
    ("probability.exact_us", "probability.exact", "p50", 1e6, "us"),
    ("probability.approx_us", "probability.approx", "p50", 1e6, "us"),
    ("probability.diff_table_s", "probability.diff_table", "per_rep", 1.0, "s"),
    ("probability.termsum_s", "probability.termsum", "per_rep", 1.0, "s"),
    ("probability.termsum_max_cell_s", "probability.termsum", "max", 1.0, "s"),
    ("report.format_sig_us", "report.format_sig", "p50", 1e6, "us"),
    ("report.csv_s", "report.to_csv", "per_rep", 1.0, "s"),
    ("report.markdown_s", "report.to_markdown", "per_rep", 1.0, "s"),
    ("figure.read_csv_ms", "figure.read_csv", "per_rep", 1e3, "ms"),
    ("figure.render_ms", "figure.render", "per_rep", 1e3, "ms"),
)


def span_metrics(tracer: tracing.Tracer, reps: int) -> dict:
    out = {}
    for metric, span, stat, scale, unit in SPAN_METRICS:
        d = tracer.durations(span)
        if not d:
            continue
        if stat == "per_rep":
            value = sum(d) / reps
        elif stat == "max":
            value = max(d)
        else:
            value = tracing.percentile(d, 0.5)
        out[metric] = {"value": value * scale, "unit": unit, "samples": len(d)}
    return out


def role_measure(wl, inp, checks, seconds: float) -> dict:
    # The host's speed drifts by tens of percent over minutes.  The reference
    # loop, timed before and after each repetition, measures that drift; a
    # repetition's wall time over the mean of its two reference loops does
    # not drift with it.
    walls, refs, samples = [], [sha256_loop_s(33, REF_CALLS)], {}
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        wall, s = timed_rep(wl, inp, checks)
        refs.append(sha256_loop_s(33, REF_CALLS))
        walls.append(wall)
        merge(samples, s)
    return {
        "walls": walls,
        "refs": refs,
        "wall_rel": [2 * w / (a + b) for w, a, b in zip(walls, refs, refs[1:])],
        "samples": samples,
        **checks.summary(),
        "peak_rss_mib": peak_rss_mib(),
    }


def role_trace(wl, inp, checks, seconds: float, spans_path: Path) -> dict:
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = perf_counter()
    # Alternate A B B A ... so that drift within the run cancels out.
    while not traced or perf_counter() - start < seconds:
        for with_spans in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_spans:
                for owner, attr, name in wl.span_targets():
                    tracer.patch(owner, attr, name)
            try:
                wall, _ = timed_rep(wl, inp, checks)
            finally:
                tracer.restore()
            (traced if with_spans else plain).append(wall)
    reps = len(traced)
    metrics = span_metrics(tracer, reps)

    # Layer self time as a share of the traced repetitions' total wall time.
    self_times = tracer.self_times()
    layer_self: dict[str, float] = {}
    for name, t in self_times.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t / sum(traced)
    if "cli.main" in self_times:
        metrics["cli.self_s"] = {
            "value": self_times["cli.main"] / reps, "unit": "s", "samples": reps}

    # Pool workers record their spans in their own memory, so replay the
    # experiments serially, once, to give each its own span.
    replay = None
    if getattr(inp, "workers", 1) > 1:
        replay = tracing.Tracer()
        from merkle_falsify import simulate

        run_experiment = replay.wrap(simulate.run_experiment, "simulate.run_experiment")
        for config in wl.configs(inp.seed):
            for k in range(config.num_experiments):
                run_experiment(config, k)
        metrics.update(span_metrics(replay, 1))
        experiments = replay.durations("simulate.run_experiment")
        experiments_s = sum(experiments)
    else:
        experiments = tracer.durations("simulate.run_experiment")
        experiments_s = sum(experiments) / reps
    if experiments:
        metrics["simulate.run_experiment_total_s"] = {
            "value": experiments_s, "unit": "s", "samples": len(experiments)}

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent"],
                "spans": tracer.spans,
                "replay_spans": replay.spans if replay else [],
            },
            fh,
        )

    return {
        "untraced_walls": plain,
        "traced_walls": traced,
        "overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "layer_self_frac": layer_self,
        "metrics": metrics,
        "raw_sha256_ns": raw_sha256_ns(33),
        "raw_sha256_ns_64": raw_sha256_ns(64),
        **checks.summary(),
    }


def role_count(wl, inp, checks, counters: tracing.Counters) -> dict:
    tracing.install_package(counters)
    counters.reset()
    samples = wl.rep(inp, checks)
    counts = counters.snapshot()
    return {
        "counts": counts,
        "identities": wl.identities(inp, counts),
        "closed_form": wl.closed_form_counts(inp),
        "samples": samples,
        **checks.summary(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "measure", "count", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True, help="directory for scratch files and spans")
    args = parser.parse_args()

    out = Path(args.out)
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(Path.cwd() / "src"))

    counters = None
    if args.role == "count":
        counters = tracing.Counters()
        tracing.install_hashlib(counters)  # before the package is imported

    try:
        t0 = perf_counter()
        import workloads  # imports merkle_falsify

        wl = workloads.WORKLOADS[args.workload]
        inp = wl.prepare(args.seed, workdir, serial=args.role == "count")
        setup_s = perf_counter() - t0

        result = {"setup_s": setup_s}
        checks = workloads.Checks()
        if args.role == "measure":
            result.update(role_measure(wl, inp, checks, args.seconds))
        elif args.role == "count":
            result.update(role_count(wl, inp, checks, counters))
        elif args.role == "trace":
            spans = out / f"spans-{args.workload}-seed{args.seed}.json"
            result.update(role_trace(wl, inp, checks, args.seconds, spans))
        if args.role != "setup":
            import mpmath
            import numpy

            result.update(
                workers=getattr(inp, "workers", 1),
                computed_bytes_hashed=wl.computed_bytes(inp),
                versions={
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "mpmath": mpmath.__version__,
                },
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
