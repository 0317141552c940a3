"""Benchmark for merkle-falsify: one workload per run, checked and timed.

    python3 bench/run.py --workload sim-saturating --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``./src`` and
writes only under ``./.bench_out``.  Workloads: sim-saturating, sim-sparse,
tree-verify, analytic-table (see bench/README.md).

``--trace 0`` reports the end-to-end metrics: set-up is timed in several
fresh interpreters, and one fresh interpreter repeats the workload for
``--seconds``, checks every output, and times a fixed reference loop
between repetitions.  ``--trace 1`` reports the per-layer
metrics: two counting passes give exact counts, which must repeat and keep
the count identities, and a traced pass gives layer timings and the tracing
overhead.  Every metric is printed as ``name value unit`` and the last
stdout line is one JSON object; a run record with the versions, sample
counts and computed bytes goes to ``.bench_out/record-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracing import percentile

BENCH = Path(__file__).resolve().parent
DEADLINE_S = 170.0
# Fresh interpreters timed for set-up, besides the measuring one: half before
# the measure pass and half after, so the median spans the whole run.
SETUP_PROBES = 12


class BenchError(Exception):
    pass


def run_child(role: str, args, out: Path, started: float) -> dict:
    remaining = DEADLINE_S - (monotonic() - started)
    if remaining <= 0:
        raise BenchError(f"no time left for the {role} pass")
    cmd = [
        sys.executable, str(BENCH / "child.py"), role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--out", str(out),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} pass exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{role} pass exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} pass printed nothing")
    return json.loads(lines[-1])


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git, without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(args, out: Path, started: float) -> tuple[dict, dict, dict]:
    # The first interpreter also compiles bytecode; users pay that once.
    run_child("setup", args, out, started)
    probes = SETUP_PROBES // 2
    setups = [run_child("setup", args, out, started)["setup_s"] for _ in range(probes)]
    res = run_child("measure", args, out, started)
    setups.append(res["setup_s"])
    setups += [run_child("setup", args, out, started)["setup_s"] for _ in range(probes)]

    n = len(res["walls"])
    metrics = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "wall_rel": metric(statistics.median(res["wall_rel"]), "ratio", n),
        "peak_rss_mib": metric(res["peak_rss_mib"], "MiB", 1),
        "wall_s": metric(statistics.median(res["walls"]), "s", n),
        "ref_s": metric(statistics.median(res["refs"]), "s", len(res["refs"])),
        "fail_frac": metric(res["failed"] / res["attempted"], "ratio", res["attempted"]),
    }
    samples = res["samples"]
    if "verify_us" in samples:
        v = samples["verify_us"]
        metrics["build_leaves_per_s"] = metric(
            statistics.median(samples["build_leaves_per_s"]), "1/s",
            len(samples["build_leaves_per_s"]))
        metrics["verify_p50_us"] = metric(percentile(v, 0.50), "us", len(v))
        metrics["verify_p99_us"] = metric(percentile(v, 0.99), "us", len(v))
    return metrics, res, {
        "setup_s_samples": setups,
        "wall_s_samples": res["walls"],
        "ref_s_samples": res["refs"],
        "wall_rel_samples": res["wall_rel"],
    }


def per_layer(args, out: Path, started: float) -> tuple[dict, dict, dict]:
    first = run_child("count", args, out, started)
    second = run_child("count", args, out, started)
    tr = run_child("trace", args, out, started)

    counts = first["counts"]
    attempted = first["attempted"] + second["attempted"] + tr["attempted"]
    failed = first["failed"] + second["failed"] + tr["failed"]
    failures = {}
    for r in (first, second, tr):
        for k, n in r["failures"].items():
            failures[k] = failures.get(k, 0) + n
    # Checks: the counts repeat exactly and keep the identities that hold
    # for any correct program.
    checked = {"counts_repeat": second["counts"] == counts, **first["identities"]}
    for name, ok in checked.items():
        attempted += 1
        if not ok:
            failed += 1
            failures[f"counters.{name}"] = 1
    # Self-test of the instrumentation, not a check: at the commit that added
    # this benchmark every count equals its closed formula.  A faster
    # algorithm (early exit, fewer Digests) lowers some of them.
    self_test = {
        f"formula.{name}": "equal" if counts[name] == want
        else ("below" if counts[name] < want else "above")
        for name, want in first["closed_form"].items()
    }

    experiments = counts["experiments"]
    trials = first["samples"].get("csv_trials", 0)
    m = {}
    m["hashing.sha256_calls"] = metric(counts["sha256_calls"], "count", 1)
    m["hashing.sha256_bytes"] = metric(counts["sha256_bytes"], "bytes", 1)
    m["hashing.raw_sha256_ns"] = metric(tr["raw_sha256_ns"], "ns", 5)
    m["hashing.raw_sha256_ns_64"] = metric(tr["raw_sha256_ns_64"], "ns", 5)
    m["hashing.oracle_queries"] = metric(counts["oracle_queries"], "count", 1)
    m["hashing.oracle_misses"] = metric(counts["oracle_misses"], "count", 1)
    q = counts["oracle_queries"]
    hit = (q - counts["oracle_misses"]) / q if q else 0.0
    m["hashing.oracle_hit_ratio"] = metric(hit, "ratio", 1)
    m["hashing.digests_built"] = metric(counts["digests_built"], "count", 1)

    # Node hashes: oracle queries on the ideal oracle, SHA-256 calls otherwise.
    hashes = q or counts["sha256_calls"]
    detail = tr["metrics"]
    exp_s = detail.get("simulate.run_experiment_total_s", {}).get("value", 0.0)
    grid_s = detail.get("simulate.run_grid_s", {}).get("value", 0.0)
    ns_per_hash = exp_s * 1e9 / hashes if exp_s and hashes else 0.0
    m["simulate.experiments"] = metric(experiments, "count", 1)
    m["simulate.trials"] = metric(trials, "count", 1)
    m["simulate.hashes_per_trial"] = metric(
        hashes / trials if trials else 0.0, "hashes/trial", 1)
    m["simulate.kernel_frac"] = metric(
        tr["raw_sha256_ns"] / ns_per_hash if ns_per_hash else 0.0, "ratio", 1)
    m["simulate.pool_efficiency"] = metric(
        exp_s / (tr["workers"] * grid_s) if grid_s else 0.0, "ratio", 1)
    if ns_per_hash:
        detail["simulate.ns_per_hash"] = metric(ns_per_hash, "ns", 1)

    fs = first["samples"]
    attempts = fs.get("tamper_attempts", 0)
    m["merkle.tamper_rejected"] = metric(fs.get("tamper_rejected", 0), "count", attempts)
    m["merkle.tamper_rejected_ratio"] = metric(
        fs["tamper_rejected"] / attempts if attempts else 0.0, "ratio", attempts)
    if "merkle.build_tree_s" in detail:
        detail["merkle.build_us_per_leaf"] = metric(
            detail["merkle.build_tree_s"]["value"] * 1e6 / fs["leaves_built"], "us", 1)
    m["report.format_sig_calls"] = metric(counts["format_sig_calls"], "count", 1)
    m["figure.svg_bytes"] = metric(fs.get("svg_bytes", 0), "bytes", 1)
    for layer in ("cli", "simulate", "merkle", "probability", "report", "figure"):
        m[f"{layer}.self_frac"] = metric(
            tr["layer_self_frac"].get(layer, 0.0), "ratio", len(tr["traced_walls"]))
    m["trace.overhead_frac"] = metric(tr["overhead_frac"], "ratio", len(tr["traced_walls"]))
    m["fail_frac"] = metric(failed / attempted, "ratio", attempted)

    res = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "workers": tr["workers"],
        "count_pass_workers": first["workers"],
        "versions": tr["versions"],
        "computed_bytes_hashed": tr["computed_bytes_hashed"],
    }
    extra = {
        "detail_metrics": detail,
        "counts": counts,
        "closed_form_counts": first["closed_form"],
        "count_checks": checked,
        "counter_self_test": self_test,
        "untraced_walls": tr["untraced_walls"],
        "traced_walls": tr["traced_walls"],
    }
    return m, res, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()
    root = Path.cwd()

    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        listed = spec["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    if not (root / "src" / "merkle_falsify" / "__init__.py").is_file():
        print("error: run from the repository root: ./src/merkle_falsify is missing",
              file=sys.stderr)
        return 2

    out = root / ".bench_out"
    try:
        if args.trace:
            metrics, res, extra = per_layer(args, out, started)
        else:
            metrics, res, extra = end_to_end(args, out, started)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (samples={m['samples']})")
    for name, m in extra.get("detail_metrics", {}).items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (samples={m['samples']})")
    for name, verdict in extra.get("counter_self_test", {}).items():
        print(f"self-test {name}: count {verdict} closed form")
    print(f"checks: {res['failed']} failed of {res['attempted']} attempted"
          + (f" {res['failures']}" if res["failures"] else ""))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "cpu_count": os.cpu_count(),
        "workers": res["workers"],
        "versions": res["versions"],
        "computed_bytes_hashed": {
            "value": res["computed_bytes_hashed"],
            "note": "computed from workload sizes, not measured",
        },
        "checks": {k: res[k] for k in ("attempted", "failed", "failures")},
        "metrics": metrics,
        **extra,
    }
    if "count_pass_workers" in res:
        record["count_pass_workers"] = res["count_pass_workers"]
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            e["name"]: {"value": metrics[e["name"]]["value"], "unit": e["unit"]}
            for e in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
