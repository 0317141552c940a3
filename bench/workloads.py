"""The four benchmark workloads, driven through the package's public calls.

Each workload has:

- ``prepare(seed, workdir, serial)``: the inputs, made from the seed alone;
- ``rep(inputs, checks)``: one complete run, whose outputs it checks
  against ``reference``; returns its samples;
- ``span_targets()``: the attributes a traced run wraps in spans;
- ``closed_form_counts(inputs)``: the counts this commit's algorithm gives,
  recorded beside the counting pass's counts as its self-test;
- ``identities(inputs, counts)``: relations between counts that any correct
  program keeps, whatever its algorithm; each is a pass/fail check;
- ``computed_bytes(inputs)``: bytes fed to the hash kernel, from sizes.

Sizes are fixed here, not by flags, so that every commit measures the same
work; the pinned outputs in ``reference`` belong to these sizes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from merkle_falsify import cli, figure, hashing, merkle, probability, report, simulate

import reference


class Checks:
    """Output checks: how many were attempted and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] = self.failures.get(name, 0) + 1

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}


def pool_workers() -> int:
    """Never more pool workers than CPUs, and never more than two."""
    return min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class SimInputs:
    seed: int
    workers: int
    sim_argv: list[str]
    fig_argv: list[str]
    csv_path: Path
    svg_path: Path


class Simulate:
    """``simulate`` on a fixed grid, then ``figure`` on the CSV it wrote."""

    def __init__(self, name, oracle, bits, path_lens, trials, experiments, parallel):
        self.name = name
        self.oracle = oracle
        self.bits = bits
        self.path_lens = path_lens
        self.trials = trials
        self.experiments = experiments
        self.parallel = parallel
        self.cells = [(b, m) for b in bits for m in path_lens]

    def prepare(self, seed: int, workdir: Path, serial: bool) -> SimInputs:
        workers = pool_workers() if self.parallel and not serial else 1
        csv_path = workdir / f"{self.name}.csv"
        svg_path = workdir / f"{self.name}.svg"
        sim_argv = [
            "simulate",
            "--oracle", self.oracle,
            "--siblings", simulate.WIDE,
            "--bits", ",".join(map(str, self.bits)),
            "--path-lens", ",".join(map(str, self.path_lens)),
            "--trials", str(self.trials),
            "--experiments", str(self.experiments),
            "--seed", str(seed),
            "--workers", str(workers),
            "--output", str(csv_path),
        ]
        fig_argv = ["figure", str(csv_path), "--output", str(svg_path)]
        return SimInputs(seed, workers, sim_argv, fig_argv, csv_path, svg_path)

    def rep(self, inp: SimInputs, checks: Checks) -> dict:
        status = io.StringIO()
        with contextlib.redirect_stdout(status):
            rc_sim = cli.main(inp.sim_argv)
            rc_fig = cli.main(inp.fig_argv)
        csv_bytes = inp.csv_path.read_bytes()
        svg = inp.svg_path.read_text(encoding="utf-8")

        # Exit 0 means every cell lies within +-5 sigma of the closed form.
        checks.add("simulate.exit_0", rc_sim == 0)
        checks.add("figure.exit_0", rc_fig == 0)
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        got = sorted((int(r["bits"]), int(r["path_len"])) for r in rows)
        checks.add("csv.one_row_per_cell", got == sorted(self.cells))
        for r in rows:
            total, matches = int(r["total_trials"]), int(r["matches"])
            checks.add(
                "csv.row_fields",
                total == self.trials * self.experiments
                and 0 <= matches <= total
                and int(r["seed"]) == inp.seed,
            )
            if reference.saturated(int(r["bits"]), int(r["path_len"])):
                checks.add("csv.saturated_cells_match_every_trial", matches == total)
        checks.add("svg.one_marker_per_cell", svg.count('class="marker"') == len(self.cells))
        if inp.seed == reference.DEFAULT_SEED:
            digest = hashlib.new("sha256", csv_bytes).hexdigest()
            checks.add("csv.pinned_sha256", digest == reference.PINNED_CSV_SHA256[self.name])
        return {
            "svg_bytes": len(svg.encode("utf-8")),
            "csv_trials": sum(int(r["total_trials"]) for r in rows),
        }

    def configs(self, seed: int):
        return simulate.build_grid(
            self.bits,
            self.path_lens,
            trials_per_experiment=self.trials,
            num_experiments=self.experiments,
            oracle_kind=self.oracle,
            sibling_mode=simulate.WIDE,
            master_seed=seed,
        )

    def span_targets(self):
        return [
            (cli, "main", "cli.main"),
            (cli, "_write_output", "cli.write_output"),
            (cli, "run_grid", "simulate.run_grid"),
            (simulate, "run_experiment", "simulate.run_experiment"),
            (simulate, "exact_falsification_prob", "probability.exact"),
            (figure, "exact_falsification_prob", "probability.exact"),
            (report.ReportTable, "from_simulation", "report.from_simulation"),
            (report.ReportTable, "to_csv", "report.to_csv"),
            (report, "format_sig", "report.format_sig"),
            (cli, "read_simulation_csv", "figure.read_csv"),
            (cli, "render_figure", "figure.render"),
        ]

    def closed_form_counts(self, inp: SimInputs) -> dict:
        """This commit's counts: 2(m+1) node hashes per trial, each fold run
        to the root."""
        T, E = self.trials, self.experiments
        queries = sum(E * 2 * T * (m + 1) for _, m in self.cells)
        counts = {
            "experiments": E * len(self.cells),
            "format_sig_calls": 4 * len(self.cells),
        }
        if self.oracle == hashing.SHA256:
            # One seed-derivation hash per experiment, plus the node hashes.
            seed_bytes = sum(
                len(f"seed:{inp.seed}:{b}:{m}:{k}") for b, m in self.cells for k in range(E)
            )
            counts.update(
                sha256_calls=len(self.cells) * E + queries,
                sha256_bytes=seed_bytes + self.computed_bytes(inp),
                oracle_queries=0,
            )
        else:
            counts["oracle_queries"] = queries
        return counts

    def identities(self, inp: SimInputs, counts: dict) -> dict:
        if self.oracle == hashing.SHA256:
            return {}
        # Ideal oracle: two seed derivations per experiment, and one SHA-256
        # per memo miss, however many queries the folds make.
        seeds = 2 * len(self.cells) * self.experiments
        return {"ideal.sha256_is_seeds_plus_misses":
                counts["sha256_calls"] == seeds + counts["oracle_misses"]}

    def computed_bytes(self, inp: SimInputs) -> int:
        """Bytes passed to the node hash (SHA-256 or oracle) by the folds."""
        T, E = self.trials, self.experiments
        return sum(
            E * 2 * T * (16 + m * ((b + 7) // 8 + simulate.WIDE_SIBLING_BYTES))
            for b, m in self.cells
        )


@dataclass(frozen=True)
class TreeInputs:
    seed: int
    blocks: list[bytes]
    samples: dict  # bits -> list of (leaf index, tampered block)
    specs: dict  # bits -> HashSpec


class TreeVerify:
    """build_tree, then prove / JSON round-trip / verify / tamper per sample."""

    name = "tree-verify"
    LEAVES = 1 << 16
    DEPTH = LEAVES.bit_length() - 1
    BLOCK_BYTES = 64
    WIDTHS = (256, 12)
    SAMPLES = 512  # per width and per run: >= 10 verify samples beyond p99

    def prepare(self, seed: int, workdir: Path, serial: bool) -> TreeInputs:
        rng = random.Random(seed)
        raw = rng.randbytes(self.BLOCK_BYTES * self.LEAVES)
        n = self.BLOCK_BYTES
        blocks = [raw[i * n : (i + 1) * n] for i in range(self.LEAVES)]
        samples = {}
        for bits in self.WIDTHS:
            picked = []
            for index in rng.sample(range(self.LEAVES), self.SAMPLES):
                forged = bytearray(blocks[index])
                forged[rng.randrange(n)] ^= rng.randrange(1, 256)
                picked.append((index, bytes(forged)))
            samples[bits] = picked
        specs = {bits: hashing.HashSpec(hashing.SHA256, bits) for bits in self.WIDTHS}
        return TreeInputs(seed, blocks, samples, specs)

    def rep(self, inp: TreeInputs, checks: Checks) -> dict:
        leaves = len(self.WIDTHS) * self.LEAVES
        build_s = 0.0
        verify_us = []
        rejected = 0
        for bits in self.WIDTHS:
            spec = inp.specs[bits]
            t0 = perf_counter()
            tree = merkle.build_tree(inp.blocks, spec)
            build_s += perf_counter() - t0
            root = tree.root
            if inp.seed == reference.DEFAULT_SEED:
                checks.add("tree.pinned_root", root.hex() == reference.PINNED_ROOTS[bits])
            for index, forged in inp.samples[bits]:
                proof = merkle.generate_proof(tree, index)
                text = merkle.proof_to_json(proof)
                t0 = perf_counter()
                back = merkle.proof_from_json(text)
                ok = merkle.verify_proof(inp.blocks[index], back, root, spec)
                verify_us.append((perf_counter() - t0) * 1e6)
                checks.add("proof.json_round_trip", back == proof)
                checks.add("proof.genuine_verifies", ok)
                accepted = merkle.verify_proof(forged, back, root, spec)
                # A forged block must be rejected unless its truncated fold
                # really collides with the root -- about 17 in 4096 at 12
                # bits, never in practice at 256.  The reference fold decides.
                steps = [(s.sibling.data, s.side == merkle.LEFT) for s in proof.steps]
                checks.add(
                    "proof.tampered_rejected_unless_collision",
                    accepted == reference.fold_matches(forged, steps, root.data, bits),
                )
                rejected += not accepted
        return {
            "leaves_built": leaves,
            "build_leaves_per_s": [leaves / build_s],
            "verify_us": verify_us,
            "tamper_rejected": rejected,
            "tamper_attempts": len(self.WIDTHS) * self.SAMPLES,
        }

    def span_targets(self):
        return [
            (merkle, "build_tree", "merkle.build_tree"),
            (merkle, "generate_proof", "merkle.generate_proof"),
            (merkle, "proof_to_json", "merkle.proof_to_json"),
            (merkle, "proof_from_json", "merkle.proof_from_json"),
            (merkle, "verify_proof", "merkle.verify_proof"),
        ]

    def closed_form_counts(self, inp: TreeInputs) -> dict:
        """Digests and hashes for a power-of-two tree and its proofs."""
        N, L, S, W = self.LEAVES, self.DEPTH, self.SAMPLES, len(self.WIDTHS)
        nodes = 2 * N - 1
        per_sample_hashes = 2 * (L + 1)  # genuine and forged verify
        return {
            "sha256_calls": W * (nodes + S * per_sample_hashes),
            "sha256_bytes": self.computed_bytes(inp),
            # plus the L siblings each proof_from_json validates
            "digests_built": W * (nodes + S * (L + per_sample_hashes)),
            "oracle_queries": 0,
            "format_sig_calls": 0,
            "experiments": 0,
        }

    def identities(self, inp: TreeInputs, counts: dict) -> dict:
        return {}

    def computed_bytes(self, inp: TreeInputs) -> int:
        N, L, S = self.LEAVES, self.DEPTH, self.SAMPLES
        total = 0
        for bits in self.WIDTHS:
            node = 2 * ((bits + 7) // 8)
            total += N * self.BLOCK_BYTES + (N - 1) * node
            total += S * 2 * (self.BLOCK_BYTES + L * node)
        return total


@dataclass(frozen=True)
class AnalyticInputs:
    seed: int
    bits: tuple
    path_lens: tuple
    termsum_params: list


class AnalyticTable:
    """diff_table over a wide grid, rendered to CSV and markdown, plus the
    literal term-sum cross-check.  Deterministic: the seed selects nothing."""

    name = "analytic-table"
    BITS = tuple(range(1, 33))
    # 1-3-10 log spacing from 0 to 10^6, plus the published 50 and 500.
    PATH_LENS = (0, 1, 3, 10, 30, 50, 100, 300, 500, 1000, 3000,
                 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6)
    TERMSUM_BITS = tuple(range(1, 17))
    TERMSUM_PATH_LENS = (0, 1, 2, 3, 7, 64, 1000)

    def prepare(self, seed: int, workdir: Path, serial: bool) -> AnalyticInputs:
        params = [
            probability.PathParams(b, m)
            for b in self.TERMSUM_BITS
            for m in self.TERMSUM_PATH_LENS
        ]
        return AnalyticInputs(seed, self.BITS, self.PATH_LENS, params)

    def rep(self, inp: AnalyticInputs, checks: Checks) -> dict:
        estimates = probability.diff_table(inp.bits, inp.path_lens)
        table = report.ReportTable.from_estimates(estimates)
        csv_text = table.to_csv()
        markdown = table.to_markdown()
        sums = [probability.exact_falsification_prob_termsum(p) for p in inp.termsum_params]

        cells = len(inp.bits) * len(inp.path_lens)
        checks.add("table.cells", len(estimates) == cells)
        checks.add("table.csv_rows", csv_text.count("\n") == cells + 1)
        checks.add("table.markdown_rows", markdown.count("\n") == cells + 2)
        seen = 0
        for e in estimates:
            ref = reference.PUBLISHED_DIFFS.get((e.params.bits, e.params.path_len))
            if ref is not None:
                seen += 1
                err = reference.relative_error(repr(float(e.abs_diff)), ref)
                checks.add("table.published_cell", err <= reference.PUBLISHED_REL_TOL)
        checks.add("table.all_published_cells_present", seen == len(reference.PUBLISHED_DIFFS))
        for p, got in zip(inp.termsum_params, sums):
            checks.add(
                "termsum.exact_rational",
                got.exact_rational == reference.closed_form_rational(p.bits, p.path_len),
            )
        return {}

    def span_targets(self):
        return [
            (probability, "diff_table", "probability.diff_table"),
            (probability, "exact_falsification_prob", "probability.exact"),
            (probability, "approx_falsification_prob", "probability.approx"),
            (probability, "exact_falsification_prob_termsum", "probability.termsum"),
            (report.ReportTable, "from_estimates", "report.from_estimates"),
            (report.ReportTable, "to_csv", "report.to_csv"),
            (report.ReportTable, "to_markdown", "report.to_markdown"),
            (report, "format_sig", "report.format_sig"),
        ]

    def closed_form_counts(self, inp: AnalyticInputs) -> dict:
        return {
            "sha256_calls": 0,
            "digests_built": 0,
            "oracle_queries": 0,
            "format_sig_calls": 3 * len(inp.bits) * len(inp.path_lens),
            "experiments": 0,
        }

    def identities(self, inp: AnalyticInputs, counts: dict) -> dict:
        return {}

    def computed_bytes(self, inp: AnalyticInputs) -> int:
        return 0


# Sizes: one rep of each takes roughly 1-3 s on one core of a 2-CPU box.
WORKLOADS = {
    w.name: w
    for w in (
        Simulate("sim-saturating", hashing.SHA256, (2, 6), (200, 1000),
                 trials=50, experiments=2, parallel=False),
        Simulate("sim-sparse", hashing.IDEAL, (10, 14), (10, 50),
                 trials=500, experiments=16, parallel=True),
        TreeVerify(),
        AnalyticTable(),
    )
}
