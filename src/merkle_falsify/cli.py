"""Command-line interface.

Subcommands: prob (single values), table (difference table), simulate
(Monte Carlo grid with CSV output), merkle (build/prove/verify over
newline-delimited block files), figure (SVG chart from a simulation CSV).

Exit codes: 0 success, 1 operational failure (verification mismatch, cell
beyond 5 sigma, unwritable output), 2 usage or malformed input.
``simulate`` finds an unwritable ``--output`` before it runs the grid.

A run is given wholly by its command line: no environment variable is read,
and the seed is ``--seed`` or its default.  ``table``'s and ``simulate``'s
``--bits`` default to the library's ``DEFAULT_BITS``, and ``table``'s
``--path-lens`` to ``DEFAULT_PATH_LENS``; argparse parses both list options,
so a malformed list is a usage error.  ``simulate``'s other defaults and
legal values are ``ExperimentConfig``'s field defaults and the library's
tuples, and ``merkle``'s ``--bits`` defaults to ``HashSpec``'s.

The argument parser is built once per process, on the first ``main`` call
(``build_parser`` is cached), not at import and not on every call.  Its
``set_defaults(func=...)`` binds each ``cmd_*`` function at that first
build, so a wrapper installed on a ``cmd_*`` name later is not seen.  The
names the ``cmd_*`` functions call (``run_grid``, ``render_figure``,
``_write_output`` and the rest) are still looked up on every call.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .figure import render_figure
from .hashing import _ALGORITHMS, SHA256, Digest, HashSpec
from .merkle import build_tree, generate_proof, proof_from_json, proof_to_json, verify_proof
from .probability import (
    DEFAULT_BITS,
    DEFAULT_PATH_LENS,
    PathParams,
    approx_falsification_prob,
    approximation_error,
    diff_table,
    exact_falsification_prob,
)
from .report import ReportTable, format_sig, read_simulation_csv
from .simulate import _SIBLING_MODES, Z_LIMIT, ExperimentConfig, build_grid, run_grid


def _int_list(text: str) -> list[int]:
    try:
        # "", "2,,4" and "2,4," each hold an empty item, which fails int().
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated list of integers: {text!r}"
        ) from None


class OutputError(Exception):
    """Output path cannot be written (exit code 1, not a usage error)."""


def _write_output(path, text: str, mode: str = "w") -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _read_blocks(path) -> list[bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    blocks = raw.split(b"\n")
    if blocks and blocks[-1] == b"":
        blocks.pop()
    if not blocks:
        raise ValueError(f"no data blocks in {path}")
    return blocks


def cmd_prob(args) -> int:
    params = PathParams(args.bits, args.path_len)
    if args.which == "exact":
        value = exact_falsification_prob(params)
    elif args.which == "approx":
        value = approx_falsification_prob(params)
    else:
        value = approximation_error(params).abs_diff
    print(format_sig(value))
    return 0


def cmd_table(args) -> int:
    table = ReportTable.from_estimates(diff_table(args.bits, args.path_lens))
    text = table.to_markdown() if args.format == "md" else table.to_csv()
    _write_output(args.output, text)
    return 0


def cmd_simulate(args) -> int:
    configs = build_grid(
        args.bits,
        args.path_lens,
        trials_per_experiment=args.trials,
        num_experiments=args.experiments,
        oracle_kind=args.oracle,
        sibling_mode=args.siblings,
        master_seed=args.seed,
    )
    # Appending nothing finds an unwritable --output before the grid runs,
    # and leaves an existing file as it is until the CSV replaces it.
    _write_output(args.output, "", "a")
    start = time.perf_counter()
    cells = run_grid(configs, workers=args.workers)
    duration = time.perf_counter() - start
    table = ReportTable.from_simulation(cells)
    status = sys.stdout if args.output else sys.stderr
    failed = 0
    for cell in cells:
        failed += not cell.passed
        status.write(
            f"bits={cell.bits} path_len={cell.path_len} "
            f"matches={cell.matches}/{cell.total_trials} "
            f"empirical={cell.empirical_p:.6g} exact={cell.exact_p:.6g} "
            f"z={cell.z_score:+.3f} {'PASS' if cell.passed else 'FAIL'}\n"
        )
    status.write(
        f"{len(cells)} cell(s), {failed} beyond {Z_LIMIT:g} sigma, "
        f"seed={args.seed}, {duration:.1f}s\n"
    )
    _write_output(args.output, table.to_csv())
    return 1 if failed else 0


def cmd_merkle(args) -> int:
    if args.action == "build":
        tree = build_tree(_read_blocks(args.input), HashSpec(SHA256, args.bits))
        print(tree.root.hex())
        return 0
    if args.action == "prove":
        tree = build_tree(_read_blocks(args.input), HashSpec(SHA256, args.bits))
        proof = generate_proof(tree, args.index)
        _write_output(args.output, proof_to_json(proof) + "\n")
        return 0
    with open(args.proof, "r", encoding="utf-8") as fh:
        proof = proof_from_json(fh.read())
    with open(args.block, "rb") as fh:
        block = fh.read()
    if block.endswith(b"\n"):
        block = block[:-1]
    spec = HashSpec(SHA256, proof.bits)
    root = Digest.from_hex(args.root, proof.bits)
    if verify_proof(block, proof, root, spec):
        print("OK")
        return 0
    print("MISMATCH")
    return 1


def cmd_figure(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        cells = read_simulation_csv(fh.read())
    _write_output(args.output, render_figure(cells))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="merkle-falsify",
        description="Truncated-hash Merkle paths: falsification probabilities, "
        "simulations, trees, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prob", help="print one probability value")
    p.add_argument("which", choices=("exact", "approx", "diff"))
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--path-len", type=int, required=True)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("table", help="exact/approx difference table")
    p.add_argument("--bits", type=_int_list, default=DEFAULT_BITS)
    p.add_argument("--path-lens", type=_int_list, default=DEFAULT_PATH_LENS)
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_table)

    # --path-lens and --workers keep literal defaults: the library states no
    # simulation grid of path lengths, and run_grid has no config to read.
    p = sub.add_parser("simulate", help="Monte Carlo grid, CSV output")
    p.add_argument("--bits", type=_int_list, default=DEFAULT_BITS)
    p.add_argument("--path-lens", type=_int_list, default=(10, 100, 1000))
    p.add_argument("--trials", type=int, default=ExperimentConfig.trials_per_experiment,
                   help="trials per experiment")
    p.add_argument("--experiments", type=int, default=ExperimentConfig.num_experiments,
                   help="experiments per cell")
    p.add_argument("--seed", type=int, default=ExperimentConfig.master_seed)
    p.add_argument("--oracle", choices=_ALGORITHMS, default=ExperimentConfig.oracle_kind)
    p.add_argument("--siblings", choices=_SIBLING_MODES, default=ExperimentConfig.sibling_mode,
                   help="path element width: full hash width, or truncated to --bits")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, capped at the CPUs this process may run on "
                        "and the experiment count")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("merkle", help="build/prove/verify on block files")
    ms = p.add_subparsers(dest="action", required=True)
    b = ms.add_parser("build", help="print the root of a newline-delimited block file")
    b.add_argument("input")
    b.add_argument("--bits", type=int, default=HashSpec.bits)
    v = ms.add_parser("prove", help="emit a proof JSON for one block")
    v.add_argument("input")
    v.add_argument("--index", type=int, required=True)
    v.add_argument("--bits", type=int, default=HashSpec.bits)
    v.add_argument("--output", default=None)
    w = ms.add_parser("verify", help="check a block file against proof and root")
    w.add_argument("--block", required=True)
    w.add_argument("--proof", required=True)
    w.add_argument("--root", required=True)
    p.set_defaults(func=cmd_merkle)

    p = sub.add_parser("figure", help="SVG chart from a simulation CSV")
    p.add_argument("input")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, OSError) as exc:
        # bad values, and unreadable or missing *input*, are usage problems
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
