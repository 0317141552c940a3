"""Seeded Monte Carlo check of the closed-form falsification probability.

Runs a small grid of simulation cells, prints the report table, and writes
an SVG chart next to this script.  Everything is derived from one master
seed, so rerunning (at any worker count) reproduces the bytes exactly.
"""

import pathlib
import time

from merkle_falsify import ReportTable, build_grid, run_grid
from merkle_falsify.figure import render_figure

grid = build_grid(
    bits_list=[2, 4, 6],
    path_lens=[0, 10, 100],
    trials_per_experiment=1000,
    num_experiments=20,
    master_seed=0,
)
start = time.perf_counter()
cells = run_grid(grid, workers=2)
print(f"{len(cells)} cells in {time.perf_counter() - start:.1f}s")
print()

table = ReportTable.from_simulation(cells)
print(table.to_markdown())

# z-scores compare the empirical rate against the closed form under a
# known-p binomial model; |z| <= 5 is the pass band of CellResult.passed.
worst = max(cells, key=lambda c: abs(c.z_score))
print(
    f"worst cell: b={worst.bits} m={worst.path_len}"
    f"  z = {worst.z_score:+.2f}"
)

out = pathlib.Path(__file__).with_name("monte_carlo_replay.svg")
out.write_text(render_figure(cells))
print("figure written to", out.name)
