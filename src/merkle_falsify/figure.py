"""Self-contained SVG chart of simulation results.

One series per bit width: theoretical curve (closed form), empirical
markers, and a 5-sigma band segment at each measured cell.  Both axes are
log-scaled; the x position of path length m is log10(m + 1) so m = 0 cells
still plot.  No plotting libraries, no external assets -- the output is a
single SVG string.

The curve is sampled with the closed form in double precision
(``exact_falsification_prob_float``): coordinates are written to 0.1 px,
far coarser than a float's last digit, so the 64-digit evaluation would
draw the same points at many times the cost.  Markers and bands use each
cell's own ``empirical_p``, ``exact_p`` and ``std_error``.
"""

from __future__ import annotations

import math

from .probability import PathParams, exact_falsification_prob_float
# Unused here, but the benchmark's traced pass wraps figure.exact_falsification_prob.
from .probability import exact_falsification_prob  # noqa: F401
from .simulate import Z_LIMIT, CellResult

PALETTE = ("#1f6fb2", "#d1495b", "#3a9e5f", "#8a5cb8", "#c07d20", "#4ca8a8")

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 70
MARGIN_RIGHT = 110
MARGIN_TOP = 30
MARGIN_BOTTOM = 50


def _curve_samples(lo: int, hi: int) -> list[int]:
    if lo == hi:
        return [lo]
    count = 64
    pts = {lo, hi}
    for i in range(1, count):
        f = i / count
        pts.add(round((lo + 1) ** (1 - f) * (hi + 1) ** f) - 1)
    return sorted(p for p in pts if lo <= p <= hi)


def render_figure(cells: list[CellResult]) -> str:
    """SVG text for the given simulation cells."""
    if not cells:
        raise ValueError("no rows to plot")
    series: dict[int, list[CellResult]] = {}
    for cell in cells:
        series.setdefault(cell.bits, []).append(cell)
    for group in series.values():
        group.sort(key=lambda c: c.path_len)

    # Collect curve points up front so the axes cover curves and markers alike.
    curves: dict[int, list[tuple[int, float]]] = {}
    for bits, group in series.items():
        curves[bits] = [
            (m, exact_falsification_prob_float(PathParams(bits, m)))
            for m in _curve_samples(group[0].path_len, group[-1].path_len)
        ]

    ys = [p for pts in curves.values() for _, p in pts]
    ys += [c.empirical_p for c in cells if c.empirical_p > 0]
    ymin_dec = math.floor(math.log10(min(ys)))
    ymax_dec = math.ceil(math.log10(max(ys))) if max(ys) < 1 else 0
    if ymax_dec <= ymin_dec:
        ymin_dec = ymax_dec - 1
    xs = [c.path_len for c in cells]
    xmin_log = math.log10(min(xs) + 1)
    xmax_log = math.log10(max(xs) + 1)
    if xmax_log - xmin_log < 1e-9:
        xmin_log -= 0.5
        xmax_log += 0.5

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    y_floor = 10.0 ** ymin_dec

    def sx(m: int) -> float:
        return MARGIN_LEFT + (math.log10(m + 1) - xmin_log) / (xmax_log - xmin_log) * plot_w

    def sy(p: float) -> float:
        p = max(p, y_floor)
        frac = (math.log10(p) - ymin_dec) / (ymax_dec - ymin_dec)
        return MARGIN_TOP + plot_h - frac * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="11">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="16" text-anchor="middle" font-size="13">'
        "empirical vs theoretical falsification probability</text>",
    ]

    # axes
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    out.append(f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for dec in range(ymin_dec, ymax_dec + 1):
        y = sy(10.0**dec)
        label = "1" if dec == 0 else f"1e{dec}"
        out.append(
            f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{y + 4:.1f}" text-anchor="end">{label}</text>'
        )
    for m in sorted(set(xs)):
        x = sx(m)
        out.append(
            f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y0 + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{y0 + 18}" text-anchor="middle">{m}</text>'
        )
    out.append(
        f'<text x="{x0 + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle">'
        "path length m</text>"
    )
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h // 2})">probability</text>'
    )

    for idx, bits in enumerate(sorted(series)):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{sx(m):.1f},{sy(p):.1f}" for m, p in curves[bits])
        if len(curves[bits]) == 1:
            m, p = curves[bits][0]
            pts = f"{sx(m) - 8:.1f},{sy(p):.1f} {sx(m) + 8:.1f},{sy(p):.1f}"
        out.append(
            f'<polyline class="curve" points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        for cell in series[bits]:
            x = sx(cell.path_len)
            hi = cell.exact_p + Z_LIMIT * cell.std_error
            lo = max(cell.exact_p - Z_LIMIT * cell.std_error, y_floor)
            out.append(
                f'<line class="band" x1="{x:.1f}" y1="{sy(lo):.1f}" '
                f'x2="{x:.1f}" y2="{sy(hi):.1f}" stroke="{color}" '
                'stroke-width="1" opacity="0.45"/>'
            )
            out.append(
                f'<circle class="marker" cx="{x:.1f}" cy="{sy(cell.empirical_p):.1f}" '
                f'r="3.2" fill="{color}"/>'
            )
        ly = MARGIN_TOP + 14 + idx * 16
        lx = MARGIN_LEFT + plot_w + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text class="legend" x="{lx + 24}" y="{ly}">b={bits}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
