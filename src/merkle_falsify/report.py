"""Tabular output: significant-digit formatting, CSV and markdown emission."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

SIG_DIGITS = 17

TABLE_HEADER = ("b", "m", "exact", "approx", "abs_diff")
SIMULATION_HEADER = (
    "bits",
    "path_len",
    "total_trials",
    "matches",
    "empirical_p",
    "exact_p",
    "std_error",
    "z_score",
    "seed",
)


def format_sig(x, digits: int = SIG_DIGITS) -> str:
    """Decimal string with the given significant digits, '.' separator, no grouping."""
    import mpmath

    with mpmath.workdps(digits + 10):
        if isinstance(x, Fraction):
            x = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        else:
            x = mpmath.mpf(x)
        return mpmath.nstr(x, digits, strip_zeros=True)


def simulation_row(
    bits, path_len, total_trials, matches, exact_p, std_error, z_score, seed
) -> tuple[str, ...]:
    """The SIMULATION_HEADER fields of one cell, as the CSV holds them."""
    return (
        *map(str, (bits, path_len, total_trials, matches)),
        # matches/total is exact; format the rational, not its float
        format_sig(Fraction(matches, total_trials)),
        *(format_sig(x) for x in (exact_p, std_error, z_score)),
        str(seed),
    )


@dataclass(frozen=True)
class ReportTable:
    """Formatted rows ready for CSV or markdown; header is part of the contract."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    @classmethod
    def from_estimates(cls, estimates) -> "ReportTable":
        ordered = sorted(estimates, key=lambda e: (e.params.bits, e.params.path_len))
        rows = tuple(
            (
                str(e.params.bits),
                str(e.params.path_len),
                format_sig(e.exact.value),
                format_sig(e.approx.value),
                format_sig(e.abs_diff),
            )
            for e in ordered
        )
        return cls(TABLE_HEADER, rows)

    @classmethod
    def from_simulation(cls, cells) -> "ReportTable":
        ordered = sorted(cells, key=lambda c: (c.config.bits, c.config.path_len))
        rows = tuple(
            simulation_row(
                c.config.bits, c.config.path_len, c.total_trials, c.matches,
                c.exact_p, c.std_error, c.z_score, c.config.master_seed,
            )
            for c in ordered
        )
        return cls(SIMULATION_HEADER, rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return out.getvalue()

    def to_markdown(self) -> str:
        lines = [
            "| " + " | ".join(self.header) + " |",
            "|" + "|".join(" --- " for _ in self.header) + "|",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in self.rows)
        return "\n".join(lines) + "\n"
