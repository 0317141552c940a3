"""Tabular output: significant-digit formatting, CSV and markdown emission."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

SIG_DIGITS = 17
# format_sig's working precision: SIG_DIGITS + 10 digits in bits, as
# mpmath.libmp.dps_to_prec gives it (93).
_SIG_BITS = round((SIG_DIGITS + 10 + 1) * math.log2(10))

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


def format_sig(x) -> str:
    """Decimal string with SIG_DIGITS significant digits, '.' separator, no grouping.

    x is an mpmath ``mpf``, a ``Fraction``, a float or an int.  It is first
    rounded to nearest at ``_SIG_BITS`` = 93 bits: an ``mpf`` is rounded, a
    float or an int is converted at that precision (a float exactly), and a
    ``Fraction`` has its numerator and its denominator each rounded before
    their quotient is.  mpmath's ``to_str`` then prints SIG_DIGITS digits,
    trailing zeros stripped.  These are the steps of
    ``nstr(mpf(x), SIG_DIGITS, strip_zeros=True)`` under
    ``workdps(SIG_DIGITS + 10)``, taken on raw ``libmp`` tuples, so no mpmath
    context is read or written.
    """
    import mpmath

    libmp = mpmath.libmp
    rnd = libmp.round_nearest
    if isinstance(x, Fraction):
        v = libmp.mpf_div(
            libmp.from_int(x.numerator, _SIG_BITS, rnd),
            libmp.from_int(x.denominator, _SIG_BITS, rnd),
            _SIG_BITS,
            rnd,
        )
    elif isinstance(x, float):
        v = libmp.from_float(x, _SIG_BITS, rnd)
    elif isinstance(x, int):
        v = libmp.from_int(x, _SIG_BITS, rnd)
    else:
        v = libmp.mpf_pos(x._mpf_, _SIG_BITS, rnd)
    return libmp.to_str(v, SIG_DIGITS, strip_zeros=True)


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
                format_sig(e.exact),
                format_sig(e.approx),
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
