"""Tabular output: significant-digit formatting, CSV and markdown emission,
and the simulation CSV's reader."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .simulate import CellResult

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

    x is an mpmath ``mpf``, a ``Fraction`` or a float; anything else
    (``int``, ``bool``, ``Decimal``, ``str``, ``None``) raises TypeError.  It
    is first rounded to nearest at ``_SIG_BITS`` = 93 bits: an ``mpf`` is
    rounded, a float is converted exactly, and a ``Fraction`` has its
    numerator and its denominator each rounded before their quotient is.  mpmath's ``to_str``
    then prints SIG_DIGITS digits, trailing zeros stripped.  These are the
    steps of ``nstr(mpf(x), SIG_DIGITS, strip_zeros=True)`` under
    ``workdps(SIG_DIGITS + 10)``, taken on raw ``libmp`` tuples, so no
    mpmath context is read or written.
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
    else:
        try:
            t = x._mpf_
        except AttributeError:
            raise TypeError(
                "format_sig takes an mpf, a Fraction or a float, "
                f"got {type(x).__name__}"
            ) from None
        v = libmp.mpf_pos(t, _SIG_BITS, rnd)
    return libmp.to_str(v, SIG_DIGITS, strip_zeros=True)


def simulation_row(cell: CellResult) -> tuple[str, ...]:
    """The SIMULATION_HEADER fields of one cell, as the CSV holds them."""
    return (
        *map(str, (cell.bits, cell.path_len, cell.total_trials, cell.matches)),
        # matches/total is exact; format the rational, not its float
        format_sig(Fraction(cell.matches, cell.total_trials)),
        *(format_sig(x) for x in (cell.exact_p, cell.std_error, cell.z_score)),
        str(cell.seed),
    )


def read_simulation_csv(text: str) -> list[CellResult]:
    """The cells of a simulation CSV, accepting only rows that ``simulate`` writes.

    The integer columns are parsed and range-checked as ``CellResult``
    checks them.  Every field must then equal, as text, what
    ``simulation_row`` writes for that cell.  ``simulate`` writes each
    (bits, path_len) cell once, with one seed and one total for the whole
    grid, so a repeated cell, or a seed or total_trials other than the first
    row's, is rejected too.  It writes the whole product of its bits and
    path_len values, sorted by bits and then path_len, so the rows must be
    exactly the sorted product of their distinct bits and path_len values; a
    missing or misplaced cell is rejected.  Anything else, a row the csv
    module cannot split included, raises ValueError naming the row (the
    header is row 0) or the cell.
    """
    rows = []
    reader = csv.reader(io.StringIO(text))
    while True:
        try:
            rows.append(next(reader))
        except StopIteration:
            break
        except csv.Error as exc:
            raise ValueError(f"row {len(rows)} is not valid CSV: {exc}") from exc
    if not rows:
        raise ValueError("empty CSV")
    header = tuple(rows[0])
    if header != SIMULATION_HEADER:
        raise ValueError(
            f"unexpected CSV header {header!r}; want {SIMULATION_HEADER!r}"
        )
    found = []  # (row number, cell), in file order
    for n, raw in enumerate(rows[1:], 1):
        if not raw:
            continue
        if len(raw) != len(header):
            raise ValueError(f"row {n} has {len(raw)} fields, want {len(header)}")
        try:
            values = [int(raw[i]) for i in (0, 1, 2, 3, 8)]
        except ValueError as exc:
            raise ValueError(f"row {n} is not numeric: {exc}") from exc
        try:
            cell = CellResult(*values)
        except ValueError as exc:
            raise ValueError(f"row {n} {exc}") from None
        first = found[0][1] if found else cell
        if (cell.seed, cell.total_trials) != (first.seed, first.total_trials):
            raise ValueError(
                f"row {n} has seed {cell.seed}, total_trials {cell.total_trials}; the first "
                f"row has seed {first.seed}, total_trials {first.total_trials}"
            )
        for name, got, written in zip(header, raw, simulation_row(cell)):
            if got != written:
                raise ValueError(
                    f"row {n} has {name} {got!r}, but simulate writes {written!r} for this row"
                )
        found.append((n, cell))
    if not found:
        raise ValueError("CSV has no data rows")
    grid = [
        (b, m)
        for b in sorted({c.bits for _, c in found})
        for m in sorted({c.path_len for _, c in found})
    ]
    for row, want in zip_longest(found, grid):
        if row is None:
            raise ValueError(
                f"no row for bits {want[0]}, path_len {want[1]}; simulate writes every "
                "cell of the grid of the file's bits and path_len values"
            )
        n, cell = row
        # Rows past the whole grid can only repeat one of its cells.
        if want is None:
            raise ValueError(
                f"row {n} repeats bits {cell.bits}, path_len {cell.path_len}; simulate "
                "writes each cell once"
            )
        if (cell.bits, cell.path_len) != want:
            raise ValueError(
                f"row {n} has bits {cell.bits}, path_len {cell.path_len} where simulate "
                f"writes bits {want[0]}, path_len {want[1]}; rows are sorted by bits, "
                "then path_len"
            )
    return [cell for _, cell in found]


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
        ordered = sorted(cells, key=lambda c: (c.bits, c.path_len))
        return cls(SIMULATION_HEADER, tuple(map(simulation_row, ordered)))

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
