"""Tabular output: significant-digit formatting, CSV and markdown emission,
and the simulation CSV's reader.

``format_sig`` prints what mpmath's ``nstr(mpf(x), 17, strip_zeros=True)``
prints under ``workdps(27)``, but takes mpmath's digit steps on Python
integers: one round-half-even to ``_SIG_BITS`` = 93 bits, then the fixed-point
product ``to_digits_exp`` forms at 20 digits (``_DIGIT_BITS`` = 76 bits), cut
to 17 digits by ``to_str``'s rule.  ``libmp.to_str`` still prints zero, the
infinities, nan and values whose binary magnitude passes ``_FIXED_MAG`` =
3500, where ``to_digits_exp`` first divides by a power of ten.  mpmath's own
path is the reference that ``tests/test_report.py`` compares against.
"""

from __future__ import annotations

import csv
import functools
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
# to_str asks to_digits_exp for SIG_DIGITS + 3 digits, which it forms at this
# many bits (76); _LOG2_10 is log2(10) as to_digits_exp computes it.
_LOG2_10 = math.log(10, 2)
_DIGIT_BITS = int((SIG_DIGITS + 3) * _LOG2_10) + 10
# Past this binary magnitude to_digits_exp divides by a power of ten first;
# format_sig leaves those values to to_str.
_FIXED_MAG = 3500
_LOG10_2 = math.log10(2)

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
    numerator and its denominator each rounded before their quotient is.
    SIG_DIGITS digits are then printed, trailing zeros stripped.  These are
    the steps of ``nstr(mpf(x), SIG_DIGITS, strip_zeros=True)`` under
    ``workdps(SIG_DIGITS + 10)``, taken on raw ``libmp`` tuples and integers
    (see ``_sig_str``), so no mpmath context is read or written.
    """
    if isinstance(x, Fraction):
        from mpmath import libmp

        rnd = libmp.round_nearest
        t = libmp.mpf_div(
            libmp.from_int(x.numerator, _SIG_BITS, rnd),
            libmp.from_int(x.denominator, _SIG_BITS, rnd),
            _SIG_BITS,
            rnd,
        )
    elif isinstance(x, float):
        from mpmath import libmp

        t = libmp.from_float(x, _SIG_BITS, libmp.round_nearest)
    else:
        try:
            t = x._mpf_
        except AttributeError:
            raise TypeError(
                "format_sig takes an mpf, a Fraction or a float, "
                f"got {type(x).__name__}"
            ) from None
    return _sig_str(t)


@functools.cache
def _pow10(n: int) -> int:
    # n is at most about 1080 below the _FIXED_MAG cut, so the cache is bounded.
    return 10**n


def _sig_str(t: tuple) -> str:
    """``libmp.to_str(libmp.mpf_pos(t, _SIG_BITS, round_nearest), SIG_DIGITS,
    strip_zeros=True)`` for a raw mpf t, on integers where t is finite, nonzero
    and of binary magnitude at most ``_FIXED_MAG`` once rounded."""
    sign, man, exp, bc = t
    shift = bc - _SIG_BITS
    if shift > 0:
        # mpf_pos: round half to even; a carry to 2^93 makes it 94 bits
        low = man & ((1 << shift) - 1)
        man >>= shift
        half = 1 << (shift - 1)
        if low > half or (low == half and man & 1):
            man += 1
        exp += shift
        bc = _SIG_BITS + (man >> _SIG_BITS)
    mag = exp + bc
    # zero, ±inf and nan have man 0 (and bc <= 0, so they were not rounded)
    if not man or abs(mag) > _FIXED_MAG:
        from mpmath import libmp

        return libmp.to_str(
            libmp.mpf_pos(t, _SIG_BITS, libmp.round_nearest),
            SIG_DIGITS,
            strip_zeros=True,
        )
    # to_digits_exp: |t| in binary fixed point at fixprec bits, times
    # 10^fixdps, floored; d has at least 22 digits.
    fixprec = max(_DIGIT_BITS - mag, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    d = (man << shift if shift >= 0 else man >> -shift) * _pow10(fixdps) >> fixprec
    # n = floor(log10(d)), which is floor(bit_length * log10(2)) or one less;
    # that float product floors exactly for bit lengths up to 20 000, and d
    # has at most about 3500 bits.
    n = int(d.bit_length() * _LOG10_2)
    if d < _pow10(n):
        n -= 1
    # to_str rounds half up on the 18th digit alone: adding half a unit of
    # it and truncating does that, carrying to 10^17 with one more digit.
    s = str(d + 5 * _pow10(n - SIG_DIGITS))
    e = len(s) - fixdps - 1
    m = s[:SIG_DIGITS].rstrip("0")
    sign = "-" if sign else ""
    # to_str's layout: fixed point for -5 < e < 17, else d.ddd with an
    # exponent; trailing zeros stripped, keeping "x.0"
    if 0 <= e < SIG_DIGITS:
        if len(m) > e + 1:
            return sign + m[: e + 1] + "." + m[e + 1 :]
        return sign + m + "0" * (e + 1 - len(m)) + ".0"
    if -5 < e < 0:
        return sign + "0." + "0" * (-e - 1) + m
    return sign + m[0] + "." + (m[1:] or "0") + ("e+" if e > 0 else "e") + str(e)


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
    try:
        for row in csv.reader(io.StringIO(text)):
            rows.append(row)
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
