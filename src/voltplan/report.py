"""Run reports: fixed CSV schema plus an averages row.

Columns mirror the result tables: power cost, wirelength with shifters,
shifter count, interconnect overhead percent, whitespace percent, runtime.
Fractions are fixed-point formatted from integer arithmetic so reports are
reproducible byte for byte (runtime excluded from any comparison).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

COLUMNS = (
    "dataset",
    "k",
    "power_cost",
    "wirelength_with_ls",
    "ls_number",
    "ilo_percent",
    "white_space_percent",
    "runtime_seconds",
)


def format_fixed(value, places: int = 4) -> str:
    """Exact fixed-point rendering of a rational, round half up."""
    frac = Fraction(value)
    sign = "-" if frac < 0 else ""
    frac = abs(frac)
    scaled = frac * 10**places
    units = scaled.numerator // scaled.denominator
    rem = scaled - units
    if 2 * rem >= 1:
        units += 1
    digits = str(units).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    k: int
    power_cost: int
    wirelength_with_ls: int
    ls_number: int
    ilo_percent: Fraction
    white_space_percent: Fraction
    runtime_seconds: float

    def csv_fields(self):
        return (
            self.dataset,
            str(self.k),
            str(self.power_cost),
            str(self.wirelength_with_ls),
            str(self.ls_number),
            format_fixed(self.ilo_percent),
            format_fixed(self.white_space_percent),
            f"{self.runtime_seconds:.2f}",
        )


def _avg_row(rows) -> tuple:
    n = len(rows)
    return (
        "Avg",
        "-",
        str(round(Fraction(sum(r.power_cost for r in rows), n))),
        str(round(Fraction(sum(r.wirelength_with_ls for r in rows), n))),
        str(round(Fraction(sum(r.ls_number for r in rows), n))),
        format_fixed(sum((r.ilo_percent for r in rows), Fraction(0)) / n),
        format_fixed(sum((r.white_space_percent for r in rows), Fraction(0)) / n),
        f"{sum(r.runtime_seconds for r in rows) / n:.2f}",
    )


def emit_report(rows) -> str:
    """CSV text: header, one line per row, then the averages line."""
    rows = list(rows)
    if not rows:
        raise ValueError("report needs at least one row")
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(row.csv_fields()))
    lines.append(",".join(_avg_row(rows)))
    return "\n".join(lines) + "\n"


def pretty_report(rows) -> str:
    """Aligned table for terminals; the CSV stays the canonical artifact."""
    table = [COLUMNS] + [r.csv_fields() for r in rows] + [_avg_row(list(rows))]
    widths = [max(len(line[i]) for line in table) for i in range(len(COLUMNS))]
    out = []
    for line in table:
        out.append("  ".join(f.rjust(w) for f, w in zip(line, widths)))
    return "\n".join(out) + "\n"


_DECIMAL = re.compile(r"[0-9]+(\.[0-9]+)?")


def _decimal(text, kind):
    """A plain nonnegative decimal, as emit_report writes one, read as kind:
    no sign, underscore, exponent, nan or inf."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(text)
    value = kind(text)
    if value == math.inf:  # more digits than a float holds
        raise ValueError(text)
    return value


def parse_report(text) -> list[ReportRow]:
    """Read emit_report's output back: the header must match COLUMNS, the
    trailing averages row is skipped. Field errors raise ParseError."""
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines or tuple(lines[0][1].split(",")) != COLUMNS:
        raise ParseError(f"expected header {','.join(COLUMNS)!r}", lines[0][0] if lines else 1)
    body = lines[1:]
    if body and body[-1][1].startswith("Avg,-,"):
        body.pop()
    if not body:
        raise ParseError("report has no rows", lines[-1][0] + 1)
    rows = []
    for lineno, line in body:
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            raise ParseError(f"expected {len(COLUMNS)} fields, got {line!r}", lineno)
        try:
            row = ReportRow(
                fields[0],
                *(_decimal(f, int) for f in fields[1:5]),
                *(_decimal(f, Fraction) for f in fields[5:7]),
                _decimal(fields[7], float),
            )
        except ValueError:
            raise ParseError(f"bad number in {line!r}", lineno) from None
        if row.k < 1:
            raise ParseError(f"k must be at least 1, got {row.k}", lineno)
        rows.append(row)
    return rows
