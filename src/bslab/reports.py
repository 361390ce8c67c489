"""Canonical report rendering: JSON, CSV and plain text.

JSON uses sorted keys and Python's shortest round-trip float repr, so
parsing an emitted report and re-emitting it is byte-identical. A NaN, which
JSON has no form for, is an error; the infinite d+- of a zero-volatility
price are written as Infinity, which Python's json reads back. CSV uses
fixed 12-decimal notation with a '.' decimal point; text is for humans and
carries the same numbers in %.12g.
"""

from __future__ import annotations

import io
import json
import csv
import math


def _holds_nan(value) -> bool:
    if isinstance(value, dict):
        return any(_holds_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(_holds_nan(v) for v in value)
    return isinstance(value, float) and math.isnan(value)


def render_json(report: dict) -> str:
    if _holds_nan(report):
        raise ValueError("the report holds a NaN, which JSON cannot represent")
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12f}"
    return str(value)


def render_csv(report: dict) -> str:
    """One line per report row (one line when there are none). Columns are
    the scalar inputs, then the row keys, then results, then diagnostics;
    the scalars repeat on every line and list inputs are left to the rows."""
    inputs = {k: v for k, v in report["inputs"].items() if not isinstance(v, list)}
    tail = {**report.get("results", {}), **report.get("diagnostics", {})}
    rows = report.get("rows", [{}])
    columns = list(inputs) + list(rows[0]) + list(tail)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        flat = {**inputs, **row, **tail}
        writer.writerow([_csv_cell(flat.get(col)) for col in columns])
    return buf.getvalue()


def _text_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_text(report: dict) -> str:
    """Key = value lines for scalar sections, an aligned table for rows."""
    lines: list[str] = [f"command: {report['command']}"]
    for section in ("inputs", "results", "diagnostics"):
        body = report.get(section)
        if not body:
            continue
        lines.append(f"{section}:")
        for key in sorted(body):
            lines.append(f"  {key} = {_text_value(body[key])}")
    rows = report.get("rows")
    if rows:
        columns = list(rows[0].keys())
        table = [columns] + [[_text_value(r.get(c)) for c in columns] for r in rows]
        widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
        lines.append("rows:")
        for line in table:
            lines.append("  " + "  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines) + "\n"
