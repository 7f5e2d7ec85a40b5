"""Bit-stable CSV and JSON emission of sweep records.

Numbers are printed with 12 significant digits, lines end with a bare
newline, and files are written to a temporary name in the target directory
and renamed into place, so a failed run never leaves a partial output file.
Rerunning the same configuration reproduces the output byte for byte.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .experiments import SweepResult


@dataclass(frozen=True)
class OutputRecord:
    """Rectangular table of real numbers plus a metadata header."""

    columns: list
    rows: np.ndarray
    metadata: dict

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValueError(
                f"rows shape {self.rows.shape} does not match {len(self.columns)} columns"
            )


def _jsonable(value):
    """Convert numpy scalars/arrays so json.dumps output is reproducible."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def record_from_sweep(result: SweepResult) -> OutputRecord:
    rows = np.column_stack([np.asarray(result.data[c], dtype=float) for c in result.columns])
    return OutputRecord(
        columns=list(result.columns),
        rows=rows,
        metadata=_jsonable(result.metadata),
    )


def format_float(x: float) -> str:
    """Decimal-point representation with 12 significant digits."""
    return f"{float(x):.12g}"


def csv_text(record: OutputRecord) -> str:
    """CSV with '#'-prefixed metadata lines, then a header row, then data rows."""
    lines = ["# nvzeno-output-version: 1"]
    for key in sorted(record.metadata):
        lines.append(f"# {key}: {json.dumps(record.metadata[key], sort_keys=True)}")
    lines.append(",".join(record.columns))
    for row in record.rows:
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(record: OutputRecord) -> str:
    """JSON document with metadata and columnar arrays."""
    payload = {
        "output_version": 1,
        "metadata": record.metadata,
        "columns": list(record.columns),
        "data": {
            name: [float(format_float(v)) for v in record.rows[:, i]]
            for i, name in enumerate(record.columns)
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render(record: OutputRecord, fmt: str) -> str:
    if fmt == "csv":
        return csv_text(record)
    if fmt == "json":
        return json_text(record)
    raise ValueError(f"unknown output format {fmt!r}")


def write_atomic(path: str, text: str) -> None:
    """Write UTF-8 text via a temp file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".nvzeno-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
