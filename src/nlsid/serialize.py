"""File formats: SignalRecord CSV + JSON sidecar, fixed-precision JSON reports.

All JSON emitted through :func:`write_json` renders floats with 17 significant
digits so reruns of a deterministic computation produce byte-identical files.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .signals import SignalRecord


def _normalize(obj):
    """Recursively convert numpy scalars/arrays and round-trip floats."""
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": _normalize(obj.real), "im": _normalize(obj.imag)}
    return obj


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(_normalize(payload), indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def write_signal_record(path_csv: str | Path, rec: SignalRecord) -> None:
    """Write a record as ``t,u,y`` CSV plus a ``.json`` sidecar with the grid."""
    path_csv = Path(path_csv)
    t = np.arange(rec.period_samples * rec.num_periods) / rec.sample_rate_hz
    write_csv(path_csv, ["t", "u", "y"], [t, rec.input, rec.output])
    write_json(
        path_csv.with_suffix(".json"),
        {
            "fs": rec.sample_rate_hz,
            "N": rec.period_samples,
            "P": rec.num_periods,
            "label": rec.label,
        },
    )


def read_signal_record(path_csv: str | Path) -> SignalRecord:
    """Read a record written by :func:`write_signal_record`.

    Raises ``ValueError`` on a wrong header, a body without rows, a row that
    is not three numbers, or a non-finite sample (from :class:`SignalRecord`).
    """
    path_csv = Path(path_csv)
    meta = read_json(path_csv.with_suffix(".json"))
    with path_csv.open() as fh:
        header = fh.readline().strip()
        if header != "t,u,y":
            raise ValueError(f"{path_csv}: expected header 't,u,y', got {header!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: reported below
            data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    if data.shape[0] == 0 or data.shape[1] != 3:
        raise ValueError(f"{path_csv}: expected rows of three numbers after the header, "
                         f"got {data.shape[0]} row(s) of {data.shape[1]}")
    return SignalRecord(
        sample_rate_hz=float(meta["fs"]),
        period_samples=int(meta["N"]),
        num_periods=int(meta["P"]),
        input=data[:, 1],
        output=data[:, 2],
        label=meta.get("label", ""),
    )


def write_csv(path: str | Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write aligned columns with a header row, floats at 17 significant digits."""
    cells = [_format_column(column) for column in columns]
    Path(path).write_text("\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")


def _format_column(column) -> list[str]:
    """One column's cells: floats at 17 significant digits, anything else by ``str``."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return [f"{v:.17g}" for v in column.tolist()]
        column = column.tolist()
    return [f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v)
            for v in column]
