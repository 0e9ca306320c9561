"""File formats: SignalRecord CSV + JSON sidecar, JSON reports.

:func:`write_json` writes each float as its shortest round-trip repr and
:func:`write_csv` at 17 significant digits; both read back to the same
doubles, and reruns of a deterministic computation write byte-identical files.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .signals import SignalRecord


def _encode(obj):
    """What ``json`` cannot write itself: a complex number as ``{"re", "im"}``,
    a numpy array or scalar as its ``.tolist()``."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, default=_encode) + "\n")


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


def write_csv(path: str | Path, header: list[str], columns: list) -> None:
    """Write aligned columns with a header row: a column of floats at 17
    significant digits, any other by ``str``."""
    columns = [np.asarray(column) for column in columns]
    row = ",".join("%.17g" if column.dtype.kind == "f" else "%s" for column in columns)
    lines = [row % cells for cells in zip(*(column.tolist() for column in columns))]
    Path(path).write_text("\n".join([",".join(header), *lines]) + "\n")
