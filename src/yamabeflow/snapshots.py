"""Bit-exact binary snapshots for fields and trajectory checkpoints.

Field layout: magic ``YFLO``, u32-LE format version, u32-LE dimension,
per-axis u32-LE sizes, per-axis f64-LE lengths, then the row-major f64-LE
values.  A checkpoint is a field file for ``u`` plus a sidecar with the
scalar loop state in the same numeric encoding.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .grid import GridSpec, ScalarField

MAGIC = b"YFLO"
VERSION = 1

__all__ = ["write_field", "read_field", "write_sidecar", "read_sidecar", "MAGIC", "VERSION"]


def write_field(path, field: ScalarField) -> None:
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", MAGIC, VERSION, grid.n))
        fh.write(struct.pack(f"<{grid.n}I", *grid.sizes))
        fh.write(struct.pack(f"<{grid.n}d", *grid.lengths))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes(order="C"))


def read_field(path) -> ScalarField:
    raw = Path(path).read_bytes()
    try:
        magic, version, n = struct.unpack_from("<4sII", raw, 0)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        sizes = struct.unpack_from(f"<{n}I", raw, 12)
        lengths = struct.unpack_from(f"<{n}d", raw, 12 + 4 * n)
    except struct.error as exc:
        raise ValueError(f"{path}: truncated header: {exc}") from exc
    off = 12 + 12 * n
    grid = GridSpec(n, sizes, lengths)
    expected = off + 8 * grid.num_points
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for grid {sizes}, got {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8", count=grid.num_points, offset=off)
    return ScalarField(grid, values.astype(np.float64))


_SIDECAR = "<4sIIIdddd"


def write_sidecar(
    path,
    *,
    step: int,
    records_written: int,
    last_record_step: int,
    t: float,
    dt_last: float,
    dissipation_cum: float,
) -> None:
    with open(path, "wb") as fh:
        fh.write(
            struct.pack(
                _SIDECAR,
                MAGIC,
                VERSION,
                step,
                records_written,
                float(last_record_step),
                t,
                dt_last,
                dissipation_cum,
            )
        )


def read_sidecar(path) -> dict:
    raw = Path(path).read_bytes()
    magic, version, step, records_written, last_record_step, t, dt_last, diss = struct.unpack(
        _SIDECAR, raw
    )
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    return {
        "step": step,
        "records_written": records_written,
        "last_record_step": int(last_record_step),
        "t": t,
        "dt_last": dt_last,
        "dissipation_cum": diss,
    }
