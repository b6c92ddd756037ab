"""Bit-exact binary snapshots for fields and trajectory checkpoints.

Field layout: magic ``YFLO``, u32-LE format version, u32-LE dimension,
per-axis u32-LE sizes, per-axis f64-LE lengths, then the row-major f64-LE
values.

A checkpoint is a pair of files in a run's output directory:
``checkpoint.u.yflo``, the field ``u``, and ``checkpoint.state.yflo``, a
sidecar with the other fields of the one ``FlowState`` that is a run's whole
loop state, in the same numeric encoding.  This module is the only place that
knows the two names, the sidecar layout and which fields go in it.

Every write rewrites an existing file in place and then truncates it to the
new image, which leaves the bytes of a fresh write without making the file
system free and reallocate the file.  ``write_checkpoint`` writes in three
steps: it zeroes the sidecar, rewrites the field, then writes the real
sidecar.  A zeroed sidecar fails its header check.  So a checkpoint stopped
before the first step leaves the old pair, one stopped after it and before
the last step ends leaves a pair that ``read_checkpoint`` refuses with
``ValueError`` (and ``resume`` with exit 2), and a finished one the new pair.
A lone field stopped mid-rewrite may keep old bytes at its full length,
which ``read_field`` cannot tell from a whole file.  Nothing is fsynced, so a
power loss is not covered.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .flow import FlowState
from .grid import GridSpec, ScalarField
from .operators import require_positive

MAGIC = b"YFLO"
VERSION = 1
CHECKPOINT_U = "checkpoint.u.yflo"
CHECKPOINT_STATE = "checkpoint.state.yflo"

__all__ = [
    "write_field", "read_field", "write_sidecar", "read_sidecar",
    "write_checkpoint", "read_checkpoint", "remove_checkpoint", "MAGIC", "VERSION",
]


def _rewrite(path, *chunks: bytes) -> None:
    """Make ``chunks`` the whole content of ``path``, overwriting an existing file in place."""
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        fh = open(path, "wb")
    with fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.truncate()


def write_field(path, field: ScalarField) -> None:
    grid = field.grid
    _rewrite(
        path,
        struct.pack("<4sII", MAGIC, VERSION, grid.n),
        struct.pack(f"<{grid.n}I", *grid.sizes),
        struct.pack(f"<{grid.n}d", *grid.lengths),
        np.ascontiguousarray(field.values, dtype="<f8").tobytes(order="C"),
    )


def _check_header(path, magic: bytes, version: int) -> None:
    if (magic, version) != (MAGIC, VERSION):
        raise ValueError(f"{path}: bad magic {magic!r} or format version {version}")


def read_field(path) -> ScalarField:
    raw = Path(path).read_bytes()
    try:
        magic, version, n = struct.unpack_from("<4sII", raw, 0)
        _check_header(path, magic, version)
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


# step and records_written as u32; last_record_step as f64, since it is -1
# before the first record; then t, dt_last and dissipation_cum.
_SIDECAR = struct.Struct("<4sIIIdddd")


def write_sidecar(path, state: FlowState) -> None:
    raw = _SIDECAR.pack(
        MAGIC, VERSION, state.step, state.records_written, float(state.last_record_step),
        state.t, state.dt_last, state.dissipation_cum,
    )
    _rewrite(path, raw)


def read_sidecar(path, u: ScalarField) -> FlowState:
    """The loop state stored at ``path``, around the field ``u`` it belongs to."""
    raw = Path(path).read_bytes()
    if len(raw) != _SIDECAR.size:
        raise ValueError(f"{path}: expected {_SIDECAR.size} bytes for a sidecar, got {len(raw)}")
    magic, version, step, records, last_record, t, dt_last, diss = _SIDECAR.unpack(raw)
    _check_header(path, magic, version)
    # Written as negated comparisons so that NaN fails them too.
    if not all(0.0 <= x < np.inf for x in (t, dt_last, diss)):
        raise ValueError(f"{path}: need 0 <= t, dt_last, dissipation_cum < inf: {t, dt_last, diss}")
    if not (-1.0 <= last_record <= step and last_record.is_integer()):
        raise ValueError(f"{path}: last_record_step {last_record} not an integer in [-1, {step}]")
    return FlowState(u, t, step, dt_last, diss, records, int(last_record))


def write_checkpoint(out, state: FlowState) -> None:
    """Write the checkpoint pair for ``state`` into directory ``out``."""
    out = Path(out)
    _rewrite(out / CHECKPOINT_STATE, bytes(_SIDECAR.size))  # refused until rewritten last
    write_field(out / CHECKPOINT_U, state.u)
    write_sidecar(out / CHECKPOINT_STATE, state)


def read_checkpoint(out) -> FlowState:
    """Read the checkpoint pair that ``write_checkpoint`` left in directory ``out``."""
    out = Path(out)
    u = read_field(out / CHECKPOINT_U)
    require_positive(u, "checkpoint u")
    return read_sidecar(out / CHECKPOINT_STATE, u)


def remove_checkpoint(out) -> None:
    """Delete the checkpoint pair in directory ``out``, where there is one."""
    for name in (CHECKPOINT_U, CHECKPOINT_STATE):
        (Path(out) / name).unlink(missing_ok=True)
