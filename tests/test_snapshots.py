import struct

import numpy as np
import pytest

import yamabeflow as yf
from yamabeflow import snapshots

from conftest import unit_grid


def test_field_round_trip_is_bitwise(tmp_path, grid8):
    rng = np.random.default_rng(0)
    field = yf.ScalarField(grid8, rng.standard_normal(grid8.shape))
    path = tmp_path / "u.yflo"
    snapshots.write_field(path, field)
    back = snapshots.read_field(path)
    assert back.grid == grid8
    assert np.array_equal(back.values, field.values)
    assert back.values.tobytes() == field.values.tobytes()


def test_field_header_layout(tmp_path, grid8):
    field = yf.ScalarField.constant(grid8, 1.0)
    path = tmp_path / "u.yflo"
    snapshots.write_field(path, field)
    raw = path.read_bytes()
    magic, version, n = struct.unpack_from("<4sII", raw, 0)
    assert magic == b"YFLO" and version == 1 and n == 3
    assert len(raw) == 12 + 4 * 3 + 8 * 3 + 8 * grid8.num_points


def test_anisotropic_grid_round_trip(tmp_path):
    g = yf.GridSpec(3, (4, 8, 16), (0.5, 1.0, 2.0))
    field = yf.ScalarField(g, np.arange(g.num_points, dtype=float).reshape(g.shape))
    path = tmp_path / "aniso.yflo"
    snapshots.write_field(path, field)
    back = snapshots.read_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, field.values)


@pytest.mark.parametrize("edit", ["truncated", "trailing"])
def test_length_checked_against_header(tmp_path, grid8, edit):
    path = tmp_path / "u.yflo"
    snapshots.write_field(path, yf.ScalarField.constant(grid8, 1.0))
    raw = path.read_bytes()
    expected = len(raw)
    raw = raw[:-8] if edit == "truncated" else raw + b"\0"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        snapshots.read_field(path)
    message = str(info.value)
    assert str(path) in message
    assert f"expected {expected} bytes" in message and f"got {len(raw)}" in message


def test_truncated_header_rejected(tmp_path, grid8):
    path = tmp_path / "u.yflo"
    snapshots.write_field(path, yf.ScalarField.constant(grid8, 1.0))
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(ValueError, match="truncated header") as info:
        snapshots.read_field(path)
    message = str(info.value)
    assert str(path) in message and "at least 24 bytes" in message and "size is 20" in message


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.yflo"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(ValueError):
        snapshots.read_field(path)


def test_bad_version_rejected(tmp_path, grid8):
    path = tmp_path / "v9.yflo"
    snapshots.write_field(path, yf.ScalarField.constant(grid8, 1.0))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        snapshots.read_field(path)


def test_sidecar_round_trip(tmp_path):
    path = tmp_path / "state.yflo"
    snapshots.write_sidecar(
        path,
        step=1234,
        records_written=56,
        last_record_step=1230,
        t=0.725,
        dt_last=1.25e-4,
        dissipation_cum=3.5e-2,
    )
    side = snapshots.read_sidecar(path)
    assert side == {
        "step": 1234,
        "records_written": 56,
        "last_record_step": 1230,
        "t": 0.725,
        "dt_last": 1.25e-4,
        "dissipation_cum": 3.5e-2,
    }


def test_sidecar_bad_magic(tmp_path):
    path = tmp_path / "state.yflo"
    path.write_bytes(b"XXXX" + b"\x00" * 44)  # correct length, wrong magic
    with pytest.raises(ValueError):
        snapshots.read_sidecar(path)
