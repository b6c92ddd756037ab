import dataclasses
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


def test_header_of_a_grid_past_int64_fails_the_length_check(tmp_path):
    # A 48-byte file whose header claims 2^66 points, whose count wraps to 0 in int64.
    path = tmp_path / "huge.yflo"
    path.write_bytes(struct.pack("<4sII3I3d", b"YFLO", 1, 3, *(2**22,) * 3, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="expected .* bytes"):
        snapshots.read_field(path)


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


def test_sidecar_round_trip(tmp_path, grid8):
    path = tmp_path / "state.yflo"
    u = yf.ScalarField.constant(grid8, 1.0)
    state = yf.FlowState(u, 0.725, 1234, 1.25e-4, dissipation_cum=3.5e-2, records_written=56,
                         last_record_step=1230)
    snapshots.write_sidecar(path, state)
    back_state = snapshots.read_sidecar(path, u)
    assert back_state == state
    assert type(back_state.last_record_step) is int


def test_sidecar_bad_magic(tmp_path, grid8):
    path = tmp_path / "state.yflo"
    path.write_bytes(b"XXXX" + b"\x00" * 44)  # correct length, wrong magic
    with pytest.raises(ValueError):
        snapshots.read_sidecar(path, yf.ScalarField.constant(grid8, 1.0))


def test_sidecar_format_is_pinned(tmp_path, grid8):
    # Checkpoints written by earlier versions must stay readable, so these 48
    # bytes never change; last_record_step = -1 is stored as an f64.
    path = tmp_path / "state.yflo"
    state = yf.FlowState(yf.ScalarField.constant(grid8, 1.0), 0.725, 7, 1.25e-4,
                         dissipation_cum=3.5e-2, records_written=0, last_record_step=-1)
    snapshots.write_sidecar(path, state)
    assert path.read_bytes().hex() == (
        "59464c4f010000000700000000000000000000000000f0bf"
        "333333333333e73ffca9f1d24d62203fec51b81e85eba13f"
    )


@pytest.mark.parametrize("edit", ["truncated", "trailing"])
def test_sidecar_length_checked(tmp_path, grid8, edit):
    path = tmp_path / "state.yflo"
    u = yf.ScalarField.constant(grid8, 1.0)
    snapshots.write_sidecar(path, yf.FlowState(u, 0.5, 3, 0.1))
    raw = path.read_bytes()
    raw = raw[:30] if edit == "truncated" else raw + b"\0"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        snapshots.read_sidecar(path, u)
    message = str(info.value)
    assert str(path) in message
    assert "expected 48 bytes" in message and f"got {len(raw)}" in message


def test_checkpoint_round_trip_is_bitwise(tmp_path, grid8):
    rng = np.random.default_rng(1)
    u = yf.ScalarField(grid8, 1.0 + rng.random(grid8.shape))
    state = yf.FlowState(u, 0.3, 40, 2.5e-4, dissipation_cum=1.5e-3, records_written=5,
                         last_record_step=40)
    snapshots.write_checkpoint(tmp_path, state)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        snapshots.CHECKPOINT_STATE,
        snapshots.CHECKPOINT_U,
    ]
    back_state = snapshots.read_checkpoint(tmp_path)
    assert back_state.u.grid == grid8
    assert back_state.u.values.tobytes() == u.values.tobytes()
    assert dataclasses.replace(back_state, u=u) == state


def _writers(grid):
    """The field and sidecar writers, each writing one fixed image on ``grid`` to a path."""
    u = yf.ScalarField(grid, 1.0 + np.random.default_rng(2).random(grid.shape))
    state = yf.FlowState(u, 0.725, 7, 1.25e-4, 3.5e-2, 2, 5)
    return {
        "field": lambda path: snapshots.write_field(path, u),
        "sidecar": lambda path: snapshots.write_sidecar(path, state),
    }


@pytest.mark.parametrize("writer", ["field", "sidecar"])
@pytest.mark.parametrize("before", ["longer", "shorter", "same_length", "absent"])
def test_rewrite_leaves_the_bytes_of_a_fresh_write(tmp_path, grid8, writer, before):
    write = _writers(grid8)[writer]
    fresh = tmp_path / "fresh.yflo"
    write(fresh)
    expected = fresh.read_bytes()
    path = tmp_path / "old.yflo"
    if before != "absent":
        size = {"longer": 2 * len(expected), "shorter": 5, "same_length": len(expected)}[before]
        path.write_bytes(b"\xab" * size)
    write(path)
    assert path.read_bytes() == expected


def test_rewritten_checkpoint_keeps_two_files(tmp_path, grid8):
    """A checkpoint written over an older one leaves the two names and the newer pair."""
    rng = np.random.default_rng(3)
    for step in (10, 20):
        u = yf.ScalarField(grid8, 1.0 + rng.random(grid8.shape))
        state = yf.FlowState(u, 0.01 * step, step, 1e-3, dissipation_cum=1e-3 * step,
                             records_written=step // 10 + 1, last_record_step=step)
        snapshots.write_checkpoint(tmp_path, state)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        snapshots.CHECKPOINT_STATE,
        snapshots.CHECKPOINT_U,
    ]
    back_state = snapshots.read_checkpoint(tmp_path)
    assert dataclasses.replace(back_state, u=u) == state
    assert back_state.u.values.tobytes() == u.values.tobytes()


@pytest.mark.parametrize("stop", ["write_field", "write_sidecar"])
def test_interrupted_checkpoint_reads_as_corrupted(tmp_path, grid8, monkeypatch, stop):
    """A checkpoint stopped before its sidecar is written leaves no pair that reads."""
    u = yf.ScalarField.constant(grid8, 1.0)
    snapshots.write_checkpoint(tmp_path, yf.FlowState(u, 0.1, 10, 1e-2, 1e-3, 2, 10))

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(snapshots, stop, interrupted)
    with pytest.raises(KeyboardInterrupt):
        snapshots.write_checkpoint(tmp_path, yf.FlowState(u, 0.2, 20, 1e-2, 2e-3, 3, 20))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="bad magic"):
        snapshots.read_checkpoint(tmp_path)
