"""Scenario files: flat ``key = value`` text with dotted sections.

A scenario fixes the grid, the data fields (``r0``, ``f``, ``u0``), the
flow configuration, and optionally a subdomain and supersolution settings.
Field specs are a constant, plus optional periodic Gaussian bumps, plus
optional seeded noise, or a literal snapshot path.

Example::

    name = trapped-bump
    grid.n = 3
    grid.sizes = 16 16 16
    grid.lengths = 1 1 1
    seed = 0
    r0.constant = -1.0
    f.constant = -1.0
    f.bump.0.amplitude = 1.2
    f.bump.0.center = 0.5 0.5 0.5
    f.bump.0.width = 0.1
    u0.constant = 1.0
    flow.t_max = 40.0
    omega.type = superlevel
    omega.eps = 0.5
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .flow import FlowConfig
from .grid import GridSpec, ScalarField, SubdomainMask
from .hypotheses import superlevel_mask
from .operators import Background
from .snapshots import read_field

__all__ = ["Scenario", "load_scenario", "parse_kv"]


@dataclass
class Scenario:
    name: str
    grid: GridSpec
    background: Background
    u0: ScalarField
    flow: FlowConfig
    omega_spec: dict
    supersolution: dict

    def omega_mask(self) -> SubdomainMask:
        """Realize the configured subdomain (defaults to the empty set)."""
        spec = self.omega_spec
        kind = spec.get("type", "empty")
        try:
            if kind == "empty":
                return SubdomainMask.empty(self.grid)
            if kind == "full":
                return SubdomainMask.full(self.grid)
            if kind == "superlevel":
                return superlevel_mask(self.background, float(spec["eps"]))
            if kind == "ball":
                center = _floats(spec["center"])
                radius = float(spec["radius"])
                dist2 = _periodic_dist2(self.grid, center)
                return SubdomainMask(self.grid, dist2 < radius * radius)
            if kind == "slab":
                axis = int(spec["axis"])
                lo, hi = float(spec["lo"]), float(spec["hi"])
                x = self.grid.meshgrid()[axis]
                return SubdomainMask(self.grid, (x > lo) & (x < hi))
        except KeyError as exc:
            raise ScenarioError(f"omega.type = {kind} needs key 'omega.{exc.args[0]}'") from exc
        except (ValueError, IndexError) as exc:
            raise ScenarioError(f"bad omega value: {exc}") from exc
        raise ScenarioError(f"unknown omega.type {kind!r}")


def parse_kv(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment; keys may be dotted."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ScenarioError(f"line {lineno}: empty key")
        if key in out:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _periodic_dist2(grid: GridSpec, center) -> np.ndarray:
    if len(center) != grid.n:
        raise ScenarioError(f"center needs {grid.n} coordinates, got {len(center)}")
    coords = grid.meshgrid()
    total = np.zeros(grid.shape)
    for x, c, length in zip(coords, center, grid.lengths):
        d = np.abs(x - c)
        d = np.minimum(d, length - d)
        total += d * d
    return total


def _realize_field(kv: dict, prefix: str, grid: GridSpec, base_dir: Path, seed: int) -> ScalarField:
    snap = kv.get(f"{prefix}.snapshot")
    if snap is not None:
        field = read_field(base_dir / snap)
        if field.grid != grid:
            raise ScenarioError(f"{prefix}.snapshot grid {field.grid.sizes} != scenario grid")
        return field

    values = np.full(grid.shape, _get(kv, f"{prefix}.constant", required=True))
    bump_keys = [key for key in kv if key.startswith(f"{prefix}.bump.")]
    for i in sorted({_convert(key, key.split(".")[2], int) for key in bump_keys}):
        amp = _get(kv, f"{prefix}.bump.{i}.amplitude", required=True)
        width = _get(kv, f"{prefix}.bump.{i}.width", required=True)
        if width <= 0.0:
            raise ScenarioError(f"{prefix}.bump.{i}.width must be positive")
        center = _get(kv, f"{prefix}.bump.{i}.center", required=True, conv=_floats)
        dist2 = _periodic_dist2(grid, center)
        values = values + amp * np.exp(-dist2 / (2.0 * width * width))
    noise = _get(kv, f"{prefix}.noise.amplitude")
    if noise is not None:
        rng = np.random.default_rng(seed)
        values = values + noise * rng.standard_normal(grid.shape)
    return ScalarField(grid, values)


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split()]


def _convert(key: str, text: str, conv):
    try:
        return conv(text)
    except ValueError as exc:
        raise ScenarioError(f"key {key!r}: not a number: {text!r}") from exc


def _get(kv: dict, key: str, default=None, required: bool = False, conv=float):
    if key not in kv:
        if required:
            raise ScenarioError(f"missing required key {key!r}")
        return default
    return _convert(key, kv[key], conv)


def load_scenario(path) -> Scenario:
    """Parse and fully validate a scenario file, realizing all fields."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    kv = parse_kv(text)

    try:
        n = int(kv["grid.n"])
        sizes = [int(s) for s in kv["grid.sizes"].split()]
        lengths = [float(x) for x in kv["grid.lengths"].split()]
    except KeyError as exc:
        raise ScenarioError(f"missing required key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ScenarioError(f"bad grid value: {exc}") from exc
    try:
        grid = GridSpec(n, tuple(sizes), tuple(lengths))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    seed = _get(kv, "seed", 0, conv=int)
    r0 = _realize_field(kv, "r0", grid, path.parent, seed)
    f = _realize_field(kv, "f", grid, path.parent, seed + 1)
    u0 = _realize_field(kv, "u0", grid, path.parent, seed + 2)

    if r0.max() >= 0.0:
        idx = int(np.flatnonzero(r0.values.reshape(-1) >= 0.0)[0])
        raise ScenarioError(f"R0 not negative at index {idx}: {r0.values.reshape(-1)[idx]:g}")
    if u0.min() <= 0.0:
        idx = int(np.flatnonzero(u0.values.reshape(-1) <= 0.0)[0])
        raise ScenarioError(f"u0 not positive at index {idx}: {u0.values.reshape(-1)[idx]:g}")
    background = Background(grid, r0, f)

    orders = _get(kv, "flow.lp_orders", conv=_floats)
    settings = dict(
        cfl_fraction=_get(kv, "flow.cfl_fraction", 0.8),
        t_max=_get(kv, "flow.t_max", 10.0),
        residual_stop=_get(kv, "flow.residual_stop", 1e-6),
        blowup_ceiling=_get(kv, "flow.blowup_ceiling", 1e6),
        record_every=_get(kv, "flow.record_every", 10, conv=int),
        lp_orders=tuple(orders) if orders else None,
        fixed_dt=_get(kv, "flow.fixed_dt", None),
    )
    try:
        flow = FlowConfig(**settings)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    omega_spec = {
        key.split(".", 1)[1]: value for key, value in kv.items() if key.startswith("omega.")
    }
    dilation, band = (_get(kv, f"supersolution.{key}", 2, conv=int) for key in ("dilation", "band"))
    if not 1 <= band <= dilation:
        raise ScenarioError(
            f"supersolution needs 1 <= band <= dilation, got band {band}, dilation {dilation}"
        )
    return Scenario(
        name=kv.get("name", path.stem),
        grid=grid,
        background=background,
        u0=u0,
        flow=flow,
        omega_spec=omega_spec,
        supersolution={"dilation": dilation, "band": band},
    )
