"""Scenario files: flat ``key = value`` text with dotted sections.

A scenario fixes the grid, the data fields (``r0``, ``f``, ``u0``), the
flow configuration, and optionally a subdomain and supersolution settings.
Field specs are a constant, plus optional periodic Gaussian bumps, plus
optional seeded noise, or a literal snapshot path.

``load_scenario`` reads each key once and validates the whole file, so every
command sees the same checks: a malformed or unread key, a bad subdomain, a
non-finite field value or an unreadable snapshot raises ``ScenarioError``.

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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .flow import FlowConfig
from .grid import GridSpec, ScalarField, SubdomainMask
from .hypotheses import DEFAULT_BAND, DEFAULT_DILATION, _check_blend, superlevel_mask
from .operators import Background, require_positive
from .snapshots import read_field

__all__ = ["Scenario", "load_scenario", "parse_kv"]


@dataclass
class Scenario:
    name: str
    grid: GridSpec
    background: Background
    u0: ScalarField
    flow: FlowConfig
    omega: SubdomainMask
    supersolution: dict


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
    if len(center) != grid.n or not np.isfinite(center).all():
        raise ScenarioError(f"center needs {grid.n} finite coordinates, got {center}")
    coords = grid.meshgrid()
    total = np.zeros(grid.shape)
    for x, c, length in zip(coords, center, grid.lengths):
        d = np.abs(x - c)
        d = np.minimum(d, length - d)
        total += d * d
    return total


def _realize_field(kv: dict, prefix: str, grid: GridSpec, base_dir: Path, seed: int) -> ScalarField:
    snap = _get(kv, f"{prefix}.snapshot", conv=str)
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
        if not width > 0.0:
            raise ScenarioError(f"{prefix}.bump.{i}.width must be positive")
        if not 2.0 * width * width > 0.0:
            raise ScenarioError(f"{prefix}.bump.{i}.width = {width:g}: 2 width^2 underflows to 0")
        center = _get(kv, f"{prefix}.bump.{i}.center", required=True, conv=_floats)
        dist2 = _periodic_dist2(grid, center)
        with np.errstate(over="ignore"):  # then the exponent is -inf, and exp(-inf) = 0 exactly
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
    """Remove ``key`` from ``kv`` and return its value converted by ``conv``."""
    if key not in kv:
        if required:
            raise ScenarioError(f"missing required key {key!r}")
        return default
    return _convert(key, kv.pop(key), conv)


# The ``flow.*`` keys with their converters; FlowConfig alone states the defaults.
_FLOW_KEYS = dict(
    cfl_fraction=float, t_max=float, residual_stop=float, blowup_ceiling=float,
    record_every=int, fixed_dt=float,
)


def _omega(kv: dict, bg: Background) -> SubdomainMask:
    """The subdomain that ``omega.type`` names (the empty set by default)."""
    grid, kind = bg.grid, _get(kv, "omega.type", "empty", conv=str)
    if kind == "empty":
        return SubdomainMask.empty(grid)
    if kind == "full":
        return SubdomainMask.full(grid)
    if kind == "superlevel":
        return superlevel_mask(bg, _get(kv, "omega.eps", required=True))
    if kind == "ball":
        center = _get(kv, "omega.center", required=True, conv=_floats)
        radius = _get(kv, "omega.radius", required=True)
        if not radius > 0.0:
            raise ScenarioError(f"key 'omega.radius' must be positive, got {radius}")
        return SubdomainMask(grid, _periodic_dist2(grid, center) < radius * radius)
    if kind == "slab":
        axis = _get(kv, "omega.axis", required=True, conv=int)
        if not 0 <= axis < grid.n:
            raise ScenarioError(f"key 'omega.axis': need an axis in 0..{grid.n - 1}, got {axis}")
        lo, hi = (_get(kv, f"omega.{key}", required=True) for key in ("lo", "hi"))
        if not lo < hi:
            raise ScenarioError(f"key 'omega.lo' must be below 'omega.hi', got {lo} and {hi}")
        x = grid.meshgrid()[axis]
        return SubdomainMask(grid, (x > lo) & (x < hi))
    raise ScenarioError(f"unknown omega.type {kind!r}")


def _build(kv: dict, path: Path) -> Scenario:
    sizes = _get(kv, "grid.sizes", required=True, conv=lambda text: [int(s) for s in text.split()])
    lengths = _get(kv, "grid.lengths", required=True, conv=_floats)
    grid = GridSpec(_get(kv, "grid.n", required=True, conv=int), tuple(sizes), tuple(lengths))

    seed = _get(kv, "seed", 0, conv=int)
    r0, f, u0 = (
        _realize_field(kv, prefix, grid, path.parent, seed + i)
        for i, prefix in enumerate(("r0", "f", "u0"))
    )
    background = Background(grid, r0, f)
    require_positive(u0, "u0")

    given = {key: conv for key, conv in _FLOW_KEYS.items() if f"flow.{key}" in kv}
    flow = FlowConfig(**{key: _get(kv, f"flow.{key}", conv=conv) for key, conv in given.items()})

    dilation = _get(kv, "supersolution.dilation", DEFAULT_DILATION, conv=int)
    band = _get(kv, "supersolution.band", DEFAULT_BAND, conv=int)
    _check_blend(dilation, band)
    name, omega = _get(kv, "name", path.stem, conv=str), _omega(kv, background)
    if kv:
        raise ScenarioError(f"unknown or unused keys: {', '.join(sorted(kv))}")
    return Scenario(
        name=name,
        grid=grid,
        background=background,
        u0=u0,
        flow=flow,
        omega=omega,
        supersolution={"dilation": dilation, "band": band},
    )


def load_scenario(path) -> Scenario:
    """Parse and validate a whole scenario file, realizing every field and the subdomain.

    This is the one input boundary: an unreadable file or snapshot, and any
    value the library's own checks reject (a non-finite field value, R0 not
    negative, u0 not positive, a bad grid or flow setting), all raise
    ``ScenarioError`` naming the file and the exception type.
    """
    path = Path(path)
    try:
        return _build(parse_kv(path.read_text()), path)
    except ScenarioError:
        raise
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"{path}: {type(exc).__name__}: {exc}") from exc
