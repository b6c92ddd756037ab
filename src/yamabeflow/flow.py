"""Explicit time integration of the prescribed-curvature conformal flow.

The flow is integrated in the conformal factor ``u`` with classical RK4
under a CFL-style stability cap.  Positivity is enforced by step rejection
(halve dt and retry), never by clipping, so the comparison-principle
diagnostics see the genuine scheme.

Each accepted state is evaluated once: the residual ``R_g - f``, the weight
``u^(N+1)`` and the velocity computed there feed the stability cap, the
first RK4 stage, the trapezoid dissipation and the diagnostics record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ComputationFailure, PositivityCollapseError
from .grid import GridSpec, ScalarField, _fsum, _power, require_same_grid
from .operators import (
    Background,
    _conformal_values,
    _StencilPlan,
    energy,
)

__all__ = [
    "DiagnosticsRecord",
    "FlowState",
    "FlowConfig",
    "Trajectory",
    "velocity",
    "stable_dt",
    "step",
    "run",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampled instant of a trajectory."""

    t: float
    dt: float
    energy: float
    min_u: float
    max_u: float
    volume_g: float
    residual_sup: float
    residual_lp: dict[float, float]
    dissipation_cum: float


@dataclass(frozen=True)
class FlowState:
    """A run's whole loop state: a checkpoint stores one, and ``run(start=state)`` continues it."""

    u: ScalarField
    t: float
    step: int
    dt_last: float
    dissipation_cum: float = 0.0
    records_written: int = 0
    last_record_step: int = -1


@dataclass(frozen=True)
class FlowConfig:
    cfl_fraction: float = 0.8
    t_max: float = 10.0
    residual_stop: float = 1e-6
    blowup_ceiling: float = 1e6
    record_every: int = 10
    fixed_dt: float | None = None
    max_steps: int | None = None

    def __post_init__(self):
        if not 0.0 < self.cfl_fraction <= 1.0:
            raise ValueError(f"cfl_fraction must be in (0, 1], got {self.cfl_fraction}")
        # Written as negated comparisons so that NaN fails them too.
        for name in ("t_max", "residual_stop", "blowup_ceiling"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.fixed_dt is not None and not 0.0 < self.fixed_dt < np.inf:
            raise ValueError(f"fixed_dt must be positive and finite, got {self.fixed_dt}")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        for name in ("record_every", "max_steps"):  # a step count; NaN and inf fail too
            value = getattr(self, name)
            if value is not None and not float(value).is_integer():
                raise ValueError(f"{name} must be a whole number, got {value}")

    @staticmethod
    def resolve_orders(n: int) -> tuple[float, ...]:
        """The Lp ladder of the convergence proof: 2, n/2 and n^2/(2(n-2)), 2 first."""
        return tuple(dict.fromkeys((2.0, n / 2.0, n * n / (2.0 * (n - 2.0)))))  # n = 4: 2, 2, 4


@dataclass
class Trajectory:
    """A run's records and outcome; ``run`` also fills the per-step columns and ``final``."""

    n: int
    records: list[DiagnosticsRecord]
    outcome: str
    step_t: list[float] = field(default_factory=list)
    step_dt: list[float] = field(default_factory=list)
    step_energy: list[float] = field(default_factory=list)
    step_min_u: list[float] = field(default_factory=list)
    step_max_u: list[float] = field(default_factory=list)
    final: FlowState | None = None
    certificate: object | None = None


class _Workspace:
    """An evaluation's scratch arrays, none of which a caller keeps: ``a``, ``b``, ``c`` for the
    stencil, whose ``plan`` is over ``a`` and ``b``, and a state's reductions, ``stage`` and ``ks``
    for an RK4 attempt's k2..k4.  Seven arrays, not one block: freeing a block past malloc's mmap
    threshold raises it process-wide."""

    __slots__ = ("a", "b", "c", "stage", "ks", "plan")
    def __init__(self, grid: GridSpec):
        self.a, self.b, self.c, self.stage, *self.ks = (np.empty(grid.shape) for _ in range(7))
        self.plan = _StencilPlan(grid, (self.a, self.b))


def _residual(bg: Background, uv: np.ndarray, ws: _Workspace, un=None) -> np.ndarray:
    """``L0 u / u^N - f`` at ``uv`` over ``un``, else over ``ws.a``; ``L0 u`` in ``ws.c``."""
    conf = _conformal_values(bg, uv, ws.c, ws.plan)
    un = un if un is not None else _power(uv, bg.big_n, ws.a)  # the stencil is done with ws.a
    resid = np.divide(conf, un, out=un)
    resid -= bg.f.values
    return resid


def _velocity(bg: Background, uv: np.ndarray, resid: np.ndarray, vel=None) -> np.ndarray:
    vel = np.multiply(-0.25 * (bg.n - 2), resid, out=vel)
    vel *= uv
    return vel


class _StateEval:
    """Everything the flow and the window checks read from one state, from one ``R_g - f``.

    ``L0 u`` is applied once: the curvature reads it, and so does the energy's Dirichlet form
    ``u L0 u``, by summation by parts.  ``u^N`` is formed once: the weight is ``u^N u``, and the
    curvature ``L0 u / u^N`` overwrites it to become ``resid``.  A state whose weight overflows,
    or whose ``u^N`` underflows to 0, has a non-finite energy, ``residual_sup`` or ``sq``, and
    raises ``ComputationFailure`` instead of a numpy warning; a foreign grid raises
    ``GridMismatchError`` first, and a non-positive state ``PositivityError`` from the energy.
    ``L0 u`` and the reductions' temporaries live in the workspace ``ws`` (fresh when not given),
    as do the RK4 attempts' stages; ``resid``, ``weight`` and ``velocity`` are fresh.
    """

    __slots__ = ("ws", "resid", "weight", "velocity", "min_u", "max_u", "residual_sup", "energy",
                 "sq")

    def __init__(self, bg: Background, u: ScalarField, ws: _Workspace | None = None):
        require_same_grid(bg, u)
        uv = u.values
        self.ws = ws = ws if ws is not None else _Workspace(bg.grid)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            un = _power(uv, bg.big_n)
            self.weight = un * uv
            self.resid = _residual(bg, uv, ws, un)
            self.energy = energy(bg, u, ws.c, self.weight)
            # Allocated after the energy frees its temporaries, else glibc trims the heap each step
            self.velocity = _velocity(bg, uv, self.resid)
            self.residual_sup = float(np.maximum.reduce(np.abs(self.resid, out=ws.a), None))
            sq = np.multiply(np.multiply(self.resid, self.resid, out=ws.a), self.weight, out=ws.a)
            self.sq = _fsum(sq) * bg.grid.cell_volume
        self.min_u = float(np.minimum.reduce(uv, None))
        self.max_u = float(np.maximum.reduce(uv, None))
        if not all(map(math.isfinite, (self.energy, self.residual_sup, self.sq))):
            raise ComputationFailure(
                f"non-finite state at min u = {self.min_u:g}, max u = {self.max_u:g}: energy "
                f"{self.energy:g}, residual_sup {self.residual_sup:g}, L2 moment {self.sq:g}"
            )

    def moments(self, orders, vol: float) -> dict[float, float]:
        """``{p: int |R_g - f|^p dV_g}`` over ``orders``, ``vol`` the cell volume; 2 is ``sq``."""
        abs_resid = np.abs(self.resid) if set(orders) - {2.0} else None
        return {p: self.sq if p == 2.0 else _fsum(_power(abs_resid, p) * self.weight) * vol
                for p in orders}


def velocity(bg: Background, u: ScalarField) -> ScalarField:
    """Pointwise flow velocity ``-((n-2)/4) (R_g - f) u``."""
    return ScalarField(u.grid, _StateEval(bg, u).velocity)


def stable_dt(
    bg: Background, u: ScalarField, cfl_fraction: float, ev: _StateEval | None = None
) -> float:
    """Explicit-scheme stability cap for the linearized diffusion and reaction.

    Diffusion coefficient ``D(u) = ((n-2)/4) c_n u^(1-N)`` caps the step at
    ``cfl * (sum_i 2/h_i^2)^-1 / max D``; the reaction rate
    ``((n-2)/4)|R_g - f|`` further caps it at half its inverse.  ``ev`` is
    the state's evaluation when the caller already holds it.  A cap that is
    not a positive finite float raises ``ComputationFailure``.
    """
    if ev is None:
        ev = _StateEval(bg, u)
    kappa = 0.25 * (bg.n - 2)
    inv_h2 = sum(2.0 / (h * h) for h in bg.grid.spacings)
    try:  # the Python float pow raises on overflow; on underflow d_max is 0
        d_max = kappa * bg.c_n * ev.min_u ** (1.0 - bg.big_n)
        dt = cfl_fraction / (inv_h2 * d_max)
    except (OverflowError, ZeroDivisionError):
        dt = math.nan
    rate = kappa * ev.residual_sup
    if rate > 0.0:
        dt = min(dt, 0.5 / rate)
    if not 0.0 < dt < math.inf:
        raise ComputationFailure(f"no stable dt at min u = {ev.min_u:g}: the cap is {dt:g}")
    return dt


def _admissible(arr: np.ndarray) -> bool:
    # Positive and finite; NaN fails the first comparison.
    return bool(np.minimum.reduce(arr, None) > 0.0 and np.maximum.reduce(arr, None) < math.inf)


def _try_rk4(bg: Background, uv: np.ndarray, k1: np.ndarray, dt: float, ws) -> np.ndarray | None:
    k2, k3, k4 = ws.ks
    for c, k_prev, k in ((0.5, k1, k2), (0.5, k2, k3), (1.0, k3, k4)):
        s = np.add(uv, np.multiply(c * dt, k_prev, out=ws.stage), out=ws.stage)
        if not _admissible(s):
            return None
        _velocity(bg, s, _residual(bg, s, ws), k)
    acc = np.add(k1, np.multiply(2.0, k2, out=k2), out=k2)
    acc += np.multiply(2.0, k3, out=k3)
    acc += k4
    out = uv + np.multiply(dt / 6.0, acc, out=acc)
    return out if _admissible(out) else None


def step(bg: Background, state: FlowState, dt: float, ev=None) -> FlowState:
    """One RK4 step; rejects and halves dt (up to 40 times) on lost positivity.

    ``ev``, the evaluation of ``state`` (made here when not given), gives stage k1, and each
    attempt rewrites its stages in its workspace ``ev.ws``; only the new ``u`` is fresh.
    """
    if ev is None:
        ev = _StateEval(bg, state.u)
    if not 0.0 < dt < math.inf:  # NaN fails too
        raise ValueError(f"dt must be positive and finite, got {dt}")
    uv = state.u.values
    for _ in range(41):
        out = _try_rk4(bg, uv, ev.velocity, dt, ev.ws)
        if out is not None:
            return FlowState(ScalarField(bg.grid, out), state.t + dt, state.step + 1, dt)
        dt *= 0.5
    raise PositivityCollapseError(
        f"positivity collapse at t={state.t:g}, step {state.step}", state
    )


def _make_record(bg: Background, state: FlowState, ev: _StateEval, orders) -> DiagnosticsRecord:
    vol = bg.grid.cell_volume
    residual_lp = ev.moments(orders, vol)
    return DiagnosticsRecord(
        t=state.t,
        dt=state.dt_last,
        energy=ev.energy,
        min_u=ev.min_u,
        max_u=ev.max_u,
        volume_g=_fsum(ev.weight) * vol,
        residual_sup=ev.residual_sup,
        residual_lp=residual_lp,
        dissipation_cum=state.dissipation_cum,
    )


def run(
    bg: Background,
    u0: ScalarField,
    cfg: FlowConfig,
    certificate=None,
    start: FlowState | None = None,
    on_record=None,
    on_checkpoint=None,
) -> Trajectory:
    """Advance the flow to convergence, timeout, or blow-up, recording diagnostics.

    ``start``, such as a checkpoint's state or a ``Trajectory.final``, is the
    one loop state a run continues from, read in place of ``u0``, and is left as
    it was; records, the trapezoid dissipation and step sizes continue bitwise as
    if the run had never stopped.  ``on_checkpoint(state)`` sees, in order and after its record,
    every state after step 0 that the run continues from; the caller picks which to store.
    """
    orders = FlowConfig.resolve_orders(bg.n)
    state = start if start is not None else FlowState(u0, 0.0, 0, 0.0)
    records: list[DiagnosticsRecord] = []
    rows = []

    ev = _StateEval(bg, state.u)
    outcome = None
    while True:
        rows.append((state.t, state.dt_last, ev.energy, ev.min_u, ev.max_u))

        if ev.residual_sup <= cfg.residual_stop:
            outcome = "converged"
        elif state.t >= cfg.t_max or (cfg.max_steps is not None and state.step >= cfg.max_steps):
            outcome = "timeout"
        elif ev.max_u >= cfg.blowup_ceiling:
            outcome = "blow-up"
        if state.step > state.last_record_step and (state.step % cfg.record_every == 0 or outcome):
            rec = _make_record(bg, state, ev, orders)
            records.append(rec)
            state = replace(
                state, records_written=state.records_written + 1, last_record_step=state.step
            )
            if on_record is not None:
                on_record(rec)
        if outcome is not None:
            break
        if on_checkpoint is not None and state.step > 0:
            on_checkpoint(state)

        if cfg.fixed_dt is not None:
            dt = cfg.fixed_dt
        else:
            dt = stable_dt(bg, state.u, cfg.cfl_fraction, ev)
        if state.t + dt > cfg.t_max:
            dt = cfg.t_max - state.t
        new = step(bg, state, dt, ev)
        new_ev = _StateEval(bg, new.u, ev.ws)
        dissipation = state.dissipation_cum + 0.5 * (new.t - state.t) * (ev.sq + new_ev.sq)
        counters = state.records_written, state.last_record_step  # the constructor beats replace()
        state, ev = FlowState(new.u, new.t, new.step, new.dt_last, dissipation, *counters), new_ev

    step_t, step_dt, step_e, step_mn, step_mx = map(list, zip(*rows))
    return Trajectory(
        n=bg.n,
        records=records,
        step_t=step_t,
        step_dt=step_dt,
        step_energy=step_e,
        step_min_u=step_mn,
        step_max_u=step_mx,
        final=state,
        outcome=outcome,
        certificate=certificate,
    )
