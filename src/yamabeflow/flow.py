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

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DiagnosticsRecord
from .errors import PositivityCollapseError
from .grid import ScalarField, _fsum, require_same_grid
from .operators import Background, _curvature_values, _periodic_diff, energy, require_positive

__all__ = [
    "FlowState",
    "FlowConfig",
    "RunCarry",
    "Trajectory",
    "velocity",
    "stable_dt",
    "step",
    "run",
]


@dataclass(frozen=True)
class FlowState:
    u: ScalarField
    t: float
    step: int
    dt_last: float


def _lp_name(p: float) -> str:
    """The Lp order ``p`` as its CSV column ``residual_l<name>`` spells it."""
    return f"{p:g}"


@dataclass(frozen=True)
class FlowConfig:
    cfl_fraction: float = 0.8
    t_max: float = 10.0
    residual_stop: float = 1e-6
    blowup_ceiling: float = 1e6
    record_every: int = 10
    lp_orders: tuple[float, ...] | None = None
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
        orders = self.lp_orders
        if orders is not None and not (
            orders
            and all(1.0 <= p < np.inf for p in orders)
            and len({_lp_name(p) for p in orders}) == len(orders)
        ):
            raise ValueError(
                f"lp orders must be non-empty, in [1, inf) and distinct as CSV column names, "
                f"got {orders}"
            )
        if self.fixed_dt is not None and not 0.0 < self.fixed_dt < np.inf:
            raise ValueError(f"fixed_dt must be positive and finite, got {self.fixed_dt}")

    def resolve_orders(self, n: int) -> tuple[float, ...]:
        if self.lp_orders is not None:
            return tuple(float(p) for p in self.lp_orders)
        return tuple(dict.fromkeys((2.0, n / 2.0, n * n / (2.0 * (n - 2.0)))))  # n = 4: 2, 2, 4


@dataclass
class RunCarry:
    """Scalar loop state that must survive a checkpoint/resume split."""

    dissipation_cum: float = 0.0
    records_written: int = 0
    last_record_step: int = -1


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


def _residual_velocity(bg: Background, uv: np.ndarray, diffs=None) -> tuple[np.ndarray, np.ndarray]:
    resid = _curvature_values(bg, uv, diffs) - bg.f.values
    return resid, -0.25 * (bg.n - 2) * resid * uv


class _StateEval:
    """Everything the step loop reads from one state, from one ``R_g - f``.

    The forward differences of ``u`` feed both the energy and the curvature,
    and the energy takes the weight ``u^(N+1)``.
    """

    __slots__ = ("resid", "weight", "velocity", "min_u", "max_u", "residual_sup", "energy", "sq")

    def __init__(self, bg: Background, u: ScalarField):
        uv = u.values
        self.weight = uv ** (bg.big_n + 1.0)
        diffs = [_periodic_diff(uv, axis) for axis in range(uv.ndim)]
        self.energy = energy(bg, u, diffs, self.weight)
        self.resid, self.velocity = _residual_velocity(bg, uv, diffs)
        del diffs  # before the exact sum below, so that the state's peak memory does not grow
        self.min_u = float(uv.min())
        self.max_u = float(uv.max())
        self.residual_sup = float(np.abs(self.resid).max())
        self.sq = _fsum(self.resid * self.resid * self.weight) * bg.grid.cell_volume


def velocity(bg: Background, u: ScalarField) -> ScalarField:
    """Pointwise flow velocity ``-((n-2)/4) (R_g - f) u``."""
    require_same_grid(bg, u)
    require_positive(u)
    return ScalarField(u.grid, _residual_velocity(bg, u.values)[1])


def stable_dt(
    bg: Background, u: ScalarField, cfl_fraction: float, ev: _StateEval | None = None
) -> float:
    """Explicit-scheme stability cap for the linearized diffusion and reaction.

    Diffusion coefficient ``D(u) = ((n-2)/4) c_n u^(1-N)`` caps the step at
    ``cfl * (sum_i 2/h_i^2)^-1 / max D``; the reaction rate
    ``((n-2)/4)|R_g - f|`` further caps it at half its inverse.  ``ev`` is
    the state's evaluation when the caller already holds it.
    """
    require_same_grid(bg, u)
    require_positive(u)
    if ev is None:
        ev = _StateEval(bg, u)
    kappa = 0.25 * (bg.n - 2)
    d_max = kappa * bg.c_n * ev.min_u ** (1.0 - bg.big_n)
    inv_h2 = sum(2.0 / (h * h) for h in bg.grid.spacings)
    dt = cfl_fraction / (inv_h2 * d_max)
    rate = kappa * ev.residual_sup
    if rate > 0.0:
        dt = min(dt, 0.5 / rate)
    return dt


def _admissible(arr: np.ndarray) -> bool:
    # Positive and finite; NaN fails the first comparison.
    return bool(arr.min() > 0.0 and arr.max() < np.inf)


def _try_rk4(bg: Background, uv: np.ndarray, k1: np.ndarray, dt: float) -> np.ndarray | None:
    ks = [k1]
    for c in (0.5, 0.5, 1.0):
        s = uv + c * dt * ks[-1]
        if not _admissible(s):
            return None
        ks.append(_residual_velocity(bg, s)[1])
    k1, k2, k3, k4 = ks
    out = uv + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return out if _admissible(out) else None


def step(bg: Background, state: FlowState, dt: float, ev: _StateEval | None = None) -> FlowState:
    """One RK4 step; rejects and halves dt (up to 40 times) on lost positivity.

    ``ev``, the evaluation of ``state`` if the caller holds it, gives stage k1.
    """
    require_same_grid(bg, state.u)
    require_positive(state.u)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    uv = state.u.values
    k1 = ev.velocity if ev is not None else _residual_velocity(bg, uv)[1]
    for _ in range(41):
        out = _try_rk4(bg, uv, k1, dt)
        if out is not None:
            return FlowState(ScalarField(bg.grid, out), state.t + dt, state.step + 1, dt)
        dt *= 0.5
    raise PositivityCollapseError(
        f"positivity collapse at t={state.t:g}, step {state.step}", state
    )


def _make_record(
    bg: Background, state: FlowState, ev: _StateEval, carry: RunCarry, orders
) -> DiagnosticsRecord:
    vol = bg.grid.cell_volume
    abs_resid = np.abs(ev.resid)
    return DiagnosticsRecord(
        t=state.t,
        dt=state.dt_last,
        energy=ev.energy,
        min_u=ev.min_u,
        max_u=ev.max_u,
        volume_g=_fsum(ev.weight) * vol,
        residual_sup=ev.residual_sup,
        residual_lp={p: _fsum(abs_resid**p * ev.weight) * vol for p in orders},
        dissipation_cum=carry.dissipation_cum,
    )


def run(
    bg: Background,
    u0: ScalarField,
    cfg: FlowConfig,
    certificate=None,
    start: FlowState | None = None,
    carry: RunCarry | None = None,
    on_record=None,
    on_checkpoint=None,
) -> Trajectory:
    """Advance the flow to convergence, timeout, or blow-up, recording diagnostics.

    ``start``/``carry`` let a caller continue an interrupted run from a
    checkpoint; records, the trapezoid dissipation accumulator, and step
    sizes then continue bitwise as if the run had never stopped.
    ``on_checkpoint(state, carry)`` sees, in order and after its record, every
    state after step 0 that the run continues from; the caller picks which to store.
    """
    require_same_grid(bg, u0)
    require_positive(u0, "u0")
    if start is not None:
        require_same_grid(bg, start.u)
    orders = cfg.resolve_orders(bg.n)
    state = start if start is not None else FlowState(u0, 0.0, 0, 0.0)
    carry = carry if carry is not None else RunCarry()
    records: list[DiagnosticsRecord] = []
    rows = []

    ev = _StateEval(bg, state.u)
    outcome = None
    while True:
        rows.append((state.t, state.dt_last, ev.energy, ev.min_u, ev.max_u))

        due = state.step % cfg.record_every == 0 and state.step > carry.last_record_step
        if ev.residual_sup <= cfg.residual_stop:
            outcome = "converged"
        elif state.t >= cfg.t_max:
            outcome = "timeout"
        elif cfg.max_steps is not None and state.step >= cfg.max_steps:
            outcome = "timeout"
        elif ev.max_u >= cfg.blowup_ceiling:
            outcome = "blow-up"
        if due or (outcome is not None and state.step > carry.last_record_step):
            rec = _make_record(bg, state, ev, carry, orders)
            records.append(rec)
            carry.records_written += 1
            carry.last_record_step = state.step
            if on_record is not None:
                on_record(rec)
        if outcome is not None:
            break
        if on_checkpoint is not None and state.step > 0:
            on_checkpoint(state, carry)

        if cfg.fixed_dt is not None:
            dt = cfg.fixed_dt
        else:
            dt = stable_dt(bg, state.u, cfg.cfl_fraction, ev)
            if state.t + dt > cfg.t_max:
                dt = cfg.t_max - state.t
        new_state = step(bg, state, dt, ev)
        new_ev = _StateEval(bg, new_state.u)
        carry.dissipation_cum += 0.5 * (new_state.t - state.t) * (ev.sq + new_ev.sq)
        state, ev = new_state, new_ev

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
