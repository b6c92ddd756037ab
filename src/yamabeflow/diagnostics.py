"""Quantitative checks of the flow's identities, envelopes, decay and growth.

All operations are pure post-processing over trajectory records or small
windows of states; nothing here feeds back into the integration.  A window's
states are evaluated by the run's own ``flow._StateEval``, so a window on a
foreign grid, or with a non-finite state, raises as the run would; the
gradient term of the moment balance is taken by summation by parts through
the divergence-form ``Laplacian_g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flow import _StateEval
from .grid import ScalarField, SubdomainMask, _fsum, _power, require_same_grid
from .operators import Background, _laplacian_g_values

__all__ = [
    "GrowthFit",
    "EnvelopeReport",
    "DecayReport",
    "dissipation_identity_error",
    "curvature_evolution_error",
    "lemma_p_balance_error",
    "envelope_check",
    "decay_check",
    "growth_fit",
    "weighted_mass",
]

_EPS = float(np.finfo(np.float64).eps)
_TAIL_RISE = 0.05


@dataclass(frozen=True)
class GrowthFit:
    """Log-log slope of ``max u`` against ``t`` over the trailing decade."""

    exponent: float
    r_squared: float
    window: tuple[float, float]


@dataclass
class EnvelopeReport:
    lower_bound: float
    upper_rate: float
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class DecayReport:
    applicable: bool
    orders: dict[float, dict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if not self.applicable:
            return True
        return all(entry["final_ok"] and entry["monotone_ok"] for entry in self.orders.values())


def dissipation_identity_error(trajectory) -> float:
    """Relative mismatch between the energy drop and the accumulated dissipation.

    Compares ``E(0) - E(t_end)`` with ``((n-2)/2) * int_0^t int (R_g - f)^2 dV_g``
    accumulated by the trapezoid rule along the run.
    """
    records = trajectory.records
    if len(records) < 10:
        raise ValueError(f"need at least 10 records, got {len(records)}")
    n = trajectory.n
    de = records[0].energy - records[-1].energy
    diss = records[-1].dissipation_cum - records[0].dissipation_cum
    return abs(de - 0.5 * (n - 2) * diss) / (abs(de) + _EPS)


def _check_window(bg: Background, states) -> tuple[float, list[_StateEval]]:
    if len(states) != 3:
        raise ValueError(f"need exactly 3 states, got {len(states)}")
    dt1 = states[1].t - states[0].t
    dt2 = states[2].t - states[1].t
    if dt1 <= 0.0 or abs(dt2 - dt1) > 1e-12 * max(dt1, dt2):
        raise ValueError(f"states must be equally spaced in t, got spacings {dt1}, {dt2}")
    first = _StateEval(bg, states[0].u)
    return dt1, [first, *(_StateEval(bg, s.u, first.ws) for s in states[1:])]


def curvature_evolution_error(bg: Background, states) -> float:
    """Relative L2 defect of the curvature evolution identity on a 3-state window.

    Central difference of ``R_g`` in time against
    ``(n-1) Lap_g(R_g - f) + R_g (R_g - f)`` at the middle state.
    """
    dt, evs = _check_window(bg, states)
    lhs = (evs[2].resid - evs[0].resid) / (2.0 * dt)  # f does not depend on t
    resid = evs[1].resid
    rhs = (bg.n - 1) * _laplacian_g_values(bg, states[1].u.values, resid)
    rhs += (resid + bg.f.values) * resid
    num = float(np.sqrt(np.mean((lhs - rhs) ** 2)))
    den = float(np.sqrt(np.mean(rhs**2)))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def lemma_p_balance_error(bg: Background, states, p: float = 2.0) -> float:
    """Relative defect of the p-th residual-moment balance on a 3-state window.

    Checks ``d/dt int |R_g - f|^p dV_g`` against the dissipation/reaction
    split, with the gradient term taken by summation by parts.
    ``p < 2`` is rejected when the middle state's ``R_g - f`` changes sign or
    nearly vanishes somewhere, since ``|x|^(p/2)`` then has a kink that the
    quadrature does not resolve.
    """
    if not 1.0 < p < math.inf:
        raise ValueError(f"p must be > 1 and finite, got {p}")
    dt, evs = _check_window(bg, states)
    n = bg.n
    vol = bg.grid.cell_volume
    lhs = (evs[2].moments((p,), vol)[p] - evs[0].moments((p,), vol)[p]) / (2.0 * dt)

    resid, weight = evs[1].resid, evs[1].weight
    if p < 2.0:
        lo, hi = float(resid.min()), float(resid.max())
        if not (0.0 < lo >= 1e-8 * hi or 1e-8 * lo >= hi < 0.0):  # one sign, bounded from 0
            raise ValueError(f"p={p} < 2 rejected: R_g - f runs from {lo:g} to {hi:g}, so "
                             f"|R_g - f|^(p/2) has a kink")
    abs_resid = np.abs(resid)
    # At p = 2 the half-power is |resid| itself; differentiate the signed
    # residual instead, which has the same gradient a.e. but no kink.
    w = resid if p == 2.0 else _power(abs_resid, p / 2.0)
    # int |grad w|^2 u^2 dV = -int w Lap_g(w) dV_g, by summation by parts.
    grad_sq = -_fsum(w * _laplacian_g_values(bg, states[1].u.values, w) * weight) * vol
    grad_term = -4.0 * (n - 1) * (p - 1) / p * grad_sq
    abs_p = _power(abs_resid, p)
    sign_term = (p - 0.5 * n) * _fsum(resid * abs_p * weight) * vol
    forcing = p * _fsum(bg.f.values * abs_p * weight) * vol
    rhs = grad_term + sign_term + forcing
    if rhs == 0.0 and lhs == 0.0:
        return 0.0
    return abs(lhs - rhs) / (abs(rhs) + _EPS)


def envelope_check(bg: Background, trajectory, certificate=None) -> EnvelopeReport:
    """Check the pointwise comparison envelopes along a trajectory.

    Lower barrier ``min(C0, min u0)`` with ``C0 = (min|R0| / max|f|)^((n-2)/4)``
    (degenerate to bare positivity when ``f == 0``), upper envelope
    ``max(1, max u0) * exp(C1 t)``, and the supersolution trap when a
    certificate is supplied.
    """
    n = bg.n
    min_r0 = float(np.abs(bg.r0.values).min())
    max_f = float(np.abs(bg.f.values).max())
    max_r0 = float(np.abs(bg.r0.values).max())
    c1 = 0.25 * (n - 2) * (max_r0 + max_f)

    if trajectory.step_t:
        ts = trajectory.step_t
        mins = trajectory.step_min_u
        maxs = trajectory.step_max_u
    else:
        ts = [r.t for r in trajectory.records]
        mins = [r.min_u for r in trajectory.records]
        maxs = [r.max_u for r in trajectory.records]
    if not ts:
        raise ValueError("trajectory has no samples")

    min_u0 = mins[0]
    max_u0 = maxs[0]
    if max_f > 0.0:
        c0 = (min_r0 / max_f) ** (0.25 * (n - 2))
        lower = min(c0, min_u0)
    else:
        lower = 0.0
    upper_base = max(1.0, max_u0)
    trap = certificate.ubar.max() if certificate is not None else None

    report = EnvelopeReport(lower_bound=lower, upper_rate=c1)
    for t, mn, mx in zip(ts, mins, maxs):
        if mn < lower - 1e-8 or mn <= 0.0:
            report.violations.append(f"lower barrier at t={t:g}: min u = {mn:g} < {lower:g}")
        try:
            upper = upper_base * math.exp(c1 * t)
        except OverflowError:  # past the float range the envelope bounds no finite max u
            upper = math.inf
        if mx > upper + 1e-8:
            report.violations.append(f"upper envelope at t={t:g}: max u = {mx:g} > {upper:g}")
        if trap is not None and mx > trap + 1e-8:
            report.violations.append(f"trap at t={t:g}: max u = {mx:g} > {trap:g}")
    return report


def decay_check(trajectory, threshold: float = 1e-8) -> DecayReport:
    """Final smallness and tail monotonicity of each residual moment the records hold.

    A tail record may exceed the one before it by up to 5% (``_TAIL_RISE``).

    Not applicable to blow-up trajectories (the convergence hypotheses
    fail there); those return an empty passing report marked inapplicable.
    """
    if trajectory.outcome == "blow-up":
        return DecayReport(applicable=False)
    records = trajectory.records
    if not records:
        raise ValueError("trajectory has no records")
    report = DecayReport(applicable=True)
    tail_start = max(0, len(records) - max(2, len(records) // 4))
    for p in sorted(records[-1].residual_lp):
        series = [r.residual_lp[p] for r in records]
        tail = series[tail_start:]
        monotone = all(b <= a * (1.0 + _TAIL_RISE) + _EPS for a, b in zip(tail, tail[1:]))
        report.orders[p] = {
            "final": series[-1],
            "final_ok": series[-1] <= threshold,
            "monotone_ok": monotone,
        }
    return report


def growth_fit(trajectory) -> GrowthFit:
    """Least-squares slope of ``log max u`` vs ``log t`` over the last decade."""
    if trajectory.outcome != "blow-up":
        raise ValueError(f"growth fit needs a blow-up trajectory, got {trajectory.outcome!r}")
    pts = [(r.t, r.max_u) for r in trajectory.records if r.t > 0.0]
    if not pts:
        raise ValueError("trajectory has no positive-time records")
    t_end = pts[-1][0]
    t_lo = t_end / 10.0
    if pts[0][0] > t_lo:
        raise ValueError(
            f"trajectory spans less than one decade of t ({pts[0][0]:g} .. {t_end:g})"
        )
    window = [(t, u) for t, u in pts if t >= t_lo]
    if len(window) < 5:
        raise ValueError(f"need at least 5 records in the trailing decade, got {len(window)}")
    x = np.log(np.array([t for t, _ in window]))
    y = np.log(np.array([u for _, u in window]))
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return GrowthFit(float(slope), r2, (t_lo, t_end))


def weighted_mass(bg: Background, u: ScalarField, phi: ScalarField, mask: SubdomainMask) -> float:
    """Mass ``int_mask u^N phi dV`` with ``phi`` renormalized to unit mask integral."""
    require_same_grid(bg, u)
    require_same_grid(bg, phi)
    require_same_grid(bg, mask)
    phi_masked = np.where(mask.inside, phi.values, 0.0)
    total = _fsum(phi_masked) * bg.grid.cell_volume
    if total <= 0.0:
        raise ValueError(f"phi has nonpositive mass {total:g} on the mask")
    integrand = _power(u.values, bg.big_n) * (phi_masked / total)
    return _fsum(integrand) * bg.grid.cell_volume
