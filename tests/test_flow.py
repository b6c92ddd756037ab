import hashlib

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import yamabeflow as yf
from yamabeflow import flow as flowmod
from yamabeflow.cli import _csv_row
from yamabeflow.errors import GridMismatchError, PositivityCollapseError
from yamabeflow.flow import FlowState, RunCarry
from yamabeflow.grid import _fsum
from yamabeflow.operators import _curvature_values

from conftest import constant_background, trapped_bump_background, unit_grid


def scalar_oracle(r0, f, u0, t_eval):
    """Constant-data reduction: u' = -(1/4)(R0 u^-4 - f) u via a stiff solver."""

    def rhs(_t, y):
        u = y[0]
        return [-0.25 * (r0 * u**-4.0 - f) * u]

    sol = solve_ivp(rhs, (0.0, t_eval[-1]), [u0], t_eval=t_eval, rtol=1e-12, atol=1e-14)
    assert sol.success
    return sol.y[0]


class TestVelocity:
    def test_stationary_velocity_exactly_zero(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        v = yf.velocity(bg, yf.ScalarField.constant(grid8, 1.0))
        assert np.all(v.values == 0.0)

    def test_constant_data_closed_form(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        u = yf.ScalarField.constant(grid8, 1.0)
        # R_g = -2, so velocity = -(1/4)(-2 + 1) * 1 = 1/4.
        assert np.allclose(yf.velocity(bg, u).values, 0.25, rtol=1e-14)


class TestStableDt:
    def test_diffusion_cap_formula(self, grid8):
        # No reaction cap at the stationary point: dt = cfl / (sum 2/h^2 * D).
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        u = yf.ScalarField.constant(grid8, 1.0)
        inv_h2 = 3 * 2 * 64.0
        d_coeff = 0.25 * 1 * 8.0  # ((n-2)/4) c_n u^(1-N)
        assert yf.stable_dt(bg, u, 1.0) == pytest.approx(1.0 / (inv_h2 * d_coeff), rel=1e-14)

    def test_reaction_cap_engages(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-10000.0)
        u = yf.ScalarField.constant(grid8, 1.0)
        # |R_g - f| = 9999: the reaction cap 0.5/(0.25*9999) undercuts the
        # diffusion cap 1/768 at 8^3.
        assert yf.stable_dt(bg, u, 1.0) == pytest.approx(0.5 / (0.25 * 9999.0), rel=1e-14)

    def test_scales_with_cfl_fraction(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        u = yf.ScalarField.constant(grid8, 1.0)
        assert yf.stable_dt(bg, u, 0.5) == pytest.approx(0.5 * yf.stable_dt(bg, u, 1.0), rel=1e-14)


class TestStep:
    def test_fourth_order_in_dt(self, grid8):
        # One RK4 step against the scalar oracle at dt and dt/2: error
        # ratio ~ 2^5 for the one-step (local) truncation error.
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        state = FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)
        errs = []
        for dt in (0.02, 0.01):
            out = yf.step(bg, state, dt)
            ref = scalar_oracle(-2.0, -1.0, 1.0, [dt])[0]
            errs.append(abs(out.u.max() - ref))
        ratio = errs[0] / errs[1]
        assert 20.0 <= ratio <= 45.0

    def test_halves_dt_to_keep_positivity(self, grid8):
        # Strongly contracting data: the requested dt would overshoot to
        # a negative factor, so the accepted step must be smaller.
        bg = constant_background(grid8, r0=-1.0, f=-500.0)
        state = FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)
        out = yf.step(bg, state, 1.0)
        assert out.dt_last < 1.0
        assert out.u.min() > 0.0

    def test_collapse_raises_with_state(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1e12)
        state = FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)
        with pytest.raises(PositivityCollapseError) as exc:
            yf.step(bg, state, 1e30)
        assert exc.value.state is state

    def test_rejects_nonpositive_dt(self, grid8):
        bg = constant_background(grid8)
        state = FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)
        with pytest.raises(ValueError):
            yf.step(bg, state, 0.0)


class TestRunAgainstScalarOracle:
    def test_trajectory_matches_ode(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        dt = 1e-3
        cfg = yf.FlowConfig(fixed_dt=dt, t_max=0.5, record_every=100)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        ts = [r.t for r in traj.records if r.t > 0.0]
        ref = scalar_oracle(-2.0, -1.0, 1.0, ts)
        got = [r.max_u for r in traj.records if r.t > 0.0]
        assert np.allclose(got, ref, atol=1e-10)

    def test_rk4_global_order(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        # Constant fields see no diffusion stiffness (the Laplacian term is
        # exactly zero), so dt well above the diffusion cap stays stable and
        # keeps the error above the roundoff floor.
        errs = []
        for dt in (0.04, 0.02):
            cfg = yf.FlowConfig(fixed_dt=dt, t_max=0.4, record_every=10**9)
            traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
            ref = scalar_oracle(-2.0, -1.0, 1.0, [traj.final.t])[0]
            errs.append(abs(traj.final.u.max() - ref))
        assert errs[0] / errs[1] > 12.0  # fourth order gives ~16


class TestRunOutcomes:
    def test_converged(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        cfg = yf.FlowConfig(t_max=50.0, residual_stop=1e-5, record_every=50)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        assert traj.outcome == "converged"
        assert traj.records[-1].residual_sup <= 1e-5
        assert abs(traj.final.u.max() - 2.0**0.25) < 1e-5

    def test_timeout_by_time(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        cfg = yf.FlowConfig(t_max=0.01, record_every=5)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        assert traj.outcome == "timeout"
        assert traj.final.t == pytest.approx(0.01, abs=1e-12)

    def test_timeout_by_steps(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        cfg = yf.FlowConfig(t_max=10.0, max_steps=7, record_every=100)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        assert traj.outcome == "timeout"
        assert traj.final.step == 7

    def test_blow_up(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=1.0)
        cfg = yf.FlowConfig(t_max=500.0, blowup_ceiling=100.0, record_every=10)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        assert traj.outcome == "blow-up"
        assert traj.final.u.max() >= 100.0

    def test_record_cadence_and_final_record(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        cfg = yf.FlowConfig(t_max=10.0, max_steps=25, record_every=10)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        # Records at steps 0, 10, 20 plus the stopping step 25.
        assert len(traj.records) == 4
        assert traj.records[-1].t == traj.final.t


class TestEvaluationCount:
    def test_each_accepted_state_evaluated_once(self, grid8, monkeypatch):
        # One evaluation per accepted state, plus RK4 stages 2-4 of each step.
        bg = trapped_bump_background(8)
        calls = []
        halved = []
        curvature, step = flowmod._curvature_values, flowmod.step

        def counted_curvature(*args):
            calls.append(1)
            return curvature(*args)

        def checked_step(bg_, state, dt, *rest):
            out = step(bg_, state, dt, *rest)
            halved.append(out.dt_last < dt)
            return out

        monkeypatch.setattr(flowmod, "_curvature_values", counted_curvature)
        monkeypatch.setattr(flowmod, "step", checked_step)
        k = 10
        cfg = yf.FlowConfig(t_max=10.0, max_steps=k, record_every=3)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        assert traj.final.step == k
        assert halved == [False] * k
        assert len(calls) == 1 + 4 * k


class TestStateEval:
    def test_shares_bits_with_energy_and_curvature(self, grid8):
        """The differences and weight one evaluation shares give the stand-alone bits."""
        bg = trapped_bump_background(8)
        u = yf.ScalarField(grid8, 1.0 + 0.1 * np.random.default_rng(5).random(grid8.shape))
        ev = flowmod._StateEval(bg, u)
        assert ev.energy.hex() == yf.energy(bg, u).hex()
        assert ev.resid.tobytes() == (_curvature_values(bg, u.values) - bg.f.values).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0])
    def test_admissible_rejects_non_positive_or_non_finite(self, bad):
        arr = np.ones((4, 5, 6))
        arr[1, 2, 3] = bad
        assert flowmod._admissible(arr) is False

    def test_admissible_accepts_positive_finite(self):
        arr = 1e-300 + np.random.default_rng(6).random((4, 5, 6))
        assert flowmod._admissible(arr) is True


class TestDigests:
    """A short fixed run pins the bytes of its final u and of its CSV rows.

    A change meant to leave every number alone, such as a faster stencil or
    a per-state quantity shared rather than recomputed, keeps both digests.
    """

    def test_short_run_digests_are_pinned(self, grid8):
        bg = trapped_bump_background(8)
        u0 = yf.ScalarField(grid8, 1.0 + 0.1 * np.random.default_rng(13).random(grid8.shape))
        cfg = yf.FlowConfig(max_steps=40, record_every=1)
        traj = yf.run(bg, u0, cfg)
        assert (traj.outcome, traj.final.step, len(traj.records)) == ("timeout", 40, 41)
        orders = cfg.resolve_orders(bg.n)
        rows = "".join(_csv_row(rec, orders) + "\n" for rec in traj.records)
        assert hashlib.sha256(traj.final.u.values.tobytes()).hexdigest() == (
            "ecf9456bba8318ae9aa66f46d34705a5a8449853ec9bf0dc65fc214686d99847"
        )
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "86ffe57dfcb48f9a8723682f8d64c8aa02537dbe8db846b76c2e3d935ffceab2"
        )


class TestDissipationAccumulator:
    def test_matches_independent_trapezoid(self, grid8):
        bg = trapped_bump_background(8)
        dt = 2e-4
        cfg = yf.FlowConfig(fixed_dt=dt, t_max=20 * dt, record_every=1)
        u0 = yf.ScalarField.constant(grid8, 1.0)
        traj = yf.run(bg, u0, cfg)

        # Re-integrate with bare steps and accumulate the trapezoid sum of
        # int (R_g - f)^2 dV_g ourselves.
        state = FlowState(u0, 0.0, 0, 0.0)

        def sq(s):
            resid = _curvature_values(bg, s.u.values) - bg.f.values
            w = s.u.values ** (bg.big_n + 1.0)
            return _fsum(resid * resid * w) * grid8.cell_volume

        acc = 0.0
        prev = sq(state)
        for _ in range(20):
            new = yf.step(bg, state, dt)
            cur = sq(new)
            acc += 0.5 * (new.t - state.t) * (prev + cur)
            state, prev = new, cur
        assert traj.records[-1].dissipation_cum == pytest.approx(acc, rel=1e-12)

    def test_energy_monotone_along_run(self, grid8):
        bg = trapped_bump_background(8)
        cfg = yf.FlowConfig(t_max=0.05, record_every=10)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.2), cfg)
        es = traj.step_energy
        assert all(b <= a + 1e-10 * (1.0 + abs(a)) for a, b in zip(es, es[1:]))


class TestResumeCarry:
    def test_split_run_is_bitwise_identical(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        u0 = yf.ScalarField.constant(grid8, 1.0)
        cfg_full = yf.FlowConfig(t_max=10.0, max_steps=30, record_every=7)
        full = yf.run(bg, u0, cfg_full)

        cfg_half = yf.FlowConfig(t_max=10.0, max_steps=15, record_every=7)
        first = yf.run(bg, u0, cfg_half)
        carry = RunCarry(
            dissipation_cum=first.records[-1].dissipation_cum,
            records_written=0,
            last_record_step=first.final.step,
        )
        second = yf.run(bg, u0, cfg_full, start=first.final, carry=carry)

        assert np.array_equal(second.final.u.values, full.final.u.values)
        assert second.final.t == full.final.t
        assert second.records[-1].dissipation_cum == full.records[-1].dissipation_cum

    def test_on_checkpoint_sees_every_continued_state(self, grid8):
        """Steps 1 .. k-1 in order, each with the counters that ``resume`` requires."""
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        k, every = 11, 3
        seen = []

        def cb(state, carry):
            seen.append((state.step, carry.last_record_step, carry.records_written))

        cfg = yf.FlowConfig(t_max=10.0, max_steps=k, record_every=every)
        yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg, on_checkpoint=cb)
        assert seen == [(s, s // every * every, s // every + 1) for s in range(1, k)]

    def test_start_on_another_grid_rejected(self, grid8):
        bg = constant_background(grid8)
        u0 = yf.ScalarField.constant(grid8, 1.0)
        start = FlowState(yf.ScalarField.constant(unit_grid(6), 1.0), 0.0, 0, 0.0)
        with pytest.raises(GridMismatchError):
            yf.run(bg, u0, yf.FlowConfig(max_steps=1), start=start)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            yf.FlowConfig(cfl_fraction=0.0)
        with pytest.raises(ValueError):
            yf.FlowConfig(record_every=0)
        with pytest.raises(ValueError):
            yf.FlowConfig(fixed_dt=-1.0)
        with pytest.raises(ValueError):
            yf.FlowConfig(lp_orders=(0.5,))
        with pytest.raises(ValueError, match="non-empty"):
            yf.FlowConfig(lp_orders=())  # no Lp columns, and a vacuous decay check
        with pytest.raises(ValueError, match="CSV column names"):
            yf.FlowConfig(lp_orders=(2.0, 2.0000001))  # both print as residual_l2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_max", float("nan")),
            ("residual_stop", float("nan")),
            ("blowup_ceiling", float("nan")),
            ("lp_orders", (2.0, float("nan"))),
            ("fixed_dt", float("nan")),
            ("fixed_dt", float("inf")),
            ("lp_orders", (2.0, float("inf"))),
        ],
    )
    def test_config_rejects_nan_and_infinite_dt(self, field, value):
        with pytest.raises(ValueError):
            yf.FlowConfig(**{field: value})

    def test_default_lp_orders(self):
        assert yf.FlowConfig().resolve_orders(3) == (2.0, 1.5, 4.5)
        assert yf.FlowConfig(lp_orders=(2.0, 3.0)).resolve_orders(3) == (2.0, 3.0)

    def test_default_lp_orders_distinct_in_4d(self):
        """At n = 4 the orders 2 and n/2 coincide; the ladder keeps one of them."""
        assert yf.FlowConfig().resolve_orders(4) == (2.0, 4.0)
