import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import yamabeflow as yf
from yamabeflow import flow as flowmod
from yamabeflow.cli import _csv_row
from yamabeflow.errors import ComputationFailure, GridMismatchError, PositivityCollapseError
from yamabeflow.flow import FlowState
from yamabeflow.grid import _fsum
from yamabeflow.operators import _curvature_values

from conftest import (
    constant_background,
    manufactured_background,
    trapped_bump_background,
    unit_grid,
)


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

    @pytest.mark.parametrize("min_u", [1e-100, 1e300], ids=["pow_overflows", "pow_underflows"])
    def test_cap_without_a_finite_value_fails(self, bg8, min_u):
        """min u^(1-N) overflows as a Python float, or underflows to a zero diffusion."""
        ev = SimpleNamespace(min_u=min_u, residual_sup=0.0)
        with pytest.raises(ComputationFailure, match="no stable dt"):
            yf.stable_dt(bg8, yf.ScalarField.constant(bg8.grid, 1.0), 0.8, ev)


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
        # Seven rejected attempts leave their stages behind; the accepted one reads none of them.
        assert out.dt_last.hex() == "0x1.0000000000000p-7"
        assert hashlib.sha256(out.u.values.tobytes()).hexdigest() == (
            "80baf1d9b7170f76a2b120c0bdce8ebeefa2e40530fff37d9ea455ed9d74776e"
        )

    def test_collapse_raises_with_state(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1e12)
        state = FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)
        with pytest.raises(PositivityCollapseError) as exc:
            yf.step(bg, state, 1e30)
        assert exc.value.state is state

    @pytest.mark.parametrize("dt", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_dt(self, grid8, dt):
        """A NaN or infinite dt is a caller's error, not 41 attempts and a positivity collapse."""
        bg = constant_background(grid8)
        state = FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            yf.step(bg, state, dt)


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

    def test_fixed_dt_clipped_to_t_max(self):
        """The last fixed step is cut short at t_max, as the adaptive one is."""
        grid = unit_grid(4)
        cfg = yf.FlowConfig(fixed_dt=0.3, t_max=1.0)
        traj = yf.run(constant_background(grid), yf.ScalarField.constant(grid, 1.2), cfg)
        assert traj.outcome == "timeout"
        assert traj.final.step == 4
        assert traj.final.t == 1.0

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

    @pytest.mark.parametrize("max_steps, steps", [(20, [0, 10, 20]), (0, [0])])
    def test_a_stopping_step_is_recorded_once(self, grid8, max_steps, steps):
        """A stopping step on the cadence, or at step 0, gives one record, not two."""
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        cfg = yf.FlowConfig(max_steps=max_steps, record_every=10)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        assert [traj.step_t.index(r.t) for r in traj.records] == steps
        assert traj.final.records_written == len(steps)


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
    @pytest.mark.parametrize("n", [3, 4, 5])  # N = 5 and 3 by products, 7/3 by np.power
    def test_shares_bits_with_energy_and_curvature(self, n):
        """The differences and weight one evaluation shares give the stand-alone bits."""
        bg, _ = manufactured_background(n, 6)
        u = yf.ScalarField(bg.grid, 1.0 + 0.1 * np.random.default_rng(5).random(bg.grid.shape))
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


class TestNoBufferEscapes:
    def test_kept_arrays_are_never_rewritten_or_shared(self, grid8, monkeypatch):
        """Each checkpointed u and each evaluation's arrays keep their bytes and share no memory."""
        bg = trapped_bump_background(8)
        u0 = yf.ScalarField(grid8, 1.0 + 0.1 * np.random.default_rng(13).random(grid8.shape))
        kept, evs = [], []
        state_eval = flowmod._StateEval

        def digest(arr):
            return hashlib.sha256(arr.tobytes()).hexdigest()

        def recorded_eval(*args):
            ev = state_eval(*args)
            arrays = (ev.resid, ev.weight, ev.velocity)
            evs.append((arrays, [digest(a) for a in arrays]))
            return ev

        def checkpoint(state):
            kept.append((state.u.values, digest(state.u.values)))

        monkeypatch.setattr(flowmod, "_StateEval", recorded_eval)
        yf.run(bg, u0, yf.FlowConfig(max_steps=12, record_every=5), on_checkpoint=checkpoint)
        assert (len(kept), len(evs)) == (11, 13)
        assert all(digest(u) == d for u, d in kept)
        assert all(list(map(digest, arrays)) == ds for arrays, ds in evs)
        us = [u for u, _ in kept]
        assert not any(np.shares_memory(a, b) for a, b in zip(us, us[1:]))
        arrays = [a for arrays, _ in evs for a in arrays]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])


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
        orders = yf.FlowConfig.resolve_orders(bg.n)
        rows = "".join(_csv_row(rec, orders) + "\n" for rec in traj.records)
        assert hashlib.sha256(traj.final.u.values.tobytes()).hexdigest() == (
            "9a6e863e9dc4b63ffb42c88767b25e3003e741851a824ca5a896b7153dcc314b"
        )
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "a93fcb841bf7f748e2ff2adb3223959602b619ee90fa8c9bc61a3b1dddb14d7e"
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
        second = yf.run(bg, u0, cfg_full, start=first.final)

        assert np.array_equal(second.final.u.values, full.final.u.values)
        assert second.final.t == full.final.t
        assert second.records[-1].dissipation_cum == full.records[-1].dissipation_cum

    def test_on_checkpoint_sees_every_continued_state(self, grid8):
        """Steps 1 .. k-1 in order, each with the counters that ``resume`` requires."""
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        k, every = 11, 3
        seen = []

        def cb(state):
            seen.append((state.step, state.last_record_step, state.records_written))

        cfg = yf.FlowConfig(t_max=10.0, max_steps=k, record_every=every)
        yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg, on_checkpoint=cb)
        assert seen == [(s, s // every * every, s // every + 1) for s in range(1, k)]

    def test_checkpointed_states_keep_their_counters(self):
        """The states ``on_checkpoint`` hands out, kept as objects, still read their own counters."""
        bg = trapped_bump_background(6)
        k, every = 20, 5
        kept = []
        cfg = yf.FlowConfig(t_max=10.0, max_steps=k, record_every=every)
        yf.run(bg, yf.ScalarField.constant(bg.grid, 1.0), cfg, on_checkpoint=kept.append)
        assert [(st.step, st.last_record_step, st.records_written) for st in kept] == [
            (s, s // every * every, s // every + 1) for s in range(1, k)
        ]
        assert len({id(st) for st in kept}) == len(kept)

    def test_two_runs_from_one_checkpoint_agree(self):
        """Two runs from one stored state give the same run, and leave that state as it was."""
        bg = trapped_bump_background(6)
        u0 = yf.ScalarField.constant(bg.grid, 1.0)
        cfg = yf.FlowConfig(t_max=10.0, max_steps=20, record_every=5)
        kept = {}
        yf.run(bg, u0, cfg, on_checkpoint=lambda st: kept.setdefault(st.step, st))
        start = kept[8]

        def image(st):
            return {**vars(st), "u": st.u.values.tobytes()}

        before = image(start)
        runs = [yf.run(bg, u0, cfg, start=start) for _ in range(2)]
        assert runs[0].records == runs[1].records
        assert [r.t for r in runs[0].records] == [r.t for r in runs[1].records] != []
        assert runs[0].final.dissipation_cum == runs[1].final.dissipation_cum > start.dissipation_cum
        assert runs[0].final.u.values.tobytes() == runs[1].final.u.values.tobytes()
        assert image(start) == before

    def test_final_state_continues_a_finished_run(self):
        """``run(start=traj.final)`` continues a run that stopped as if it had never stopped."""
        bg = trapped_bump_background(6)
        u0 = yf.ScalarField.constant(bg.grid, 1.0)
        full = yf.run(bg, u0, yf.FlowConfig(t_max=10.0, max_steps=20, record_every=5))
        half = yf.run(bg, u0, yf.FlowConfig(t_max=10.0, max_steps=12, record_every=5))
        rest = yf.run(bg, u0, yf.FlowConfig(t_max=10.0, max_steps=20, record_every=5),
                      start=half.final)
        assert rest.final.u.values.tobytes() == full.final.u.values.tobytes()
        assert rest.final.dissipation_cum == full.final.dissipation_cum
        assert rest.records == [r for r in full.records if r.t > half.final.t]
        assert rest.step_energy == full.step_energy[12:]

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
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            yf.FlowConfig(max_steps=-3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_max", float("nan")),
            ("residual_stop", float("nan")),
            ("blowup_ceiling", float("nan")),
            ("fixed_dt", float("nan")),
            ("fixed_dt", float("inf")),
        ],
    )
    def test_config_rejects_nan_and_infinite_dt(self, field, value):
        with pytest.raises(ValueError):
            yf.FlowConfig(**{field: value})

    def test_default_lp_orders(self):
        assert yf.FlowConfig.resolve_orders(3) == (2.0, 1.5, 4.5)

    def test_lp_orders_read_no_field(self):
        """A function of n alone, so an instance, whatever its fields, gives the class's ladder."""
        cfg = yf.FlowConfig(t_max=1.0, record_every=3)
        assert cfg.resolve_orders(5) == yf.FlowConfig.resolve_orders(5) == (2.0, 2.5, 25.0 / 6.0)

    def test_default_lp_orders_distinct_in_4d(self):
        """At n = 4 the orders 2 and n/2 coincide; the ladder keeps one of them."""
        assert yf.FlowConfig.resolve_orders(4) == (2.0, 4.0)


class TestManufacturedSolution:
    @pytest.mark.parametrize("n, coarse, fine", [(3, 8, 16), (4, 6, 12), (5, 4, 8)])
    def test_limit_converges_to_u_star_at_second_order(self, n, coarse, fine):
        """The flow's limit approaches the closed-form stationary u* at O(h^2) in n = 3, 4 and 5.

        max|u_inf - u*| goes 4.13e-3 -> 1.01e-3 (n = 3), 8.88e-3 -> 2.09e-3 (n = 4) and
        2.48e-2 -> 5.20e-3 (n = 5): orders 2.04, 2.08 and 2.25 against the bound 1.9.
        """
        errs = []
        for size in (coarse, fine):
            bg, u_star = manufactured_background(n, size)
            cfg = yf.FlowConfig(residual_stop=1e-10)
            traj = yf.run(bg, yf.ScalarField.constant(bg.grid, 1.0), cfg)
            assert traj.outcome == "converged"
            errs.append(float(np.abs(traj.final.u.values - u_star.values).max()))
        assert math.log2(errs[0] / errs[1]) >= 1.9, errs
