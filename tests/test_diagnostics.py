import dataclasses
import math
import sys

import numpy as np
import pytest

import yamabeflow as yf
from yamabeflow import flow
from yamabeflow.errors import ComputationFailure, GridMismatchError
from yamabeflow.flow import DiagnosticsRecord, FlowState, Trajectory
from yamabeflow.grid import SubdomainMask

from conftest import constant_background, evolution_window, trapped_bump_background, unit_grid


def make_records(ts, energies=None, max_us=None, lp=None, diss=None):
    out = []
    for i, t in enumerate(ts):
        out.append(
            DiagnosticsRecord(
                t=t,
                dt=1e-3,
                energy=energies[i] if energies else -1.0,
                min_u=1.0,
                max_u=max_us[i] if max_us else 1.0,
                volume_g=1.0,
                residual_sup=0.0,
                residual_lp=lp[i] if lp else {2.0: 0.0, 1.5: 0.0, 4.5: 0.0},
                dissipation_cum=diss[i] if diss else 0.0,
            )
        )
    return out


def make_traj(records, outcome="timeout", n=3):
    return Trajectory(
        n=n, records=records, step_t=[], step_dt=[], step_energy=[],
        step_min_u=[], step_max_u=[], final=None, outcome=outcome,
    )


class TestDissipationIdentity:
    def test_stationary_records_give_zero(self):
        ts = [0.1 * i for i in range(12)]
        traj = make_traj(make_records(ts, energies=[-2.0] * 12, diss=[0.0] * 12))
        assert yf.dissipation_identity_error(traj) == 0.0

    def test_exact_balance_gives_zero(self):
        # Fabricate records satisfying dE = -((n-2)/2) * d(diss) exactly.
        ts = [0.1 * i for i in range(12)]
        diss = [0.3 * t for t in ts]
        energies = [-1.0 - 0.5 * d for d in diss]
        traj = make_traj(make_records(ts, energies=energies, diss=diss))
        assert yf.dissipation_identity_error(traj) < 1e-14

    def test_short_trajectory_rejected(self):
        traj = make_traj(make_records([0.0, 0.1]))
        with pytest.raises(ValueError):
            yf.dissipation_identity_error(traj)

    def test_flow_run_small_error_and_second_order(self, grid8):
        bg = trapped_bump_background(8)
        u0 = yf.ScalarField.constant(grid8, 1.1)
        errs = []
        for dt in (4e-4, 2e-4):
            cfg = yf.FlowConfig(fixed_dt=dt, t_max=0.2, record_every=50)
            errs.append(yf.dissipation_identity_error(yf.run(bg, u0, cfg)))
        assert errs[0] < 1e-4
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.8


class TestCurvatureEvolution:
    def test_stationary_states_give_zero(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        u = yf.ScalarField.constant(grid8, 1.0)
        states = [FlowState(u, 0.1 * i, i, 0.1) for i in range(3)]
        assert yf.curvature_evolution_error(bg, states) == 0.0

    def test_constant_data_matches_scalar_identity(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        dt = 1e-4
        st = FlowState(yf.ScalarField.constant(grid8, 1.3), 0.0, 0, 0.0)
        states = [st]
        for _ in range(2):
            states.append(yf.step(bg, states[-1], dt))
        assert yf.curvature_evolution_error(bg, states) < 1e-6

    def test_unequal_spacing_rejected(self, grid8):
        bg = constant_background(grid8)
        u = yf.ScalarField.constant(grid8, 1.0)
        states = [FlowState(u, t, 0, 0.0) for t in (0.0, 0.1, 0.3)]
        with pytest.raises(ValueError):
            yf.curvature_evolution_error(bg, states)

    def test_needs_three_states(self, grid8):
        bg = constant_background(grid8)
        u = yf.ScalarField.constant(grid8, 1.0)
        with pytest.raises(ValueError):
            yf.curvature_evolution_error(bg, [FlowState(u, 0.0, 0, 0.0)] * 2)


class TestLemmaBalance:
    def test_rejects_p_at_most_one(self, grid8):
        bg = constant_background(grid8)
        u = yf.ScalarField.constant(grid8, 1.0)
        states = [FlowState(u, 0.1 * i, i, 0.1) for i in range(3)]
        with pytest.raises(ValueError):
            yf.lemma_p_balance_error(bg, states, p=1.0)

    def test_rejects_nan_p(self, grid8):
        bg = constant_background(grid8)
        u = yf.ScalarField.constant(grid8, 1.0)
        states = [FlowState(u, 0.1 * i, i, 0.1) for i in range(3)]
        with pytest.raises(ValueError, match="p must be > 1"):
            yf.lemma_p_balance_error(bg, states, p=math.nan)

    def test_constant_data_matches_scalar_identity(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        dt = 1e-4
        st = FlowState(yf.ScalarField.constant(grid8, 1.3), 0.0, 0, 0.0)
        states = [st]
        for _ in range(2):
            states.append(yf.step(bg, states[-1], dt))
        assert yf.lemma_p_balance_error(bg, states, p=2.0) < 1e-6

    def test_small_p_rejected_near_sign_change(self, grid8):
        # The residual of the bump data changes sign, so |resid|^(p/2) is
        # too rough for p < 2.
        bg = trapped_bump_background(8)
        dt = 1e-4
        st = FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)
        st = yf.step(bg, st, dt)  # develop a sign-changing residual
        states = [st]
        for _ in range(2):
            states.append(yf.step(bg, states[-1], dt))
        resid = yf.scalar_curvature(bg, states[1].u).values - bg.f.values
        if np.abs(resid).min() < 1e-8 * np.abs(resid).max():
            with pytest.raises(ValueError):
                yf.lemma_p_balance_error(bg, states, p=1.5)
        assert yf.lemma_p_balance_error(bg, states, p=2.0) < 0.05

    def test_small_p_rejected_when_the_residual_changes_sign(self):
        """On acceptance 08's 16^3 window R_g - f runs from -2.0 to 11.2, so |R_g - f|^(3/4) has
        a kink inside it and p = 1.5 raises; the orders above 2 keep their values, bit for bit."""
        bg, states = evolution_window(16, 1e-4, 100)
        with pytest.raises(ValueError, match=r"R_g - f runs from -1\.99812 to 11\.1808"):
            yf.lemma_p_balance_error(bg, states, p=1.5)
        got = [yf.lemma_p_balance_error(bg, states, p=p) for p in (2.0, 3.0, 4.5)]
        assert got == [7.321621216415157e-05, 0.011029051587045369, 0.014170337534663274]

    def test_small_p_accepted_on_a_one_signed_residual(self, grid8):
        """Constant data keep R_g - f one-signed and far from 0, so p = 1.5 is checked."""
        bg = constant_background(grid8, r0=-2.0, f=-1.0)
        states = [FlowState(yf.ScalarField.constant(grid8, 1.3), 0.0, 0, 0.0)]
        for _ in range(2):
            states.append(yf.step(bg, states[-1], 1e-4))
        assert yf.lemma_p_balance_error(bg, states, p=1.5) < 1e-6

    def test_stationary_window_gives_zero(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        u = yf.ScalarField.constant(grid8, 1.0)
        states = [FlowState(u, 0.1 * i, i, 0.1) for i in range(3)]
        assert yf.lemma_p_balance_error(bg, states) == 0.0

    @pytest.mark.parametrize("p", [3.0, 4.5])
    def test_balance_above_two_refines(self, p):
        """On acceptance 08's window family the p-moment balance holds to 2% at 16^3, refining.

        p = 3 reads 4.0% at 8^3 and 1.10% at 16^3; p = 4.5 reads 6.1% and 1.42%.
        """
        coarse = yf.lemma_p_balance_error(*evolution_window(8, 4e-4, 25), p=p)
        fine = yf.lemma_p_balance_error(*evolution_window(16, 1e-4, 100), p=p)
        assert fine <= 0.02
        assert coarse >= 3.0 * fine, (coarse, fine)

    def test_sums_the_end_states_moments_only(self, grid8, monkeypatch):
        """The time derivative reads the moments of the first and last state, one order each."""
        bg = trapped_bump_background(8)
        states = [FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)]
        for _ in range(2):
            states.append(yf.step(bg, states[-1], 1e-4))
        calls = []
        moments = flow._StateEval.moments

        def counted_moments(ev, orders, vol):
            calls.append(tuple(orders))
            return moments(ev, orders, vol)

        monkeypatch.setattr(flow._StateEval, "moments", counted_moments)
        yf.lemma_p_balance_error(bg, states, p=3.0)
        assert calls == [(3.0,), (3.0,)]

    def test_rejects_infinite_p(self, grid8):
        bg = trapped_bump_background(8)
        states = [FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)]
        for _ in range(2):
            states.append(yf.step(bg, states[-1], 2.0**-12))
        with pytest.raises(ValueError, match="p must be > 1 and finite"):
            yf.lemma_p_balance_error(bg, states, p=math.inf)


WINDOW_CHECKS = pytest.mark.parametrize(
    "check", [yf.curvature_evolution_error, yf.lemma_p_balance_error], ids=["curvature", "lemma"]
)


class TestWindowChecks:
    @WINDOW_CHECKS
    def test_evaluates_each_state_once(self, grid8, monkeypatch, check):
        bg = trapped_bump_background(8)
        states = [FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)]
        for _ in range(2):
            states.append(yf.step(bg, states[-1], 1e-4))
        calls = []
        residual = flow._residual

        def counted_residual(*args):
            calls.append(1)
            return residual(*args)

        monkeypatch.setattr(flow, "_residual", counted_residual)
        check(bg, states)
        assert len(calls) == 3

    @WINDOW_CHECKS
    def test_foreign_grid_rejected(self, check):
        # Same shape as the background's grid, but twice its lengths.
        foreign = yf.GridSpec(3, (8, 8, 8), (2.0, 2.0, 2.0))
        states = [
            FlowState(yf.ScalarField.constant(foreign, 1.0 + 0.1 * i), 0.1 * i, i, 0.1)
            for i in range(3)
        ]
        with pytest.raises(GridMismatchError):
            check(trapped_bump_background(8), states)

    @WINDOW_CHECKS
    def test_overflowing_weight_fails(self, grid8, check):
        # u^(N+1) overflows at u = 1e60, so no moment of these states is finite.
        bg = trapped_bump_background(8)
        states = [
            FlowState(yf.ScalarField.constant(grid8, (i + 1) * 1e60), 0.1 * i, i, 0.1)
            for i in range(3)
        ]
        with pytest.raises(ComputationFailure):
            check(bg, states)


class TestEnvelopeCheck:
    def test_stationary_run_clean(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        cfg = yf.FlowConfig(t_max=1.0, max_steps=5, record_every=1)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        report = yf.envelope_check(bg, traj)
        assert report.passed

    def test_reports_constants(self, grid8):
        bg = constant_background(grid8, r0=-2.0, f=-0.5)
        cfg = yf.FlowConfig(t_max=0.01, record_every=1)
        traj = yf.run(bg, yf.ScalarField.constant(grid8, 1.0), cfg)
        report = yf.envelope_check(bg, traj)
        assert report.lower_bound == pytest.approx(min((2.0 / 0.5) ** 0.25, 1.0), rel=1e-12)
        assert report.upper_rate == pytest.approx(0.25 * (2.0 + 0.5), rel=1e-12)

    def test_zero_f_bounds_only_positivity(self, grid8):
        """With f == 0 there is no C0, so the lower barrier is bare positivity."""
        bg = constant_background(grid8, r0=-1.0, f=0.0)
        records = make_records([0.0, 0.1])
        records[1] = dataclasses.replace(records[1], min_u=1e-3)
        report = yf.envelope_check(bg, make_traj(records))
        assert report.lower_bound == 0.0
        assert report.passed

    def test_detects_fabricated_violation(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        ts = [0.0, 0.1]
        records = make_records(ts, max_us=[1.0, 100.0])
        traj = make_traj(records)
        report = yf.envelope_check(bg, traj)
        assert not report.passed
        assert any("upper envelope" in v for v in report.violations)

    def test_trap_violation_detected(self, grid8):
        bg = constant_background(grid8, r0=-1.0, f=-1.0)
        records = make_records([0.0, 0.1], max_us=[1.0, 1.01])

        class FakeCert:
            ubar = yf.ScalarField.constant(grid8, 1.005)

        report = yf.envelope_check(bg, make_traj(records), certificate=FakeCert())
        assert any("trap" in v for v in report.violations)

    def test_min_u_just_below_the_lower_barrier_is_a_violation(self, grid8):
        """The barrier's slack is roundoff: a min u 1e-4 below it is reported."""
        bg = constant_background(grid8, r0=-1.0, f=-1.0)  # C0 = 1 = min u0, so the barrier is 1
        records = make_records([0.0, 0.1])
        records[1] = dataclasses.replace(records[1], min_u=1.0 - 1e-4)
        report = yf.envelope_check(bg, make_traj(records))
        assert report.lower_bound == 1.0
        assert [v.split(":")[0] for v in report.violations] == ["lower barrier at t=0.1"]

    def test_no_samples_rejected(self, grid8):
        with pytest.raises(ValueError, match="no samples"):
            yf.envelope_check(constant_background(grid8), make_traj([]))

    def test_envelope_past_the_float_range_bounds_nothing(self):
        """Once exp(C1 t) overflows the envelope is +inf, which no finite max u violates."""
        grid = yf.GridSpec(3, (4, 4, 4), (100.0, 100.0, 100.0))
        bg = constant_background(grid, r0=-1.0, f=-0.001)  # C1 = 0.25025
        traj = yf.run(bg, yf.ScalarField.constant(grid, 1.0), yf.FlowConfig(t_max=3000.0))
        assert traj.final.t == 3000.0 and 0.25025 * 3000.0 > math.log(sys.float_info.max)
        assert yf.envelope_check(bg, traj).passed
        # Where exp(C1 t) is finite the verdict stands: at t = 2800 it is about 1e304.
        report = yf.envelope_check(bg, make_traj(make_records([0.0, 2800.0], max_us=[1.0, 1e308])))
        assert any("upper envelope at t=2800" in v for v in report.violations)


class TestDecayCheck:
    def test_blow_up_marked_inapplicable(self):
        traj = make_traj(make_records([0.0, 1.0]), outcome="blow-up")
        report = yf.decay_check(traj)
        assert not report.applicable
        assert report.passed

    def test_decaying_series_passes(self):
        ts = [0.1 * i for i in range(20)]
        lp = [{2.0: math.exp(-t) * 1e-6} for t in ts]
        traj = make_traj(make_records(ts, lp=lp), outcome="converged")
        report = yf.decay_check(traj, threshold=1e-6)
        assert report.applicable and report.passed

    def test_rising_tail_fails(self):
        ts = [0.1 * i for i in range(20)]
        lp = [{2.0: 1e-9 * (1.0 + (0.5 * i if i > 15 else 0.0))} for i in range(20)]
        traj = make_traj(make_records(ts, lp=lp), outcome="converged")
        assert not yf.decay_check(traj, threshold=1e-6).passed

    def test_tail_rise_of_ten_percent_is_not_monotone(self):
        """One tail record 10% above the one before it is past the 5% allowance."""
        ts = [0.1 * i for i in range(20)]
        series = [1e-9 * 0.9**i for i in range(20)]
        series[17] = 1.1 * series[16]  # the tail is the last 5 records, from index 15
        traj = make_traj(make_records(ts, lp=[{2.0: v} for v in series]), outcome="converged")
        report = yf.decay_check(traj, threshold=1e-6)
        assert report.orders[2.0]["final_ok"]
        assert not report.orders[2.0]["monotone_ok"]
        assert not report.passed

    def test_large_final_fails(self):
        ts = [0.1 * i for i in range(20)]
        lp = [{2.0: 1.0} for _ in ts]
        traj = make_traj(make_records(ts, lp=lp), outcome="timeout")
        assert not yf.decay_check(traj, threshold=1e-8).passed

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            yf.decay_check(make_traj([], outcome="converged"))


def test_records_only_trajectory(grid8):
    """A ``Trajectory`` of records and outcome alone, as ``verify`` reads one, feeds each check."""
    ts = [0.1 * i for i in range(12)]
    traj = yf.Trajectory(3, make_records(ts, energies=[-2.0] * 12), "timeout")
    assert traj.final is None
    steps = [traj.step_t, traj.step_dt, traj.step_energy, traj.step_min_u, traj.step_max_u]
    assert steps == [[]] * 5
    assert yf.envelope_check(constant_background(grid8), traj).passed
    assert yf.dissipation_identity_error(traj) == 0.0
    assert yf.decay_check(traj).passed


class TestGrowthFit:
    def test_power_law_recovered(self):
        ts = np.geomspace(0.01, 10.0, 40)
        records = make_records(list(ts), max_us=list(ts**0.25))
        traj = make_traj(records, outcome="blow-up")
        fit = yf.growth_fit(traj)
        assert fit.exponent == pytest.approx(0.25, abs=1e-10)
        assert fit.r_squared > 0.999999
        assert fit.window[1] / fit.window[0] == pytest.approx(10.0, rel=1e-12)

    def test_requires_blow_up(self):
        traj = make_traj(make_records([0.1, 1.0]), outcome="converged")
        with pytest.raises(ValueError):
            yf.growth_fit(traj)

    def test_requires_decade_span(self):
        ts = list(np.linspace(5.0, 10.0, 30))
        traj = make_traj(make_records(ts, max_us=[t for t in ts]), outcome="blow-up")
        with pytest.raises(ValueError):
            yf.growth_fit(traj)

    def test_requires_positive_time_records(self):
        traj = make_traj(make_records([0.0, 0.0]), outcome="blow-up")
        with pytest.raises(ValueError, match="no positive-time records"):
            yf.growth_fit(traj)

    def test_requires_five_records_in_trailing_decade(self):
        # The decade [1, 10] holds only t = 2, 5 and 10.
        traj = make_traj(make_records([0.01, 0.1, 2.0, 5.0, 10.0]), outcome="blow-up")
        with pytest.raises(ValueError, match="at least 5 records in the trailing decade, got 3"):
            yf.growth_fit(traj)


class TestWeightedMass:
    def test_unit_factor(self, grid8):
        bg = constant_background(grid8)
        mask = SubdomainMask.full(grid8)
        phi = yf.ScalarField.constant(grid8, 0.7)  # renormalized internally
        u = yf.ScalarField.constant(grid8, 1.0)
        assert yf.weighted_mass(bg, u, phi, mask) == pytest.approx(1.0, rel=1e-14)

    def test_constant_two_gives_thirty_two(self, grid8):
        bg = constant_background(grid8)
        mask = SubdomainMask.full(grid8)
        phi = yf.ScalarField.constant(grid8, 1.0)
        u = yf.ScalarField.constant(grid8, 2.0)
        assert yf.weighted_mass(bg, u, phi, mask) == pytest.approx(32.0, rel=1e-14)

    def test_zero_mass_rejected(self, grid8):
        bg = constant_background(grid8)
        mask = SubdomainMask.full(grid8)
        with pytest.raises(ValueError):
            yf.weighted_mass(bg, yf.ScalarField.constant(grid8, 1.0), yf.ScalarField.zeros(grid8), mask)
