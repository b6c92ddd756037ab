import math

import numpy as np
import pytest

import yamabeflow as yf
from yamabeflow import diagnostics
from yamabeflow.diagnostics import DiagnosticsRecord
from yamabeflow.flow import FlowState, Trajectory
from yamabeflow.grid import SubdomainMask

from conftest import constant_background, trapped_bump_background, unit_grid


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

    def test_evaluates_each_state_once(self, grid8, monkeypatch):
        bg = trapped_bump_background(8)
        states = [FlowState(yf.ScalarField.constant(grid8, 1.0), 0.0, 0, 0.0)]
        for _ in range(2):
            states.append(yf.step(bg, states[-1], 1e-4))
        calls = []
        curvature = diagnostics._curvature_values

        def counted_curvature(*args):
            calls.append(1)
            return curvature(*args)

        monkeypatch.setattr(diagnostics, "_curvature_values", counted_curvature)
        yf.lemma_p_balance_error(bg, states, p=2.0)
        assert len(calls) == 3


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

    def test_large_final_fails(self):
        ts = [0.1 * i for i in range(20)]
        lp = [{2.0: 1.0} for _ in ts]
        traj = make_traj(make_records(ts, lp=lp), outcome="timeout")
        assert not yf.decay_check(traj, threshold=1e-8).passed


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
