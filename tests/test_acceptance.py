"""Acceptance suite: one orderable criterion per test, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines;
the expensive trajectories are computed once per module and shared.
"""

import math

import numpy as np
import pytest

import yamabeflow as yf
from yamabeflow.cli import CSV_NAME, FINAL_U, main as cli_main
from yamabeflow.grid import SubdomainMask

from conftest import (
    constant_background,
    evolution_window,
    periodic_gaussian,
    trapped_bump_background,
    unit_grid,
)
from test_spectral import ball_mask, dense_masked_eigenpair

ENERGY_TOL = lambda e: 1e-10 * (1.0 + abs(e))


def _report(num, name, ok):
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    return ok


@pytest.fixture(scope="module")
def const_run():
    """Constant data R0 = -2, f = -1 on 16^3, run to the constant solution."""
    grid = unit_grid(16)
    bg = constant_background(grid, r0=-2.0, f=-1.0)
    cfg = yf.FlowConfig(t_max=40.0, residual_stop=1e-6, record_every=50)
    traj = yf.run(bg, yf.ScalarField.constant(grid, 1.0), cfg)
    return bg, traj


@pytest.fixture(scope="module")
def trapped_run():
    """Bump scenario with certificate, flow started at half the supersolution."""
    bg = trapped_bump_background()
    omega = yf.superlevel_mask(bg, 0.5)
    cert = yf.build_supersolution(bg, omega)
    u0 = yf.ScalarField(bg.grid, 0.5 * cert.ubar.values)
    cfg = yf.FlowConfig(t_max=300.0, residual_stop=5e-7, record_every=50)
    traj = yf.run(bg, u0, cfg, certificate=cert)
    return bg, cert, traj


@pytest.fixture(scope="module")
def blowup_const_run():
    """f = +1 everywhere: growth at least t^((n-2)/4)."""
    grid = unit_grid(16)
    bg = constant_background(grid, r0=-1.0, f=1.0)
    cfg = yf.FlowConfig(t_max=200.0, record_every=2, blowup_ceiling=1e6)
    traj = yf.run(bg, yf.ScalarField.constant(grid, 1.0), cfg)
    return bg, traj


@pytest.fixture(scope="module")
def blowup_mixed_run():
    """Mixed-sign f whose superlevel set has a negative eigenvalue."""
    grid = yf.GridSpec(3, (16, 16, 16), (4.0, 4.0, 4.0))
    f = yf.ScalarField(grid, -1.0 + periodic_gaussian(grid, (2.0, 2.0, 2.0), 1.0, 3.0))
    bg = yf.Background(grid, yf.ScalarField.constant(grid, -40.0), f)
    omega = yf.superlevel_mask(bg, 0.5)
    report = yf.check_h1(bg, omega)
    cfg = yf.FlowConfig(t_max=200.0, record_every=2, blowup_ceiling=1e6)
    traj = yf.run(bg, yf.ScalarField.constant(grid, 1.0), cfg)
    return bg, omega, report, traj


def test_criterion_01_stationary_exactness(const_run):
    grid = unit_grid(16)
    bg = constant_background(grid, r0=-1.0, f=-1.0)
    one = yf.ScalarField.constant(grid, 1.0)
    exact = bool(np.all(yf.velocity(bg, one).values == 0.0))
    exact &= yf.stationary_residual(bg, one) == 0.0

    _bg2, traj = const_run
    err = float(np.abs(traj.final.u.values - 2.0**0.25).max())
    ok = _report(1, "stationary exactness", exact and traj.outcome == "converged" and err <= 1e-6)
    assert ok, f"exact={exact}, outcome={traj.outcome}, max-norm error={err:g}"


def test_criterion_02_energy_dissipation(trapped_run, const_run, blowup_const_run):
    failures = []
    for name, traj in (
        ("trapped", trapped_run[2]),
        ("constant-data", const_run[1]),
        ("near-blow-up", blowup_const_run[1]),
    ):
        es = traj.step_energy
        bad = sum(1 for a, b in zip(es, es[1:]) if b > a + ENERGY_TOL(a))
        if bad:
            failures.append(f"{name}: {bad} increases over {len(es) - 1} steps")
    ok = _report(2, "energy nonincreasing on 3 scenarios", not failures)
    assert ok, "; ".join(failures)


def test_criterion_03_dissipation_identity():
    grid = unit_grid(16)
    bg = trapped_bump_background()
    u0 = yf.ScalarField(grid, 1.0 + periodic_gaussian(grid, (0.5, 0.5, 0.5), 0.2, 0.1))
    # Default adaptive step (cfl 0.8) on the 16^3 bump scenario.
    cfg = yf.FlowConfig(t_max=0.2, record_every=50)
    default_err = yf.dissipation_identity_error(yf.run(bg, u0, cfg))

    errs = []
    for dt in (2e-4, 1e-4):
        cfg = yf.FlowConfig(fixed_dt=dt, t_max=0.2, record_every=100)
        errs.append(yf.dissipation_identity_error(yf.run(bg, u0, cfg)))
    order = math.log2(errs[0] / errs[1])
    ok = _report(
        3,
        "dissipation identity (<=1%, order >= 1.8 under dt-halving)",
        default_err <= 0.01 and max(errs) <= 0.01 and order >= 1.8,
    )
    assert ok, f"default_err={default_err:g}, halving errs={errs}, order={order:g}"


def test_criterion_04_envelopes(trapped_run, const_run, blowup_const_run, blowup_mixed_run):
    violations = []
    for name, bg, traj, cert in (
        ("trapped", trapped_run[0], trapped_run[2], trapped_run[1]),
        ("constant-data", const_run[0], const_run[1], None),
        ("blow-up f=+1", blowup_const_run[0], blowup_const_run[1], None),
        ("blow-up mixed", blowup_mixed_run[0], blowup_mixed_run[3], None),
    ):
        report = yf.envelope_check(bg, traj, certificate=cert)
        if not report.passed:
            violations.append(f"{name}: {report.violations[:3]}")
    ok = _report(4, "maximum-principle envelopes (zero violations)", not violations)
    assert ok, "; ".join(violations)


def test_criterion_05_supersolution_machinery(trapped_run):
    bg, cert, traj = trapped_run
    omega = yf.superlevel_mask(bg, 0.5)
    report = yf.check_h1(bg, omega)

    window_ok = cert.delta_lo <= cert.delta <= cert.delta_hi
    c_omega = cert.lambda_d * cert.m0**5.0 / cert.m1
    lo = (cert.m1 * cert.m0**-5.0 / report.inf_absf_complement) ** 0.25
    hi = (cert.lambda_d / report.sup_f_omega) ** 0.25
    formulas_ok = (
        abs(cert.delta_lo - lo) <= 1e-12 * lo
        and abs(cert.delta_hi - hi) <= 1e-12 * hi
        and report.sup_f_omega <= c_omega * report.inf_absf_complement
    )
    verified = cert.min_l_ubar >= -1e-9
    trap_bound = cert.ubar.max() + 1e-8
    trapped = all(mx <= trap_bound for mx in traj.step_max_u)
    ok = _report(
        5,
        "supersolution certificate and trap from u0 = ubar/2",
        window_ok and formulas_ok and verified and trapped,
    )
    assert ok, (
        f"window=[{cert.delta_lo:g},{cert.delta_hi:g}] delta={cert.delta:g} "
        f"min_L={cert.min_l_ubar:g} trapped={trapped}"
    )


def test_criterion_06_convergence_and_decay(trapped_run):
    bg, _cert, traj = trapped_run
    converged = traj.outcome == "converged" and traj.final.t < 300.0
    resid_ok = traj.records[-1].residual_sup <= 1e-6
    decay = yf.decay_check(traj, threshold=1e-8)
    stat = yf.stationary_residual(bg, traj.final.u)
    ok = _report(
        6,
        "trapped scenario converges with full decay ladder",
        converged and resid_ok and decay.passed and stat <= 1e-6,
    )
    assert ok, (
        f"outcome={traj.outcome}, residual_sup={traj.records[-1].residual_sup:g}, "
        f"decay={decay.orders}, stationary_residual={stat:g}"
    )


def test_criterion_07_blow_up_rates(blowup_const_run, blowup_mixed_run):
    bg_c, traj_c = blowup_const_run
    fit_c = yf.growth_fit(traj_c)

    bg_m, omega, h1_report, traj_m = blowup_mixed_run
    h1_fails = not h1_report.h1_holds and h1_report.lambda_omega < 0.0
    fit_m = yf.growth_fit(traj_m)

    phi = yf.dirichlet_eigen(bg_m, omega).phi
    u0 = yf.ScalarField.constant(bg_m.grid, 1.0)
    mass0 = yf.weighted_mass(bg_m, u0, phi, omega)
    mass1 = yf.weighted_mass(bg_m, traj_m.final.u, phi, omega)
    ok = _report(
        7,
        "blow-up growth exponents and weighted-mass growth",
        fit_c.exponent >= 0.20 and h1_fails and fit_m.exponent >= 0.15 and mass1 >= 10.0 * mass0,
    )
    assert ok, (
        f"f=+1 exponent={fit_c.exponent:g}, mixed exponent={fit_m.exponent:g}, "
        f"lambda_omega={h1_report.lambda_omega:g}, mass ratio={mass1 / mass0:g}"
    )


def _evolution_window(size, dt, nburn):
    bg, states = evolution_window(size, dt, nburn)
    return (
        yf.curvature_evolution_error(bg, states),
        yf.lemma_p_balance_error(bg, states, p=2.0),
    )


def test_criterion_08_evolution_identities():
    coarse = _evolution_window(16, 1e-4, 100)
    fine = _evolution_window(32, 2.5e-5, 400)
    ok = _report(
        8,
        "curvature and p-moment evolution identities (<=2%, refining)",
        max(coarse) <= 0.02 and fine[0] < coarse[0] and fine[1] < coarse[1],
    )
    assert ok, f"coarse={coarse}, fine={fine}"


def test_criterion_09_spectral_correctness():
    # Dense-oracle agreement on 16^3 masks.
    grid = unit_grid(16)
    bg = constant_background(grid)
    oracle_ok = True
    rng = np.random.default_rng(101)
    random_inside = rng.random(grid.shape) < 0.02
    random_inside[8, 8, 8] = True
    for mask in (ball_mask(grid, (0.5, 0.5, 0.5), 0.2), SubdomainMask(grid, random_inside)):
        lam = yf.dirichlet_eigen(bg, mask).lam
        lam_ref, _ = dense_masked_eigenpair(bg, mask)
        oracle_ok &= abs(lam - lam_ref) <= 1e-8 * abs(lam_ref)

    # Slab eigenvalue: second-order convergence to 8 pi^2 / L^2 + R0.
    cont = 8.0 * math.pi**2 / 0.25 - 1.0
    errors = []
    for size in (8, 16, 32):
        g = unit_grid(size)
        sbg = constant_background(g, r0=-1.0)
        x = g.meshgrid()[0]
        mask = SubdomainMask(g, (x > 0.25) & (x < 0.75))
        errors.append(abs(yf.dirichlet_eigen(sbg, mask).lam - cont))
    ratios = [c / f for c, f in zip(errors, errors[1:])]
    slab_ok = all(3.5 <= r <= 4.5 for r in ratios)

    # Domain monotonicity over 20 random nested pairs.
    g8 = unit_grid(8)
    bg8 = constant_background(g8)
    rng = np.random.default_rng(2024)
    mono_ok = True
    pairs = 0
    while pairs < 20:
        center = tuple(rng.random(3))
        radius = 0.15 + 0.2 * rng.random()
        small = ball_mask(g8, center, radius)
        if small.is_empty or small.count == g8.num_points:
            continue
        big = yf.dilate(small, 1)
        lam_small = yf.dirichlet_eigen(bg8, small).lam
        lam_big = yf.dirichlet_eigen(bg8, big).lam
        mono_ok &= lam_big <= lam_small + 1e-8
        pairs += 1

    ok = _report(
        9,
        "spectral: dense oracle, slab convergence, domain monotonicity",
        oracle_ok and slab_ok and mono_ok,
    )
    assert ok, f"oracle_ok={oracle_ok}, slab ratios={ratios}, mono_ok={mono_ok}"


def test_criterion_10_determinism_and_resume(tmp_path):
    scenario = tmp_path / "scn.txt"
    scenario.write_text(
        "name = determinism\n"
        "grid.n = 3\n"
        "grid.sizes = 16 16 16\n"
        "grid.lengths = 1 1 1\n"
        "r0.constant = -1.0\n"
        "f.constant = -1.0\n"
        "f.bump.0.amplitude = 1.005\n"
        "f.bump.0.center = 0.5 0.5 0.5\n"
        "f.bump.0.width = 0.06\n"
        "u0.constant = 1.0\n"
        "flow.record_every = 10\n"
    )
    out1, out2, ref, split = (tmp_path / d for d in ("o1", "o2", "ref", "split"))
    cli_main(["run", "--scenario", str(scenario), "--out", str(out1),
              "--until", "120steps", "--threads", "1"])
    cli_main(["run", "--scenario", str(scenario), "--out", str(out2),
              "--until", "120steps", "--threads", "8"])
    threads_ok = (
        (out1 / CSV_NAME).read_bytes() == (out2 / CSV_NAME).read_bytes()
        and (out1 / FINAL_U).read_bytes() == (out2 / FINAL_U).read_bytes()
    )

    cli_main(["run", "--scenario", str(scenario), "--out", str(ref), "--until", "120steps"])
    cli_main(["run", "--scenario", str(scenario), "--out", str(split),
              "--until", "70steps", "--checkpoint-every", "35"])
    cli_main(["resume", "--scenario", str(scenario), "--out", str(split),
              "--until", "120steps"])
    resume_ok = (
        (split / CSV_NAME).read_bytes() == (ref / CSV_NAME).read_bytes()
        and (split / FINAL_U).read_bytes() == (ref / FINAL_U).read_bytes()
    )
    ok = _report(10, "bitwise determinism across --threads and resume", threads_ok and resume_ok)
    assert ok, f"threads_ok={threads_ok}, resume_ok={resume_ok}"
