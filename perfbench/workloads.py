"""The three benchmark workloads: inputs from a seed, one timed operation, output checks.

``trapped-flow`` is the RK4 step loop with almost no spectral work,
``certify-ball`` is eigen solves and certification with no flow step, and
``cli-record-io`` is the CLI recording every step and checkpointing beside
the computation.  Each layer an optimisation may touch is exercised by one
workload and bypassed by another.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from yamabeflow import cli, diagnostics, flow, hypotheses, scenario, snapshots, spectral
from yamabeflow.grid import GridSpec, ScalarField, SubdomainMask
from yamabeflow.operators import Background


def energy_tol(e: float) -> float:
    """Per-step slack of the acceptance suite's energy-monotonicity criterion."""
    return 1e-10 * (1.0 + abs(e))


class Checks:
    """Named pass/fail checks; an exception fails its own check and never the ones after it."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name, predicate, note=""):
        try:
            ok = bool(predicate())
        except Exception as exc:  # a broken check is a failed check, and the run goes on
            ok, note = False, f"{type(exc).__name__}: {exc}"
        self.results.append((name, ok, note))

    @property
    def failed(self) -> list[str]:
        return [f"{name} {note}".strip() for name, ok, note in self.results if not ok]


@dataclass
class Outcome:
    """What one repetition produced, besides pass/fail: digests, flow work and dt-cap counts."""

    digests: dict
    steps: int = 0
    sim_t: float = 0.0
    dissipation_error: float | None = 0.0
    caps: dict = field(default_factory=lambda: {"diffusion": 0, "reaction": 0, "tmax_clip": 0})


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def periodic_dist2(grid: GridSpec, center) -> np.ndarray:
    d2 = np.zeros(grid.shape)
    for x, c, length in zip(grid.meshgrid(), center, grid.lengths):
        d = np.abs(x - c)
        d = np.minimum(d, length - d)
        d2 += d * d
    return d2


def periodic_gaussian(grid: GridSpec, center, width: float, amplitude: float) -> np.ndarray:
    return amplitude * np.exp(-periodic_dist2(grid, center) / (2.0 * width * width))


def identity_error(traj) -> float | None:
    """The dissipation-identity error, or None when the trajectory has too few records."""
    try:
        return diagnostics.dissipation_identity_error(traj)
    except ValueError:
        return None


def dt_caps(bg: Background, cfl: float, t_max: float, ts, mins, dts) -> dict:
    """Which cap bound each step, recomputed from the recorded ``t``, ``min u`` and ``dt``.

    The diffusion cap is evaluated with the same expression as ``flow.stable_dt``,
    so a diffusion-bound step matches it bit for bit; a step that is neither
    diffusion-bound nor clipped to ``t_max`` was bound by the reaction cap.
    """
    kappa = 0.25 * (bg.n - 2)
    inv_h2 = sum(2.0 / (h * h) for h in bg.grid.spacings)
    caps = {"diffusion": 0, "reaction": 0, "tmax_clip": 0}
    for t, mn, dt in zip(ts, mins, dts):
        diffusion = cfl / (inv_h2 * (kappa * bg.c_n * mn ** (1.0 - bg.big_n)))
        if dt == t_max - t and dt != diffusion:
            caps["tmax_clip"] += 1
        elif dt == diffusion:
            caps["diffusion"] += 1
        else:
            caps["reaction"] += 1
    return caps


def _unit_grid(size: int) -> GridSpec:
    return GridSpec(3, (size,) * 3, (1.0,) * 3)


class TrappedFlow:
    """16^3 trapped bump from half its certified supersolution to a fixed horizon."""

    name = "trapped-flow"
    writes_per_step = False
    horizon = 7.2
    noise = 1e-4

    def setup(self, seed: int, workdir: Path):
        grid = _unit_grid(16)
        f = -1.0 + periodic_gaussian(grid, (0.5, 0.5, 0.5), 0.06, 1.005)
        bg = Background(grid, ScalarField.constant(grid, -1.0), ScalarField(grid, f))
        omega = hypotheses.superlevel_mask(bg, 0.5)
        cert = hypotheses.build_supersolution(bg, omega)
        jitter = np.random.default_rng(seed).standard_normal(grid.shape)
        u0 = ScalarField(grid, 0.5 * cert.ubar.values * (1.0 + self.noise * jitter))
        cfg = flow.FlowConfig(t_max=self.horizon, residual_stop=5e-7, record_every=50)
        return {"bg": bg, "cert": cert, "u0": u0, "cfg": cfg, "workdir": workdir}

    def prepare(self, st):
        pass

    def rep(self, st):
        return flow.run(st["bg"], st["u0"], st["cfg"], certificate=st["cert"])

    def check(self, st, traj, checks: Checks) -> Outcome:
        bg, cert, cfg = st["bg"], st["cert"], st["cfg"]
        es = traj.step_energy
        checks.add("energy_nonincreasing", lambda: all(b <= a + energy_tol(a) for a, b in zip(es, es[1:])))
        checks.add("envelopes_with_certificate", lambda: diagnostics.envelope_check(bg, traj, cert).passed)
        # 5% is the default gate of `yamabeflow verify`; see perfbench/BASELINE.md
        # for why this trajectory sits at 1.04% under the default CFL fraction.
        dissipation_error = identity_error(traj)
        checks.add("dissipation_identity", lambda: dissipation_error is not None and dissipation_error <= 0.05)
        checks.add("reached_horizon", lambda: traj.outcome == "timeout" and traj.final.t == cfg.t_max)

        orders = cfg.resolve_orders(bg.n)
        csv_path, final_path = st["workdir"] / cli.CSV_NAME, st["workdir"] / cli.FINAL_U
        rows = [cli._csv_header(orders)] + [cli._csv_row(r, orders) for r in traj.records]
        csv_path.write_text("\n".join(rows) + "\n")
        snapshots.write_field(final_path, traj.final.u)
        caps = dt_caps(bg, cfg.cfl_fraction, cfg.t_max, traj.step_t, traj.step_min_u, traj.step_dt[1:])
        return Outcome(
            {cli.CSV_NAME: sha256(csv_path), cli.FINAL_U: sha256(final_path)},
            traj.final.step,
            traj.final.t,
            dissipation_error,
            caps,
        )


class CertifyBall:
    """32^3 ball of radius 0.2 around a bump with sup f = 0: eigen solve, hypotheses, certificate."""

    name = "certify-ball"
    writes_per_step = False
    tol = 1e-8

    def setup(self, seed: int, workdir: Path):
        # The seed translates the whole configuration by whole cells: a new
        # input of exactly the same shape, hence the same amount of work.
        grid = _unit_grid(32)
        shift = random.Random(seed).choices(range(32), k=3)
        center = tuple(((16 + s) % 32) / 32 for s in shift)
        f = -1.0 + periodic_gaussian(grid, center, 0.08, 1.0)
        bg = Background(grid, ScalarField.constant(grid, -1.0), ScalarField(grid, f))
        ball = SubdomainMask(grid, periodic_dist2(grid, center) < 0.2 * 0.2)
        return {"bg": bg, "ball": ball, "workdir": workdir}

    def prepare(self, st):
        pass

    def rep(self, st):
        bg, ball = st["bg"], st["ball"]
        eig = spectral.dirichlet_eigen(bg, ball, tol=self.tol)
        report = hypotheses.evaluate_hypotheses(bg, ball, tol=self.tol)
        cert = hypotheses.build_supersolution(bg, ball, tol=self.tol)
        return eig, report, cert

    def check(self, st, out, checks: Checks) -> Outcome:
        bg, ball = st["bg"], st["ball"]
        eig, report, cert = out
        scale = max(1.0, abs(eig.lam))
        checks.add("omega_points", lambda: ball.count == 1045)
        # dirichlet_eigen's own stopping rule scales tol by max(1, |lambda|).
        checks.add("eigen_residual", lambda: eig.residual <= self.tol * scale)
        checks.add("phi_nonnegative", lambda: eig.phi.min() >= 0.0)
        checks.add(
            "rayleigh_matches_lambda",
            lambda: abs(spectral.rayleigh_quotient(bg, eig.phi, ball) - eig.lam) <= 1e-10 * scale,
        )
        checks.add("report_lambda_matches", lambda: report.lambda_omega == eig.lam)
        checks.add("h1_holds", lambda: report.h1_holds)
        checks.add("h2_holds", lambda: report.h2_holds is True)
        checks.add("certificate_verified", lambda: cert.min_l_ubar >= -1e-9)

        phi_path, ubar_path = st["workdir"] / "phi.yflo", st["workdir"] / "ubar.yflo"
        snapshots.write_field(phi_path, eig.phi)
        snapshots.write_field(ubar_path, cert.ubar)
        return Outcome({"phi.yflo": sha256(phi_path), "ubar.yflo": sha256(ubar_path)})


SCENARIO = """\
name = cli-record-io
grid.n = 3
grid.sizes = 24 24 24
grid.lengths = 1 1 1
seed = {seed}
r0.constant = -1.0
f.constant = -1.0
f.bump.0.amplitude = {f_amp!r}
f.bump.0.center = {f_center}
f.bump.0.width = 0.1
u0.constant = 1.0
u0.bump.0.amplitude = {u_amp!r}
u0.bump.0.center = {u_center}
u0.bump.0.width = 0.15
u0.noise.amplitude = 1e-6
flow.record_every = 1
"""


class CliRecordIO:
    """In-process CLI: a recorded run, the same run split at half and resumed, then verify."""

    name = "cli-record-io"
    writes_per_step = True
    steps = 80
    checkpoint_every = 1

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        text = SCENARIO.format(
            seed=seed,
            f_amp=rng.uniform(0.3, 0.6),
            f_center=" ".join(repr(rng.random()) for _ in range(3)),
            u_amp=rng.uniform(0.05, 0.15),
            u_center=" ".join(repr(rng.random()) for _ in range(3)),
        )
        path = workdir / "scenario.txt"
        path.write_text(text)
        scn = scenario.load_scenario(path)
        return {"scn": scn, "path": str(path), "workdir": workdir}

    def prepare(self, st):
        for sub in ("whole", "split"):
            shutil.rmtree(st["workdir"] / sub, ignore_errors=True)

    def _argv(self, st, command, sub, until=None):
        argv = [command, "--scenario", st["path"], "--out", str(st["workdir"] / sub)]
        if until is not None:
            argv += ["--until", f"{until}steps", "--checkpoint-every", str(self.checkpoint_every)]
        return argv

    def rep(self, st):
        k = self.steps
        log = StringIO()
        with redirect_stdout(log):
            rcs = {
                "run": cli.main(self._argv(st, "run", "whole", k)),
                "run_half": cli.main(self._argv(st, "run", "split", k // 2)),
                "resume": cli.main(self._argv(st, "resume", "split", k)),
                "verify": cli.main(self._argv(st, "verify", "whole")),
            }
        return rcs, log.getvalue()

    def check(self, st, out, checks: Checks) -> Outcome:
        rcs, log = out
        whole, split = st["workdir"] / "whole", st["workdir"] / "split"
        for command, rc in rcs.items():
            checks.add(f"{command}_exit_0", lambda rc=rc: rc == 0, " | ".join(log.splitlines()))
        for name in (cli.CSV_NAME, cli.FINAL_U, cli.SUMMARY_NAME):
            checks.add(
                f"resume_invisible_{name}",
                lambda name=name: (whole / name).read_bytes() == (split / name).read_bytes(),
            )
        lines = (whole / cli.CSV_NAME).read_text().splitlines()
        checks.add("one_record_per_step", lambda: len(lines) == self.steps + 2)

        header = lines[0].split(",")
        cols = list(zip(*[[float(v) for v in line.split(",")] for line in lines[1:]]))
        ts, dts, mins = (cols[header.index(c)] for c in ("t", "dt", "min_u"))
        scn, k = st["scn"], self.steps
        resumed_from = (k // 2 - 1) // self.checkpoint_every * self.checkpoint_every
        caps = dt_caps(scn.background, scn.flow.cfl_fraction, scn.flow.t_max, ts[:-1], mins[:-1], dts[1:])
        records = cli._load_csv_records(whole / cli.CSV_NAME)
        return Outcome(
            {cli.CSV_NAME: sha256(whole / cli.CSV_NAME), cli.FINAL_U: sha256(whole / cli.FINAL_U)},
            k + k // 2 + (k - resumed_from),
            ts[k] + ts[k // 2] + (ts[k] - ts[resumed_from]),
            identity_error(SimpleNamespace(n=scn.grid.n, records=records)),
            caps,
        )


WORKLOADS = {w.name: w for w in (TrappedFlow(), CertifyBall(), CliRecordIO())}
