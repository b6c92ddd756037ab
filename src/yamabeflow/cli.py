"""Command-line orchestration: run, eigen, check, supersolution, verify, resume.

All numerics are single-threaded and reductions are exactly rounded, so
outputs are bitwise identical regardless of ``--threads``; the flag exists
for interface compatibility and caps nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import diagnostics as diag
from . import flow as flowmod
from . import hypotheses as hyp
from . import snapshots
from .diagnostics import DiagnosticsRecord
from .errors import DeltaWindowEmptyError, EigenConvergenceError, ScenarioError
from .flow import Trajectory
from .operators import stationary_residual
from .scenario import load_scenario
from .spectral import dirichlet_eigen

CSV_NAME = "trajectory.csv"
SUMMARY_NAME = "summary.txt"
FINAL_U = "final.u.yflo"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_p(p: float) -> str:
    return f"{p:g}"


def _csv_header(orders) -> str:
    cols = ["t", "dt", "energy", "min_u", "max_u", "volume_g", "residual_sup"]
    cols += [f"residual_l{_fmt_p(p)}" for p in orders]
    cols.append("dissipation_cum")
    return ",".join(cols)


def _csv_row(rec: DiagnosticsRecord, orders) -> str:
    vals = [rec.t, rec.dt, rec.energy, rec.min_u, rec.max_u, rec.volume_g, rec.residual_sup]
    vals += [rec.residual_lp[p] for p in orders]
    vals.append(rec.dissipation_cum)
    return ",".join(_fmt(v) for v in vals)


def _parse_count(value: str) -> int:
    """``--checkpoint-every`` type: an integer k >= 0, else a usage error."""
    if value.isdecimal():
        return int(value)
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value!r}")


def _parse_positive(value: str) -> float:
    """Type of the tolerances and of ``--until``'s time: a positive number, else a usage error."""
    try:
        if float(value) > 0.0:
            return float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive number, got {value!r}")


def _parse_until(value: str) -> dict:
    """``--until`` type: the ``FlowConfig`` stop for a positive time ``t`` or ``<k>steps``."""
    try:
        if value.endswith("steps"):
            return {"max_steps": _parse_count(value[: -len("steps")])}
        return {"t_max": _parse_positive(value)}
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected a positive time t or '<k>steps', got {value!r}"
        ) from None


def _write_summary(out: Path, traj: Trajectory, resid: float) -> None:
    lines = [
        f"outcome = {traj.outcome}",
        f"t_final = {_fmt(traj.final.t)}",
        f"steps = {traj.final.step}",
        f"stationary_residual = {_fmt(resid)}",
        f"energy_final = {_fmt(traj.records[-1].energy)}",
    ]
    (out / SUMMARY_NAME).write_text("\n".join(lines) + "\n")


def _run_loop(scn, args, start=None, carry=None) -> int:
    """The loop that ``run`` starts and ``resume`` continues from ``start``/``carry``."""
    cfg = dataclasses.replace(scn.flow, **(args.until or {}))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    orders = cfg.resolve_orders(scn.grid.n)
    with open(out / CSV_NAME, "w" if start is None else "a") as csv:
        if start is None:
            csv.write(_csv_header(orders) + "\n")

        def on_record(rec):
            csv.write(_csv_row(rec, orders) + "\n")
            csv.flush()

        traj = flowmod.run(
            scn.background, scn.u0, cfg, start=start, carry=carry, on_record=on_record,
            checkpoint_every=args.checkpoint_every,
            on_checkpoint=functools.partial(snapshots.write_checkpoint, out),
        )
    snapshots.write_field(out / FINAL_U, traj.final.u)
    _write_summary(out, traj, stationary_residual(scn.background, traj.final.u))
    print(f"outcome: {traj.outcome} at t={traj.final.t:g} after {traj.final.step} steps")
    return 0


def cmd_run(args) -> int:
    return _run_loop(load_scenario(args.scenario), args)


def cmd_resume(args) -> int:
    scn = load_scenario(args.scenario)
    out = Path(args.out)
    try:
        start, carry = snapshots.read_checkpoint(out)
        lines = (out / CSV_NAME).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot resume from {out}: {exc}") from exc
    if start.u.grid != scn.grid:
        raise ScenarioError(f"checkpoint grid {start.u.grid} != scenario grid {scn.grid}")
    if len(lines) < 1 + carry.records_written:
        raise ScenarioError(
            f"{CSV_NAME} holds {len(lines[1:])} records, the checkpoint {carry.records_written}"
        )
    (out / CSV_NAME).write_text("\n".join(lines[: 1 + carry.records_written]) + "\n")
    return _run_loop(scn, args, start, carry)


def cmd_eigen(args) -> int:
    scn = load_scenario(args.scenario)
    mask = scn.omega_mask()
    try:
        result = dirichlet_eigen(scn.background, mask, tol=args.tol)
    except EigenConvergenceError as exc:
        print(f"FAIL eigen: {exc}", file=sys.stderr)
        return 1
    print(f"lambda = {_fmt(result.lam)}")
    print(f"residual = {_fmt(result.residual)}")
    print(f"iterations = {result.iterations}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        snapshots.write_field(out / "phi.yflo", result.phi)
    return 0


def cmd_check(args) -> int:
    scn = load_scenario(args.scenario)
    mask = scn.omega_mask()
    report = hyp.evaluate_hypotheses(scn.background, mask, **scn.supersolution)
    print(f"lambda_omega = {_fmt(report.lambda_omega)}")
    print(f"sup_f_omega = {_fmt(report.sup_f_omega)}")
    print(f"inf_absf_complement = {_fmt(report.inf_absf_complement)}")
    print(f"c_omega = {_fmt(report.c_omega)}")
    print(f"h1 = {'PASS' if report.h1_holds else 'FAIL'}")
    print(f"h2 = {'PASS' if report.h2_holds else 'FAIL'}")
    return 0 if (report.h1_holds and report.h2_holds) else 1


def cmd_supersolution(args) -> int:
    scn = load_scenario(args.scenario)
    mask = scn.omega_mask()
    try:
        cert = hyp.build_supersolution(scn.background, mask, **scn.supersolution)
    except (DeltaWindowEmptyError, ValueError, EigenConvergenceError) as exc:
        print(f"FAIL supersolution: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    snapshots.write_field(out / "ubar.yflo", cert.ubar)
    payload = {f.name: getattr(cert, f.name) for f in dataclasses.fields(cert) if f.name != "ubar"}
    (out / "certificate.json").write_text(json.dumps(payload, indent=2, default=str) + "\n")
    print(
        f"delta = {cert.delta:g} in [{cert.delta_lo:g}, {cert.delta_hi:g}], "
        f"min L(ubar) = {cert.min_l_ubar:g}"
    )
    return 0


def _load_csv_records(path: Path) -> list[DiagnosticsRecord]:
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    lp_cols = {k: float(k[len("residual_l"):]) for k in names if k.startswith("residual_l")}
    records = []
    for row in rows:
        vals = dict(zip(names, map(float, row.split(",")), strict=True))
        lp = {p: vals.pop(k) for k, p in lp_cols.items()}
        records.append(DiagnosticsRecord(**vals, residual_lp=lp))
    return records


def cmd_verify(args) -> int:
    scn = load_scenario(args.scenario)
    out = Path(args.out)
    try:
        records = _load_csv_records(out / CSV_NAME)
        lines = (out / SUMMARY_NAME).read_text().splitlines()
        outcome = dict(line.split(" = ", 1) for line in lines if line)["outcome"]
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ScenarioError(
            f"cannot verify the run in {out}: {type(exc).__name__}: {exc}"
        ) from exc
    if not records:
        raise ScenarioError(f"{out / CSV_NAME} holds no records")
    traj = Trajectory(
        n=scn.grid.n,
        records=records,
        step_t=[],
        step_dt=[],
        step_energy=[],
        step_min_u=[],
        step_max_u=[],
        final=None,
        outcome=outcome,
    )
    failures = []

    energies = [r.energy for r in records]
    mono = all(b <= a + 1e-10 * (1.0 + abs(a)) for a, b in zip(energies, energies[1:]))
    print(f"{'PASS' if mono else 'FAIL'} energy_monotone")
    if not mono:
        failures.append("energy_monotone")

    env = diag.envelope_check(scn.background, traj)
    print(f"{'PASS' if env.passed else 'FAIL'} envelopes ({len(env.violations)} violations)")
    failures += ["envelopes"] if not env.passed else []

    if len(records) >= 10:
        err = diag.dissipation_identity_error(traj)
        ok = err <= args.dissipation_tol
        print(f"{'PASS' if ok else 'FAIL'} dissipation_identity error={err:.3e}")
        if not ok:
            failures.append("dissipation_identity")
    else:
        print(f"SKIP dissipation_identity: {len(records)} records, need 10")

    if traj.outcome == "converged":
        decay = diag.decay_check(traj, threshold=args.decay_threshold)
        print(f"{'PASS' if decay.passed else 'FAIL'} decay")
        if not decay.passed:
            failures.append("decay")
    else:
        print(f"SKIP decay: outcome {traj.outcome}, not converged")

    return 0 if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yamabeflow",
        description="Prescribed-curvature conformal flow laboratory on periodic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", required=needs_out, help="output directory")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; outputs are thread-count independent")

    for name, func, text in (
        ("run", cmd_run, "integrate the flow and write CSV + snapshots"),
        ("resume", cmd_resume, "continue a run from its checkpoint"),
    ):
        p_loop = sub.add_parser(name, help=text)
        common(p_loop)
        p_loop.add_argument(
            "--until", type=_parse_until, help="override stop: a time t, or '<k>steps'"
        )
        p_loop.add_argument(
            "--checkpoint-every", type=_parse_count, default=0, help="steps between checkpoints"
        )
        p_loop.set_defaults(func=func)

    p_eig = sub.add_parser("eigen", help="principal Dirichlet eigenpair on the scenario subdomain")
    common(p_eig, needs_out=False)
    p_eig.add_argument("--tol", type=_parse_positive, default=1e-8)
    p_eig.set_defaults(func=cmd_eigen)

    p_chk = sub.add_parser("check", help="decide the eigenvalue and size conditions")
    common(p_chk, needs_out=False)
    p_chk.set_defaults(func=cmd_check)

    p_sup = sub.add_parser("supersolution", help="build and verify a supersolution certificate")
    common(p_sup)
    p_sup.set_defaults(func=cmd_supersolution)

    p_ver = sub.add_parser("verify", help="run the diagnostics suite over a stored trajectory")
    common(p_ver)
    p_ver.add_argument("--dissipation-tol", type=_parse_positive, default=0.05)
    p_ver.add_argument("--decay-threshold", type=_parse_positive, default=1e-8)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
