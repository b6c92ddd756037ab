"""Command-line orchestration: run, eigen, check, supersolution, verify, resume.

All numerics are single-threaded and reductions are exactly rounded, so
outputs are bitwise identical regardless of ``--threads``; the flag exists
for interface compatibility and caps nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import diagnostics as diag
from . import flow as flowmod
from . import hypotheses as hyp
from . import snapshots
from .diagnostics import DiagnosticsRecord
from .errors import ComputationFailure, ScenarioError
from .flow import Trajectory, _lp_name
from .operators import stationary_residual
from .scenario import load_scenario, parse_kv
from .spectral import dirichlet_eigen

CSV_NAME = "trajectory.csv"
SUMMARY_NAME = "summary.txt"
FINAL_U = "final.u.yflo"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# The scalar columns of the CSV, before its Lp columns, named as the record fields they hold.
_CSV_SCALARS = ("t", "dt", "energy", "min_u", "max_u", "volume_g", "residual_sup")


def _csv_header(orders) -> str:
    cols = [*_CSV_SCALARS, *(f"residual_l{_lp_name(p)}" for p in orders), "dissipation_cum"]
    return ",".join(cols)


def _csv_row(rec: DiagnosticsRecord, orders) -> str:
    vals = [getattr(rec, name) for name in _CSV_SCALARS] + [rec.residual_lp[p] for p in orders]
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
        f"energy_final = {_fmt(traj.step_energy[-1])}",
    ]
    (out / SUMMARY_NAME).write_text("\n".join(lines) + "\n")


def _out_dir(args) -> Path:
    """The ``--out`` directory, created if missing; a path that cannot be one exits 2."""
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create the output directory {args.out}: {exc}") from exc
    return args.out


def _run_loop(scn, args, start=None, carry=None, csv_prefix=None) -> int:
    """The flow loop and the one CSV writer; ``resume`` passes start, carry and csv_prefix."""
    cfg = dataclasses.replace(scn.flow, **(args.until or {}))
    out = _out_dir(args)
    orders = cfg.resolve_orders(scn.grid.n)
    if start is None:
        snapshots.remove_checkpoint(out)
        csv_prefix = [_csv_header(orders)]

    def on_checkpoint(state, carry):
        if state.step % args.checkpoint_every == 0:
            snapshots.write_checkpoint(out, state, carry)

    with open(out / CSV_NAME, "w") as csv:
        csv.write("".join(line + "\n" for line in csv_prefix))

        def on_record(rec):
            csv.write(_csv_row(rec, orders) + "\n")
            csv.flush()

        traj = flowmod.run(
            scn.background, scn.u0, cfg, start=start, carry=carry, on_record=on_record,
            on_checkpoint=on_checkpoint if args.checkpoint_every > 0 else None,
        )
    snapshots.write_field(out / FINAL_U, traj.final.u)
    _write_summary(out, traj, stationary_residual(scn.background, traj.final.u))
    print(f"outcome: {traj.outcome} at t={traj.final.t:g} after {traj.final.step} steps")
    return 0


def cmd_resume(scn, args) -> int:
    try:
        start, carry = snapshots.read_checkpoint(args.out)
        lines = (args.out / CSV_NAME).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot resume from {args.out}: {exc}") from exc
    if start.u.grid != scn.grid:
        raise ScenarioError(f"checkpoint grid {start.u.grid} != scenario grid {scn.grid}")
    cfg = dataclasses.replace(scn.flow, **(args.until or {}))
    if start.t > cfg.t_max or (cfg.max_steps is not None and start.step > cfg.max_steps):
        raise ScenarioError(f"checkpoint at step {start.step}, t={start.t:g} is past the stop")
    s, k = start.step, cfg.record_every  # records fall on step 0 and on each multiple of k
    if (carry.last_record_step, carry.records_written) != (s // k * k, s // k + 1):
        raise ScenarioError(f"checkpoint at step {s} does not fit flow.record_every = {k}: {carry}")
    if lines[:1] != [_csv_header(cfg.resolve_orders(scn.grid.n))]:
        raise ScenarioError(f"the header of {CSV_NAME} does not fit flow.lp_orders")
    if len(lines) < 1 + carry.records_written:
        raise ScenarioError(
            f"{CSV_NAME} holds {len(lines[1:])} records, the checkpoint {carry.records_written}"
        )
    return _run_loop(scn, args, start, carry, lines[: 1 + carry.records_written])


def cmd_eigen(scn, args) -> int:
    result = dirichlet_eigen(scn.background, scn.omega, tol=args.tol)
    print(f"lambda = {_fmt(result.lam)}")
    print(f"residual = {_fmt(result.residual)}")
    print(f"iterations = {result.iterations}")
    if args.out:
        snapshots.write_field(_out_dir(args) / "phi.yflo", result.phi)
    return 0


def cmd_check(scn, args) -> int:
    report = hyp.evaluate_hypotheses(scn.background, scn.omega, **scn.supersolution)
    print(f"lambda_omega = {_fmt(report.lambda_omega)}")
    print(f"sup_f_omega = {_fmt(report.sup_f_omega)}")
    print(f"inf_absf_complement = {_fmt(report.inf_absf_complement)}")
    print(f"c_omega = {_fmt(report.c_omega)}")
    print(f"h1 = {'PASS' if report.h1_holds else 'FAIL'}")
    print(f"h2 = {'PASS' if report.h2_holds else 'FAIL'}")
    return 0 if (report.h1_holds and report.h2_holds) else 1


def cmd_supersolution(scn, args) -> int:
    cert = hyp.build_supersolution(scn.background, scn.omega, **scn.supersolution)
    out = _out_dir(args)
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


def cmd_verify(scn, args) -> int:
    try:
        records = _load_csv_records(args.out / CSV_NAME)
        outcome = parse_kv((args.out / SUMMARY_NAME).read_text())["outcome"]
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ScenarioError(
            f"cannot verify the run in {args.out}: {type(exc).__name__}: {exc}"
        ) from exc
    if not records:
        raise ScenarioError(f"{args.out / CSV_NAME} holds no records")
    traj = Trajectory(scn.grid.n, records, outcome)
    oks = []

    def verdict(ok: bool, line: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {line}")
        oks.append(ok)

    energies = [r.energy for r in records]
    mono = all(b <= a + 1e-10 * (1.0 + abs(a)) for a, b in zip(energies, energies[1:]))
    verdict(mono, "energy_monotone")
    env = diag.envelope_check(scn.background, traj)
    verdict(env.passed, f"envelopes ({len(env.violations)} violations)")
    if len(records) >= 10:
        err = diag.dissipation_identity_error(traj)
        verdict(err <= args.dissipation_tol, f"dissipation_identity error={err:.3e}")
    else:
        print(f"SKIP dissipation_identity: {len(records)} records, need 10")
    if outcome == "converged":
        verdict(diag.decay_check(traj, threshold=args.decay_threshold).passed, "decay")
    else:
        print(f"SKIP decay: outcome {outcome}, not converged")
    return 0 if all(oks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yamabeflow",
        description="Prescribed-curvature conformal flow laboratory on periodic grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out="required"):
        p.add_argument("--scenario", required=True, help="scenario file path")
        if out is not None:  # "required" or "optional"
            p.add_argument("--out", type=Path, required=out == "required", help="output directory")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; outputs are thread-count independent")

    for name, func, text in (
        ("run", _run_loop, "integrate the flow and write CSV + snapshots"),
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
    common(p_eig, out="optional")
    p_eig.add_argument("--tol", type=_parse_positive, default=1e-8)
    p_eig.set_defaults(func=cmd_eigen)

    p_chk = sub.add_parser("check", help="decide the eigenvalue and size conditions")
    common(p_chk, out=None)
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
    """Exit 2 on a scenario or usage error, 1 with ``FAIL <command>`` on a failed computation."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(load_scenario(args.scenario), args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ComputationFailure as exc:
        print(f"FAIL {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
