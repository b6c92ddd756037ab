import dataclasses
import json
import math

import numpy as np
import pytest

import yamabeflow as yf
from yamabeflow import hypotheses, snapshots, spectral
from yamabeflow.cli import CSV_NAME, FINAL_U, SUMMARY_NAME, _csv_header, main
from yamabeflow.scenario import parse_kv

from conftest import slab_background, unit_grid


TRAPPED = """
name = trapped-bump
grid.n = 3
grid.sizes = 16 16 16
grid.lengths = 1 1 1
r0.constant = -1.0
f.constant = -1.0
f.bump.0.amplitude = 1.005
f.bump.0.center = 0.5 0.5 0.5
f.bump.0.width = 0.06
u0.constant = 1.0
flow.record_every = 10
omega.type = superlevel
omega.eps = 0.5
"""

CONSTANT = """
name = constant-data
grid.n = 3
grid.sizes = 8 8 8
grid.lengths = 1 1 1
r0.constant = -2.0
f.constant = -1.0
u0.constant = 1.0
flow.record_every = 20
"""


# Constant data that relax to u^4 = 1.2; a uniform u stays uniform, so the step is fixed.
CONVERGING = CONSTANT.replace("8 8 8", "6 6 6").replace("-2.0", "-1.2") + (
    "flow.fixed_dt = 0.05\nflow.t_max = 30\n"
)


# f = -1 plus a unit bump, so sup f = 0 at the centre, and Omega a ball there.
BALL_AT_ZERO_PEAK = """
grid.n = 3
grid.sizes = 8 8 8
grid.lengths = 1 1 1
r0.constant = -1.0
f.constant = -1.0
f.bump.0.amplitude = 1.0
f.bump.0.center = 0.5 0.5 0.5
f.bump.0.width = 0.1
u0.constant = 1.0
omega.type = ball
omega.center = 0.5 0.5 0.5
omega.radius = 0.2
"""


@pytest.fixture
def trapped_scn(tmp_path):
    path = tmp_path / "trapped.txt"
    path.write_text(TRAPPED)
    return path


@pytest.fixture
def constant_scn(tmp_path):
    path = tmp_path / "constant.txt"
    path.write_text(CONSTANT)
    return path


class TestRunCommand:
    @pytest.mark.parametrize(
        "n, lp_columns",
        [(3, "residual_l2,residual_l1.5,residual_l4.5"), (4, "residual_l2,residual_l4")],
    )
    def test_default_header(self, n, lp_columns):
        """The Lp columns are the ladder 2, n/2, n^2/(2(n-2)); at n = 4 the two 2s are one."""
        assert _csv_header(yf.FlowConfig.resolve_orders(n)) == (
            f"t,dt,energy,min_u,max_u,volume_g,residual_sup,{lp_columns},dissipation_cum"
        )

    def test_writes_outputs(self, tmp_path, constant_scn, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(constant_scn), "--out", str(out), "--until", "100steps"])
        assert rc == 0
        assert "timeout" in capsys.readouterr().out
        lines = (out / CSV_NAME).read_text().splitlines()
        assert lines[0] == (
            "t,dt,energy,min_u,max_u,volume_g,residual_sup,"
            "residual_l2,residual_l1.5,residual_l4.5,dissipation_cum"
        )
        assert len(lines) == 1 + 6  # records at steps 0,20,...,100
        summary = dict(l.split(" = ", 1) for l in (out / SUMMARY_NAME).read_text().splitlines())
        assert summary["outcome"] == "timeout"
        assert summary["steps"] == "100"
        final = snapshots.read_field(out / FINAL_U)
        assert final.grid.sizes == (8, 8, 8)

    def test_4d_header_has_no_repeated_column(self, tmp_path):
        """At n = 4 the default orders 2 and n/2 coincide; the CSV names each column once."""
        scn = tmp_path / "four.txt"
        text = CONSTANT.replace("grid.n = 3", "grid.n = 4").replace("8 8 8", "4 4 4 4")
        scn.write_text(text.replace("grid.lengths = 1 1 1", "grid.lengths = 1 1 1 1"))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scn), "--out", str(out), "--until", "2steps"]) == 0
        header = (out / CSV_NAME).read_text().splitlines()[0].split(",")
        assert len(header) == len(set(header))
        assert [c for c in header if c.startswith("residual_l")] == ["residual_l2", "residual_l4"]

    def test_until_time(self, tmp_path, constant_scn):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(constant_scn), "--out", str(out), "--until", "0.01"])
        assert rc == 0
        rows = (out / CSV_NAME).read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.01, abs=1e-12)

    def test_seventeen_digit_round_trip(self, tmp_path, constant_scn):
        out = tmp_path / "out"
        main(["run", "--scenario", str(constant_scn), "--out", str(out), "--until", "40steps"])
        rows = (out / CSV_NAME).read_text().splitlines()[1:]
        # %.17g preserves doubles exactly: formatting the parsed value
        # again must reproduce the text.
        for row in rows:
            for tok in row.split(","):
                assert f"{float(tok):.17g}" == tok

    @pytest.mark.parametrize("command", ["run", "resume"])
    @pytest.mark.parametrize(
        "option",
        ["--until=abc", "--until=xsteps", "--until=-1", "--until=-2steps", "--checkpoint-every=-1"],
        ids=["abc", "xsteps", "-1", "-2steps", "checkpoint_every_-1"],
    )
    def test_bad_until_is_usage_error(self, tmp_path, constant_scn, capsys, command, option):
        """A bad ``--until`` or ``--checkpoint-every`` value is a usage error."""
        argv = [command, "--scenario", str(constant_scn), "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as info:
            main(argv + [option])
        assert info.value.code == 2
        assert f"argument {option.split('=')[0]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "resume"])
    def test_positivity_collapse_exits_1(self, tmp_path, capsys, command):
        """A fixed dt far past stability collapses u at the first step: FAIL, not a traceback.

        The step is clipped to the stop at t_max, so t_max sits as far out as the step.
        """
        text = CONSTANT.replace("8 8 8", "6 6 6") + (
            "u0.bump.0.amplitude = 0.5\nu0.bump.0.center = 0.5 0.5 0.5\nu0.bump.0.width = 0.2\n"
        )
        scn, out = tmp_path / "scn.txt", tmp_path / "out"
        scn.write_text(text)
        if command == "resume":
            main(["run", "--scenario", str(scn), "--out", str(out),
                  "--until", "2steps", "--checkpoint-every", "1"])
        scn.write_text(text + "flow.fixed_dt = 1e30\nflow.t_max = 1e30\n")
        capsys.readouterr()
        rc = main([command, "--scenario", str(scn), "--out", str(out), "--until", "4steps"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"FAIL {command}: positivity collapse")

    def test_scenario_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("grid.n = 3\n")
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestDeterminism:
    def test_threads_flag_does_not_change_bytes(self, tmp_path, constant_scn):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--scenario", str(constant_scn), "--out", str(out1),
              "--until", "60steps", "--threads", "1"])
        main(["run", "--scenario", str(constant_scn), "--out", str(out2),
              "--until", "60steps", "--threads", "4"])
        assert (out1 / CSV_NAME).read_bytes() == (out2 / CSV_NAME).read_bytes()
        assert (out1 / FINAL_U).read_bytes() == (out2 / FINAL_U).read_bytes()

    @pytest.mark.parametrize("every", ["25", "7"])
    def test_resume_is_bitwise_invisible(self, tmp_path, constant_scn, every):
        """At 7 the last checkpoint, at step 49, is neither the stop nor a record step."""
        ref = tmp_path / "ref"
        main(["run", "--scenario", str(constant_scn), "--out", str(ref), "--until", "80steps"])

        split = tmp_path / "split"
        main(["run", "--scenario", str(constant_scn), "--out", str(split),
              "--until", "50steps", "--checkpoint-every", every])
        main(["resume", "--scenario", str(constant_scn), "--out", str(split),
              "--until", "80steps"])
        assert (split / CSV_NAME).read_bytes() == (ref / CSV_NAME).read_bytes()
        assert (split / FINAL_U).read_bytes() == (ref / FINAL_U).read_bytes()
        assert (split / SUMMARY_NAME).read_bytes() == (ref / SUMMARY_NAME).read_bytes()

    def test_resume_to_the_checkpoint_step(self, tmp_path):
        """A stop equal to the checkpoint step ends cleanly, as if the run had stopped there."""
        scn = tmp_path / "scn.txt"
        scn.write_text(CONSTANT.replace("8 8 8", "6 6 6").replace("= 20", "= 5"))
        ref, split = tmp_path / "ref", tmp_path / "split"
        main(["run", "--scenario", str(scn), "--out", str(ref), "--until", "30steps"])
        main(["run", "--scenario", str(scn), "--out", str(split),
              "--until", "40steps", "--checkpoint-every", "10"])
        assert main(["resume", "--scenario", str(scn), "--out", str(split), "--until", "30steps"]) == 0
        for name in (CSV_NAME, FINAL_U, SUMMARY_NAME):
            assert (split / name).read_bytes() == (ref / name).read_bytes()

    def test_run_removes_an_earlier_checkpoint(self, tmp_path):
        """A checkpoint of an earlier run in ``--out`` does not outlive a new ``run``."""
        text = CONSTANT.replace("8 8 8", "6 6 6").replace("= 20", "= 5") + (
            "u0.bump.0.amplitude = 0.1\nu0.bump.0.center = 0.5 0.5 0.5\nu0.bump.0.width = 0.2\n"
        )
        a, b, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "out"
        a.write_text(text)
        b.write_text(text.replace("amplitude = 0.1", "amplitude = 0.3"))
        main(["run", "--scenario", str(a), "--out", str(out),
              "--until", "40steps", "--checkpoint-every", "10"])
        assert (out / snapshots.CHECKPOINT_U).exists()
        assert main(["run", "--scenario", str(b), "--out", str(out), "--until", "60steps"]) == 0
        assert not (out / snapshots.CHECKPOINT_U).exists()
        assert not (out / snapshots.CHECKPOINT_STATE).exists()
        assert main(["resume", "--scenario", str(b), "--out", str(out), "--until", "80steps"]) == 2

    def test_resume_refuses_an_interrupted_checkpoint(self, tmp_path, constant_scn, capsys,
                                                      monkeypatch):
        """A resume stopped between a checkpoint's field and its sidecar leaves a pair that
        the next resume refuses, not a field of one step under the sidecar of the step before."""
        out = tmp_path / "out"
        main(["run", "--scenario", str(constant_scn), "--out", str(out),
              "--until", "10steps", "--checkpoint-every", "1"])
        write_sidecar, calls = snapshots.write_sidecar, []

        def interrupted_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            write_sidecar(*args)

        monkeypatch.setattr(snapshots, "write_sidecar", interrupted_second)
        with pytest.raises(KeyboardInterrupt):
            main(["resume", "--scenario", str(constant_scn), "--out", str(out),
                  "--until", "20steps", "--checkpoint-every", "1"])
        monkeypatch.undo()
        capsys.readouterr()
        rc = main(["resume", "--scenario", str(constant_scn), "--out", str(out),
                   "--until", "20steps", "--checkpoint-every", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("scenario error: cannot resume")

    @pytest.mark.parametrize(
        "case",
        ["grid_mismatch", "no_checkpoint", "no_csv", "short_csv", "stop_passed", "sidecar_t_nan",
         "sidecar_last_record_inf", "sidecar_last_record_past_step", "u_not_positive",
         "records_written_zero", "records_written_past", "record_every_changed",
         "csv_header_changed"],
    )
    def test_resume_refuses_unusable_checkpoint(self, tmp_path, constant_scn, capsys, case):
        out = tmp_path / "out"
        every = "0" if case == "no_checkpoint" else "5"
        until = "10steps"
        if case == "stop_passed":  # the last checkpoint is at step 30, past the stop at 20
            every, until = "10", "40steps"
        main(["run", "--scenario", str(constant_scn), "--out", str(out),
              "--until", until, "--checkpoint-every", every])
        scn = constant_scn
        if case == "grid_mismatch":
            scn = tmp_path / "small.txt"
            scn.write_text(CONSTANT.replace("grid.sizes = 8 8 8", "grid.sizes = 6 6 6"))
        elif case == "no_csv":
            (out / CSV_NAME).unlink()
        elif case == "short_csv":  # the header only; the checkpoint counts the step-0 record
            header = (out / CSV_NAME).read_text().splitlines()[0]
            (out / CSV_NAME).write_text(header + "\n")
        elif case.startswith(("sidecar_", "records_")):  # at step 5, counting the step-0 record
            sidecar = out / snapshots.CHECKPOINT_STATE
            state = snapshots.read_sidecar(sidecar, None)
            if case == "sidecar_t_nan":
                state = dataclasses.replace(state, t=math.nan)
            elif case == "sidecar_last_record_inf":
                state = dataclasses.replace(state, last_record_step=math.inf)
            elif case == "sidecar_last_record_past_step":
                state = dataclasses.replace(state, last_record_step=state.step + 1)
            else:  # the CSV holds 2 records: step 0 and the outcome at step 10
                records = 0 if case == "records_written_zero" else 2
                state = dataclasses.replace(state, records_written=records)
            snapshots.write_sidecar(sidecar, state)
        elif case == "record_every_changed":  # every 2 steps gives 3 records by step 5, not 1
            scn = tmp_path / "changed.txt"
            scn.write_text(CONSTANT.replace("record_every = 20", "record_every = 2"))
        elif case == "csv_header_changed":  # the header names an order off the ladder
            lines = (out / CSV_NAME).read_text().splitlines(keepends=True)
            lines[0] = lines[0].replace("residual_l4.5", "residual_l3")
            (out / CSV_NAME).write_text("".join(lines))
        elif case == "u_not_positive":
            u = snapshots.read_field(out / snapshots.CHECKPOINT_U)
            values = u.values.copy()
            values.flat[7] = -0.5
            snapshots.write_field(out / snapshots.CHECKPOINT_U, yf.ScalarField(u.grid, values))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        rc = main(["resume", "--scenario", str(scn), "--out", str(out), "--until", "20steps"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("scenario error:")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestEigenCommand:
    def test_prints_eigenpair(self, tmp_path, trapped_scn, capsys):
        rc = main(["eigen", "--scenario", str(trapped_scn)])
        assert rc == 0
        out = capsys.readouterr().out
        lam = float(dict(l.split(" = ") for l in out.strip().splitlines())["lambda"])
        assert lam > 0.0

    def test_writes_eigenfunction(self, tmp_path, trapped_scn):
        out = tmp_path / "eig"
        main(["eigen", "--scenario", str(trapped_scn), "--out", str(out)])
        phi = snapshots.read_field(out / "phi.yflo")
        assert phi.max() == 1.0

    @pytest.mark.parametrize("option", ["--tol=0", "--tol=-1"], ids=["tol_0", "tol_-1"])
    def test_bad_tol_is_usage_error(self, trapped_scn, capsys, option):
        with pytest.raises(SystemExit) as info:
            main(["eigen", "--scenario", str(trapped_scn), option])
        assert info.value.code == 2
        assert "argument --tol" in capsys.readouterr().err


# conftest.two_bump_background as a scenario: two components of Omega, eigenvalues 1816.008 and 1816.851.
TWO_BUMP = """
grid.n = 3
grid.sizes = 8 8 8
grid.lengths = 1 1 1
r0.constant = -1.0
r0.bump.0.amplitude = -1.0
r0.bump.0.center = 0.75 0.5 0.5
r0.bump.0.width = 0.15
f.constant = -1.0
f.bump.0.amplitude = 0.9
f.bump.0.center = 0.25 0.5 0.5
f.bump.0.width = 0.15
f.bump.1.amplitude = 0.9
f.bump.1.center = 0.75 0.5 0.5
f.bump.1.width = 0.15
u0.constant = 1.0
omega.type = superlevel
omega.eps = 0.5
"""


class TestTwoBumpOmega:
    """Nearly equal eigenvalues on two components: both commands converge and exit 0."""

    @pytest.fixture
    def two_bump_scn(self, tmp_path):
        path = tmp_path / "two_bump.txt"
        path.write_text(TWO_BUMP)
        return path

    def test_eigen(self, two_bump_scn, capsys):
        assert main(["eigen", "--scenario", str(two_bump_scn)]) == 0
        printed = dict(l.split(" = ") for l in capsys.readouterr().out.strip().splitlines())
        assert float(printed["lambda"]) == pytest.approx(1816.00791898, rel=1e-10)

    def test_check(self, two_bump_scn, capsys):
        assert main(["check", "--scenario", str(two_bump_scn)]) == 0
        out = capsys.readouterr().out
        assert "h1 = PASS" in out and "h2 = PASS" in out


class TestCheckCommand:
    def test_trapped_passes(self, trapped_scn, capsys):
        rc = main(["check", "--scenario", str(trapped_scn)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "h1 = PASS" in out and "h2 = PASS" in out

    def test_oversized_bump_fails(self, tmp_path, capsys):
        text = TRAPPED.replace("amplitude = 1.005", "amplitude = 1.2")
        path = tmp_path / "big.txt"
        path.write_text(text)
        rc = main(["check", "--scenario", str(path)])
        assert rc == 1
        assert "h2 = FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "dilation, same_as",
        [(10**9, 2), (2**63 - 2, 10**6), (2**63 - 1, None), (10**20, None)],
        ids=["1e9", "2**63-2", "2**63-1", "1e20"],
    )
    def test_dilation_past_the_torus(self, tmp_path, capsys, dilation, same_as):
        """On 6^3 two cells grow the ball to the whole torus; more cells give the same D, fast.

        The distance array holds ``dilation + 1`` as an int64, so a larger one exits 2
        (``same_as`` None).
        """

        def check(dilation):
            path = tmp_path / f"ball_{dilation}.txt"
            keys = f"supersolution.dilation = {dilation}\nsupersolution.band = 1\n"
            path.write_text(CONSTANT.replace("8 8 8", "6 6 6") + BALL + keys)
            return main(["check", "--scenario", str(path)]), capsys.readouterr()

        rc, printed = check(dilation)
        if same_as is None:
            assert rc == 2
            assert printed.err.startswith("scenario error:")
        else:
            assert (rc, printed.out) == (0, check(same_as)[1].out)

    def test_takes_no_out(self, tmp_path, trapped_scn, capsys):
        """``check`` writes nothing, so ``--out`` is a usage error, and no directory appears."""
        with pytest.raises(SystemExit) as info:
            main(["check", "--scenario", str(trapped_scn), "--out", str(tmp_path / "o")])
        assert info.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestSupersolutionCommand:
    def test_writes_certificate(self, tmp_path, trapped_scn):
        import json

        out = tmp_path / "cert"
        rc = main(["supersolution", "--scenario", str(trapped_scn), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "certificate.json").read_text())
        assert payload["delta_lo"] <= payload["delta"] <= payload["delta_hi"]
        assert payload["min_l_ubar"] >= -1e-9
        ubar = snapshots.read_field(out / "ubar.yflo")
        assert ubar.min() > 0.0

    @pytest.mark.parametrize("text, nulls", [
        (BALL_AT_ZERO_PEAK, ["delta_hi"]),  # sup_Omega f = 0
        (CONSTANT, ["lambda_d", "delta_hi"]),  # the empty Omega
    ], ids=["ball-at-peak", "empty-omega"])
    def test_infinite_fields_are_written_null(self, tmp_path, capsys, text, nulls):
        """``certificate.json`` is strict JSON: a field that is infinite is ``null``."""
        path = tmp_path / "s.txt"
        path.write_text(text)
        out = tmp_path / "cert"
        assert main(["supersolution", "--scenario", str(path), "--out", str(out)]) == 0
        assert ", inf], min L(ubar)" in capsys.readouterr().out

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads((out / "certificate.json").read_text(), parse_constant=refuse)
        assert [k for k, v in payload.items() if v is None] == nulls
        assert all(math.isfinite(v) for v in payload.values() if v is not None)

    def test_failure_exit_code(self, tmp_path, capsys):
        text = TRAPPED.replace("amplitude = 1.005", "amplitude = 1.2")
        path = tmp_path / "big.txt"
        path.write_text(text)
        rc = main(["supersolution", "--scenario", str(path), "--out", str(tmp_path / "c")])
        assert rc == 1


# The Omega of conftest.slab_background, with f read from a snapshot.
SLAB = """
grid.n = 3
grid.sizes = 32 8 8
grid.lengths = 32 8 8
r0.constant = -1.0
f.snapshot = f.yflo
u0.constant = 1.0
omega.type = slab
omega.axis = 0
omega.lo = 12
omega.hi = 19
"""


BALL = """
omega.type = ball
omega.center = 0.5 0.5 0.5
omega.radius = 0.3
"""


class TestComputationFailure:
    """A computation that runs and fails prints ``FAIL <command>: ...`` and exits 1."""

    def test_empty_window_on_slab(self, tmp_path, capsys):
        """sup_Omega f = 0.05 > 0 while lambda_D < 0: no scaling delta exists."""
        snapshots.write_field(tmp_path / "f.yflo", slab_background(0.05)[0].f)
        (tmp_path / "slab.txt").write_text(SLAB)
        argv = ["supersolution", "--scenario", str(tmp_path / "slab.txt")]
        assert main(argv + ["--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.startswith("FAIL supersolution: empty delta window")

    @pytest.mark.parametrize(
        "command, stream, expected",
        [("check", "out", "h1 = FAIL"), ("supersolution", "err", "FAIL supersolution: eigenvalue")],
        ids=["check", "supersolution"],
    )
    def test_f_zero_outside_omega(self, tmp_path, capsys, command, stream, expected):
        """inf_outside |f| = 0 fails H1; neither command divides by it."""
        scn = tmp_path / "flat.txt"
        scn.write_text(CONSTANT.replace("f.constant = -1.0", "f.constant = 0.0") + BALL)
        out = ["--out", str(tmp_path / "c")] if command == "supersolution" else []
        assert main([command, "--scenario", str(scn)] + out) == 1
        assert expected in getattr(capsys.readouterr(), stream)

    @pytest.mark.parametrize("command", ["eigen", "check", "supersolution"])
    def test_failed_eigen_solve(self, tmp_path, trapped_scn, capsys, monkeypatch, command):
        monkeypatch.setattr(spectral, "cg", lambda op, b, **kwargs: (b.copy(), 1))
        out = [] if command == "check" else ["--out", str(tmp_path / "o")]
        assert main([command, "--scenario", str(trapped_scn)] + out) == 1
        assert capsys.readouterr().err.startswith(f"FAIL {command}: inner CG")

    def test_unverified_barrier(self, tmp_path, trapped_scn, capsys, monkeypatch):
        monkeypatch.setattr(hypotheses, "verify_supersolution", lambda bg, ubar: -1.0)
        argv = ["supersolution", "--scenario", str(trapped_scn), "--out", str(tmp_path / "c")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "FAIL supersolution: supersolution verification failed"
        )


class TestVerifyCommand:
    def test_passes_on_stored_run(self, tmp_path, constant_scn, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(constant_scn), "--out", str(out), "--until", "300steps"])
        rc = main(["verify", "--scenario", str(constant_scn), "--out", str(out)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "PASS energy_monotone" in printed
        assert "PASS envelopes" in printed
        assert "PASS dissipation_identity" in printed

    def test_envelope_past_the_float_range(self, tmp_path, capsys):
        """C1 t passes 709.78 at t = 3000 here: the envelope is +inf there, not a traceback."""
        scn = tmp_path / "long.txt"
        scn.write_text(
            CONSTANT.replace("8 8 8", "4 4 4").replace("1 1 1", "100 100 100")
            .replace("-2.0", "-1").replace("f.constant = -1.0", "f.constant = -0.001")
            .replace("record_every = 20", "record_every = 1") + "flow.t_max = 3000\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--scenario", str(scn), "--out", str(out)]) == 0
        assert "PASS envelopes (0 violations)" in capsys.readouterr().out.splitlines()

    def test_says_why_checks_are_skipped(self, tmp_path, constant_scn, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(constant_scn), "--out", str(out), "--until", "40steps"])
        capsys.readouterr()
        rc = main(["verify", "--scenario", str(constant_scn), "--out", str(out)])
        printed = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert "SKIP dissipation_identity: 3 records, need 10" in printed
        assert "SKIP decay: outcome timeout, not converged" in printed

    @pytest.mark.parametrize(
        "case",
        ["no_csv", "no_summary", "non_numeric_row", "header_only", "summary_line_no_equals",
         "summary_no_outcome"],
    )
    def test_refuses_unreadable_run(self, tmp_path, constant_scn, capsys, case):
        out = tmp_path / "out"
        main(["run", "--scenario", str(constant_scn), "--out", str(out), "--until", "40steps"])
        csv, summary = out / CSV_NAME, out / SUMMARY_NAME
        lines = csv.read_text().splitlines()
        if case == "no_csv":
            csv.unlink()
        elif case == "no_summary":
            summary.unlink()
        elif case == "non_numeric_row":
            csv.write_text("\n".join(lines[:-1] + [lines[-1].replace(",", ",x", 1)]) + "\n")
        elif case == "header_only":
            csv.write_text(lines[0] + "\n")
        elif case == "summary_line_no_equals":
            summary.write_text(summary.read_text() + "garbage\n")
        else:
            summary.write_text(summary.read_text().replace("outcome = ", "result = "))
        capsys.readouterr()
        assert main(["verify", "--scenario", str(constant_scn), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("scenario error:")

    @pytest.mark.parametrize("option", ["--dissipation-tol", "--decay-threshold"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_bad_tolerance_is_usage_error(self, tmp_path, constant_scn, capsys, option, value):
        out = tmp_path / "out"
        main(["run", "--scenario", str(constant_scn), "--out", str(out), "--until", "40steps"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["verify", "--scenario", str(constant_scn), "--out", str(out), f"{option}={value}"])
        assert info.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    def test_fails_on_tampered_energy(self, tmp_path, constant_scn, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", str(constant_scn), "--out", str(out), "--until", "300steps"])
        csv = out / CSV_NAME
        lines = csv.read_text().splitlines()
        cols = lines[-1].split(",")
        cols[2] = "1e9"  # energy column
        lines[-1] = ",".join(cols)
        csv.write_text("\n".join(lines) + "\n")
        rc = main(["verify", "--scenario", str(constant_scn), "--out", str(out)])
        assert rc == 1
        assert "FAIL energy_monotone" in capsys.readouterr().out

    def test_converged_run_output_is_pinned(self, tmp_path, capsys):
        scn, out = converged_run(tmp_path)
        capsys.readouterr()
        assert main(["verify", "--scenario", str(scn), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "PASS energy_monotone\n"
            "PASS envelopes (0 violations)\n"
            "PASS dissipation_identity error=9.029e-04\n"
            "PASS decay\n"
        )

    @pytest.mark.parametrize(
        "column, value, expected",
        [
            ("min_u", "0.5", "FAIL envelopes (1 violations)"),  # the lower barrier is min u0 = 1
            ("dissipation_cum", "10", "FAIL dissipation_identity error="),
            ("residual_l2", "1e-3", "FAIL decay"),
        ],
        ids=["envelopes", "dissipation_identity", "decay"],
    )
    def test_fails_on_tampered_converged_run(self, tmp_path, capsys, column, value, expected):
        """Each check fails on its own when the last record of a converged run is tampered with."""
        scn, out = converged_run(tmp_path)
        lines = (out / CSV_NAME).read_text().splitlines()
        cols = lines[-1].split(",")
        cols[lines[0].split(",").index(column)] = value
        lines[-1] = ",".join(cols)
        (out / CSV_NAME).write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--scenario", str(scn), "--out", str(out)]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith(expected)


def converged_run(tmp_path):
    """The scenario file and output directory of a stored run of CONVERGING, 14 records long."""
    scn, out = tmp_path / "converging.txt", tmp_path / "out"
    scn.write_text(CONVERGING)
    assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
    assert parse_kv((out / SUMMARY_NAME).read_text())["outcome"] == "converged"
    assert len((out / CSV_NAME).read_text().splitlines()) == 1 + 14
    return scn, out


# Scenario lines laid over CONSTANT, by case id: each must exit 2.
BOUNDARY_CASES = {
    "seed": "seed = x",
    "record_every": "flow.record_every = x",
    "bump_index": "f.bump.a.amplitude = 1.0",
    "ball_without_radius": "omega.type = ball\nomega.center = 0.5 0.5 0.5",
    "omega_eps": "omega.type = superlevel\nomega.eps = x",
    "bump_center": "f.bump.0.amplitude = 1.0\nf.bump.0.width = 0.1\nf.bump.0.center = a b c",
    "cfl_fraction": "flow.cfl_fraction = 2",
    "supersolution_dilation": "supersolution.dilation = x",
    "supersolution_band": "supersolution.band = x",
    "supersolution_dilation_zero": "supersolution.dilation = 0",
    "supersolution_band_over_dilation": "supersolution.dilation = 2\nsupersolution.band = 3",
    "fixed_dt_nan": "flow.fixed_dt = nan",
    "fixed_dt_inf": "flow.fixed_dt = inf",
    "t_max_nan": "flow.t_max = nan",
    "residual_stop_nan": "flow.residual_stop = nan",
    "blowup_ceiling_nan": "flow.blowup_ceiling = nan",
    "f_constant_nan": "f.constant = nan",
    "r0_constant_neg_inf": "r0.constant = -inf",
    "noise_amplitude_nan": "u0.noise.amplitude = nan",
    "bump_width_nan": "f.bump.0.amplitude = 0.5\nf.bump.0.center = 0.5 0.5 0.5\nf.bump.0.width = nan",
    "bump_width_underflow": "f.bump.0.amplitude = 0.5\nf.bump.0.center = 0.5 0.5 0.5\n"
    "f.bump.0.width = 1e-200",  # 2 width^2 underflows to 0
    "grid_length_nan": "grid.lengths = 1 nan 1",
    "grid_h2_subnormal": "grid.lengths = 1e-160 1e-160 1e-160",  # 2/h^2 overflows
    "grid_h2_infinite": "grid.lengths = 1e300 1e300 1e300",
    "grid_cell_volume_zero": "grid.lengths = 1e-110 1e-110 1e-110",  # h^3 underflows
    "snapshot_missing": "u0.snapshot = missing.yflo",
    "snapshot_truncated": "u0.snapshot = truncated.yflo",
    "snapshot_other_grid": "u0.snapshot = other_grid.yflo",
    "omega_type_blob": "omega.type = blob",
    "omega_eps_nan": "omega.type = superlevel\nomega.eps = nan",
    "omega_radius_neg_inf": "omega.type = ball\nomega.center = 0.5 0.5 0.5\nomega.radius = -inf",
    "omega_axis_neg": "omega.type = slab\nomega.axis = -1\nomega.lo = 0.2\nomega.hi = 0.6",
    "omega_axis_past_n": "omega.type = slab\nomega.axis = 3\nomega.lo = 0.2\nomega.hi = 0.6",
    "omega_lo_nan": "omega.type = slab\nomega.axis = 0\nomega.lo = nan\nomega.hi = 0.6",
    "omega_center_nan": "omega.type = ball\nomega.center = 0.5 nan 0.5\nomega.radius = 0.3",
    "flow_key_misspelled": "flow.tmax = 5",
    "flow_lp_orders": "flow.lp_orders = 2 3",
    "flow_max_steps": "flow.max_steps = 10",
    "supersolution_key_misspelled": "supersolution.dilaton = 3",
    "omega_key_of_another_type": "omega.type = ball\nomega.center = 0.5 0.5 0.5\n"
    "omega.radius = 0.3\nomega.eps = 0.5",
    "noise_beside_snapshot": "u0.snapshot = same_grid.yflo\nu0.noise.amplitude = 0.01",
}

# The boundary cases that load at face value but leave a key unread, with that key.
UNREAD_KEYS = {
    "flow_key_misspelled": "flow.tmax",
    "flow_lp_orders": "flow.lp_orders",
    "flow_max_steps": "flow.max_steps",
    "supersolution_key_misspelled": "supersolution.dilaton",
    "omega_key_of_another_type": "omega.eps",
    "noise_beside_snapshot": "u0.noise.amplitude",
}


def write_bad_scenario(tmp_path, lines):
    """CONSTANT with ``lines`` laid over it, beside the snapshots the cases name."""
    other = tmp_path / "other_grid.yflo"
    snapshots.write_field(other, yf.ScalarField.constant(unit_grid(6), 1.0))
    snapshots.write_field(tmp_path / "same_grid.yflo", yf.ScalarField.constant(unit_grid(8), 1.0))
    (tmp_path / "truncated.yflo").write_bytes(other.read_bytes()[:100])
    kv = parse_kv(CONSTANT) | parse_kv(lines)
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(f"{key} = {value}\n" for key, value in kv.items()))
    return bad


boundary_cases = pytest.mark.parametrize(
    "lines", list(BOUNDARY_CASES.values()), ids=list(BOUNDARY_CASES)
)


class TestScenarioBoundary:
    """Every command loads and checks the whole scenario, the subdomain included."""

    @pytest.mark.parametrize("command", ["run", "eigen", "supersolution"])
    def test_out_that_is_a_file_exits_2(self, tmp_path, constant_scn, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        assert main([command, "--scenario", str(constant_scn), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: cannot create the output directory")
        assert str(taken) in err
        assert taken.read_text() == "a file, not a directory\n"

    @pytest.mark.parametrize(
        "command, name",
        [("run", CSV_NAME), ("run", FINAL_U), ("run", SUMMARY_NAME),
         ("run", snapshots.CHECKPOINT_U), ("eigen", "phi.yflo"),
         ("supersolution", "ubar.yflo"), ("supersolution", "certificate.json")],
    )
    def test_output_that_cannot_be_written_exits_2(self, tmp_path, trapped_scn, capsys,
                                                   command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)  # a directory where the command writes a file
        argv = [command, "--scenario", str(trapped_scn), "--out", str(out)]
        assert main(argv + (["--until", "2steps"] if command == "run" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:")
        assert str(out / name) in err

    @boundary_cases
    def test_malformed_input_exits_2(self, tmp_path, capsys, lines):
        bad = write_bad_scenario(tmp_path, lines)
        assert main(["eigen", "--scenario", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("scenario error:")

    @boundary_cases
    def test_malformed_input_exits_2_on_run(self, tmp_path, capsys, lines):
        bad = write_bad_scenario(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(bad), "--out", str(out), "--until", "1steps"]) == 2
        assert capsys.readouterr().err.startswith("scenario error:")
        assert not out.exists()

    @pytest.mark.parametrize("case", list(UNREAD_KEYS))
    def test_unread_key_is_named(self, tmp_path, capsys, case):
        """A key no reader consumes exits 2 on every command, naming the key."""
        bad = write_bad_scenario(tmp_path, BOUNDARY_CASES[case])
        out = tmp_path / "out"
        for argv in (["eigen"], ["run", "--out", str(out), "--until", "1steps"]):
            assert main(argv + ["--scenario", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("scenario error: unknown or unused keys:")
            assert UNREAD_KEYS[case] in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "resume", "eigen", "check", "supersolution", "verify"])
    def test_lp_orders_key_exits_2(self, tmp_path, capsys, command):
        """The Lp ladder is fixed: no command reads ``flow.lp_orders``, so each names it and exits 2."""
        bad = write_bad_scenario(tmp_path, BOUNDARY_CASES["flow_lp_orders"])
        out = tmp_path / "out"
        argv = [command, "--scenario", str(bad)] + ([] if command == "check" else ["--out", str(out)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: unknown or unused keys: flow.lp_orders")
        assert not out.exists()

    def test_overflowing_noise_exits_2(self, tmp_path, capsys):
        """1e308 noise overflows to inf, which numpy warns about before the field check."""
        bad = write_bad_scenario(tmp_path, "u0.noise.amplitude = 1e308")
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "NonFiniteFieldError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines",
        [
            "u0.constant = 1e-100\nu0.noise.amplitude = 1e-102",
            "u0.constant = 1e80\nu0.noise.amplitude = 1e78\nflow.blowup_ceiling = 1e300",
            "u0.constant = 1e80\nu0.noise.amplitude = 1e78\nflow.blowup_ceiling = 1e300\n"
            "f.bump.0.amplitude = 2.0\nf.bump.0.center = 0.5 0.5 0.5\nf.bump.0.width = 0.2",
        ],
        ids=["curvature_overflows", "weight_overflows", "energy_inf_minus_inf"],
    )
    def test_non_finite_state_fails_run(self, tmp_path, capsys, lines):
        """u^-N in the curvature or the weight u^(N+1) overflows at step 0: a failed run.

        No numpy warning (pytest makes one an error) and no record: the CSV keeps its header only.
        """
        bad = write_bad_scenario(tmp_path, lines)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(bad), "--out", str(out), "--until", "3steps"]) == 1
        assert capsys.readouterr().err.startswith("FAIL run: non-finite state at min u = ")
        assert (out / CSV_NAME).read_text().splitlines() == [_csv_header((2.0, 1.5, 4.5))]
