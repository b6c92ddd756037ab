import numpy as np
import pytest

import yamabeflow as yf
from yamabeflow import snapshots
from yamabeflow.cli import CSV_NAME, FINAL_U, SUMMARY_NAME, main


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

    def test_resume_is_bitwise_invisible(self, tmp_path, constant_scn):
        ref = tmp_path / "ref"
        main(["run", "--scenario", str(constant_scn), "--out", str(ref), "--until", "80steps"])

        split = tmp_path / "split"
        main(["run", "--scenario", str(constant_scn), "--out", str(split),
              "--until", "50steps", "--checkpoint-every", "25"])
        main(["resume", "--scenario", str(constant_scn), "--out", str(split),
              "--until", "80steps"])
        assert (split / CSV_NAME).read_bytes() == (ref / CSV_NAME).read_bytes()
        assert (split / FINAL_U).read_bytes() == (ref / FINAL_U).read_bytes()
        assert (split / SUMMARY_NAME).read_bytes() == (ref / SUMMARY_NAME).read_bytes()

    @pytest.mark.parametrize("case", ["grid_mismatch", "no_checkpoint", "no_csv", "short_csv"])
    def test_resume_refuses_unusable_checkpoint(self, tmp_path, constant_scn, capsys, case):
        out = tmp_path / "out"
        every = "0" if case == "no_checkpoint" else "5"
        main(["run", "--scenario", str(constant_scn), "--out", str(out),
              "--until", "10steps", "--checkpoint-every", every])
        scn = constant_scn
        if case == "grid_mismatch":
            scn = tmp_path / "small.txt"
            scn.write_text(CONSTANT.replace("grid.sizes = 8 8 8", "grid.sizes = 6 6 6"))
        elif case == "no_csv":
            (out / CSV_NAME).unlink()
        elif case == "short_csv":  # the header only; the checkpoint counts the step-0 record
            header = (out / CSV_NAME).read_text().splitlines()[0]
            (out / CSV_NAME).write_text(header + "\n")
        capsys.readouterr()
        rc = main(["resume", "--scenario", str(scn), "--out", str(out), "--until", "20steps"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("scenario error:")


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

    def test_failure_exit_code(self, tmp_path, capsys):
        text = TRAPPED.replace("amplitude = 1.005", "amplitude = 1.2")
        path = tmp_path / "big.txt"
        path.write_text(text)
        rc = main(["supersolution", "--scenario", str(path), "--out", str(tmp_path / "c")])
        assert rc == 1


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


class TestScenarioBoundary:
    @pytest.mark.parametrize(
        "lines",
        [
            "seed = x",
            "flow.record_every = x",
            "f.bump.a.amplitude = 1.0",
            "omega.type = ball\nomega.center = 0.5 0.5 0.5",
            "omega.type = superlevel\nomega.eps = x",
            "f.bump.0.amplitude = 1.0\nf.bump.0.width = 0.1\nf.bump.0.center = a b c",
            "flow.cfl_fraction = 2",
            "supersolution.dilation = x",
            "supersolution.band = x",
            "supersolution.dilation = 0",
            "supersolution.dilation = 2\nsupersolution.band = 3",
            "flow.fixed_dt = nan",
            "flow.fixed_dt = inf",
            "flow.t_max = nan",
            "flow.residual_stop = nan",
            "flow.blowup_ceiling = nan",
            "flow.lp_orders = 2 nan",
        ],
        ids=[
            "seed",
            "record_every",
            "bump_index",
            "ball_without_radius",
            "omega_eps",
            "bump_center",
            "cfl_fraction",
            "supersolution_dilation",
            "supersolution_band",
            "supersolution_dilation_zero",
            "supersolution_band_over_dilation",
            "fixed_dt_nan",
            "fixed_dt_inf",
            "t_max_nan",
            "residual_stop_nan",
            "blowup_ceiling_nan",
            "lp_orders_nan",
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, lines):
        bad = tmp_path / "bad.txt"
        # Drop the base's record_every so that case is not a duplicate key.
        bad.write_text(CONSTANT.replace("flow.record_every = 20\n", "") + lines + "\n")
        assert main(["eigen", "--scenario", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("scenario error:")
