"""scipy loads only for an eigen solve: importing the package and the flow commands leave it out.

Each case runs in a fresh interpreter, since this test process has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCENARIO = """
grid.n = 3
grid.sizes = 4 4 4
grid.lengths = 1 1 1
r0.constant = -1.0
f.constant = -1.0
f.bump.0.amplitude = 0.5
f.bump.0.center = 0.5 0.5 0.5
f.bump.0.width = 0.2
u0.constant = 1.0
flow.record_every = 1
omega.type = ball
omega.center = 0.5 0.5 0.5
omega.radius = 0.3
"""


def modules_loaded(code: str, cwd: Path, *modules: str) -> list[bool]:
    """Run ``code`` in a fresh interpreter with ``src/`` on the path; which of ``modules`` did it
    import?"""
    script = f"import sys\n{code}\nprint(*(name in sys.modules for name in {modules!r}))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return [word == "True" for word in proc.stdout.split()[-len(modules) :]]


def scipy_loaded(code: str, cwd: Path) -> bool:
    """Did ``code``, run as by ``modules_loaded``, import scipy?"""
    return modules_loaded(code, cwd, "scipy")[0]


@pytest.mark.parametrize("module", ["yamabeflow", "yamabeflow.cli"])
def test_import_leaves_scipy_out(tmp_path, module):
    assert not scipy_loaded(f"import {module}", tmp_path)


@pytest.fixture
def scenario(tmp_path):
    (tmp_path / "s.txt").write_text(SCENARIO)
    return tmp_path


def _cli(*argv: str) -> str:
    return f"from yamabeflow.cli import main\nassert main({list(argv)!r}) == 0"


RUN = _cli("run", "--scenario", "s.txt", "--out", "o", "--until", "3steps")


def test_run_leaves_scipy_out(scenario):
    assert not scipy_loaded(RUN, scenario)
    assert len((scenario / "o" / "trajectory.csv").read_text().splitlines()) == 5  # header, 0..3


def test_verify_leaves_scipy_out(scenario):
    assert not scipy_loaded(RUN, scenario)
    assert not scipy_loaded(_cli("verify", "--scenario", "s.txt", "--out", "o"), scenario)


def test_eigen_loads_scipy_and_succeeds(scenario):
    assert scipy_loaded(_cli("eigen", "--scenario", "s.txt"), scenario)


@pytest.mark.parametrize(
    "argv", [["eigen"], ["check"], ["supersolution", "--out", "o"]], ids=lambda argv: argv[0]
)
def test_eigen_commands_load_scipy_sparse_but_not_its_linalg(scenario, argv):
    """The eigen solve runs its own CG on a ``scipy.sparse`` matrix, whatever the exit code."""
    code = f"from yamabeflow.cli import main\nmain({[argv[0], '--scenario', 's.txt', *argv[1:]]!r})"
    loaded = modules_loaded(code, scenario, "scipy.sparse", "scipy.sparse.linalg")
    assert loaded == [True, False]
