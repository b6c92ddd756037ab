import dataclasses
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest

import yamabeflow as yf
from yamabeflow import hypotheses, scenario, snapshots
from yamabeflow.errors import ScenarioError
from yamabeflow.scenario import parse_kv

from conftest import unit_grid


BASE = """
name = demo
grid.n = 3
grid.sizes = 8 8 8
grid.lengths = 1 1 1
r0.constant = -1.0
f.constant = -1.0
u0.constant = 1.0
"""


def write_scenario(tmp_path, text, name="scn.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseKv:
    def test_basic(self):
        kv = parse_kv("a = 1\nb.c = two words  # trailing comment\n\n# full comment\n")
        assert kv == {"a": "1", "b.c": "two words"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_kv("a = 1\na = 2\n")
        assert "line 2" in str(exc.value)

    def test_missing_equals_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            parse_kv("a = 1\nnonsense\n")
        assert "line 2" in str(exc.value)

    def test_empty_key_rejected(self):
        with pytest.raises(ScenarioError):
            parse_kv(" = 3\n")


class TestLoadScenario:
    def test_minimal(self, tmp_path):
        scn = yf.load_scenario(write_scenario(tmp_path, BASE))
        assert scn.name == "demo"
        assert scn.grid.sizes == (8, 8, 8)
        assert scn.background.r0.max() == -1.0
        assert scn.u0.min() == 1.0
        assert scn.flow.t_max == 10.0
        assert scn.omega.is_empty

    def test_bump_field(self, tmp_path):
        text = BASE + (
            "f.bump.0.amplitude = 0.5\n"
            "f.bump.0.center = 0.5 0.5 0.5\n"
            "f.bump.0.width = 0.1\n"
        )
        scn = yf.load_scenario(write_scenario(tmp_path, text))
        f = scn.background.f
        assert f.max() == pytest.approx(-0.5, abs=1e-6)  # peak of the bump
        assert f.values[0, 0, 0] == pytest.approx(-1.0, abs=1e-6)

    def test_bump_width_whose_square_underflows_is_refused(self, tmp_path):
        text = BASE + "f.bump.0.amplitude = 0.5\nf.bump.0.center = 0.5 0.5 0.5\n"
        text += "f.bump.0.width = 1e-200\n"
        with pytest.raises(ScenarioError) as info:
            yf.load_scenario(write_scenario(tmp_path, text))
        assert str(info.value) == "f.bump.0.width = 1e-200: 2 width^2 underflows to 0"

    def test_narrowest_bump_width_loads_without_warning(self, tmp_path):
        """At width 1e-160, 2 width^2 is subnormal: the exponent overflows to -inf off the centre,
        where exp gives 0 exactly, so f is base + amplitude at the centre point, base elsewhere."""
        text = BASE + "f.bump.0.amplitude = 0.5\nf.bump.0.center = 0.5 0.5 0.5\n"
        text += "f.bump.0.width = 1e-160\n"
        f = yf.load_scenario(write_scenario(tmp_path, text)).background.f.values
        expected = np.full((8, 8, 8), -1.0)
        expected[4, 4, 4] = -0.5
        assert f.tobytes() == expected.tobytes()

    def test_noise_is_seed_deterministic(self, tmp_path):
        text = BASE + "seed = 5\nu0.noise.amplitude = 0.01\n"
        a = yf.load_scenario(write_scenario(tmp_path, text, "a.txt"))
        b = yf.load_scenario(write_scenario(tmp_path, text, "b.txt"))
        assert np.array_equal(a.u0.values, b.u0.values)
        c = yf.load_scenario(write_scenario(tmp_path, text.replace("seed = 5", "seed = 6"), "c.txt"))
        assert not np.array_equal(a.u0.values, c.u0.values)

    def test_snapshot_field(self, tmp_path):
        g = unit_grid(8)
        rng = np.random.default_rng(1)
        u = yf.ScalarField(g, 1.0 + rng.random(g.shape))
        snapshots.write_field(tmp_path / "u0.yflo", u)
        text = BASE.replace("u0.constant = 1.0", "u0.snapshot = u0.yflo")
        scn = yf.load_scenario(write_scenario(tmp_path, text))
        assert np.array_equal(scn.u0.values, u.values)

    def test_snapshot_grid_mismatch(self, tmp_path):
        g = unit_grid(4)
        snapshots.write_field(tmp_path / "u0.yflo", yf.ScalarField.constant(g, 1.0))
        text = BASE.replace("u0.constant = 1.0", "u0.snapshot = u0.yflo")
        with pytest.raises(ScenarioError):
            yf.load_scenario(write_scenario(tmp_path, text))

    def test_flow_overrides(self, tmp_path):
        text = BASE + (
            "flow.t_max = 2.5\nflow.cfl_fraction = 0.5\nflow.record_every = 3\n"
            "flow.residual_stop = 1e-8\n"
        )
        scn = yf.load_scenario(write_scenario(tmp_path, text))
        assert scn.flow.t_max == 2.5
        assert scn.flow.cfl_fraction == 0.5
        assert scn.flow.record_every == 3
        assert scn.flow.residual_stop == 1e-8

    def test_flow_defaults_are_flow_configs(self, tmp_path):
        """With no ``flow.*`` key the scenario's flow is ``FlowConfig()`` exactly."""
        assert yf.load_scenario(write_scenario(tmp_path, BASE)).flow == yf.FlowConfig()

    def test_flow_keys_are_flow_config_fields(self):
        """Each ``flow.*`` key names a FlowConfig field; only max_steps, set by ``--until``, has none.

        A key without a field would end in a TypeError that no error boundary catches.
        """
        fields = {f.name for f in dataclasses.fields(yf.FlowConfig)}
        assert set(scenario._FLOW_KEYS) == fields - {"max_steps"}

    def test_blend_defaults_are_the_librarys(self, tmp_path):
        """With no ``supersolution.*`` key the scenario passes the defaults of ``hypotheses``."""
        expected = {"dilation": hypotheses.DEFAULT_DILATION, "band": hypotheses.DEFAULT_BAND}
        assert yf.load_scenario(write_scenario(tmp_path, BASE)).supersolution == expected
        for func in (hypotheses.evaluate_hypotheses, hypotheses.build_supersolution):
            params = inspect.signature(func).parameters
            assert {key: params[key].default for key in expected} == expected

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            yf.load_scenario(tmp_path / "nope.txt")

    def test_missing_grid_key(self, tmp_path):
        with pytest.raises(ScenarioError):
            yf.load_scenario(write_scenario(tmp_path, "grid.n = 3\n"))

    def test_nonnegative_r0_rejected(self, tmp_path):
        text = BASE.replace("r0.constant = -1.0", "r0.constant = 0.5")
        with pytest.raises(ScenarioError):
            yf.load_scenario(write_scenario(tmp_path, text))

    def test_nonpositive_u0_rejected(self, tmp_path):
        text = BASE.replace("u0.constant = 1.0", "u0.constant = -1.0")
        with pytest.raises(ScenarioError):
            yf.load_scenario(write_scenario(tmp_path, text))


class TestOmegaMasks:
    def test_superlevel(self, tmp_path):
        text = BASE + (
            "f.bump.0.amplitude = 1.5\n"
            "f.bump.0.center = 0.5 0.5 0.5\n"
            "f.bump.0.width = 0.15\n"
            "omega.type = superlevel\nomega.eps = 0.5\n"
        )
        scn = yf.load_scenario(write_scenario(tmp_path, text))
        mask = scn.omega
        assert not mask.is_empty
        assert np.array_equal(mask.inside, scn.background.f.values > -0.5)

    def test_ball(self, tmp_path):
        text = BASE + "omega.type = ball\nomega.center = 0.5 0.5 0.5\nomega.radius = 0.25\n"
        scn = yf.load_scenario(write_scenario(tmp_path, text))
        mask = scn.omega
        assert mask.inside[4, 4, 4]
        assert not mask.inside[0, 0, 0]

    def test_slab(self, tmp_path):
        text = BASE + "omega.type = slab\nomega.axis = 0\nomega.lo = 0.25\nomega.hi = 0.75\n"
        scn = yf.load_scenario(write_scenario(tmp_path, text))
        mask = scn.omega
        x = scn.grid.meshgrid()[0]
        assert np.array_equal(mask.inside, (x > 0.25) & (x < 0.75))

    def test_full(self, tmp_path):
        text = BASE + "omega.type = full\n"
        scn = yf.load_scenario(write_scenario(tmp_path, text))
        assert scn.omega.count == 512

    def test_unknown_type(self, tmp_path):
        text = BASE + "omega.type = blob\n"
        with pytest.raises(ScenarioError):
            yf.load_scenario(write_scenario(tmp_path, text))

    @pytest.mark.parametrize("axis", ["-1", "3"])
    def test_slab_axis_out_of_range(self, tmp_path, axis):
        text = BASE + f"omega.type = slab\nomega.axis = {axis}\nomega.lo = 0.25\nomega.hi = 0.75\n"
        with pytest.raises(ScenarioError, match="omega.axis"):
            yf.load_scenario(write_scenario(tmp_path, text))

    @pytest.mark.parametrize("lo, hi", [("0.75", "0.25"), ("nan", "0.75")])
    def test_slab_bounds_must_be_ordered(self, tmp_path, lo, hi):
        text = BASE + f"omega.type = slab\nomega.axis = 0\nomega.lo = {lo}\nomega.hi = {hi}\n"
        with pytest.raises(ScenarioError, match="omega.lo"):
            yf.load_scenario(write_scenario(tmp_path, text))

    @pytest.mark.parametrize("radius", ["0", "-1", "nan", "-inf"])
    def test_ball_radius_must_be_positive(self, tmp_path, radius):
        text = BASE + f"omega.type = ball\nomega.center = 0.5 0.5 0.5\nomega.radius = {radius}\n"
        with pytest.raises(ScenarioError, match="omega.radius"):
            yf.load_scenario(write_scenario(tmp_path, text))


# A 6^3 scenario that sets every key family once.
FULL = """
name = full
grid.n = 3
grid.sizes = 6 6 6
grid.lengths = 1 1 1
seed = 3
r0.constant = -1.0
r0.bump.0.amplitude = -0.5
r0.bump.0.center = 0.5 0.5 0.5
r0.bump.0.width = 0.2
f.constant = -1.0
f.bump.0.amplitude = 0.5
f.bump.0.center = 0.5 0.5 0.5
f.bump.0.width = 0.2
f.noise.amplitude = 0.01
u0.constant = 1.0
u0.bump.0.amplitude = 0.1
u0.bump.0.center = 0.25 0.5 0.5
u0.bump.0.width = 0.2
u0.noise.amplitude = 0.01
flow.cfl_fraction = 0.5
flow.t_max = 1.0
flow.residual_stop = 1e-8
flow.blowup_ceiling = 1e6
flow.record_every = 5
flow.fixed_dt = 1e-4
omega.type = ball
omega.center = 0.5 0.5 0.5
omega.radius = 0.3
supersolution.dilation = 2
supersolution.band = 1
"""


class TestCorruptionSweep:
    def test_full_scenario_loads(self, tmp_path):
        scn = yf.load_scenario(write_scenario(tmp_path, FULL))
        assert scn.omega.count > 0
        assert scn.flow.fixed_dt == 1e-4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "x", ""])
    @pytest.mark.parametrize("key", list(parse_kv(FULL)))
    def test_corrupt_value_loads_or_raises_scenario_error(self, tmp_path, key, value):
        """One corrupted value either loads or raises ScenarioError; nothing else escapes.

        A blanked value is never read as absent: only ``name`` may be empty.
        """
        kv = parse_kv(FULL) | {key: value}
        path = write_scenario(tmp_path, "".join(f"{k} = {v}\n" for k, v in kv.items()))
        if value == "" and key != "name":
            with pytest.raises(ScenarioError):
                yf.load_scenario(path)
        else:
            try:
                yf.load_scenario(path)
            except ScenarioError:
                pass


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_scenario() -> str:
    """The scenario block of the README's "Command line" section."""
    section = README.read_text().split("## Command line", 1)[1]
    return section.split("```", 2)[1]


def _docstring_scenario() -> str:
    """The ``Example::`` block of the ``scenario`` module docstring."""
    return textwrap.dedent(scenario.__doc__.split("Example::", 1)[1])


@pytest.mark.parametrize(
    "example", [_readme_scenario, _docstring_scenario], ids=["readme", "docstring"]
)
def test_documented_scenario_loads(tmp_path, example):
    """Every key the docs show is one the loader reads, so the examples load as written."""
    scn = yf.load_scenario(write_scenario(tmp_path, example()))
    assert scn.name == "trapped-bump"
    assert not scn.omega.is_empty


def test_readme_library_block_runs(capsys):
    """The README "Library" block defines every name it uses and runs as written."""
    section = README.read_text().split("## Library", 1)[1]
    exec(section.split("```python", 1)[1].split("```", 1)[0], {})
    assert capsys.readouterr().out == "timeout True\n"
