"""The alternating-pairs driver ``tools/bench_pairs.py``, with git and the benchmark stubbed."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


@pytest.fixture
def stubbed(monkeypatch):
    """Stub git, the archive extraction and the runs; return the (workload, side) of each run."""
    calls = []

    def fake_bench(tree, workload, seed, seconds):
        side = "change" if tree == bench_pairs.ROOT else "parent"
        calls.append((workload, side))
        value = float(len(calls)) + (100.0 if side == "change" else 0.0)
        result = {"metrics": {"wall_rel": {"value": value}, "pass_frac": {"value": 1.0}}}
        return result, {"digests": {"final.u.yflo": side}, "import_runs_s": [0.1]}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc123")
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    return calls


def _main(tmp_path, pairs):
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD~1", "--workload", "w", "--seed", "23", "--pairs", str(pairs),
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    return json.loads(out.read_text())


def test_pairs_alternate_which_side_runs_first(tmp_path, stubbed):
    report = _main(tmp_path, 3)
    parent, change = ("w", "parent"), ("w", "change")
    assert stubbed == [parent, change, change, parent, parent, change]
    runs = report["runs"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs] == [
        (0, "parent", "parent"), (0, "change", "parent"),
        (1, "change", "change"), (1, "parent", "change"),
        (2, "parent", "parent"), (2, "change", "parent"),
    ]
    assert all(r["digests"] == {"final.u.yflo": r["side"]} for r in runs)
    assert all(r["import_runs_s"] == [0.1] for r in runs)
    assert report["parent"] == "abc123"


def test_medians_are_taken_per_side(tmp_path, stubbed):
    report = _main(tmp_path, 3)
    for side in ("parent", "change"):
        values = [r["result"]["metrics"]["wall_rel"]["value"] for r in report["runs"] if r["side"] == side]
        assert len(values) == 3
        assert report["medians"]["w"][side] == {"wall_rel": statistics.median(values), "pass_frac": 1.0}


@pytest.mark.parametrize(
    "pairs, parent, change",
    [(1, [1.0, 1.0], [102.0, 102.0]),  # one run is both quartiles
     (3, [2.5, 4.5], [102.5, 104.5])],  # parent runs 1, 4, 5; change runs 102, 103, 106
)
def test_quartiles_are_taken_per_side(tmp_path, stubbed, pairs, parent, change):
    """Beside each median, the inclusive lower and upper quartiles of that side's runs."""
    report = _main(tmp_path, pairs)
    assert report["quartiles"]["w"] == {
        "parent": {"wall_rel": parent, "pass_frac": [1.0, 1.0]},
        "change": {"wall_rel": change, "pass_frac": [1.0, 1.0]},
    }


def test_digests_that_differ_by_side_do_not_agree(tmp_path, stubbed):
    """The stub's digests name the side that ran, so parent and change disagree."""
    assert _main(tmp_path, 2)["digests_agree"] == {"w": False}


@pytest.mark.parametrize("third", ["same", "moved"])
def test_digests_agree_when_every_run_matches(tmp_path, stubbed, monkeypatch, third):
    """One run whose digests moved, here the change side of pair 1, is enough to disagree."""
    stub = bench_pairs.bench

    def bench(tree, workload, seed, seconds):
        result, kept = stub(tree, workload, seed, seconds)
        digest = third if len(stubbed) == 3 else "same"
        return result, {**kept, "digests": {"final.u.yflo": digest}}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    assert _main(tmp_path, 3)["digests_agree"] == {"w": third == "same"}


def test_digests_repeat_per_side_when_the_sides_differ(tmp_path, stubbed):
    """The stub's digests name the side: they disagree across sides but repeat within each."""
    report = _main(tmp_path, 3)
    assert report["digests_agree"] == {"w": False}
    assert report["digests_repeat"] == {"w": {"parent": True, "change": True}}


def test_digests_repeat_fails_only_the_side_that_moved(tmp_path, stubbed, monkeypatch):
    """The change side of pair 1 reports other digests than the change side of pair 0."""
    stub = bench_pairs.bench

    def bench(tree, workload, seed, seconds):
        result, kept = stub(tree, workload, seed, seconds)
        digest = "moved" if len(stubbed) == 3 else kept["digests"]["final.u.yflo"]
        return result, {**kept, "digests": {"final.u.yflo": digest}}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    assert _main(tmp_path, 3)["digests_repeat"] == {"w": {"parent": True, "change": False}}


def test_wins_count_no_pair_the_change_lost_or_tied(tmp_path, stubbed):
    """The stub's change runs read wall_rel 100 above the parent's, where lower is better, and
    pass_frac 1.0 like the parent's, a tie: no pair is won.  ``BENCHMARK.json`` is only read."""
    declared = (bench_pairs.ROOT / "BENCHMARK.json").read_bytes()
    assert _main(tmp_path, 3)["wins"] == {
        "w": {"wall_rel": {"won": 0, "pairs": 3}, "pass_frac": {"won": 0, "pairs": 3}}
    }
    assert (bench_pairs.ROOT / "BENCHMARK.json").read_bytes() == declared


def test_wins_follow_each_metrics_better(tmp_path, stubbed, monkeypatch):
    """wall_rel is better lower and pass_frac higher, as ``BENCHMARK.json`` declares: the change
    wins wall_rel in pairs 0 and 2 and ties it in pair 1, and wins pass_frac in pair 1 only."""
    change = {0: (0.9, 1.0), 1: (1.0, 1.0), 2: (0.5, 0.5)}  # pair: (wall_rel, pass_frac)
    parent = {0: (1.0, 1.0), 1: (1.0, 0.5), 2: (0.6, 0.5)}

    def bench(tree, workload, seed, seconds):
        side = "change" if tree == bench_pairs.ROOT else "parent"
        stubbed.append((workload, side))
        pair = sum(1 for _, s in stubbed if s == side) - 1
        wall, passed = (change if side == "change" else parent)[pair]
        result = {"metrics": {"wall_rel": {"value": wall}, "pass_frac": {"value": passed}}}
        return result, {"digests": {}, "import_runs_s": [0.1]}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    assert _main(tmp_path, 3)["wins"] == {
        "w": {"wall_rel": {"won": 2, "pairs": 3}, "pass_frac": {"won": 1, "pairs": 3}}
    }


def test_zero_pairs_is_a_usage_error(tmp_path, stubbed, capsys):
    with pytest.raises(SystemExit) as info:
        _main(tmp_path, 0)
    assert info.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
    assert stubbed == []


def test_bench_keeps_where_the_time_went(monkeypatch, tmp_path):
    """Beside the result, a run keeps its digests, import and set-up times, first and median
    wall, and the median reference-kernel time that ``wall_rel`` divides by."""
    detail = {"walls_s": [0.9, 0.2, 0.4, 0.3], "refs_s": [0.16, 0.12, 0.15, 0.11],
              "import_runs_s": [0.3, 0.1, 0.2],
              "setup_runs_s": [0.5, 0.01, 0.02], "digests": {"final.u.yflo": "ab"}, "reps": 4}
    result = {"metrics": {"wall_rel": {"value": 1.0}}}
    stdout = "\n".join(["noise", json.dumps({"detail": detail}), json.dumps(result)])
    argvs = []

    def fake_run(cmd, cwd, capture_output, text):
        argvs.append((cmd[1:], cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    got, kept = bench_pairs.bench(tmp_path, "w", 7, 2.0)
    assert argvs == [(["perfbench/run.py", "--workload", "w", "--seed", "7", "--seconds", "2.0",
                       "--trace", "0"], tmp_path)]
    assert got == result
    assert kept == {"digests": {"final.u.yflo": "ab"}, "import_runs_s": [0.3, 0.1, 0.2],
                    "setup_runs_s": [0.5, 0.01, 0.02], "wall_first_s": 0.9, "wall_median_s": 0.35,
                    "ref_median_s": 0.135}
