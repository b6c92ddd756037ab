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
        side = tree.name
        calls.append((workload, side))
        value = float(len(calls)) + (100.0 if side == "change" else 0.0)
        result = {"metrics": {"wall_rel": {"value": value}, "pass_frac": {"value": 1.0}}}
        return result, {"digests": {"final.u.yflo": side}, "import_runs_s": [0.1]}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else "abc123")
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr(bench_pairs, "counts", lambda tree, workload, seed, seconds: {"steps": 1})
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
    assert report["parent"] == report["change"] == "abc123"


def test_both_sides_are_extracted_into_sibling_trees(tmp_path, stubbed, monkeypatch):
    """``--parent``'s commit and ``HEAD``'s go into two sibling directories of one temporary
    directory, with paths of equal length, and each side runs in its own."""
    shas = {"HEAD~1^{commit}": "a" * 40, "HEAD^{commit}": "b" * 40}
    extracted, ran = [], []
    stub = bench_pairs.bench

    def bench(tree, *rest):
        ran.append(tree)
        return stub(tree, *rest)

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "" if args[0] == "status" else shas[args[-1]])
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: extracted.append((rev, dest)))
    monkeypatch.setattr(bench_pairs, "bench", bench)
    report = _main(tmp_path, 2)
    (parent_sha, parent), (change_sha, change) = extracted
    assert (parent_sha, change_sha) == (report["parent"], report["change"]) == ("a" * 40, "b" * 40)
    assert (parent.name, change.name) == ("parent", "change")
    assert parent.parent == change.parent != bench_pairs.ROOT
    assert len(str(parent)) == len(str(change))
    assert ran == [parent, change, change, parent]


@pytest.mark.parametrize(
    "dirty, refused",
    [(" M README.md", False), (" M src/yamabeflow/flow.py", True), ("?? perfbench/new.py", True)],
)
def test_only_the_measured_code_marks_the_change_uncommitted(
    tmp_path, stubbed, monkeypatch, capsys, dirty, refused
):
    """The stubbed ``git status`` lists one changed file, filtered by the pathspec it is given:
    a Markdown file that no run reads is measured as ``HEAD``, while uncommitted code under
    ``src`` or ``perfbench``, which no side would run, is a usage error before any run."""

    def git(*args):
        if args[0] != "status":
            return "abc123"
        paths = args[args.index("--") + 1 :] if "--" in args else None
        return dirty if paths is None or dirty[3:].split("/")[0] in paths else ""

    monkeypatch.setattr(bench_pairs, "git", git)
    if not refused:
        assert _main(tmp_path, 1)["change"] == "abc123"
        return
    with pytest.raises(SystemExit) as info:
        _main(tmp_path, 1)
    assert info.value.code == 2
    assert "src or perfbench differ from HEAD" in capsys.readouterr().err
    assert stubbed == []


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


def test_resolved_compares_the_medians_with_the_parents_quartile_spread(tmp_path, stubbed):
    """wall_rel: parent runs 1, 4, 5 (median 4, quartiles 2.5 and 4.5), change 102, 103, 106
    (median 103), a shift of 99 against a spread of 2; pass_frac: 1.0 on both sides, a shift of 0
    against a spread of 0, which is not more than it."""
    assert _main(tmp_path, 3)["resolved"] == {"w": {"wall_rel": True, "pass_frac": False}}


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
        side = tree.name
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


def test_wall_split_takes_the_median_wall_and_reference_per_side(tmp_path, stubbed, monkeypatch):
    """Beside ``wall_rel``, the medians over each side's runs of the median wall time and of the
    median reference-kernel time, so the report shows which of the two moved."""
    stub = bench_pairs.bench

    def bench(tree, workload, seed, seconds):
        result, kept = stub(tree, workload, seed, seconds)
        n = len(stubbed)  # runs 1..6: parent 1, 4, 5 and change 2, 3, 6
        return result, {**kept, "wall_median_s": float(n), "ref_median_s": n / 10}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    split = _main(tmp_path, 3)["wall_split"]
    assert split == {"w": {"parent": {"wall_median_s": 4.0, "ref_median_s": 0.4},
                           "change": {"wall_median_s": 3.0, "ref_median_s": 0.3}}}


def test_counts_come_from_one_traced_run_per_workload_and_side_after_the_pairs(
    tmp_path, stubbed, monkeypatch
):
    """Each traced run sees every pair of every workload done, and its counts enter ``counts``
    and nothing else: the runs, medians and wins are the pairs' alone."""
    traced = []

    def counts(tree, workload, seed, seconds):
        traced.append((workload, tree.name, seed, seconds, len(stubbed)))
        return {"spectral.cg.inner_iters": 866 if tree.name == "change" else 1241}

    monkeypatch.setattr(bench_pairs, "counts", counts)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD~1", "--workload", "a", "--workload", "b", "--seed", "23",
            "--pairs", "2", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert traced == [(w, side, 23, 1.0, 8) for w in "ab" for side in ("parent", "change")]
    assert report["counts"] == {w: {"parent": {"spectral.cg.inner_iters": 1241},
                                    "change": {"spectral.cg.inner_iters": 866}} for w in "ab"}
    assert report["counts_equal"] == {"a": False, "b": False}
    assert len(report["runs"]) == 8
    assert report["medians"]["a"]["parent"].keys() == {"wall_rel", "pass_frac"}
    assert report["wins"]["a"]["wall_rel"]["pairs"] == 2


def test_counts_equal_per_workload(tmp_path, stubbed, monkeypatch):
    """Workload ``a`` does the same work on both sides, ``b`` one more CG iteration."""

    def counts(tree, workload, seed, seconds):
        inner = 867 if (workload, tree.name) == ("b", "change") else 866
        return {"spectral.cg.calls": 25, "spectral.cg.inner_iters": inner}

    monkeypatch.setattr(bench_pairs, "counts", counts)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--workload", "a", "--workload", "b", "--seed", "23",
            "--pairs", "1", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert json.loads(out.read_text())["counts_equal"] == {"a": True, "b": False}


def test_counts_keep_the_count_metrics_of_a_traced_run(monkeypatch, tmp_path):
    result = {"metrics": {"wall_rel": {"value": 0.3, "unit": "ref"},
                          "spectral.cg.inner_iters": {"value": 866, "unit": "count"},
                          "flow.step.calls": {"value": 0, "unit": "count"},
                          "spectral.cg.time_s": {"value": 0.02, "unit": "s"}}}
    stdout = "\n".join([json.dumps({"detail": {}}), json.dumps(result)])
    argvs = []

    def fake_run(cmd, cwd, capture_output, text):
        argvs.append((cmd[1:], cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.counts(tmp_path, "w", 7, 2.0) == {"spectral.cg.inner_iters": 866,
                                                         "flow.step.calls": 0}
    assert argvs == [(["perfbench/run.py", "--workload", "w", "--seed", "7", "--seconds", "2.0",
                       "--trace", "1"], tmp_path)]
