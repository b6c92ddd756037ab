"""Alternating parent/change pairs of ``perfbench/run.py --trace 0``.

Usage (from the repository root)::

    python3 tools/bench_pairs.py --parent HEAD~1 --workload trapped-flow \\
        --workload certify-ball --seed 23 --pairs 3 --seconds 30 --out BENCH_N.json

Both sides are commits, built alike: ``--parent``'s commit and ``HEAD`` are each extracted by
``git archive <sha> | tar -x`` into ``parent`` or ``change``, sibling directories of one
temporary directory.  ``--parent HEAD`` is an A/A pass, a commit against itself.  Uncommitted
changes under ``src`` or ``perfbench``, the code a run reads, are refused: no side runs them.
Even pairs, counted from 0, run the parent first and odd pairs the change first, so a drift of
machine speed does not favour one side.  Each run's last stdout line (the result object) is
written, tagged with its workload, pair, side and the side that ran first, together with what
the line before it says about where the time went (the output digests, the fresh-interpreter
import times ``import_runs_s``, the workload set-up times ``setup_runs_s``, the first
repetition's wall time ``wall_first_s``, the median wall time ``wall_median_s`` and, beside it,
the median reference-kernel time ``ref_median_s``, so that a change of ``wall_rel`` shows
whether the workload or the reference moved), and the per-side median and quartiles of every
metric.  The quartiles are ``statistics.quantiles(..., method="inclusive")``, numpy's default
interpolation.  ``wall_split`` gives, per workload and side, the medians of the runs'
``wall_median_s`` and ``ref_median_s``, the two terms of ``wall_rel``, to tell a workload that
moved from a reference kernel that moved.  ``resolved`` says, per workload and end-to-end
metric, whether the change median differs from the parent median by more than the distance
between the parent's quartiles.
``digests_agree`` says, per workload, whether every run on both sides reported the same output
digests, as a change meant to be bit-identical must; ``digests_repeat`` says, per workload and
side, whether every run of that side reported the same digests, as one that moves the numbers on
purpose still must.  ``wins`` gives, per workload and end-to-end metric of ``BENCHMARK.json``
(only read), the pairs whose change run beat its parent run in the direction of the metric's
``better``, out of the pairs run; a tie counts for neither side.  ``meets_gain_rule`` says, per
workload and end-to-end metric, whether the change won at least 9 of every 10 pairs run and its
median is ``resolved`` from the parent's in the metric's ``better`` direction: the rule a claimed
gain must meet.  After the pairs, one
``--trace 1`` run per workload and side, at the same seed and ``--seconds``, gives ``counts``: per
workload and side, every metric whose unit is ``count``, such as the steps, the dt caps and the
eigen and CG iterations.  These runs stay out of every other entry.  ``counts_equal`` says, per
workload, whether both sides' counts are equal, so that a change of wall time can be matched
with a change of the work done, or shown to come with none.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed with exit code {archive.returncode}")


def run_lines(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    """The stdout lines of one ``perfbench/run.py`` run in ``tree``; a failed run exits."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return lines


def bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` run in ``tree``: its result object and what a run keeps of its detail."""
    lines = run_lines(tree, workload, seed, seconds, 0)
    detail = json.loads(lines[-2])["detail"]
    kept = {key: detail[key] for key in ("digests", "import_runs_s", "setup_runs_s")}
    kept["wall_first_s"] = detail["walls_s"][0]  # the repetition that pays first-call costs
    kept["wall_median_s"] = statistics.median(detail["walls_s"])
    kept["ref_median_s"] = statistics.median(detail["refs_s"])
    return json.loads(lines[-1]), kept


def counts(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 1`` run in ``tree``: the value of each metric whose unit is ``count``."""
    metrics = json.loads(run_lines(tree, workload, seed, seconds, 1)[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items() if metric["unit"] == "count"}


def quartiles(values: list[float]) -> list[float]:
    """The lower and upper quartiles of ``values``; one value is both."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def per_side(runs: list[dict], stat) -> dict:
    """``stat`` of each metric's values, per workload and side."""
    out: dict = {}
    for run in runs:
        side = out.setdefault(run["workload"], {}).setdefault(run["side"], {})
        for name, metric in run["result"]["metrics"].items():
            side.setdefault(name, []).append(metric["value"])
    for sides in out.values():
        for values in sides.values():
            for name in values:
                values[name] = stat(values[name])
    return out


def wall_split(runs: list[dict]) -> dict:
    """Per workload and side, the medians of the runs' ``wall_median_s`` and ``ref_median_s``."""
    out: dict = {}
    for run in runs:
        side = out.setdefault(run["workload"], {}).setdefault(run["side"], {})
        for key in ("wall_median_s", "ref_median_s"):
            if key in run:
                side.setdefault(key, []).append(run[key])
    return {workload: {side: {key: statistics.median(values) for key, values in keys.items()}
                       for side, keys in sides.items()} for workload, sides in out.items()}


def digests_agree(runs: list[dict]) -> dict[str, bool]:
    """Per workload, whether all its runs, parent and change alike, reported one set of digests."""
    seen: dict = {}
    for run in runs:
        seen.setdefault(run["workload"], []).append(run["digests"])
    return {workload: all(d == digests[0] for d in digests) for workload, digests in seen.items()}


def digests_repeat(runs: list[dict]) -> dict[str, dict[str, bool]]:
    """Per workload and side, ``digests_agree`` over that side's runs alone."""
    out: dict = {}
    for side in ("parent", "change"):
        for workload, same in digests_agree([r for r in runs if r["side"] == side]).items():
            out.setdefault(workload, {})[side] = same
    return out


def wins(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric of ``better`` (name to "lower" or "higher"), ``{"won", "pairs"}``:
    the pairs the change won, a tie being no win, out of the pairs that report the metric."""
    pairs: dict = {}
    for run in runs:
        pairs.setdefault((run["workload"], run["pair"]), {})[run["side"]] = run["result"]["metrics"]
    out: dict = {}
    for (workload, _), sides in pairs.items():
        for name, direction in better.items():
            if name not in sides["parent"] or name not in sides["change"]:
                continue
            parent, change = sides["parent"][name]["value"], sides["change"][name]["value"]
            entry = out.setdefault(workload, {}).setdefault(name, {"won": 0, "pairs": 0})
            entry["won"] += change < parent if direction == "lower" else change > parent
            entry["pairs"] += 1
    return out


def resolved(medians: dict, spreads: dict, names) -> dict:
    """Per workload and metric of ``names``, whether the change and parent medians differ by more
    than the distance between the parent's quartiles, ``spreads`` being ``per_side`` quartiles."""
    out: dict = {}
    for workload, sides in medians.items():
        for name in names:
            if name in sides["parent"] and name in sides["change"]:
                lo, hi = spreads[workload]["parent"][name]
                shift = abs(sides["change"][name] - sides["parent"][name])
                out.setdefault(workload, {})[name] = shift > hi - lo
    return out


def meets_gain_rule(won: dict, apart: dict, medians: dict, better: dict[str, str]) -> dict:
    """Per workload and metric of ``won`` (``wins``), whether the change won at least 9/10 of the
    pairs and its median is ``apart`` (``resolved``) from the parent's, in ``better``'s direction.
    """
    out: dict = {}
    for workload, metrics in won.items():
        for name, entry in metrics.items():
            parent, change = (medians[workload][side][name] for side in ("parent", "change"))
            ahead = change < parent if better[name] == "lower" else change > parent
            most = 10 * entry["won"] >= 9 * entry["pairs"]
            out.setdefault(workload, {})[name] = most and ahead and apart[workload][name]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if git("status", "--porcelain", "--", "src", "perfbench"):  # the code a run reads
        parser.error("src or perfbench differ from HEAD: commit them, since only commits are run")

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in end_to_end}
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("parent", args.parent), ("change", "HEAD"))}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in shas}  # equal-length sibling paths
        for side, sha in shas.items():
            extract(sha, trees[side])
        for workload in args.workload:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result, kept = bench(trees[side], workload, args.seed, args.seconds)
                    runs.append({"workload": workload, "pair": pair, "side": side,
                                 "first": order[0], "result": result, **kept})
                    print(workload, pair, side, json.dumps(result["metrics"]), file=sys.stderr)
        traced: dict = {}
        for workload in args.workload:
            for side in shas:
                traced.setdefault(workload, {})[side] = counts(
                    trees[side], workload, args.seed, args.seconds)
                print(workload, "counts", side, json.dumps(traced[workload][side]), file=sys.stderr)

    medians, spreads = per_side(runs, statistics.median), per_side(runs, quartiles)
    apart, won = resolved(medians, spreads, better), wins(runs, better)
    report = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        **shas,
        "medians": medians,
        "quartiles": spreads,
        "resolved": apart,
        "wall_split": wall_split(runs),
        "digests_agree": digests_agree(runs),
        "digests_repeat": digests_repeat(runs),
        "wins": won,
        "meets_gain_rule": meets_gain_rule(won, apart, medians, better),
        "counts": traced,
        "counts_equal": {workload: sides["parent"] == sides["change"]
                         for workload, sides in traced.items()},
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
