"""Alternating parent/change pairs of ``perfbench/run.py --trace 0``.

Usage (from the repository root)::

    python3 tools/bench_pairs.py --parent HEAD~1 --workload trapped-flow \\
        --workload certify-ball --seed 23 --pairs 3 --seconds 30 --out BENCH_N.json

The parent revision is extracted with ``git archive <rev> | tar -x`` into a
temporary directory; the change is this working tree.  Pair ``k`` (from 0)
runs the parent first when ``k`` is even and the change first when it is
odd, so a drift of the machine's speed does not favour one side.  Each run's
last stdout line (the result object) is written, tagged with its workload,
pair, side and the side that ran first, together with what the line before
it says about where the time went (the output digests, the fresh-interpreter
import times ``import_runs_s``, the workload set-up times ``setup_runs_s``,
the first repetition's wall time ``wall_first_s``, the median wall time
``wall_median_s`` and, beside it, the median reference-kernel time
``ref_median_s``, so that a change of ``wall_rel`` shows whether the workload
or the reference moved), and the per-side median and quartiles of every metric.  The quartiles are ``statistics.quantiles(..., method="inclusive")``,
numpy's default interpolation; the spread between them is what decides
whether a difference of medians is resolved.  ``digests_agree`` says, per
workload, whether every run on both sides reported the same output digests,
which is what a change meant to be bit-identical must show; ``digests_repeat`` says, per
workload and side, whether every run of that side reported the same digests, which a change
that moves the numbers on purpose must still show.  ``wins`` gives, per workload
and end-to-end metric of ``BENCHMARK.json`` (read, never written), the pairs whose change run
beat its parent run in the direction of the metric's ``better``, out of the pairs run; a tie
counts for neither side.  Standard library only.
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
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed with exit code {archive.returncode}")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` run in ``tree``: its result object and what a run keeps of its detail."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    detail = json.loads(lines[-2])["detail"]
    kept = {key: detail[key] for key in ("digests", "import_runs_s", "setup_runs_s")}
    kept["wall_first_s"] = detail["walls_s"][0]  # the repetition that pays first-call costs
    kept["wall_median_s"] = statistics.median(detail["walls_s"])
    kept["ref_median_s"] = statistics.median(detail["refs_s"])
    return json.loads(lines[-1]), kept


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

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in end_to_end}
    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        extract(parent_sha, trees["parent"])
        for workload in args.workload:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result, kept = bench(trees[side], workload, args.seed, args.seconds)
                    runs.append({"workload": workload, "pair": pair, "side": side,
                                 "first": order[0], "result": result, **kept})
                    print(workload, pair, side, json.dumps(result["metrics"]), file=sys.stderr)

    report = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "parent": parent_sha,
        "change": f"working tree on {git('rev-parse', 'HEAD')}"
                  + (" with uncommitted changes" if git("status", "--porcelain") else ""),
        "medians": per_side(runs, statistics.median),
        "quartiles": per_side(runs, quartiles),
        "digests_agree": digests_agree(runs),
        "digests_repeat": digests_repeat(runs),
        "wins": wins(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
