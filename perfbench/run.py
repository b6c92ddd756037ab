"""yamabeflow benchmark: one workload, one single-threaded process, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trapped-flow --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  ``--trace 0`` repeats the workload's timed operation for
``--seconds`` seconds and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer metrics.
Each repetition sits between two runs of a fixed reference kernel, and
``wall_rel`` is the median of wall time over the mean kernel time around it:
the timed phase's cost in units of the machine's speed at that moment.
Every repetition's outputs are checked.  The last line of standard output is
the result object; the line before it holds provenance, digests and the
names of failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUPS = 3  # fresh-interpreter imports and set-ups per run; setup_s adds their medians
MIN_REPS = 3  # untraced repetitions per run, at least
MIN_TRACED = 2  # traced repetitions per --trace 1 run, at least
REF_ITERS = 80  # reference-kernel sweeps per grid size


def unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MiB"
    if name == "wall_rel":
        return "ref"
    if name.endswith("sim_t_per_s"):
        return "t/s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": src_sha256(ROOT / "src" / "yamabeflow"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def reference_kernel(write_dir: Path | None) -> float:
    """Fixed stencil sweeps and exact sums on 16^3 and 32^3 grids; returns their wall time.

    On a machine whose cores are shared, their speed drifts by tens of percent
    over seconds to minutes.  This kernel runs before and after every
    repetition, so a repetition's wall time can be divided by the speed the
    machine had around it.  For a workload that checkpoints every step,
    every eighth sweep also rewrites a 24^3 field and a small state file in
    ``write_dir``, which matches that workload's bytes written per second of
    compute, so the kernel slows down with the file system as the workload does.
    """
    import numpy as np

    field = bytes(8 * 24**3)
    t0 = time.perf_counter()
    for n in (16, 32):
        a = np.linspace(0.5, 1.5, n**3).reshape(n, n, n)
        for i in range(REF_ITERS):
            lap = sum(np.roll(a, 1, ax) + np.roll(a, -1, ax) for ax in range(3)) - 6.0 * a
            a = a + 0.01 * lap
            math.fsum(a.ravel().tolist())
            if write_dir is not None and i % 8 == 0:
                (write_dir / "reference.u.bin").write_bytes(field)
                (write_dir / "reference.state.bin").write_bytes(field[:48])
    return time.perf_counter() - t0


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t0 = time.perf_counter(); import yamabeflow; print(time.perf_counter() - t0)"
)


def import_seconds(src: Path) -> float:
    """Wall time of importing the package in a fresh interpreter, as each CLI call pays it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def measure(wl, state, seconds: float, trace: bool, checks):
    """Repeat the timed operation between reference-kernel runs.

    Returns untraced walls, traced walls, their reference times (mean of the
    kernel run before and after each), traced layers and outcomes.
    """
    import tracing  # imported by main once sys.path holds src/

    walls, traced_walls, refs, traced_refs, layers, outcomes = [], [], [], [], [], []
    write_dir = state["workdir"] if wl.writes_per_step else None
    reference_kernel(write_dir)  # warm-up
    ref_before = reference_kernel(write_dir)
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        traced = trace and len(walls) > len(traced_walls)
        wl.prepare(state)
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                t0 = time.perf_counter()
                out = wl.rep(state)
                wall = time.perf_counter() - t0
            traced_walls.append(wall)
            layers.append(tracing.rep_layers(tracer))
        else:
            t0 = time.perf_counter()
            out = wl.rep(state)
            walls.append(time.perf_counter() - t0)
        ref_after = reference_kernel(write_dir)
        (traced_refs if traced else refs).append(0.5 * (ref_before + ref_after))
        ref_before = ref_after
        outcomes.append(wl.check(state, out, checks))
        now = time.perf_counter()
        enough = len(walls) >= MIN_REPS and (not trace or len(traced_walls) >= MIN_TRACED)
        if enough and now - start + (now - begin) > seconds:
            return walls, traced_walls, refs, traced_refs, layers, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tracing
        import workloads
        import yamabeflow
    except ImportError as exc:
        print(f"cannot import yamabeflow from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(yamabeflow.__file__).resolve().is_relative_to(src.resolve()):
        print(f"yamabeflow was imported from {yamabeflow.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import_times, setup_times = [], []
        for _ in range(SETUPS):
            import_times.append(import_seconds(src))
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        checks = workloads.Checks()
        walls, traced_walls, refs, traced_refs, layers, outcomes = measure(
            wl, state, args.seconds, bool(args.trace), checks
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = outcomes[0]
    checks.add("digests_repeat", lambda: all(o.digests == first.digests for o in outcomes))
    checks.add("steps_repeat", lambda: all(o.steps == first.steps for o in outcomes))
    if layers:
        checks.add("trace_counts_repeat", lambda: all(rep[0] == layers[0][0] for rep in layers))
    attempted = len(checks.results)
    failed = len(checks.failed)

    wall_s = statistics.median(walls)
    wall_rel = statistics.median(w / r for w, r in zip(walls, refs))
    if args.trace:
        values = tracing.merge_layers(layers)
        values["flow.run.steps"] = first.steps
        values["flow.run.sim_t_per_s"] = first.sim_t / wall_s
        values["flow.dissipation_error_frac"] = first.dissipation_error
        values.update({f"flow.dt_cap.{cap}": n for cap, n in first.caps.items()})
        traced_rel = statistics.median(w / r for w, r in zip(traced_walls, traced_refs))
        values["trace.overhead_frac"] = traced_rel / wall_rel - 1.0
        values["fail_frac"] = failed / attempted
        values["wall_s"] = wall_s
        values["ref.kernel_s"] = statistics.median(refs)
    else:
        values = {
            "wall_rel": wall_rel,
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - failed) / attempted,
        }

    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "reps": len(walls),
        "traced_reps": len(traced_walls),
        "walls_s": walls,
        "refs_s": refs,
        "import_runs_s": import_times,
        "setup_runs_s": setup_times,
        "digests": first.digests,
        "failed_checks": checks.failed,
        "provenance": provenance(args.seed),
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit(name)} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
