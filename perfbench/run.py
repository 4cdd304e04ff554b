"""Run the repository benchmark.

One workload, as a regression check runs it (the last stdout line is
the JSON result):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Every workload, each in a fresh process, untraced and then traced:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--out DIR`` also writes each result with its provenance to ``DIR``;
``perfbench/compare.py`` compares two such directories.  The engine is
imported from ``src/`` next to this directory.  The command exits
non-zero when an answer fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "docqa_open", "ingest_ooc")
#: BLAS threads per process.  One keeps small-GEMM tails steady on a
#: 2-CPU host and leaves the other core to the store's prefetch thread.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def provenance(seed: int) -> dict:
    """Where and with what a result was measured."""
    import numpy
    from repro.core.thread_limits import blas_thread_info

    sha = None
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            models = [
                line.split(":", 1)[1].strip()
                for line in info
                if line.startswith("model name")
            ]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    blas = blas_thread_info()
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas["implementation"],
        "blas_threads": blas["max_threads"],
    }


def run_one(args: argparse.Namespace) -> int:
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    workloads.SCRATCH.mkdir(exist_ok=True)
    tempfile.tempdir = str(workloads.SCRATCH)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        try:
            workloads.SCRATCH.rmdir()
        except OSError:  # not empty: another run is using it
            pass
    info = provenance(args.seed)
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} ({mode}, seed {args.seed}, {args.seconds:g} s)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:30s} {value:14.6g} {unit}")
    print(f"# attempted {outcome.attempted}, failed {outcome.failed}")
    print(f"# notes {json.dumps(outcome.notes, default=str)}")
    print(f"# provenance {json.dumps(info)}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        target = args.out / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            **result,
            "notes": outcome.notes,
            "provenance": info,
        }
        target.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, untraced then traced."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.out is not None:
                command += ["--out", str(args.out)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1] if done.returncode in (0, 1) else lines))
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
