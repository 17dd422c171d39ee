"""cycorder benchmark: one workload per run, checked outputs, named metrics.

    python3 bench/run.py --workload verify-2000 --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src.  Human
readable lines come first, with the machine, nproc, Python version and
commit of the run; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a separate
traced pass.  Scratch files live in ./.bench_work and are removed at exit,
except the span table of the last traced run of each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass  # not Linux; keep the platform's name
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "cycorder"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    if not os.path.isfile(os.path.join(SRC, "cycorder", "__init__.py")):
        print(f"error: no cycorder package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK)
    trace_path = os.path.join(WORK, f"trace-{args.workload}.tsv") if args.trace else None
    try:
        outcome = workloads.run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, SRC, scratch, trace_path
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value!r} {unit}")
    for line in outcome.view:
        print(line)
    print(f"error_rate = {outcome.failed / outcome.attempted!r}  ({outcome.failed} of {outcome.attempted} operations)")
    if trace_path:
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
