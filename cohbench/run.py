#!/usr/bin/env python3
"""Build and run the cohesion end-to-end benchmark.

Run from the repository root:

    python3 cohbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: converge-dense-256, session-lattice-1024, lab-full (see
cohbench/README.md). The script builds the `cohbench` package in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs it once in a
fresh process, and prints the run's summary followed, as the last line, by
one JSON object with the keys `correct`, `attempted`, `failed`, `metrics`.
The full output of the run (including the lab's tables) is kept in
`<target>/cohbench-out/<workload>.log`. Exits non-zero, without a result
line, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# The binary's own summary starts at one of these lines; what comes before
# (the lab's tables, on lab-full) stays in the log only.
SUMMARY_MARKERS = ("end-to-end (", "per-call (")


def fail(message):
    print(f"cohbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    """Runs `cmd`, killing it (and waiting for it) if it outlives `timeout`."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    if run(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr) != 0:
        fail("build failed")

    out = target / "cohbench-out"
    out.mkdir(parents=True, exist_ok=True)
    log = out / f"{args.workload}.log"
    cmd = [
        str(target / "release" / "cohbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", str(out),
    ]
    with open(log, "w") as f:
        code = run(cmd, RUN_TIMEOUT_S, env=env, stdout=f)
    lines = log.read_text().splitlines()
    if code != 0:
        fail(f"benchmark exited with code {code}; output in {log}")
    if not lines:
        fail(f"benchmark printed nothing; see {log}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last output line is not JSON; see {log}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")

    start = next(
        (i for i, l in enumerate(lines) if l.startswith(SUMMARY_MARKERS)),
        len(lines) - 1,
    )
    for line in lines[start:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
