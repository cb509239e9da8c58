#!/usr/bin/env python3
"""End-to-end ledger: one run of one workload.

    python3 ledger/run.py --workload giant_scc --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds ledger_bench (ledger/CMakeLists.txt,
which compiles the library from src/) into $CARGO_TARGET_DIR/ledger
(default .bench_build/ledger), generates the workload's inputs from
--seed in a scratch directory under the same root, runs the phases and
prints the result JSON as the last line of stdout. Build logs and the
human-readable report go to stderr. Exits non-zero, without a result
line, if the build, the input generation or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; the first one may also build.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 800.0


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=BUILD_BUDGET_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "ledger_bench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_BUDGET_S)
    return os.path.join(build_dir, "ledger_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(root, "ledger"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"ledger: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(root, "ledger-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    start = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    try:
        subprocess.run([binary, "gen"] + common, check=True,
                       stdout=sys.stderr, timeout=RUN_BUDGET_S)
        left = RUN_BUDGET_S - (time.monotonic() - start)
        out = subprocess.run(
            [binary, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True, timeout=left)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"ledger: run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.stdout.strip().splitlines()
    if not lines:
        print("ledger: no result line", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
