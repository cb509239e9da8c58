#!/usr/bin/env python3
"""Steadiness check of the end-to-end ledger.

    python3 ledger/steady.py [--runs 10] [--sets 2] [--first-seed 1]

Run from the repository root. Runs every workload of BENCHMARK.json
--runs times per set, each run with its own seed (sets use disjoint
seeds), interleaving the workloads. For every end-to-end metric it
prints each set's median and quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and whether

  * the spread stays within the metric's bound, and within a third of
    it (the margin the bounds are tuned for);
  * the last set's median differs from the first set's by no more than
    the bound, in either direction;
  * every set fails the same share of its operations.

Exits 0 when every check passes.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cfg, workload, seed):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]),
                            "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    wall = time.monotonic() - start
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs incorrect")
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        cfg = json.load(f)
    workloads = [w["name"] for w in cfg["workloads"]]
    metrics = cfg["end_to_end"]

    # raw[set][workload] = list of results
    raw = [{w: [] for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + 1000 * s + i
            for w in workloads:
                result, wall = run_once(cfg, w, seed)
                raw[s][w].append(result)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"{wall:.1f} s wall", file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n== {w} ({args.runs} runs x {args.sets} sets)")
        shares = set()
        for s in range(args.sets):
            att = sum(r["attempted"] for r in raw[s][w])
            fail = sum(r["failed"] for r in raw[s][w])
            shares.add(fail / att)
            print(f"   set {s + 1}: attempted {att}, failed {fail}")
        if len(shares) != 1:
            print("   FAIL: failed shares differ between sets")
            ok = False
        print(f"   {'metric':<20}{'set':>4}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in raw[s][w]]
                q1, q3, sp = spread(values)
                med = statistics.median(values)
                medians.append(med)
                if sp > bound:
                    verdict = "FAIL spread > bound"
                    ok = False
                elif sp > bound / 3:
                    verdict = "spread > bound/3"
                else:
                    verdict = "ok"
                print(f"   {name:<20}{s + 1:>4}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{sp:>9.4f}{bound:>7.2f}  {verdict}")
            first, last = medians[0], medians[-1]
            shift = (last - first) / first
            verdict = "ok" if abs(shift) <= bound else "FAIL shift > bound"
            ok = ok and abs(shift) <= bound
            print(f"   {'':<20}{'':>4}  last vs first set: "
                  f"{100 * shift:+.2f}%  {verdict}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
