#!/usr/bin/env python3
"""Spread check: run one workload N times, each with another seed, and
print each end-to-end metric's median, quartiles and relative spread
(Q3 - Q1) / median next to the bound BENCHMARK.json gives it.

Run from the root of the repository:

    python3 monbench/spread.py --workload fabric-blast --runs 10 --seed0 1

The quartiles are statistics.quantiles(values, n=4), the way the bounds
are judged. Each run's result line is kept in --out (JSON lines) so two
sets can be compared later with --compare A.jsonl B.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["seed"] = seed
    res["env"] = next((l for l in lines if l.startswith("env:")), "")
    res["notes"] = [l for l in proc.stderr.splitlines() if not l.startswith("env:")]
    return res


def summarize(spec, results, label=""):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"{label}runs={len(results)} seeds={[r['seed'] for r in results]}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{label}correct={all(r['correct'] for r in results)} failed/attempted={sorted(shares)}")
    out = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
        print(f"{label}  {name:18s} median={med:<14.6g} q1={q1:<14.6g} q3={q3:<14.6g} "
              f"spread={spread:.4f} bound={bound} {flag}")
        out[name] = med
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="append each run's result as a JSON line")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two saved sets instead of running")
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append([json.loads(l) for l in f if l.strip()])
        meds = [summarize(spec, s, label=f"[{p}] ") for s, p in zip(sets, args.compare)]
        for m in spec["end_to_end"]:
            name, a, b = m["name"], meds[0].get(m["name"]), meds[1].get(m["name"])
            if a is None or b is None:
                continue
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            print(f"  {name:18s} second vs first: {worse:+.4f} worse (bound {m['bound']})"
                  f" {'ok' if worse <= m['bound'] else 'OVER BOUND'}")
        return

    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for i in range(args.runs):
        res = run_once(spec, args.workload, args.seed0 + i, seconds, args.trace)
        results.append(res)
        print(f"seed={res['seed']} correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for note in res["notes"]:
            if "KNOWN FAULT" in note or "WRONG" in note:
                print("   ", note, flush=True)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(res) + "\n")
    print(results[0]["env"])
    if args.trace == 0:
        summarize(spec, results)


if __name__ == "__main__":
    main()
