#!/usr/bin/env python3
"""Runs the serving benchmark over several seeds and prints every metric.

    python3 perfbench/report.py [--workloads a,b] [--runs 10] [--seed 1]
                                [--seconds S] [--trace] [--out FILE]
    python3 perfbench/report.py --compare OLD.json NEW.json

Runs perfbench/run.py once per workload and seed (seed, seed+1, ...), the
workloads interleaved seed by seed so that a slow stretch of the host does
not land on consecutive runs of one workload, and prints each end-to-end
metric with its unit, median, quartiles
(statistics.quantiles, n=4), spread (IQR / median), bound and n. With
--trace it also makes one traced run per workload and prints the per-layer
table. --out saves the values with the host and build fingerprint;
--compare diffs two saved files and refuses when their host/build
fingerprints differ.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"report: {workload} seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    record = load_json(os.path.join(ROOT, ".bench_build", "results",
                                    f"{workload}-seed{seed}-trace{int(trace)}.json"))
    return result, record


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
    return med, q1, q3, spread


def report(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    out = {"runs": {}, "per_layer": {}, "fingerprint": None}
    header = (f"{'workload':12s} {'metric':24s} {'unit':5s} {'median':>12s} {'q1':>12s}"
              f" {'q3':>12s} {'spread':>7s} {'bound':>6s} {'n':>9s}")
    values = {wl: {m["name"]: [] for m in bench["end_to_end"]} for wl in workloads}
    counts = {wl: {m["name"]: [] for m in bench["end_to_end"]} for wl in workloads}
    failed = dict.fromkeys(workloads, 0)
    steal = {wl: [] for wl in workloads}
    for i in range(args.runs):
        for wl in workloads:
            result, record = run_once(wl, args.seed + i, args.seconds, False)
            out["fingerprint"] = record["fingerprint"]
            failed[wl] += result["failed"]
            steal[wl].append(record["host_steal_share"])
            for name, m in result["metrics"].items():
                values[wl][name].append(m["value"])
                counts[wl][name].append(record["info"].get("n." + name, 0))
    out["runs"] = values
    print(header)
    for wl in workloads:
        for m in bench["end_to_end"]:
            med, q1, q3, spread = summary(values[wl][m["name"]])
            n = int(statistics.median(counts[wl][m["name"]])) if any(counts[wl][m["name"]]) else ""
            flag = "" if spread <= m["bound"] / 3 else " <- spread"
            print(f"{wl:12s} {m['name']:24s} {m['unit']:5s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:7.3f} {m['bound']:6.2f} {n!s:>9s}{flag}")
        print(f"{wl:12s} {'failed samples':24s} {failed[wl]}")
        # On the reference host, steal above ~0.1% marked contended stretches
        # in which the spreads widened.
        print(f"{wl:12s} {'host steal share':24s} median {statistics.median(steal[wl]):.4f}"
              f" max {max(steal[wl]):.4f}")
    if args.trace:
        print()
        print(f"{'workload':12s} {'per-layer metric':40s} {'value':>14s} unit")
        for wl in workloads:
            result, _ = run_once(wl, args.seed, args.seconds, True)
            out["per_layer"][wl] = {k: v["value"] for k, v in result["metrics"].items()}
            for m in bench["per_layer"]:
                v = result["metrics"][m["name"]]
                print(f"{wl:12s} {m['name']:40s} {v['value']:14.6g} {v['unit']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)


def compare(old_path, new_path):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    old, new = load_json(old_path), load_json(new_path)
    if old["fingerprint"]["host_build"] != new["fingerprint"]["host_build"]:
        print("refusing to compare: host/build fingerprints differ")
        print(" old:", json.dumps(old["fingerprint"]["host_build"]))
        print(" new:", json.dumps(new["fingerprint"]["host_build"]))
        return 2
    worse_any = False
    print(f"{'workload':12s} {'metric':24s} {'old':>12s} {'new':>12s} {'change':>8s} {'bound':>6s}")
    for wl in sorted(set(old["runs"]) & set(new["runs"])):
        for m in bench["end_to_end"]:
            a = statistics.median(old["runs"][wl][m["name"]])
            b = statistics.median(new["runs"][wl][m["name"]])
            change = (b - a) / a if a else 0.0
            worse = -change if m["better"] == "higher" else change
            verdict = "WORSE" if worse > m["bound"] else ""
            worse_any = worse_any or bool(verdict)
            print(f"{wl:12s} {m['name']:24s} {a:12.6g} {b:12.6g} {change:+8.3f} {m['bound']:6.2f}"
                  f" {verdict}")
    return 1 if worse_any else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    report(args)


if __name__ == "__main__":
    main()
