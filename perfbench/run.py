#!/usr/bin/env python3
"""Serving benchmark of varade-served: one run of one workload.

    python3 perfbench/run.py --workload varade_cell --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the repository and the load generator
into .bench_build/perfbench (first run only; later runs rebuild nothing),
runs perfbench_gen, which starts varade-served, loads it and checks every
score, and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer ones.
The full record of the run, with the host and build fingerprint and the
sample count behind each percentile, goes to
.bench_build/results/<workload>-seed<seed>-trace<trace>.json.

Exits nonzero without printing a result when the repository cannot be built,
and nonzero after printing "correct": false when a score or ALARM frame
differs from the sequential reference.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
GEN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the generator and the daemon."""
    env = dict(os.environ)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler scratch files stay inside the checkout
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_gen",
                    "varade-served"], check=True, stdout=sys.stderr, env=env)


def cmake_cache(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """sha256 over the sources the benchmark builds, for runs outside git."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if "__pycache__" in name:
                continue
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    """Host and build identity. `host_build` must match for two results to
    be compared; `commit` and `sources` say which code ran."""
    flags = set()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    return {
        "host_build": {
            "nproc": os.cpu_count(),
            "avx2": "avx2" in flags,
            "avx512f": "avx512f" in flags,
            "compiler": version,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "varade_obs": cmake_cache("VARADE_OBS") or "ON",
        },
        "commit": commit,
        "sources": source_digest(),
    }


def cpu_ticks():
    """(steal, total) jiffies of the host's aggregate cpu line in /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_generator(args, wl):
    gen = os.path.join(BUILD, "perfbench_gen")
    served = os.path.join(BUILD, "varade", "src", "net", "varade-served")
    os.makedirs(RUN_DIR, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    sock = os.path.relpath(os.path.join(RUN_DIR, f"{args.workload}.sock"), os.getcwd())
    cmd = [gen, "--served", served, "--detector", wl["detector"],
           "--streams", str(wl["streams"]), "--unit", str(wl["unit"]),
           "--inflight", str(wl["inflight"]), "--rate-lo", str(wl["rate_lo"]),
           "--rate-hi", str(wl["rate_hi"]), "--seconds", str(args.seconds),
           "--seed", str(args.seed), "--trace", str(args.trace), "--sock", sock]
    # Own session, so a timeout takes the daemon down with the generator.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=GEN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: generator timed out after {GEN_TIMEOUT_S} s")
        sys.exit(3)
    lines = out.strip().splitlines()
    if not lines:
        log(f"perfbench: generator failed (exit {proc.returncode})")
        sys.exit(proc.returncode or 3)
    return json.loads(lines[-1]), proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    config = load_json(os.path.join(HERE, "workloads.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in config["workloads"]:
        log(f"perfbench: unknown workload {args.workload!r}; have "
            + ", ".join(config["workloads"]))
        sys.exit(2)
    if args.seed is None:
        args.seed = config["default_seed"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if not os.path.exists(os.path.join(ROOT, "src")):
        log("perfbench: no repository sources next to perfbench/; nothing to build")
        sys.exit(2)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        sys.exit(2)

    wl = config["workloads"][args.workload]
    steal0, total0 = cpu_ticks()
    record, code = run_generator(args, wl)
    steal1, total1 = cpu_ticks()
    # Time the hypervisor ran something else on this VM's vCPUs: a run with a
    # large share was measured on a disturbed host.
    steal_share = (steal1 - steal0) / max(1, total1 - total0)
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    missing = [m for m in wanted if m not in record["metrics"]]
    if missing:
        log("perfbench: generator did not report " + ", ".join(missing))
        sys.exit(3)

    full = dict(record, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, settings=wl, host_steal_share=steal_share,
                fingerprint=fingerprint())
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(full, f, indent=1)

    info = record.get("info", {})
    for name in wanted:
        m = record["metrics"][name]
        n = info.get("n." + name)
        print(f"{args.workload:12s} {name:40s} {m['value']:>16.6g} {m['unit']:6s}"
              + (f" n={int(n)}" if n is not None else ""))
    checks = {k: v for k, v in info.items() if k.startswith("check.")}
    print("checks: " + ", ".join(f"{k[6:]}={int(v)}" for k, v in checks.items()))
    print(f"host steal during the run: {100 * steal_share:.2f}% of CPU time")
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: record["metrics"][name] for name in wanted},
    }
    print(json.dumps(result), flush=True)
    sys.exit(code if code else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
