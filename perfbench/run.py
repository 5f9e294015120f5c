#!/usr/bin/env python3
"""COSOFT benchmark entry point.

One run:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the repository's libraries, cosoftd and the load generator (CMake,
into .bench_build/ at the repository root; a no-op once built), then runs
one workload against a cosoftd child process over loopback TCP. The last
line of standard output is the result object.

Steadiness mode:
    python3 perfbench/run.py --steady 10

runs every workload of BENCHMARK.json that many times, with seeds 1..N and
the benchmark's run_seconds, and prints, per
end-to-end metric, the median, the quartiles, the quartile spread as a share
of the median and that spread relative to the metric's bound in
BENCHMARK.json, together with the host it ran on.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build")
LOADGEN = os.path.join(BUILD, "cosoft_perfbench")
WORKLOADS = ["classroom_coupled", "command_fanout", "tori_durable"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    # The benchmark builds the program from the checkout's own sources.
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or not os.path.isdir(os.path.join(REPO, "src")):
        fail("the repository sources (CMakeLists.txt, src/) are not next to perfbench/")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        r = subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=log, stderr=log)
        if r.returncode != 0:
            fail("cmake configure failed", 3)
    r = subprocess.run(["cmake", "--build", BUILD, "--target", "cosoft_perfbench", "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-20000:])
        fail("build failed", 3)


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the load generator once; returns (exit code, parsed result or None)."""
    run_dir = os.path.join(BUILD, "run", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [LOADGEN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--run-dir", run_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        print("run.py: %s seed %d did not finish within %d s" % (workload, seed, RUN_TIMEOUT_S), file=sys.stderr)
        return 1, None
    shutil.rmtree(run_dir, ignore_errors=True)
    if echo:
        sys.stderr.write(r.stderr)
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    result = None
    if r.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not echo:
        if result is None:
            sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
        for line in r.stdout.splitlines():
            if "still running" in line or line.startswith("CHECK FAILED") or line.startswith("op failed"):
                print("%s seed %d: %s" % (workload, seed, line), file=sys.stderr)
    return r.returncode, result


def host_metadata():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs = "unknown"
    try:
        out = subprocess.run(["df", "-T", BUILD], stdout=subprocess.PIPE, text=True).stdout.splitlines()
        if len(out) > 1:
            fs = out[1].split()[1]
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "kernel": platform.release(), "cpu": cpu,
            "build_type": "Release", "journal_fs": fs}


def steady(args):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    print("host: " + json.dumps(host_metadata()))
    report = {}
    for w in workloads:
        values = {}
        shares = set()
        for k in range(args.steady):
            seed = 1 + k
            code, res = run_once(w, seed, seconds, False, echo=False)
            if code != 0 or res is None or not res["correct"]:
                fail("%s seed %d: run failed or incorrect" % (w, seed), 1)
            shares.add((res["failed"], res["attempted"]) if res["failed"] else (0, 1))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, " ".join("%s=%.5g" % (n, m["value"])
                                                          for n, m in res["metrics"].items())), flush=True)
        report[w] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            worst = max(abs(v - med) / med for v in vals) if med else float("inf")
            report[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                               "max_dev": worst, "values": vals}
            print("%-18s %-10s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.2f%%  max dev %6.2f%%%s" % (
                w, name, med, q1, q3, 100 * spread, 100 * worst,
                "  (bound %.0f%%: spread/bound %.2f, max dev/bound %.2f)" % (100 * bound, spread / bound, worst / bound)
                if bound else ""), flush=True)
        print("%-18s failed share: %s" % (w, sorted(shares)), flush=True)
    out = os.path.join(BUILD, "steady-%d.json" % os.getpid())
    with open(out, "w") as f:
        json.dump({"host": host_metadata(), "seconds": seconds, "report": report}, f, indent=1)
    print("wrote " + out)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0, help="runs per workload in steadiness mode")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("seed and seconds must not be negative")
    build()
    if args.steady:
        steady(args)
        return
    if not args.workload or args.seconds <= 0:
        fail("--workload and --seconds are required")
    code, res = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.exit(code if res is not None else (code or 1))


if __name__ == "__main__":
    main()
