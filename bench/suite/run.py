#!/usr/bin/env python3
"""Build and run the simulator benchmark (bench/suite).

Three ways to call it, all from the repository root:

  One workload, one result line (the form BENCHMARK.json's command uses):
    python3 bench/suite/run.py --workload fig18_local --seed 7 --seconds 20 --trace 0
  The last stdout line is {"correct", "attempted", "failed", "metrics"}:
  the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.

  A full pass, every workload in its own process, into a result file:
    python3 bench/suite/run.py [--seed N] --out R.json [--trace]
  With --trace the pass is the traced one: per-layer metrics, plus one
  span file per workload next to R.json (R.<workload>.trace.json).

  The smoke check (also registered with ctest):
    python3 bench/suite/run.py --smoke [--binary PATH]

The binary is built from source into .bench_build/ at the repository
root (CMake, Release).  Output checks: every rep of a run must
reproduce the same simulated outputs, each workload's own cross-checks
must hold, and at a workload's pinned seed its digest must equal the one
in digests.json.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (once) and build quartz_bench; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run.py: no simulator sources at src/ (run from a full checkout)")
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "quartz_bench"],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit("run.py: building quartz_bench failed: %s" % e)
    return BUILD / "quartz_bench"


def load_pinned():
    with open(SUITE / "digests.json") as f:
        return json.load(f)


def run_binary(binary, workload, seed=None, seconds=None, trace=False, smoke=False,
               trace_out=None):
    """Run one workload (at its pinned seed by default); return the binary's JSON result."""
    if seed is None:
        seed = load_pinned()[workload]["seed"]
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed]
    if seconds is not None:
        cmd.append("--seconds=%s" % seconds)
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
        if trace_out:
            cmd.append("--trace-out=" + str(trace_out))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run.py: %s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def pinned_failures(result):
    """Check the digest pinned for this workload at its seed, if any."""
    pinned = load_pinned().get(result["workload"])
    if result["smoke"] or pinned is None or pinned["seed"] != result["seed"]:
        return 0, []
    if pinned["digest"] == result["digest"]:
        return 1, []
    return 1, ["%s: digest %s differs from the pinned %s at seed %d" % (
        result["workload"], result["digest"], pinned["digest"], result["seed"])]


def checked(result, specs):
    """Checks (binary + pinned digest) and the metrics `specs` names."""
    attempted, failures = pinned_failures(result)
    attempted += result["checks"]["attempted"]
    failures = result["checks"]["failures"] + failures
    metrics = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise SystemExit("run.py: %s printed no metric %s in %s" % (
                result["workload"], spec["name"], spec["unit"]))
        metrics[spec["name"]] = got
    for failure in failures:
        log("check failed: " + failure)
    return attempted, failures, metrics


def one_workload(args, bench):
    binary = build()
    trace = args.trace == "1"
    trace_out = BUILD / ("%s.trace.json" % args.workload) if trace else None
    result = run_binary(binary, args.workload, args.seed, args.seconds, trace,
                        trace_out=trace_out)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    attempted, failures, metrics = checked(result, specs)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))


def machine():
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown",
            "compiler": "unknown", "commit": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open(BUILD / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    info["compiler"] = subprocess.run(
                        [cxx, "--version"], stdout=subprocess.PIPE,
                        text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    try:
        info["commit"] = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return info


def full_pass(args, bench):
    binary = build()
    trace = args.trace == "1"
    out = Path(args.out)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    report = {"machine": machine(), "traced": trace, "seed": args.seed,
              "run_seconds": seconds, "workloads": {}}
    bad = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        log("== %s" % workload)
        trace_out = out.with_name("%s.%s.trace.json" % (out.stem, workload)) if trace else None
        result = run_binary(binary, workload, args.seed, seconds, trace, trace_out=trace_out)
        specs = bench["per_layer"] if trace else bench["end_to_end"]
        attempted, failures, metrics = checked(result, specs)
        bad += len(failures)
        report["workloads"][workload] = {
            "seed": result["seed"], "reps": result["reps"], "digest": result["digest"],
            "checks": {"attempted": attempted, "failed": len(failures), "failures": failures},
            "error_rate": len(failures) / attempted if attempted else 0.0,
            "metrics": {name: {k: m[k] for k in ("value", "unit", "n") if k in m}
                        for name, m in metrics.items()},
        }
        for name, m in metrics.items():
            log("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    log("wrote %s" % out)
    return 1 if bad else 0


def smoke(args, bench):
    binary = Path(args.binary) if args.binary else build()
    bad = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, specs in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = run_binary(binary, workload, trace=trace, smoke=True)
            names = {s["name"] for s in specs}
            extra = sorted(set(result["metrics"]) - names)
            _, failures, _ = checked(result, specs)
            if extra:
                failures.append("%s prints metrics BENCHMARK.json lacks: %s" % (
                    workload, ", ".join(extra)))
            bad += len(failures)
            log("smoke %-15s %-9s %d metrics, %d checks, %d failed" % (
                workload, "traced" if trace else "untraced", len(specs),
                result["checks"]["attempted"], len(failures)))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload and print one result line")
    parser.add_argument("--seed", type=int,
                        help="input seed (default: the seed digests.json pins per workload)")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"],
                        help="traced pass: per-layer metrics and spans")
    parser.add_argument("--out", help="full pass: write every workload's result here")
    parser.add_argument("--smoke", action="store_true", help="shrunken check of every metric")
    parser.add_argument("--binary", help="with --smoke: use this quartz_bench")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.smoke:
        return smoke(args, bench)
    if args.workload:
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            parser.error("unknown workload %s" % args.workload)
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        one_workload(args, bench)
        return 0
    if args.out:
        return full_pass(args, bench)
    parser.error("give --workload, --out or --smoke")
    return 2


if __name__ == "__main__":
    sys.exit(main())
