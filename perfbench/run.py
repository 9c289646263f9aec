#!/usr/bin/env python3
"""Builds recoverd_bench from source and runs the recoverd benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload fleet_emn_d1 --seed 7 --seconds 10 --trace 0

prints the run's lines and, as its last line, one JSON object with
"correct", "attempted", "failed" and "metrics" (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1).

A record (the A/B unit of perfbench/compare.py):

    python3 perfbench/run.py --workload all --reps 3 --out A.json [--append]

runs every workload --reps times untraced plus once traced, checks that all
runs of a workload produced the same output digest, prints every metric with
its unit and writes a recoverd.bench.v2 record. --append adds the new reps
to an existing record, so alternating runs of two checkouts build paired
records. Exits nonzero on any failed check.

Run from the root of a checkout. The build goes to .bench_build/.
"""
import argparse
import fcntl
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "recoverd_bench")
SCHEMA = "recoverd.bench.v2"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                       stdout=sys.stderr)


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns its parsed lines and exit code."""
    scratch = os.path.join(BUILD, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--scratch={scratch}"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    out = {"metrics": {}, "checks": {}, "info": {}, "digest": None,
           "exit": proc.returncode}
    for line in proc.stdout.splitlines():
        print(line, flush=True)
        parts = line.split()
        if len(parts) != 4 or parts[0] != workload:
            continue
        _, name, value, unit = parts
        if unit == "check":
            out["checks"][name[len("check."):]] = value
        elif unit == "info":
            out["info"][name] = value
        elif unit == "hex":
            out["digest"] = value
        else:
            out["metrics"][name] = {"value": float(value), "unit": unit}
    return out


def correct(run):
    return (run["exit"] == 0 and bool(run["checks"]) and
            all(v == "pass" for v in run["checks"].values()))


def driver_mode(args, spec):
    """One run, summarised as one JSON line: correct, attempted, failed, metrics."""
    run = run_once(args.workload, args.seed, args.seconds, args.trace)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            log(f"run.py: {args.workload} did not report a finite {m['name']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    counts = run["metrics"]
    result = {
        "correct": correct(run),
        "attempted": int(counts.get("attempted", {"value": 0})["value"]),
        "failed": int(counts.get("failed", {"value": 0})["value"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def summarize(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def record_mode(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    record = {}
    if args.append and args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
        if record.get("schema") != SCHEMA or record.get("seed") != args.seed:
            log("run.py: --append needs a record of the same schema and seed")
            return 1
    record.update({
        "schema": SCHEMA,
        "machine": {"cores": os.cpu_count(), "cpu_model": cpu_model()},
        "git_rev": git_rev(),
        "seed": args.seed,
        "seconds": args.seconds,
    })
    workloads = record.setdefault("workloads", {})
    ok = True
    for name in selected:
        cell = workloads.setdefault(name, {"raw": {}, "digests": [], "checks": {}})
        runs = [run_once(name, args.seed, args.seconds, 0) for _ in range(args.reps)]
        traced = run_once(name, args.seed, args.seconds, 1)
        for run in runs + [traced]:
            cell["digests"].append(run["digest"])
            for check, value in run["checks"].items():
                if value != "pass" or check not in cell["checks"]:
                    cell["checks"][check] = value
            if run["exit"] != 0:
                cell["checks"]["exit_code"] = "fail"
            ok = ok and correct(run)
        # Every run of one seed — traced or not, this call or an appended
        # one — must have made exactly the same decisions.
        same = len(set(cell["digests"])) == 1
        cell["checks"]["digest_repeats"] = "pass" if same else "fail"
        ok = ok and same
        counts = ("attempted", "failed", "samples", "repeats", "setup_reps")
        for m in spec["end_to_end"] + [{"name": n} for n in counts]:
            for run in runs:
                if m["name"] in run["metrics"]:
                    cell["raw"].setdefault(m["name"], []).append(
                        run["metrics"][m["name"]]["value"])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cell["metrics"] = {k: dict(summarize(v), unit=units.get(k, "count"), values=v)
                           for k, v in cell["raw"].items()}
        cell["per_layer"] = {k: v for k, v in traced["metrics"].items()
                             if k not in ("attempted", "failed")}
        if "simd" in traced["info"]:
            record["machine"]["simd"] = traced["info"]["simd"]
        if "threads" in traced["info"]:
            record["threads"] = int(traced["info"]["threads"])
    record["all_checks_passed"] = all(
        v == "pass" for cell in workloads.values() for v in cell["checks"].values())
    ok = ok and record["all_checks_passed"]

    print_record(record, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"wrote {args.out}")
    return 0 if ok else 1


def print_record(record, spec):
    for name, cell in record["workloads"].items():
        print(f"== {name}")
        for m in spec["end_to_end"]:
            s = cell["metrics"].get(m["name"])
            if s:
                print(f"  {m['name']:<28} {s['median']:>16.6g} {m['unit']:<8} "
                      f"IQR {s['iqr']:.4g} (n={s['n']})")
        for m in spec["per_layer"]:
            v = cell["per_layer"].get(m["name"])
            if v:
                print(f"  {m['name']:<40} {v['value']:>14.6g} {v['unit']}")
        failed = [k for k, v in cell["checks"].items() if v != "pass"]
        print(f"  checks: {'all pass' if not failed else 'FAILED ' + ', '.join(failed)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--append", action="store_true")
    args = p.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names and args.workload != "all":
        log(f"run.py: unknown workload {args.workload!r}; expected one of {names}")
        return 2
    build()
    if args.reps is None and args.out is None:
        if args.workload == "all":
            log("run.py: a single run takes one workload; use --reps for all")
            return 2
        return driver_mode(args, spec)
    args.reps = args.reps or 3
    return record_mode(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
