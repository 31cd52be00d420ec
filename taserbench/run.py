#!/usr/bin/env python3
"""The repo benchmark: TASER training and serving at the paper's shapes.

Run from the root of a checkout:

    python3 taserbench/run.py --workload train-adaptive --seed 1 --seconds 10 --trace 0
    python3 taserbench/run.py --selftest

The first run builds the taser library and the benchmark program (taserbench/*.cpp)
from source into .bench_build/. Each run generates its inputs from --seed,
runs one workload in a child process, checks its outputs, prints every
metric with its unit, writes a report to .bench_out/, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones,
taken from a separate traced run. taserbench/metrics.json says what each
metric means, its basis, and which workloads report it.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "taserbench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "taserbench"
RUN_TIMEOUT_S = 170
SELFTEST_SECONDS = 2


def die(msg):
    print(f"taserbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds once per checkout; later runs only re-check."""
    if not (ROOT / "src" / "core" / "trainer.h").is_file():
        die(f"taser sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    with open(BUILD_DIR / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except subprocess.TimeoutExpired:
                die(f"build step timed out: {' '.join(cmd)}")
            if rc != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                die(f"build step failed: {' '.join(cmd)}")


def run_program(workload, seed, seconds, trace, omp_threads, tiny=False):
    """Runs one workload in a child process and returns its report."""
    work = OUT_DIR / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(work)]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, OMP_NUM_THREADS=str(omp_threads))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr[-4000:])
        die(f"{workload} exited with code {proc.returncode} and no report")
    report = json.loads(lines[-1])
    report["exit_code"] = proc.returncode
    return report


def select_metrics(report, workload, names, meta, meta_section):
    """Picks `names` (name -> unit) out of a report. A metric whose layer
    does no work on this workload reads 0; one the workload should report
    but did not is an error."""
    out, errors = {}, []
    for name, unit in names.items():
        m = report["metrics"].get(name)
        if m is None:
            if workload in meta[meta_section][name]["workloads"]:
                errors.append(f"missing metric {name}")
            m = {"value": 0.0, "unit": unit}
        if m["unit"] != unit:
            errors.append(f"{name}: unit {m['unit']} != {unit}")
        if m["value"] is None:
            errors.append(f"{name}: not a finite number")
        out[name] = {"value": m["value"], "unit": unit}
    return out, errors


def host_facts(report, omp_threads):
    notes = report.get("notes", {})
    return {
        "nproc": os.cpu_count(),
        "omp_threads": omp_threads,
        "build_type": notes.get("build_type"),
        "gemm_isa": notes.get("gemm_isa"),
        "telemetry": notes.get("telemetry_compiled_in"),
        "failpoints": notes.get("failpoints_compiled_in"),
    }


def print_table(workload, trace, report, facts):
    print(f"== {workload} ({'traced' if trace else 'untraced'}) "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, m in sorted(report["metrics"].items()):
        print(f"  {name:34s} {m['value']!s:>24} {m['unit']}")
    for c in report["checks"]:
        print(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} {c['detail']}")


def run_one(workload, seed, seconds, trace, tiny=False, quiet=False):
    bench = load_json(ROOT / "BENCHMARK.json")
    meta = load_json(BENCH_DIR / "metrics.json")
    if workload not in meta["workloads"]:
        die(f"unknown workload {workload}")
    omp = meta["workloads"][workload]["omp_threads"]
    report = run_program(workload, seed, seconds, trace, omp, tiny)

    section = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in bench[section]}
    metrics, errors = select_metrics(report, workload, names, meta, section)
    if not trace:
        errors += [f"{n} is 0" for n, m in metrics.items() if not m["value"]]
    errors += [f"check {c['name']} failed: {c['detail']}" for c in report["checks"] if not c["ok"]]
    if report["exit_code"] != 0:
        errors.append(f"benchmark program exited with code {report['exit_code']}")
    correct = not errors

    facts = host_facts(report, omp)
    if not quiet:
        print_table(workload, trace, report, facts)
        for e in errors:
            print(f"  ERROR {e}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(out_path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "host": facts, "correct": correct,
                   "errors": errors, "selected": metrics, "report": report},
                  f, indent=1)
    result = {"correct": correct, "attempted": max(1, report["attempted"]),
              "failed": report["failed"], "metrics": metrics}
    return result, report, errors


def selftest():
    """Runs every workload at tiny sizes, traced and untraced, and checks
    that every metric BENCHMARK.json and metrics.json name appears with its
    unit, that the reports parse, and that val MRR repeats bit for bit."""
    bench = load_json(ROOT / "BENCHMARK.json")
    meta = load_json(BENCH_DIR / "metrics.json")
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(meta["workloads"]):
        problems.append("BENCHMARK.json and metrics.json list different workloads")
    for section in ("end_to_end", "per_layer"):
        if {m["name"] for m in bench[section]} != set(meta[section]):
            problems.append(f"{section}: BENCHMARK.json and metrics.json name different metrics")
    for workload in meta["workloads"]:
        mrr_bits = []
        for trace in (False, True, False):
            result, report, errors = run_one(workload, 1, SELFTEST_SECONDS, trace,
                                             tiny=True, quiet=True)
            json.loads(json.dumps(result))
            problems += [f"{workload} trace={int(trace)}: {e}" for e in errors]
            expected = bench["per_layer" if trace else "end_to_end"]
            for m in expected:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload}: {m['name']} missing or wrong unit")
            for name, info in meta["reported"].items():
                if workload in info["workloads"] and not trace:
                    got = report["metrics"].get(name)
                    if got is None or got["unit"] != info["unit"]:
                        problems.append(f"{workload}: reported metric {name} missing or wrong unit")
            if "train.val_mrr_bits" in report.get("notes", {}) and not trace:
                mrr_bits.append(report["notes"]["train.val_mrr_bits"])
        if len(set(mrr_bits)) > 1:
            problems.append(f"{workload}: train.val_mrr differs between repeats {mrr_bits}")
        print(f"selftest {workload}: {'ok' if not problems else 'problems so far'}")
    for p in problems:
        print(f"selftest FAILED: {p}")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build()
    if args.selftest:
        sys.exit(selftest())
    if not args.workload:
        ap.error("--workload is required")
    result, _, _ = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
