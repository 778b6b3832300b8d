#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload sat-radix16-sh4 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced
    python3 perfbench/run.py --self-test             # harness self-test

The script builds perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the benchmark
binary and checks that its result names exactly the metrics BENCHMARK.json
declares. The last line of stdout is the result JSON; the exit code is 0
only when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ["sat-radix16-sh4", "reqreply-radix16"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
        return 1


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "sim" / "simulator.cpp").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return None
    cmake_dir = build_dir() / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        if run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "--build", str(cmake_dir), "-j", jobs],
                 BUILD_TIMEOUT_S) != 0:
        return None
    binary = cmake_dir / "sldf-perfbench"
    return binary if binary.is_file() else None


def git_sha():
    # Only a checkout that is itself a git repository has a commit; never
    # look further up the tree.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def src_sha256():
    """Hash of the simulator sources: names the code measured even where
    no git commit is available."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; echoes its output and returns its result dict
    (None when it printed none)."""
    out_dir = build_dir() / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out_dir), "--git-sha", git_sha(),
           "--src-sha256", src_sha256()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: no result line (exit {proc.returncode})")
        return None
    if proc.returncode != 0 and result.get("failed", 0) == 0:
        result["failed"] = 1
    # The result must name exactly the declared metrics, with their units.
    declared = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if result.get("metrics") and got != declared:
        log(f"{workload}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(got))}, "
            f"extra {sorted(set(got) - set(declared))}")
        result["failed"] = result.get("failed", 0) + 1
    result["attempted"] = max(result.get("attempted", 0), 1)
    result["correct"] = bool(result.get("correct")) and result["failed"] == 0
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload or --self-test is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    if args.self_test:
        try:
            return subprocess.run([str(binary), "--self-test"],
                                  timeout=RUN_TIMEOUT_S,
                                  check=False).returncode
        except subprocess.TimeoutExpired:
            log(f"self-test timed out after {RUN_TIMEOUT_S} s")
            return 1

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_one(binary, name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        results[name] = res
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
