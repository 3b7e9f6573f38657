#!/usr/bin/env python3
"""End-to-end benchmark of the Amdahl market: one workload, one seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1> [--size full|smoke]

Run from the root of a checkout. The first run configures and builds
perfbench/ (the repository's libraries plus the C++ runner) into
.bench_build/; later runs only re-check the build. The runner makes as
many requests as take --seconds on the machine the benchmark was sized
on (perfbench/README.md), checks its outputs, and reports; this
script adds the cross-run checks and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.

Cross-run checks: the output digests and deterministic work counters
of every input variant a run covers are recorded per (runner binary,
workload, size, seed) in .bench_build/determinism/; a later run of the
same binary and seed that disagrees is reported as incorrect.

Exit status: 0 when a result line was printed (read `correct` for the
verdict), non-zero when no result could be produced — including when
the repository's sources are not next to perfbench/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("clear-1e5", "online-durable", "online-sharded")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then (re)build the runner. Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"{ROOT} has no src/CMakeLists.txt; run from the root of a "
            "full checkout", 2)
    if shutil.which("cmake") is None:
        die("cmake not found on PATH", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(f"build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "perfbench_runner")


def metric_names(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def binary_id(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def check_repeat(binary, key, variants):
    """Compare each input variant's digests and counters with those of
    every earlier run of the same binary and key (a run may cover fewer
    variants than another). Returns a list of problems."""
    directory = os.path.join(BUILD_ROOT, "determinism")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, binary_id(binary) + ".json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    known = seen.get(key, [])
    problems = [f"variant {i} differs from an earlier run of the same build "
                f"and seed: {old} vs {new}"
                for i, (old, new) in enumerate(zip(known, variants))
                if old != new]
    if len(variants) > len(known):
        seen[key] = known + variants[len(known):]
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(seen, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0", 2)

    binary = build()
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(BUILD_ROOT, "work", f"{tag}-{os.getpid()}")
    spans = os.path.join(BUILD_ROOT, "traces", f"{tag}.spans.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--spans", spans]
    if args.size == "smoke":
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"runner exited with {proc.returncode}")
    report = json.loads(lines[-1])

    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    problems = list(report["problems"])
    key = f"{args.workload}/{args.size}/seed={args.seed}"
    problems += check_repeat(binary, key, report["variants"])
    expected = metric_names(bool(args.trace))
    if sorted(expected) != sorted(report["metrics"]):
        problems.append(f"metrics emitted {sorted(report['metrics'])} "
                        f"differ from BENCHMARK.json {sorted(expected)}")
    failed_checks = [name for name, ok in report["checks"].items() if not ok]
    correct = (not failed_checks and not problems
               and report["failed"] == 0 and report["attempted"] >= 1)

    for i, variant in enumerate(report["variants"]):
        for name, value in sorted(variant["digests"].items()):
            print(f"digest {args.workload} seed={args.seed} variant={i} "
                  f"{name}={value}")
    print(f"checks passed: {sorted(n for n, ok in report['checks'].items() if ok)}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    metrics = {name: report["metrics"][name] for name in expected
               if name in report["metrics"]}
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
