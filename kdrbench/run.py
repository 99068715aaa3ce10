#!/usr/bin/env python3
"""Build and run one benchmark workload, check it, and print its result.

Usage (from the repository root):
    python3 kdrbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is compiled from the library sources in this checkout (see
kdrbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build). With
--trace 0 the result carries the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a separate traced run, whose spans are
written next to the build. The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Virtual-clock outputs and iteration counts are deterministic. Each run stores
them per (workload, seed, source hash) in the build directory, and a later run
of the same code that reproduces them differently is reported as incorrect.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 170.0  # the workload binary alone; a first run also builds


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"kdrbench: {spec_path.name} not found at the repository root")
    return json.loads(spec_path.read_text())


def source_hash():
    """Hash of every library and benchmark source file: the 'same code' key."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build(build_root):
    if not (ROOT / "src" / "kdr.hpp").is_file():
        raise SystemExit("kdrbench: library sources (src/) are missing from this checkout")
    build_dir = build_root / "kdrbench"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise SystemExit(f"kdrbench: build step failed: {' '.join(cmd)}")
    return build_dir / "kdrbench"


def run_binary(binary, args, spans_path, deadline):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("kdrbench: workload exceeded its time limit")
    result = None
    for line in out.splitlines():
        if line.startswith("KDRBENCH "):
            result = json.loads(line[len("KDRBENCH "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        raise SystemExit(f"kdrbench: workload exited with code {proc.returncode}")
    return result


def check_reproduction(store_path, key, fingerprint, problems):
    """Compare deterministic outputs with the previous run of the same key."""
    store = {}
    if store_path.is_file():
        store = json.loads(store_path.read_text())
    previous = store.get(key, {})
    compared = [name for name in sorted(fingerprint) if name in previous]
    mismatched = [name for name in compared if previous[name] != fingerprint[name]]
    for name in mismatched:
        problems.append(f"{name} = {fingerprint[name]!r} but the previous run of the same "
                        f"code, workload and seed gave {previous[name]!r}")
    store[key] = {**previous, **fingerprint}
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return len(compared), len(mismatched)


def main():
    args = parse_args()
    spec = load_spec()
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise SystemExit(f"kdrbench: unknown workload {args.workload!r}; known: {sorted(names)}")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    build_root.mkdir(parents=True, exist_ok=True)
    binary = build(build_root)

    spans_path = None
    if args.trace == "1":
        spans_path = build_root / f"spans_{args.workload}_seed{args.seed}.json"
    raw = run_binary(binary, args, spans_path, time.monotonic() + RUN_LIMIT_S)

    problems = list(raw["problems"])
    wanted = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    metrics = {}
    print(f"--- {args.workload} seed {args.seed}, "
          f"{'traced: per-layer' if args.trace == '1' else 'untraced: end-to-end'} metrics")
    for m in wanted:
        name, unit = m["name"], m["unit"]
        got = raw["metrics"].get(name)
        if got is None:
            if args.trace == "0":
                problems.append(f"end-to-end metric {name} was not measured")
                continue
            # A layer this workload does not exercise.
            metrics[name] = {"value": 0, "unit": unit}
            print(f"{name:32s} n/a on this workload")
            continue
        if got["unit"] != unit or got["value"] is None:
            problems.append(f"{name}: measured {got['value']} {got['unit']}, expected unit {unit}")
            continue
        metrics[name] = {"value": got["value"], "unit": unit}
        print(f"{name:32s} {got['value']:.6g} {unit}")
    unlisted = sorted(set(raw["metrics"]) - {m["name"] for m in wanted})
    for name in unlisted:
        print(f"{name:32s} {raw['metrics'][name]['value']:.6g} {raw['metrics'][name]['unit']}"
              "   (not a metric of this mode)")

    key = (f"{args.workload}/seed{args.seed}/trace{args.trace}/seconds{args.seconds:g}/"
           f"{source_hash()}")
    compared, mismatched = check_reproduction(build_root / "fingerprints.json", key,
                                              raw["fingerprint"], problems)
    if compared:
        print(f"deterministic outputs: {compared - mismatched} of {compared} match the "
              f"previous run of {key}")
    else:
        print(f"deterministic outputs recorded for {key} (no previous run)")
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(fail_ratio {failed / attempted if attempted else float('nan'):.6g})")
    correct = bool(raw["correct"]) and not problems and attempted >= 1
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
