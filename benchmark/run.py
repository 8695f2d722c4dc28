#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 benchmark/run.py --workload grid-join --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The first run configures and builds the
driver (benchmark/CMakeLists.txt, which builds the dtt library from the
repository's own CMakeLists.txt) into $CARGO_TARGET_DIR/cmake, or
.bench_build/cmake when that is unset; later runs rebuild incrementally.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). A traced run also folds the Chrome trace into per-layer self
time (fold_trace.py) and fails when the named layers cover less than 95% of
the traced rounds' wall time. The exit code is 0 only when every output check
passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree
import fold_trace  # noqa: E402

WORKLOADS = ("grid-join", "neural-join")
MIN_COVERAGE = 0.95
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dtt_bench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "dtt_bench")


def traced_metrics(aux, metrics):
    """Adds the fold's per-layer figures; returns the trace coverage."""
    cycles = max(1.0, float(aux.get("traced_cycles", 0)))
    result = fold_trace.fold(fold_trace.load_events(aux["trace_path"]))
    fold_trace.print_table(result, cycles)
    prefill, decode = fold_trace.nn_split(result)
    prefill /= cycles
    decode /= cycles
    prefill_tokens = float(aux.get("prefill_tokens_per_cycle", 0.0))
    decode_tokens = float(aux.get("decode_tokens_per_cycle", 0.0))

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("nn.prefill_s", prefill, "s")
    put("nn.prefill_tokens_per_s",
        prefill_tokens / prefill if prefill > 0 else 0.0, "tokens/s")
    put("nn.decode_s", decode, "s")
    put("nn.decode_tokens_per_s",
        decode_tokens / decode if decode > 0 else 0.0, "tokens/s")
    for layer in ("core", "serve", "models", "nn", "eval"):
        put(f"fold.{layer}_self_s",
            result["self_s"].get(layer, 0.0) / cycles, "s")
    put("trace.coverage_ratio", result["coverage"], "ratio")
    return result["coverage"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    repo_root = os.path.dirname(HERE)
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(repo_root, needed)):
            log(f"no {needed} next to {os.path.basename(HERE)}/: the benchmark "
                "builds the program from the repository's sources")
            return 2

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target_dir, "cmake"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 3

    work_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
        lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
        if not lines:
            log(f"driver exited {proc.returncode} without a result")
            return 4
        raw = json.loads(lines[-1])
        aux = raw.get("aux", {})
        correct = bool(raw["correct"])
        metrics = raw["metrics"]
        if args.trace:
            if not aux.get("trace_path"):
                log("traced run wrote no trace")
                return 4
            coverage = traced_metrics(aux, metrics)
            if coverage < MIN_COVERAGE:
                log(f"trace coverage {coverage:.4f} is below {MIN_COVERAGE}")
                correct = False
        if aux.get("check_failures"):
            log(f"check failures: {aux['check_failures']}")
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        return 5
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
