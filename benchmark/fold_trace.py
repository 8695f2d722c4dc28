#!/usr/bin/env python3
"""Fold a Chrome trace (src/obs/trace.cc format) into per-layer self time.

Each thread's complete ("X") spans are nested by time; a span's self time is
its duration minus that of its direct children. A span belongs to the layer
named by its prefix (`models.transform_batch` -> models), with `pipeline.*`
counted as core. Retroactive spans (serve.queue_wait, emitted after the fact
with an earlier start) overlap freely and are left out.

Some spans only wait for other threads: core.transform_all and
pipeline.transform_all block on the service's futures. Their self time is
waiting, not work of any layer.

Coverage is measured on the wall clock of the benchmark's rounds, the
`bench.round` spans of the driver thread. Each instant of a round counts as
covered when the driver thread is in a named layer's own work, or when it
waits and some other thread is in a named layer's own work at that instant.
Everything else is uncovered: the driver's own code between calls
(`bench.*` self time), and waiting while no thread does named work (thread
start-up, idle workers, work outside any span). The fold fails (exit 1) when
coverage is below --min-coverage (default 0.95).

It also sums the neural engine's spans into prefill and decode time:
prefill = nn.generate_batch - nn.generate_step + nn.session_admit,
decode = nn.generate_step + nn.session_step.

Usage: fold_trace.py TRACE.json [--cycles N] [--min-coverage 0.95]
"""

import argparse
import collections
import json
import sys

LAYERS = ("data", "io", "text", "models", "serve", "nn", "gemm", "core",
          "eval")
ALIASES = {"pipeline": "core"}
RETROACTIVE_SPANS = frozenset({"serve.queue_wait"})
WAITING_SPANS = frozenset({"core.transform_all", "pipeline.transform_all"})
ROUND_SPAN = "bench.round"
WAIT = "(wait)"
OTHER = "(unattributed)"
MAX_THREADS_SHOWN = 6
NN_SPANS = ("nn.generate_batch", "nn.generate_step", "nn.session_admit",
            "nn.session_step")


def category(name):
    """The layer of a span's self time, WAIT, or OTHER."""
    if name in WAITING_SPANS:
        return WAIT
    prefix = name.split(".", 1)[0]
    prefix = ALIASES.get(prefix, prefix)
    return prefix if prefix in LAYERS else OTHER


def load_events(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return doc["traceEvents"] if isinstance(doc, dict) else doc


def self_pieces(spans):
    """Splits one thread's spans, (start, end, name) sorted by start and then
    longest first, into the pieces of time each span spends outside its
    children: a list of (start, end, name)."""
    pieces = []
    stack = []  # [end, name, cursor]: cursor is where the open piece began

    def pop():
        end, name, cursor = stack.pop()
        if end > cursor:
            pieces.append((cursor, end, name))
        if stack:
            stack[-1][2] = max(stack[-1][2], end)

    for start, end, name in spans:
        while stack and stack[-1][0] <= start:
            pop()
        if stack:
            parent = stack[-1]
            if start > parent[2]:
                pieces.append((parent[2], start, parent[1]))
            parent[2] = max(parent[2], start)
            end = min(end, parent[0])  # a child never outlives its parent
        stack.append([end, name, start])
    while stack:
        pop()
    return pieces


def fold(events):
    """Returns per-thread and total self seconds per layer, the round wall
    time and its coverage, and the summed seconds of the neural engine's
    spans."""
    by_thread = collections.defaultdict(list)
    span_totals = collections.Counter()
    for e in events:
        if e.get("ph") != "X" or e.get("name") in RETROACTIVE_SPANS:
            continue
        start = float(e["ts"])
        end = start + float(e.get("dur", 0.0))
        by_thread[e["tid"]].append((start, end, e["name"]))
        if e["name"] in NN_SPANS:
            span_totals[e["name"]] += (end - start) / 1e6

    threads = {}
    total_self = collections.Counter()
    wall = 0.0
    sweep = []  # (time, order: 0 ends before 1 starts, kind, category)
    for tid, spans in by_thread.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        is_driver = any(name == ROUND_SPAN for _, _, name in spans)
        self_s = collections.Counter()
        for start, end, name in self_pieces(spans):
            cat = category(name)
            self_s[cat] += (end - start) / 1e6
            if is_driver:
                kind = "wait" if cat == WAIT else "driver"
            elif cat in LAYERS:
                kind = "busy"
            else:
                continue
            sweep.append((start, 1, kind, cat))
            sweep.append((end, 0, kind, cat))
        if is_driver:
            for start, end, name in spans:
                if name == ROUND_SPAN:
                    wall += (end - start) / 1e6
                    sweep.append((start, 1, "round", ""))
                    sweep.append((end, 0, "round", ""))
        threads[tid] = {"driver": is_driver, "self_s": dict(self_s)}
        total_self.update(self_s)

    # Walk the driver's rounds in time order, charging each instant.
    sweep.sort()
    charged = collections.Counter()
    busy = collections.Counter()
    driver = collections.Counter()
    waiting = 0
    in_round = 0
    last = None
    for time, order, kind, cat in sweep:
        if in_round and time > last:
            dt = (time - last) / 1e6
            if driver:
                for c, n in driver.items():
                    charged[c] += dt * n / sum(driver.values())
            elif waiting:
                total = sum(busy.values())
                if total:
                    for c, n in busy.items():
                        charged[c] += dt * n / total
                else:
                    charged[WAIT] += dt
            else:
                charged[OTHER] += dt
        last = time
        delta = 1 if order == 1 else -1
        if kind == "round":
            in_round += delta
        elif kind == "busy":
            busy[cat] += delta
        elif kind == "wait":
            waiting += delta
        else:
            driver[cat] += delta
        for counter in (busy, driver):
            if counter[cat] == 0:
                del counter[cat]

    covered = sum(v for k, v in charged.items() if k in LAYERS)
    return {
        "threads": threads,
        "self_s": dict(total_self),
        "wall_s": wall,
        "charged_s": dict(charged),
        "coverage": covered / wall if wall > 0 else 0.0,
        "nn_spans_s": dict(span_totals),
    }


def nn_split(result):
    """(prefill_s, decode_s) summed over the trace."""
    spans = result["nn_spans_s"]
    prefill = (spans.get("nn.generate_batch", 0.0)
               - spans.get("nn.generate_step", 0.0)
               + spans.get("nn.session_admit", 0.0))
    decode = spans.get("nn.generate_step", 0.0) + spans.get(
        "nn.session_step", 0.0)
    return max(0.0, prefill), decode


def print_table(result, cycles, out=sys.stderr):
    def parts(seconds):
        return ", ".join(f"{k} {v:.3f}" for k, v in
                         sorted(seconds.items(), key=lambda kv: -kv[1]))

    print(f"fold: coverage {result['coverage']:.4f} of "
          f"{result['wall_s']:.3f} s of rounds ({cycles} cycles); round "
          f"wall charged to: {parts(result['charged_s'])}", file=out)
    busiest = sorted(result["threads"].items(),
                     key=lambda kv: -sum(kv[1]["self_s"].values()))
    for tid, t in busiest[:MAX_THREADS_SHOWN]:
        role = "driver" if t["driver"] else "thread"
        print(f"fold: {role} {tid}: self s: {parts(t['self_s'])}", file=out)
    rest = busiest[MAX_THREADS_SHOWN:]
    if rest:
        print(f"fold: {len(rest)} more threads, self "
              f"{sum(sum(t['self_s'].values()) for _, t in rest):.3f} s",
              file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--cycles", type=float, default=1.0,
                        help="traced cycles; per-cycle figures divide by it")
    parser.add_argument("--min-coverage", type=float, default=0.95)
    args = parser.parse_args()
    result = fold(load_events(args.trace))
    print_table(result, args.cycles)
    prefill, decode = nn_split(result)
    cycles = max(1.0, args.cycles)
    print(json.dumps({
        "coverage": result["coverage"],
        "self_s_per_cycle": {k: v / cycles
                             for k, v in result["self_s"].items()},
        "nn_prefill_s_per_cycle": prefill / cycles,
        "nn_decode_s_per_cycle": decode / cycles,
    }))
    if result["coverage"] < args.min_coverage:
        print(f"fold: coverage {result['coverage']:.4f} is below "
              f"{args.min_coverage}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
