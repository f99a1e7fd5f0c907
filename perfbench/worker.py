"""One fresh benchmark process: set up a workload, then run its fixed op
list in passes and report timings, checks and exact counters as one JSON
line on stdout.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode setup|measure|trace --t0 T --out DIR

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, imports, input generation and, for ``queries``, the
pre-filled cache. ``run.py`` is the entry point; see README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)
from patex.rng import SplitMix64  # noqa: E402
from spans import Tracer  # noqa: E402

# Op counters that a layer's span counter must reproduce exactly.
MIRRORED = {
    "nodes": ("search.exact_ex", "nodes"),
    "deletions": ("search.deletion_lower_bound", "deletions"),
    "levels": ("increment.run_driver", "levels"),
    "hits": ("cache.get", "hits"),
}


# Benchmark machines are often shared. On the 2-core x86-64 machine this was
# tuned on, the speed for interpreter code swung by up to 1.5x in spells
# lasting from under a second to tens of seconds, which moved the median
# pass time of one workload by 20-33% between runs. Every measured time is
# therefore rescaled to a fixed reference speed. A
# SIGALRM every TICK_S runs a fixed probe loop in the main thread, between
# two bytecodes of whatever op is running, so the speed is sampled inside
# long ops too. An op's time, less the ticks that ran inside it, is
# multiplied by PROBE_NOMINAL_S over the mean probe time of the ticks from
# WINDOW_S before it starts to WINDOW_S after it ends. PROBE_NOMINAL_S is
# the probe's time on an unloaded 2-core x86-64 machine, so reference
# seconds read close to wall seconds there. Raw wall times go to the result
# file alongside.
TICK_S = 0.02
WINDOW_S = 0.03
PROBE_NOMINAL_S = 0.0003


def probe() -> float:
    """Seconds for a fixed pure-Python integer loop (about 0.3 ms)."""
    start = time.perf_counter()
    x = 0
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFFFFFF
        x ^= x >> 3
    return time.perf_counter() - start


class Speedometer:
    """Collects (end time, probe seconds) ticks while it is entered."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        d = probe()
        self.ticks.append((time.perf_counter(), d))

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def rescale(self, stamps: list) -> list[tuple[float, float]]:
        """Per (start, end, ...) stamp: the tick seconds inside [start, end]
        and the factor that turns the op's time into reference seconds."""
        ends = [t for t, _ in self.ticks]
        out = []
        for start, end, *_ in stamps:
            inside = self.ticks[bisect.bisect_left(ends, start):bisect.bisect_right(ends, end)]
            near = self.ticks[bisect.bisect_left(ends, start - WINDOW_S):bisect.bisect_right(ends, end + WINDOW_S)]
            if not near:  # no tick that close: take the nearest one
                i = min(bisect.bisect_left(ends, end), len(ends) - 1)
                near = self.ticks[i:i + 1]
            out.append((sum(d for _, d in inside), PROBE_NOMINAL_S * len(near) / sum(d for _, d in near)))
        return out


class Raised:
    """Output slot of an op that raised; its check always fails."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def run_pass(wl: workloads.Workload, tracer: Tracer | None) -> dict:
    """One pass over the op list. ``scale[i]`` turns op i's measured times
    into reference seconds."""
    wl.reset()
    outputs, stamps = [], []
    clock, cpu_clock = time.perf_counter, time.process_time
    with Speedometer() as speed:
        t0 = clock()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = i
            start, cpu_start = clock(), cpu_clock()
            try:
                out = op.call()
            except Exception as exc:  # a raising op is a failed op; the run goes on
                traceback.print_exc(file=sys.stderr)
                out = Raised(exc)
            stamps.append((start, clock(), cpu_clock() - cpu_start))
            outputs.append(out)
        raw_wall = clock() - t0
        time.sleep(WINDOW_S)  # let the last op's window fill
    latencies, cpu, scale = [], [], []
    for (start, end, cpu_s), (ticks, f) in zip(stamps, speed.rescale(stamps)):
        latencies.append((end - start - ticks) * f)
        cpu.append(max(0.0, cpu_s - ticks) * f)
        scale.append(f)
    return {
        "wall": sum(latencies),
        "cpu": sum(cpu),
        "raw_wall": raw_wall,
        "latencies": latencies,
        "scale": scale,
        "outputs": outputs,
    }


def digest_and_counts(wl: workloads.Workload, outputs: list) -> tuple[str, dict]:
    h = hashlib.sha256()
    counts: dict = {}
    for op, out in zip(wl.ops, outputs):
        if isinstance(out, Raised):
            doc = {"raised": out.text}
        else:
            doc = op.summary(out)
            for key, value in op.counts(out).items():
                counts[key] = counts.get(key, 0) + value
        h.update(json.dumps(doc, sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest(), counts


def failures(wl: workloads.Workload, outputs: list) -> list:
    found = []
    for i, (op, out) in enumerate(zip(wl.ops, outputs)):
        if isinstance(out, Raised):
            why = f"raised {out.text}"
        else:
            try:
                why = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            found.append({"op": i, "kind": op.kind, "why": why})
    return found


def percentile(sorted_xs: list, q: float) -> float:
    """Nearest-rank percentile of one pass's op latencies; the report gives
    the median of it over the untraced passes, which a slow spell of the
    machine during one pass does not move."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("extremal", "drivers", "queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    workdir = args.out / f"work-{os.getpid()}"
    try:
        wl = getattr(workloads, args.workload)(SplitMix64(args.seed), workdir)
        ready = time.perf_counter()
        speed = PROBE_NOMINAL_S / statistics.median(probe() for _ in range(15))
        report = {"setup_s": (ready - args.t0) * speed, "raw_setup_s": ready - args.t0, "ops": len(wl.ops)}
        if args.mode != "setup":
            report.update(measure(wl, args, ready))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(wl: workloads.Workload, args, ready: float) -> dict:
    """Passes until ``--seconds`` have gone by and at least two are done:
    untraced passes in measure mode; untraced and traced passes in turn in
    trace mode. Outputs are checked after the first pass and only
    compared, by digest and counters, after the others."""
    passes, tracers, mismatches = [], [], []
    failed = 0
    while True:
        traced = args.mode == "trace" and len(passes) % 2 == 1
        if traced:
            tracer = Tracer()
            with tracer:
                p = run_pass(wl, tracer)
            tracers.append(tracer)
        else:
            p = run_pass(wl, None)
        outputs = p.pop("outputs")
        digest, counts = digest_and_counts(wl, outputs)
        if not passes:
            first_digest, first_counts = digest, counts
            first_failures = failures(wl, outputs)
            failed += len(first_failures)
        elif digest != first_digest or counts != first_counts:
            mismatches.append(f"pass {len(passes)} outputs differ from pass 0")
            failed += len(failures(wl, outputs))
        else:
            failed += len(first_failures)
        p["traced"] = traced
        if not traced:
            del p["scale"]
        passes.append(p)
        if len(passes) >= 2 and time.perf_counter() - ready >= args.seconds:
            break

    layer_counts = [t.counts for t in tracers]
    for i, c in enumerate(layer_counts[1:], 1):
        if c != layer_counts[0]:
            mismatches.append(f"traced pass {i} layer counters differ from traced pass 0")
    if layer_counts:
        for key, (layer, counter) in MIRRORED.items():
            got = layer_counts[0][layer].get(counter, 0)
            if key in first_counts and got != first_counts[key]:
                mismatches.append(f"{layer}.{counter} = {got} but the outputs give {key} = {first_counts[key]}")

    plain = [p for p in passes if not p["traced"]]
    per_pass = [sorted(p["latencies"]) for p in plain]
    report = {
        "passes": [{k: p[k] for k in ("traced", "wall", "cpu", "raw_wall")} for p in passes],
        "attempted": len(wl.ops) * len(passes),
        "failed": failed,
        "failures": first_failures[:20],
        "mismatches": mismatches,
        "op_counts": first_counts,
        "digest": first_digest,
        "latency_samples": len(wl.ops),
        **{f"op_p{q}_ms": 1000 * statistics.median(percentile(lat, q / 100) for lat in per_pass)
           for q in (50, 90, 99)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracers:
        selfs = [t.self_seconds(p["scale"]) for t, p in zip(tracers, (p for p in passes if p["traced"]))]
        report["layer_counts"] = layer_counts[0]
        report["layer_self_s"] = {name: statistics.median(s[name] for s in selfs) for name in selfs[0]}
        report["trace_overhead_frac"] = (
            statistics.median(p["wall"] for p in passes if p["traced"])
            / statistics.median(p["wall"] for p in plain) - 1
        )
        spans_path = args.out / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps([t.spans for t in tracers]))
        report["spans_file"] = str(spans_path)
    return report


if __name__ == "__main__":
    sys.exit(main())
