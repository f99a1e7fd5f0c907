"""Entry point of the patex benchmark.

    python3 perfbench/run.py --workload extremal|drivers|queries \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``patex`` from
``src/``. The workload runs in fresh worker processes (``worker.py``), one
client in a closed loop. With ``--trace 0`` it prints the end-to-end
metrics: ``setup_s`` is the median of five fresh set-ups, the others come
from the measuring process. With ``--trace 1`` one worker alternates
untraced and traced passes and it prints the per-layer metrics. The last
stdout line is the JSON result; a copy with provenance, sample counts and
any failed checks goes to ``.bench_out/``. Exit code 0 means every output
passed its check and every counter repeated exactly. README.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s

sys.path.insert(0, str(HERE))
from spans import LAYER_NAMES  # noqa: E402

# Per-layer counters beyond calls and self_s: (layer, counter) -> metric suffix.
LAYER_COUNTERS = {
    ("search.exact_ex", "nodes"): "nodes",
    ("cache.get", "hits"): "hits",
    ("search.deletion_lower_bound", "deletions"): "deletions",
    ("ohypergraph.build_column_hypergraph", "edges"): "edges",
    ("increment.run_driver", "levels"): "levels",
}
LAYER_RATIOS = {
    ("matrix.find_embedding", "found"): "found_ratio",
    ("ohypergraph.find_ordered_complete_t_partite", "found"): "found_ratio",
    ("cycles.embed_xmonotone_balanced", "found"): "found_ratio",
    ("increment.step", "embedded"): "embedded_ratio",
}


class BenchError(Exception):
    pass


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout;
    "unknown" when it is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--out", str(OUT)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker ran past the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    """Set-up-only workers run before and after the measuring one, so the
    set-up samples span the run rather than one moment of a shared machine."""
    setups = [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES // 2)]
    rep = spawn(args, "measure", deadline)
    setups.append(rep)
    setups += [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - len(setups))]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "run_s": (statistics.median(p["wall"] for p in rep["passes"]), "s"),
        "run_cpu_s": (statistics.median(p["cpu"] for p in rep["passes"]), "s"),
        "op_p50_ms": (rep["op_p50_ms"], "ms"),
        "op_p90_ms": (rep["op_p90_ms"], "ms"),
        "op_p99_ms": (rep["op_p99_ms"], "ms"),
        "ok_frac": (1 - rep["failed"] / rep["attempted"], "ratio"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
    }
    rep["setup_samples"] = [{k: r[k] for k in ("setup_s", "raw_setup_s")} for r in setups]
    return metrics, rep


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    rep = spawn(args, "trace", deadline)
    counts, self_s = rep["layer_counts"], rep["layer_self_s"]
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = (counts[layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for (layer, counter), suffix in LAYER_COUNTERS.items():
        metrics[f"{layer}.{suffix}"] = (counts[layer].get(counter, 0), "count")
    for (layer, counter), suffix in LAYER_RATIOS.items():
        calls = counts[layer]["calls"]
        metrics[f"{layer}.{suffix}"] = (counts[layer].get(counter, 0) / calls if calls else 0.0, "ratio")
    nodes, busy = counts["search.exact_ex"].get("nodes", 0), self_s["search.exact_ex"]
    metrics["search.exact_ex.nodes_per_s"] = (nodes / busy if busy else 0.0, "1/s")
    metrics["bench.trace_overhead_frac"] = (rep["trace_overhead_frac"], "ratio")
    return metrics, rep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("extremal", "drivers", "queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "patex" / "__init__.py").is_file():
        print(f"no patex sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        metrics, rep = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    correct = rep["failed"] == 0 and not rep["mismatches"]
    provenance = {
        "python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": git_sha(),
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
    }
    detail = {k: rep[k] for k in ("ops", "passes", "latency_samples", "op_counts", "digest",
                                  "failures", "mismatches") if k in rep}
    if "setup_samples" in rep:
        detail["setup_samples"] = rep["setup_samples"]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "metrics": metrics, **detail}, indent=1))

    print("provenance " + json.dumps(provenance))
    print(f"ops per pass {rep['ops']}, passes {len(rep['passes'])}, "
          f"latency samples per pass {rep['latency_samples']}, op counters {json.dumps(rep['op_counts'])}")
    for problem in rep["failures"] + rep["mismatches"]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
