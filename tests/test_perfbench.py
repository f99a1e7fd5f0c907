"""The benchmark under `perfbench/` reaches patex through module attributes
and seeded inputs. The traced run wraps patex functions by module attribute;
a binding that no longer exists should fail here rather than only in
`perfbench/run.py --trace 1`. Each workload's output digest at seed 1 is
pinned; a change that moves any op's output fails here rather than only in
a benchmark run."""

import sys
from pathlib import Path

import pytest

from patex.rng import SplitMix64

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# One pass's output digest at seed 1, the "digest" that
# `perfbench/run.py --workload W --seed 1` reports.
DIGESTS = {
    "extremal": "1a362a1ab0d4c9086e1654dc3a53d5e6e3e57c1856e88a69b6b461efdf68f43c",
    "drivers": "d5ce1cbac46284120da057669ecfed01d28eeb34b9bf2a9f47ac9114eacbfb80",
    "queries": "7e1c1df8a065b9c5c712d21fa24e6301c54f1e39ecdd80e160c29d95e871ef69",
}


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's own directory on the path; its modules dropped after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("spans", "worker", "workloads", "oracles", "pinned"):
        sys.modules.pop(name, None)


def test_tracer_binds_every_layer(perfbench):
    import spans

    tracer = spans.Tracer()
    try:
        tracer.__enter__()  # looks up every LAYERS attribute
    finally:
        tracer.__exit__(None, None, None)  # also undoes a partial wrap


@pytest.mark.parametrize("workload", DIGESTS)
def test_output_digest(perfbench, tmp_path, workload):
    import worker

    wl = getattr(worker.workloads, workload)(SplitMix64(1), tmp_path)
    wl.reset()
    digest, _ = worker.digest_and_counts(wl, [op.call() for op in wl.ops])
    assert digest == DIGESTS[workload]
