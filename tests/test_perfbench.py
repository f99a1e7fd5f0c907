"""The benchmark under `perfbench/` reaches patex through module attributes
and seeded inputs. The traced run wraps patex functions by module attribute;
a binding that no longer exists should fail here rather than only in
`perfbench/run.py --trace 1`. Each workload's output digest at seed 1 is
pinned in `golden/perfbench_digests.txt`, so a change that moves any op's
output fails here rather than only in a benchmark run; `tools/golden.py`
checks and re-pins the digests."""

import pytest

import golden

DIGESTS = "perfbench_digests.txt"


def test_tracer_binds_every_layer():
    with golden.perfbench_modules():
        import spans

        tracer = spans.Tracer()
        try:
            tracer.__enter__()  # looks up every LAYERS attribute
        finally:
            tracer.__exit__(None, None, None)  # also undoes a partial wrap


@pytest.mark.parametrize("workload", golden.WORKLOADS)
def test_output_digest(workload):
    # the pinned file with this workload's line rendered anew
    lines = (golden.GOLDEN / DIGESTS).read_text().splitlines(keepends=True)
    lines[golden.WORKLOADS.index(workload)] = golden.digest_line(workload)
    diff = golden.first_difference(DIGESTS, "".join(lines))
    assert diff is None, diff
