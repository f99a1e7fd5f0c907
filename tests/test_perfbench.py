"""The traced benchmark run wraps patex functions by module attribute; a
binding that no longer exists should fail here rather than only in
`perfbench/run.py --trace 1`."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import spans

        tracer = spans.Tracer()
        try:
            tracer.__enter__()  # looks up every LAYERS attribute
        finally:
            tracer.__exit__(None, None, None)  # also undoes a partial wrap
    finally:
        sys.modules.pop("spans", None)
