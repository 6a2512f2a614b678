"""The benchmark's tracer (``bench/tracing.py``) wraps library functions and
methods by name; each name it wraps must still exist, so that a refactor
that drops one fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_wraps_exists():
    tracing = _load_tracing()
    for cls, name, key in tracing._hot_methods():
        assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name} (traced as {key})"
    for module, name in tracing.SPAN_FUNCTIONS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
