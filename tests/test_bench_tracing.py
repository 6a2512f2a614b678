"""The benchmark's tracer (``bench/tracing.py``) wraps library functions and
methods by name; each name it wraps must still exist, so that a refactor
that drops one fails here and not only in a traced benchmark run, and
uninstalling it must leave every class and module as it found them."""

import importlib.util
import sys
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


def test_the_tracer_wraps_every_hot_method_and_uninstall_restores_each_binding_exactly():
    tracing = _load_tracing()
    absent = object()
    hot = tracing._hot_methods()
    methods = {(cls, name): cls.__dict__.get(name, absent) for cls, name, _ in hot}
    modules = [module for name, module in sorted(sys.modules.items()) if name == "shbuf" or name.startswith("shbuf.")]
    bindings = {(module, attr): value for module in modules for attr, value in vars(module).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for cls, name, _ in hot:
            # shadowed on the class itself, whether it defines the method or inherits it
            assert cls.__dict__[name].__qualname__ == "Tracer._wrap.<locals>.wrapper", (cls.__name__, name)
        for module, name in tracing.SPAN_FUNCTIONS:
            assert getattr(module, name).__qualname__ == "Tracer._wrap.<locals>.wrapper", (module.__name__, name)
    finally:
        tracer.uninstall()
    for (cls, name), before in methods.items():
        assert cls.__dict__.get(name, absent) is before, (cls.__name__, name)
    for (module, attr), before in bindings.items():
        assert vars(module).get(attr, absent) is before, (module.__name__, attr)
    # every policy inherits the one per-port hook, so uninstall must delete each shadow
    for cls in tracing.POLICY_CLASSES:
        assert "on_departure" not in cls.__dict__, cls.__name__
