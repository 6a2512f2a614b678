"""What the ``*_shapes.py`` tools share: another checkout's ``shbuf`` loaded
beside this one, and the summary of a list of timings."""

from __future__ import annotations

import importlib.util
import statistics
import sys
from pathlib import Path


def load_other(src: str):
    """The ``shbuf`` package under ``src``, imported as ``shbuf_parent``."""
    package = Path(src) / "shbuf"
    spec = importlib.util.spec_from_file_location(
        "shbuf_parent", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["shbuf_parent"] = module
    spec.loader.exec_module(module)
    return module


def quartiles(times: list[float]) -> dict:
    """Median and quartiles of ``times``; one timing is all three."""
    if len(times) < 2:
        q1 = median = q3 = times[0]
    else:
        q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}
