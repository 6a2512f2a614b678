"""Timing wrappers for the traced benchmark run.

``Tracer.install`` replaces shbuf's public functions and methods with
wrappers at run time and ``Tracer.uninstall`` puts the originals back, so
the library itself is never edited. Per-packet calls (``Simulation.arrive``,
policy ``on_arrival`` ...) are aggregated into calls, total ns and self ns
per name; coarse calls (module-level ``core``/``analysis``/``learner``/...
functions) additionally become spans with parent ids, kept in memory and
written out by ``write_spans``. Self time is a call's duration minus the
time of the wrapped calls made inside it.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

from shbuf import analysis, cli, core, learner, oracles, policies, workloads

_clock = time.perf_counter_ns

POLICY_CLASSES = (
    policies.CompleteSharing,
    policies.DynamicThresholds,
    policies.LongestQueueDrop,
    policies.FollowLqd,
    policies.Credence,
)
ORACLE_CLASSES = {
    "constant": oracles.ConstantOracle,
    "perfect": oracles.PerfectOracle,
    "flip": oracles.FlipOracle,
    "forest": oracles.ForestOracle,
}
PREDICT_KEYS = frozenset(f"oracles.{name}.predict" for name in ORACLE_CLASSES)

# (module, function name) pairs recorded as spans, keyed "<module>.<name>"
SPAN_FUNCTIONS = (
    (core, "run_simulation"),
    (core, "load_sequence"),
    (core, "save_sequence"),
    (core, "save_outcomes"),
    (oracles, "ground_truth_from_run"),
    (learner, "collect_trace"),
    (learner, "split_examples"),
    (learner, "train_forest"),
    (learner, "evaluate_on"),
    (learner, "save_forest"),
    (learner, "load_forest"),
    (analysis, "throughput"),
    (analysis, "simulate_with_prediction_log"),
    (analysis, "compute_eta"),
    (analysis, "brute_force_opt"),
    (analysis, "competitive_sweep"),
    (analysis, "find_threshold_divergence"),
    (workloads, "poisson_bursts"),
    (workloads, "uniform_random"),
    (cli, "main"),
)


def _hot_methods():
    """(class, method name, stats key) for every per-packet call that is timed."""
    hot = [
        (core.Simulation, "arrive", "core.arrive"),
        (core.Simulation, "depart_port", "core.depart"),
        (policies.ThresholdState, "on_arrival", "policies.thresholds.on_arrival"),
        (oracles.FeatureTracker, "on_arrival", "oracles.features"),
        (learner.ForestModel, "predict_one", "learner.predict_one"),
    ]
    for cls in POLICY_CLASSES:
        hot.append((cls, "on_arrival", f"policies.{cls.name}.on_arrival"))
        hot.append((cls, "on_departure", "policies.on_departure"))
    for name, cls in ORACLE_CLASSES.items():
        hot.append((cls, "predict", f"oracles.{name}.predict"))
    return hot


class Tracer:
    """Installs the wrappers and accumulates what they measure."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # key -> [calls, total_ns, self_ns]
        self.spans: list[tuple] = []  # (id, parent id, key, phase, start_ns, end_ns)
        self.phase = "setup"
        self.queries = 0  # oracle predictions asked for by a policy
        self.lqd_full = 0  # LongestQueueDrop arrivals that met a full buffer
        self._stack: list[list] = [[0, "", 0]]  # frames: [child ns, key, span id]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # --- accounting ------------------------------------------------------------

    def reset(self) -> None:
        """Zero the aggregated counters; spans are kept."""
        for record in self.stats.values():
            record[:] = [0, 0, 0]
        self.queries = 0
        self.lqd_full = 0

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0, 0, 0))[0]

    def total_ns(self, key: str) -> int:
        return self.stats.get(key, (0, 0, 0))[1]

    def self_ns(self, key: str) -> int:
        return self.stats.get(key, (0, 0, 0))[2]

    def counts(self) -> dict[str, int]:
        """The exact per-run counts; identical inputs must give identical counts."""
        return {
            "arrivals": self.calls("core.arrive"),
            "depart_calls": self.calls("core.depart"),
            "oracle_queries": self.queries,
            "features_built": self.calls("oracles.features"),
            "forest_predicts": self.calls("oracles.forest.predict"),
            "lqd_full_arrivals": self.lqd_full,
        }

    # --- wrappers ----------------------------------------------------------------

    def _wrap(self, key: str, fn, span: bool):
        stack = self._stack
        record = self.stats.setdefault(key, [0, 0, 0])
        clock = _clock
        tracer = self
        is_predict = key in PREDICT_KEYS
        is_lqd = key == "policies.lqd.on_arrival"

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if is_predict and parent[1] not in PREDICT_KEYS:
                tracer.queries += 1
            span_id = next(tracer._ids) if span else parent[2]
            frame = [0, key, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                parent[0] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                if span:
                    tracer.spans.append((span_id, parent[2], key, tracer.phase, start, end))
            if is_lqd and (not result.accept or result.pushout_victim is not None):
                tracer.lqd_full += 1
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for cls, name, key in _hot_methods():
            # an inherited method is shadowed on the subclass and deleted again on uninstall
            original = cls.__dict__.get(name)
            setattr(cls, name, self._wrap(key, original or getattr(cls, name), span=False))
            self._undo.append((cls, name, original))
        shbuf_modules = [
            module
            for module_name, module in sorted(sys.modules.items())
            if module_name == "shbuf" or module_name.startswith("shbuf.")
        ]
        for module, name in SPAN_FUNCTIONS:
            original = getattr(module, name)
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            wrapper = self._wrap(key, original, span=True)
            # rebind every module-level reference, e.g. names imported by cli.py
            for holder in shbuf_modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, key, phase, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": key, "phase": phase,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
