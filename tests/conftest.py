import math
import random

import pytest

from shbuf import ArrivalSequence, SwitchConfig, ThresholdState
from shbuf.core import Simulation
from shbuf.learner import ConfusionCounts
from shbuf.oracles import FeatureTracker, PredictionLabel
from shbuf.policies import ACCEPT, DROP


def four_way_confusion(predicted, actual) -> ConfusionCounts:
    """The reference tally of forecasts against the truth: one branch per cell of the matrix."""
    tp = fp = tn = fn = 0
    for predicted_drop, actual_drop in zip(predicted, actual):
        if predicted_drop and actual_drop:
            tp += 1
        elif predicted_drop:
            fp += 1
        elif actual_drop:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp, fp, tn, fn)


def dense_slots(sequence: ArrivalSequence) -> list[list[int]]:
    """The sequence's dense view: one fresh list of ports per slot, [] for an arrival-free one."""
    slots: list[list[int]] = [[] for _ in range(sequence.num_slots)]
    for slot_index, row in zip(sequence.arrival_slots, sequence.rows):
        slots[slot_index] = list(row)
    return slots


def random_sequence(rng: random.Random, num_ports: int, num_slots: int, load: float) -> ArrivalSequence:
    """Independent per-port arrivals, like workloads.uniform_random but inline-seeded."""
    slots = [
        [port for port in range(num_ports) if rng.random() < load]
        for _ in range(num_slots)
    ]
    return ArrivalSequence(slots)


def random_tiny_sequence(rng: random.Random, num_ports: int, max_packets: int = 12) -> ArrivalSequence:
    """A short sequence with at most ``max_packets`` packets, for brute-force checks."""
    slots = []
    total = 0
    for _ in range(rng.randint(1, 8)):
        count = min(rng.randint(0, num_ports), max_packets - total)
        slots.append([rng.randrange(num_ports) for _ in range(count)])
        total += count
        if total >= max_packets:
            break
    return ArrivalSequence(slots)


def contended_instance() -> tuple[SwitchConfig, ArrivalSequence]:
    """160 packets to random ports of N=16, B=32, whose exact-OPT frontier
    holds 160,310 queue vectors after arrival 45: too large to solve."""
    rng = random.Random(1)
    return SwitchConfig(16, 32), ArrivalSequence([[rng.randrange(16) for _ in range(16)] for _ in range(10)])


class LiveFollowLqd:
    """Reference FollowLqd that steps a ``ThresholdState`` of its own, the
    route runs took before they replayed ``threshold_levels``: ``on_arrival``
    steps it and ``on_departure`` drains one port's share. Runs drain no
    mirror, so drive it with ``visit_every_port``."""

    name = "live_follow_lqd"

    def reset(self, config, sequence):
        self._buffer = config.buffer_size
        self.mirror = ThresholdState(config.num_ports, config.buffer_size)

    def on_arrival(self, port, index, state):
        if state.queue_len[port] < self.mirror.on_arrival(port) and state.occupancy < self._buffer:
            return ACCEPT
        return DROP

    def on_departure(self, port, state):
        self.mirror.on_departure(port)


class LiveCredence(LiveFollowLqd):
    """Reference Credence on a live mirror, as ``LiveFollowLqd``, whose
    safeguard finds the longest queue with ``max`` on every arrival."""

    name = "live_credence"

    def __init__(self, oracle):
        self.oracle = oracle

    def reset(self, config, sequence):
        super().reset(config, sequence)
        self._ports = config.num_ports
        self.features = FeatureTracker(config.num_ports) if self.oracle.reads_features else None

    def on_arrival(self, port, index, state):
        features = self.features.on_arrival(port, state) if self.features is not None else None
        level = self.mirror.on_arrival(port)
        lengths = state.queue_len
        if max(lengths) * self._ports < self._buffer:
            return ACCEPT
        if lengths[port] < level and state.occupancy < self._buffer:
            return DROP if self.oracle.predict(index, features) is PredictionLabel.POSITIVE else ACCEPT
        return DROP


def depart_every_port(sim):
    """One departure phase by the per-port route: ``depart_port`` at every port."""
    for port in range(sim.config.num_ports):
        sim.depart_port(port)


def visit_every_port(config, sequence, policy):
    """Reference schedule: ``depart_port`` for every port in every slot, and
    after the last until the buffer is empty; returns the ``Simulation``."""
    sim = Simulation(config, policy, sequence)
    for row in dense_slots(sequence):
        sim.arrive(row)
        depart_every_port(sim)
    while sim.state.occupancy:
        depart_every_port(sim)
    return sim


# one stump over feature 0; each case breaks it in one way
GOOD_MODEL = {
    "format_version": 1,
    "feature_count": 4,
    "max_depth": 1,
    "trees": [{"feature_index": 0, "threshold": 1.0, "left": 0, "right": 1}],
}


def _stump(**fields) -> dict:
    return {**GOOD_MODEL, "trees": [{**GOOD_MODEL["trees"][0], **fields}]}


BAD_MODELS = {
    "no_trees": ({k: v for k, v in GOOD_MODEL.items() if k != "trees"}, "missing the 'trees' key"),
    "feature_index": (
        {**GOOD_MODEL, "trees": [{"feature_index": 9, "threshold": 1.0, "left": 0, "right": 1}]},
        r"feature_index 9 outside \[0, 4\)",
    ),
    "too_deep": (
        {**GOOD_MODEL, "trees": [{"feature_index": 0, "threshold": 1.0, "left": 0,
                                  "right": {"feature_index": 1, "threshold": 2.0, "left": 0, "right": 1}}]},
        "deeper than max_depth 1",
    ),
    "feature_count": ({**GOOD_MODEL, "feature_count": 3, "trees": [0]}, "feature_count must be 4, got 3"),
    "empty_forest": ({**GOOD_MODEL, "trees": []}, "1 to 16 trees, got 0"),
    "too_many_trees": ({**GOOD_MODEL, "trees": [0] * 17}, "1 to 16 trees, got 17"),
    "bool_leaf": ({**GOOD_MODEL, "trees": [True, True, False]}, "integer 0 or 1, got True"),
    "nan_threshold": (_stump(threshold=math.nan), "threshold must not be NaN"),
    "string_threshold": (_stump(threshold="0.5"), "threshold must be a number, got '0.5'"),
    "float_feature_index": (_stump(feature_index=1.7), "feature_index must be an integer, got 1.7"),
    "bool_feature_index": (_stump(feature_index=True), "feature_index must be an integer, got True"),
    "float_feature_count": ({**GOOD_MODEL, "feature_count": 4.0}, "feature_count must be 4, got 4.0"),
    "bool_max_depth": ({**GOOD_MODEL, "max_depth": True}, "max_depth must be an integer, got True"),
    "string_max_depth": ({**GOOD_MODEL, "max_depth": "1"}, "max_depth must be an integer, got '1'"),
}
# one bad row (after one good one) of a labeled-example file, and the error it must raise
BAD_EXAMPLE_ROWS = {
    "non_numeric": ("2,abc,4,2.0,1", "could not convert string to float: 'abc'"),
    "nan": ("2,nan,4,2.0,1", "non-finite feature"),
    "inf": ("2,1.0,4,-inf,0", "non-finite feature"),
    "int_beyond_a_double": ("1" + "0" * 400 + ",1.0,4,2.0,0", "int too large to convert to float"),
    "underscore": ("1_0,0.5,3,1.5,0", "could not convert string to int: '1_0'"),
    "arabic_indic_digit": ("\u0663,0.5,3,1.5,1", "could not convert string to int: '\u0663'"),
}


@pytest.fixture
def small_config() -> SwitchConfig:
    return SwitchConfig(num_ports=4, buffer_size=8)
