import math
import random

import pytest

from shbuf import ArrivalSequence, SwitchConfig


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
    "float_feature_count": ({**GOOD_MODEL, "feature_count": 4.0}, "feature_count must be an integer, got 4.0"),
    "bool_max_depth": ({**GOOD_MODEL, "max_depth": True}, "max_depth must be an integer, got True"),
    "string_max_depth": ({**GOOD_MODEL, "max_depth": "1"}, "max_depth must be an integer, got '1'"),
}
# one bad row (after one good one) of a labeled-example file, and the error it must raise
BAD_EXAMPLE_ROWS = {
    "non_numeric": ("2,abc,4,2.0,1", "could not convert string to float: 'abc'"),
    "nan": ("2,nan,4,2.0,1", "non-finite feature"),
    "inf": ("2,1.0,4,-inf,0", "non-finite feature"),
}


@pytest.fixture
def small_config() -> SwitchConfig:
    return SwitchConfig(num_ports=4, buffer_size=8)
