import math
import random
import re
from array import array
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shbuf import (
    ArrivalSequence,
    FeatureTracker,
    FeatureVector,
    FlipOracle,
    LongestQueueDrop,
    PerfectOracle,
    SwitchConfig,
    SwitchState,
    run_simulation,
)
from shbuf.analysis import compute_eta
from shbuf.learner import ForestModel
from shbuf.oracles import (
    ConstantOracle,
    FeatureSampler,
    ForestOracle,
    PredictionLabel,
    _CHUNK_SLOTS,
    _flip_draws,
    ground_truth_from_run,
)

from conftest import LiveCredence, contended_instance, random_sequence, split, visit_every_port

FEATURES = FeatureVector(0, 0.0, 0, 0.0)


def test_perfect_oracle_replays_outcomes():
    cfg = SwitchConfig(2, 2)
    # second slot overfills the buffer; queue 0 is longest and loses its tail
    seq = ArrivalSequence([[0, 0], [0, 1]])
    result = run_simulation(cfg, seq, LongestQueueDrop())
    oracle = PerfectOracle.from_run(result)
    truth = ground_truth_from_run(result)
    assert any(truth.values()) and not all(truth.values())
    for packet, dropped in truth.items():
        expected = PredictionLabel.POSITIVE if dropped else PredictionLabel.NEGATIVE
        assert oracle.predict(packet, FEATURES) is expected


def test_perfect_oracle_counts_pushout_as_drop():
    cfg = SwitchConfig(3, 2)
    # the third arrival of the slot finds the buffer full; queue 0 gives up its tail
    seq = ArrivalSequence([[0, 0, 1]])
    result = run_simulation(cfg, seq, LongestQueueDrop())
    truth = ground_truth_from_run(result)
    assert truth[1] is True
    assert PerfectOracle(truth).predict(1, FEATURES) is PredictionLabel.POSITIVE


def test_perfect_oracle_rejects_unknown_packet():
    oracle = PerfectOracle({0: False})
    with pytest.raises(ValueError, match="not covered"):
        oracle.predict(5, FEATURES)


def test_drop_free_run_is_all_negative():
    cfg = SwitchConfig(4, 16)
    seq = ArrivalSequence([[0, 1], [2], [3, 0]])
    result = run_simulation(cfg, seq, LongestQueueDrop())
    truth = ground_truth_from_run(result)
    assert not any(truth.values())


def test_flip_oracle_identity_at_zero():
    base = ConstantOracle(PredictionLabel.NEGATIVE)
    seq = ArrivalSequence([[0] * (i % 7 + 1) for i in range(200)])
    flip = FlipOracle(base, 0.0, seed=3, sequence=seq)
    for i in range(seq.total_packets):
        assert flip.predict(i, FEATURES) is PredictionLabel.NEGATIVE


def test_flip_oracle_total_inversion_at_one():
    base = ConstantOracle(PredictionLabel.NEGATIVE)
    flip = FlipOracle(base, 1.0, seed=3, sequence=ArrivalSequence([[0]] * 200))
    for i in range(200):
        assert flip.predict(i, FEATURES) is PredictionLabel.POSITIVE


@pytest.mark.parametrize("label", [PredictionLabel.POSITIVE, PredictionLabel.NEGATIVE], ids=["drop", "accept"])
def test_flip_oracle_inverts_each_label_at_one_and_keeps_it_at_zero(label):
    seq = ArrivalSequence([[0, 1], [], [1]])
    perfect = PerfectOracle({index: label is PredictionLabel.POSITIVE for index in range(2)})
    for base in (ConstantOracle(label), perfect):
        always = FlipOracle(base, 1.0, seed=5, sequence=seq)
        never = FlipOracle(base, 0.0, seed=5, sequence=seq)
        other = PredictionLabel.NEGATIVE if label is PredictionLabel.POSITIVE else PredictionLabel.POSITIVE
        for index in range(2):
            assert always.predict(index, FEATURES) is other
            assert never.predict(index, FEATURES) is label
    # the perfect base still rejects an arrival its truth does not cover
    for p in (0.0, 1.0):
        with pytest.raises(ValueError, match="packet 2 is not covered"):
            FlipOracle(perfect, p, seed=5, sequence=seq).predict(2, FEATURES)


def test_flip_oracle_concentration():
    base = ConstantOracle(PredictionLabel.NEGATIVE)
    flip = FlipOracle(base, 0.5, seed=99, sequence=ArrivalSequence([[0] * 10] * 1000))
    flips = sum(flip.predict(i, FEATURES) is PredictionLabel.POSITIVE for i in range(10_000))
    assert abs(flips / 10_000 - 0.5) <= 0.02


def test_flip_oracle_is_keyed_per_packet():
    base = ConstantOracle(PredictionLabel.NEGATIVE)
    flip = FlipOracle(base, 0.5, seed=123, sequence=ArrivalSequence([[0] * 4] * 50))
    packets = range(200)
    forward = [flip.predict(p, FEATURES) for p in packets]
    backward = [flip.predict(p, FEATURES) for p in reversed(packets)]
    assert forward == list(reversed(backward))
    # repeated queries agree too
    assert forward == [flip.predict(p, FEATURES) for p in packets]


def _reference_coin(seed, slot, pos):
    # the splitmix64 coin of (seed, slot, pos), written out independently
    mask = (1 << 64) - 1

    def mix(x):
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
        return x ^ (x >> 31)

    x = mix(seed & mask)
    x = mix(x ^ (slot * 0x9E3779B97F4A7C15 & mask))
    x = mix(x ^ (pos * 0xC2B2AE3D27D4EB4F & mask))
    return x / 2.0**64


@pytest.mark.parametrize("seed", [0, 5, 2**64 + 3])
def test_flip_oracle_coins_follow_slot_and_position(seed):
    # arrival indices skip empty slots, so index i is not slot i
    rng = random.Random(seed)
    ragged = [[0] * rng.choice((0, 0, 1, 3, 8)) for _ in range(300)]
    base = ConstantOracle(PredictionLabel.NEGATIVE)
    for slots in ([[], [0, 1, 2], [], [], [1], [2, 0], []], ragged):
        coins = [_reference_coin(seed, slot, pos) for slot, row in enumerate(slots) for pos in range(len(row))]
        for p in (0.1, 0.5, 0.9):
            flip = FlipOracle(base, p, seed, ArrivalSequence(slots))
            labels = [flip.predict(i, FEATURES) for i in range(len(coins))]
            assert labels == [PredictionLabel.POSITIVE if coin < p else PredictionLabel.NEGATIVE for coin in coins]


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
def test_flip_oracle_from_shared_draws_flips_the_same_packets(seed):
    rng = random.Random(seed)
    ragged = [[0] * rng.choice((0, 0, 1, 3, 8)) for _ in range(300)]
    base = ConstantOracle(PredictionLabel.NEGATIVE)
    for slots in ([], [[], []], [[], [0, 1, 2], [], [], [1], [2, 0], []], ragged):
        sequence = ArrivalSequence(slots)
        draws = list(_flip_draws(seed, sequence))
        assert len(draws) == sequence.total_packets
        for p in (0.0, 0.1, 0.5, 1.0):
            shared = FlipOracle.from_draws(base, p, draws)
            assert shared.flips == FlipOracle(base, p, seed, sequence).flips
            assert [shared.predict(i, FEATURES) for i in range(len(draws))] == [
                PredictionLabel.POSITIVE if flip else PredictionLabel.NEGATIVE for flip in shared.flips
            ]


class _FarSequence(NamedTuple):
    """The two attributes the coins read, for rows that start at slot
    ``offset``: a list of slots could not reach slot 2**32 - 1."""

    rows: list
    arrival_slots: array

    @classmethod
    def of(cls, widths, offset):
        rows = {slot: [0] * width for slot, width in enumerate(widths, offset) if width}
        return cls(list(rows.values()), array("I", rows))


@st.composite
def coin_instances(draw):
    # a seed anywhere, including negative and >= 2**64; a head of ragged
    # rows, a run of narrow rows that may carry the slots with arrivals over
    # several chunks, and a tail whose rows may be wider than every earlier
    # one; rows start at slot 0 or end at slot 2**32 - 1
    seed = draw(st.one_of(st.integers(0, 3), st.integers(-(2**70), -1), st.integers(2**64 - 2, 2**70)))
    head = draw(st.lists(st.integers(0, 6), max_size=12))
    pattern = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    narrow = draw(st.integers(0, 3 * _CHUNK_SLOTS))
    tail = draw(st.lists(st.integers(0, 40), max_size=6))
    widths = head + [pattern[i % len(pattern)] for i in range(narrow)] + tail
    far = draw(st.booleans())
    return seed, widths, 2**32 - len(widths) if far else 0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(coin_instances())
@example((5, [], 0))
@example((-1, [0, 3, 0, 0, 1, 2], 2**32 - 6))
@example((2**64 + 5, [1] * (2 * _CHUNK_SLOTS) + [0, 9, 0], 0))
def test_packed_flip_draws_equal_the_reference_coins(instance):
    seed, widths, offset = instance
    sequence = _FarSequence.of(widths, offset) if offset else ArrivalSequence([[0] * width for width in widths])
    expected = [_reference_coin(seed, slot, pos) for slot, width in enumerate(widths, offset) for pos in range(width)]
    assert list(_flip_draws(seed, sequence)) == expected


def test_flips_at_the_edge_probabilities():
    rng = random.Random(17)
    sequence = ArrivalSequence([[0] * rng.choice((0, 1, 2, 5)) for _ in range(400)])
    draws = list(_flip_draws(11, sequence))
    base = ConstantOracle(PredictionLabel.NEGATIVE)
    middle = draws[len(draws) // 2]
    edges = [0.0, 1.0, 0, 1, 5e-324, 1 - 2**-53, middle, math.nextafter(middle, 0.0), math.nextafter(middle, 1.0)]
    for p in edges:
        expected = [draw < p for draw in draws]
        assert FlipOracle(base, p, 11, sequence).flips == expected, p
        assert FlipOracle.from_draws(base, p, draws).flips == expected, p
    # the draw equal to p is not flipped; one ulp above it, it is
    index = draws.index(middle)
    assert not FlipOracle.from_draws(base, middle, draws).flips[index]
    assert FlipOracle.from_draws(base, math.nextafter(middle, 1.0), draws).flips[index]
    assert not any(FlipOracle.from_draws(base, 0, draws).flips)
    assert all(FlipOracle.from_draws(base, 1, draws).flips)


def test_flip_oracle_rejects_bad_probability():
    base = ConstantOracle(PredictionLabel.NEGATIVE)
    for p in (-0.1, 1.5):
        with pytest.raises(ValueError):
            FlipOracle(base, p, seed=0, sequence=ArrivalSequence([]))
        with pytest.raises(ValueError):
            FlipOracle.from_draws(base, p, [])


def test_feature_tracker_ewma():
    # weight 2/17; each average is the float the tracker's fold gives, near the
    # exact values 8/17, 12/17, 188/289 and 248/289
    tracker = FeatureTracker(2)
    state = SwitchState(2)
    state.queue_len[0] = 4
    state.occupancy = 6
    first = tracker.on_arrival(0, state)
    assert first == FeatureVector(4, 0.47058823529411764, 6, 0.7058823529411764)
    state.queue_len[0] = 2
    state.occupancy = 2
    second = tracker.on_arrival(0, state)
    assert second == FeatureVector(2, 0.6505190311418685, 2, 0.8581314878892733)
    # port 1's average is untouched by port 0 arrivals
    state.queue_len[1] = 4
    third = tracker.on_arrival(1, state)
    assert third.queue_len_avg == 0.47058823529411764


def test_forest_oracle_single_leaf():
    model = ForestModel(trees=[(0,)], max_depth=1, feature_count=4)
    oracle = ForestOracle(model)
    assert oracle.predict(0, FEATURES) is PredictionLabel.NEGATIVE


def test_forest_oracle_tie_votes_negative():
    drop_leaf = (1,)
    keep_leaf = (0,)
    model = ForestModel(trees=[drop_leaf, drop_leaf, keep_leaf, keep_leaf], max_depth=1, feature_count=4)
    assert ForestOracle(model).predict(0, FEATURES) is PredictionLabel.NEGATIVE
    model = ForestModel(trees=[drop_leaf, drop_leaf, drop_leaf, keep_leaf], max_depth=1, feature_count=4)
    assert ForestOracle(model).predict(0, FEATURES) is PredictionLabel.POSITIVE


def test_forest_model_rejects_feature_mismatch():
    model = ForestModel(trees=[(0,)], max_depth=1, feature_count=4)
    with pytest.raises(ValueError, match="features"):
        model.predict_one((1.0, 2.0))


def test_forest_tree_walk():
    # drop once occupancy (feature 2) exceeds 8
    tree = split(2, 8.0, 0, 1)
    model = ForestModel(trees=[tree], max_depth=1, feature_count=4)
    assert model.predict_one(FeatureVector(0, 0.0, 12, 0.0)) == 1
    assert model.predict_one(FeatureVector(0, 0.0, 3, 0.0)) == 0
    oracle = ForestOracle(model)
    assert oracle.predict(0, FeatureVector(0, 0.0, 12, 0.0)) is PredictionLabel.POSITIVE
    assert oracle.predict(1, FeatureVector(0, 0.0, 3, 0.0)) is PredictionLabel.NEGATIVE


class _CountingOracle:
    """Counts the queries per arrival index and keeps the last label handed out."""

    reads_features = True

    def __init__(self, base) -> None:
        self.base = base
        self.calls: dict[int, int] = {}
        self.labels: dict[int, PredictionLabel] = {}

    def predict(self, index, features):
        self.calls[index] = self.calls.get(index, 0) + 1
        label = self.labels[index] = self.base.predict(index, features)
        return label


def _oracle(kind, result, sequence):
    if kind == "perfect":
        return PerfectOracle.from_run(result)
    if kind == "flip":
        return FlipOracle(PerfectOracle.from_run(result), 0.3, seed=5, sequence=sequence)
    if kind == "constant":
        return ConstantOracle(PredictionLabel.POSITIVE)
    # drop once occupancy (feature 2) exceeds 2, unless the port's average queue (feature 1) is short
    tree = split(2, 2.0, 0, split(1, 1.5, 0, 1))
    return ForestOracle(ForestModel(trees=[tree], max_depth=2, feature_count=4))


def test_oracle_purity_under_simulation():
    # logging a label for every arrival never perturbs the run, asks the
    # oracle once per arrival and logs the label Credence acted on
    from shbuf import Credence
    from shbuf.analysis import simulate_with_prediction_log

    for seed, num_ports, buffer_size in [(1, 2, 4), (2, 3, 6), (3, 4, 8)]:
        rng = random.Random(seed)
        cfg = SwitchConfig(num_ports, buffer_size)
        # low ports are hot, so the buffer fills and Credence asks the oracle on some arrivals only
        seq = ArrivalSequence(
            [
                [min(rng.randrange(num_ports), rng.randrange(num_ports)) for _ in range(rng.randint(0, num_ports))]
                for _ in range(60)
            ]
        )
        lqd = run_simulation(cfg, seq, LongestQueueDrop())
        for kind in ("perfect", "flip", "constant", "forest"):
            case = f"seed {seed}, {kind} oracle"
            oracle = _oracle(kind, lqd, seq)
            acted = _CountingOracle(oracle)
            plain = run_simulation(cfg, seq, Credence(acted))
            counted = _CountingOracle(oracle)
            logged_result, log = simulate_with_prediction_log(cfg, seq, counted)
            assert logged_result.verdicts == plain.verdicts, case
            assert len(log) == seq.total_packets, case
            assert counted.calls == {index: 1 for index in range(seq.total_packets)}, case
            assert 0 < len(acted.labels) < seq.total_packets, case
            for index, label in acted.labels.items():
                assert log[index] is label, case


def test_prediction_log_of_a_perfect_oracle_is_the_lqd_truth():
    from shbuf import Credence
    from shbuf.analysis import simulate_with_prediction_log
    from shbuf.workloads import poisson_bursts

    cfg = SwitchConfig(4, 8)
    seq = poisson_bursts(cfg, 0.1, 300, seed=4)
    truth = ground_truth_from_run(run_simulation(cfg, seq, LongestQueueDrop()))
    result, log = simulate_with_prediction_log(cfg, seq, PerfectOracle(truth))
    assert any(truth.values())
    assert log == [PredictionLabel.POSITIVE if truth[i] else PredictionLabel.NEGATIVE for i in range(len(truth))]
    assert result.verdicts == run_simulation(cfg, seq, Credence(PerfectOracle(truth))).verdicts


@pytest.mark.parametrize(
    "kind, reads",
    [
        ("perfect", False),
        ("flip", False),
        ("constant", False),
        ("forest", True),
        ("flip(forest)", True),
    ],
)
def test_credence_builds_features_only_for_an_oracle_that_reads_them(monkeypatch, kind, reads):
    from shbuf import Credence

    built = []
    build = FeatureTracker.on_arrival

    def counting(self, port, state):
        built.append(port)
        return build(self, port, state)

    monkeypatch.setattr(FeatureTracker, "on_arrival", counting)
    cfg = SwitchConfig(3, 6)
    seq = random_sequence(random.Random(8), 3, 80, 0.6)
    lqd = run_simulation(cfg, seq, LongestQueueDrop())
    if kind == "flip(forest)":
        oracle = FlipOracle(_oracle("forest", lqd, seq), 0.3, seed=5, sequence=seq)
    else:
        oracle = _oracle(kind, lqd, seq)
    built.clear()
    run_simulation(cfg, seq, Credence(oracle))
    assert len(built) == (seq.total_packets if reads else 0)


class _UndeclaredOracle:
    """An oracle that declares no ``reads_features``."""

    def predict(self, index, features):
        return PredictionLabel.NEGATIVE


def test_credence_requires_its_oracle_to_declare_reads_features():
    from shbuf import Credence
    from shbuf.analysis import simulate_with_prediction_log

    cfg = SwitchConfig(2, 4)
    seq = ArrivalSequence([[0, 1], [0]])
    with pytest.raises(AttributeError, match="reads_features"):
        run_simulation(cfg, seq, Credence(_UndeclaredOracle()))
    with pytest.raises(AttributeError, match="reads_features"):
        simulate_with_prediction_log(cfg, seq, _UndeclaredOracle())


def test_flip_oracle_requires_its_base_to_declare_reads_features():
    seq = ArrivalSequence([[0, 1], [0]])
    with pytest.raises(AttributeError, match="reads_features"):
        FlipOracle(_UndeclaredOracle(), 0.3, seed=5, sequence=seq)
    with pytest.raises(AttributeError, match="reads_features"):
        FlipOracle.from_draws(_UndeclaredOracle(), 0.3, [0.5, 0.5, 0.5])


def test_sampler_records_the_same_features_whoever_builds_them():
    # with a perfect oracle Credence builds no features, so the sampler builds
    # its own; they equal the ones Credence builds for an oracle that reads them
    from shbuf import Credence

    cfg = SwitchConfig(3, 6)
    seq = random_sequence(random.Random(9), 3, 80, 0.6)
    truth = PerfectOracle.from_run(run_simulation(cfg, seq, LongestQueueDrop()))
    own, shared = FeatureSampler(Credence(truth)), FeatureSampler(Credence(_CountingOracle(truth)))
    assert run_simulation(cfg, seq, own).verdicts == run_simulation(cfg, seq, shared).verdicts
    assert own.policy.features is None and shared.policy.features is not None
    assert len(own.features) == seq.total_packets
    assert own.features == shared.features


# --- drop columns ----------------------------------------------------------------


class _PositiveCounter:
    """Asks ``oracle.predict`` and counts the POSITIVE labels handed out."""

    reads_features = False

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.positives = 0

    def predict(self, index, features):
        label = self.oracle.predict(index, features)
        self.positives += label is PredictionLabel.POSITIVE
        return label


@st.composite
def column_instances(draw):
    # switches with N > B, where random arrivals fill the buffer, or the contended
    # N=16, B=32 instance; a base oracle of every feature-free kind, flipped or not
    if draw(st.integers(0, 4)) == 0:
        config, sequence = contended_instance()
    else:
        num_ports = draw(st.integers(3, 10))
        config = SwitchConfig(num_ports, draw(st.integers(1, num_ports - 1)))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        sequence = random_sequence(rng, num_ports, draw(st.integers(5, 60)), draw(st.sampled_from((0.3, 0.6, 0.9))))
    total = sequence.total_packets
    kind = draw(st.sampled_from(("accept", "drop", "run", "dict", "list")))
    if kind in ("accept", "drop"):
        base = ConstantOracle(PredictionLabel.POSITIVE if kind == "drop" else PredictionLabel.NEGATIVE)
    elif kind == "run":
        base = PerfectOracle.from_run(run_simulation(config, sequence, LongestQueueDrop()))
    else:
        # any truth, not only LQD's; it may cover arrivals past the sequence
        truth = draw(st.lists(st.booleans(), min_size=total, max_size=total + 3))
        base = PerfectOracle(dict(enumerate(truth)) if kind == "dict" else truth)
    p = draw(st.sampled_from((None, 0.0, 1.0, draw(st.floats(0.05, 0.95)))))
    oracle = base if p is None else FlipOracle(base, p, draw(st.integers(0, 2**64 - 1)), sequence)
    return config, sequence, oracle, draw(st.integers(0, total))


# arrivals that reached Credence's oracle step with their drop flag set, summed over the
# property's examples: 5,542 when it was written
_FLAGGED_AT_STEP_3 = 4000


def test_drop_column_is_the_predictions_and_credence_reads_it_as_the_live_reference_asks():
    from shbuf import Credence

    flagged = []

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(column_instances())
    def check(instance):
        config, sequence, oracle, count = instance
        total = sequence.total_packets
        for n in (count, total):
            column = oracle.drops(n)
            assert len(column) == n
            assert list(column) == [oracle.predict(i, None) is PredictionLabel.POSITIVE for i in range(n)]
        asked = _PositiveCounter(oracle)
        expected = visit_every_port(config, sequence, LiveCredence(asked)).verdicts
        assert run_simulation(config, sequence, Credence(oracle)).verdicts == expected
        flagged.append(asked.positives)

    check()
    assert sum(flagged) >= _FLAGGED_AT_STEP_3, sum(flagged)


def test_a_perfect_truth_that_misses_an_arrival_is_refused_when_the_run_starts():
    from shbuf import Credence

    # five packets to an empty 2x8 switch: the safeguard accepts every one, so
    # no packet is ever asked about, yet the column must cover them all
    config, sequence = SwitchConfig(2, 8), ArrivalSequence([[0, 1], [0], [1, 0]])
    for truth, first in (([False, True], 2), ({0: False, 1: False, 3: True, 4: False}, 2), ({}, 0)):
        oracle = PerfectOracle(truth)
        with pytest.raises(ValueError, match=f"^packet {first} is not covered by the ground-truth trace"):
            Credence(oracle).reset(config, sequence)
        with pytest.raises(ValueError, match=f"^packet {first} is not covered"):
            run_simulation(config, sequence, Credence(FlipOracle(oracle, 0.5, 3, sequence)))


def test_a_list_truth_never_wraps_a_negative_index():
    oracle = PerfectOracle([True, False])
    assert oracle.predict(0, None) is PredictionLabel.POSITIVE
    for index in (-1, -2, 2):
        with pytest.raises(ValueError, match=f"^packet {index} is not covered by the ground-truth trace"):
            oracle.predict(index, None)
    assert oracle.drops(2) is oracle.truth
    assert oracle.drops(1) == [True]


def test_a_flip_oracle_with_fewer_coins_than_arrivals_is_refused_when_the_run_starts():
    from shbuf import Credence

    config, sequence = SwitchConfig(2, 4), ArrivalSequence([[0, 1], [1]])
    short = FlipOracle.from_draws(ConstantOracle(PredictionLabel.NEGATIVE), 0.5, [0.1, 0.9])
    with pytest.raises(ValueError, match="^the oracle's drop column holds 2 entries for a sequence of 3 packets$"):
        run_simulation(config, sequence, Credence(short))


def test_a_flip_oracle_covers_only_the_arrivals_it_has_coins_for():
    sequence = ArrivalSequence([[0, 1], [1]])
    for base in (ConstantOracle(PredictionLabel.NEGATIVE), PerfectOracle([False, True, False])):
        flip = FlipOracle(base, 1.0, 3, sequence)
        assert [flip.predict(index, None) for index in range(3)] == [not base.predict(index, None) for index in range(3)]
        # a negative index does not wrap, and one past the coins is no IndexError
        for index in (-1, -3, 3):
            with pytest.raises(ValueError, match=f"^packet {index} is not covered by the ground-truth trace"):
                flip.predict(index, None)


@pytest.mark.parametrize("label", ["drop", "accept", None, 2, -1, 0.5])
def test_a_constant_oracle_refuses_a_label_that_is_not_a_drop_flag(label):
    with pytest.raises(ValueError, match=f"^a drop flag is True or False, got {re.escape(repr(label))}$"):
        ConstantOracle(label)


def test_a_constant_oracle_takes_bools_and_the_ints_1_and_0_as_drop_flags():
    for label, flag in ((True, True), (1, True), (False, False), (0, False)):
        oracle = ConstantOracle(label)
        assert oracle.predict(0, None) is flag
        assert oracle.drops(2) == [flag, flag]
        assert all(type(dropped) is bool for dropped in oracle.drops(2))


@pytest.mark.parametrize(
    "truth, bad",
    [
        (["drop", "accept", "accept"], "drop"),
        ([True, False, "accept"], "accept"),
        ([False, 2, None], 2),
        ([True, 0.5], 0.5),
        ([False, [1], "drop"], [1]),
        ({2: "drop", 0: True, 1: "accept"}, "accept"),
        ({1: None, 0: {}}, {}),
        ({0: "x", "a": True}, "x"),
    ],
    ids=["words", "last_word", "two", "half", "unhashable", "mapping_in_index_order", "mapping_unhashable",
         "mapping_keys_that_do_not_sort"],
)
def test_a_perfect_oracle_refuses_a_truth_entry_that_is_not_a_drop_flag(truth, bad):
    with pytest.raises(ValueError, match=f"^a drop flag is True or False, got {re.escape(repr(bad))}$"):
        PerfectOracle(truth)


def test_a_perfect_oracle_from_a_run_binds_the_list_of_flags_it_builds():
    config, sequence = contended_instance()
    result = run_simulation(config, sequence, LongestQueueDrop())
    # the flags are bools by construction, so the constructor's drop-flag pass is skipped
    with mock.patch.object(PerfectOracle, "__init__", side_effect=AssertionError("from_run checked its own flags")):
        oracle = PerfectOracle.from_run(result)
    assert oracle.drops(sequence.total_packets) is oracle.truth
    assert oracle.truth == list(ground_truth_from_run(result).values()) and any(oracle.truth)
    assert all(type(flag) is bool for flag in oracle.truth)


def test_a_perfect_oracle_takes_bools_and_the_ints_1_and_0_as_drop_flags():
    for truth in ([True, False, 1, 0], {0: 1, 1: False, 2: True, 3: 0}, [], {}):
        oracle = PerfectOracle(truth)
        assert [bool(flag) for flag in oracle.drops(len(truth))] == [True, False, True, False][:len(truth)]



def _answer(query):
    """What a query returns, or the message of the ValueError it raises."""
    try:
        return query()
    except ValueError as error:
        return f"ValueError: {error}"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    data=st.data(),
    # keys that are not arrival indices, under entries that are not drop flags
    extra=st.dictionaries(st.one_of(st.text(max_size=2), st.integers(-3, -1)), st.sampled_from(["drop", None, 2])),
)
def test_a_mapping_column_is_read_as_the_list_of_its_entries_up_to_its_first_gap(data, extra):
    num_ports = data.draw(st.integers(1, 3))
    config = SwitchConfig(num_ports, data.draw(st.integers(1, 4)))
    rows = data.draw(st.lists(st.lists(st.integers(0, num_ports - 1), max_size=num_ports), max_size=8))
    sequence = ArrivalSequence(rows)
    total = sequence.total_packets
    flags = st.lists(st.booleans(), min_size=total, max_size=total)
    truth, predictions = data.draw(flags), data.draw(flags)
    # a gap at ``total`` leaves every arrival covered
    gap = data.draw(st.integers(0, total))
    gapped, short = {index: flag for index, flag in enumerate(truth) if index != gap} | extra, truth[:gap]
    oracle, listed = PerfectOracle(gapped), PerfectOracle(short)
    for index in range(-2, total + 2):
        assert _answer(lambda: oracle.predict(index, None)) == _answer(lambda: listed.predict(index, None))
    for count in range(total + 2):
        assert _answer(lambda: oracle.drops(count)) == _answer(lambda: listed.drops(count))
    report = compute_eta(config, sequence, predictions, truth)
    assert compute_eta(config, sequence, dict(enumerate(predictions)) | extra, dict(enumerate(truth)) | extra) == report
    assert _answer(lambda: compute_eta(config, sequence, predictions, gapped)) == _answer(
        lambda: compute_eta(config, sequence, predictions, short)
    )
    assert _answer(lambda: compute_eta(config, sequence, gapped, truth)) == _answer(
        lambda: compute_eta(config, sequence, short, truth)
    )
    if gap < total:
        with pytest.raises(ValueError, match=f"^packet {gap} missing from predictions or ground truth; coverage must be total$"):
            compute_eta(config, sequence, predictions, gapped)
