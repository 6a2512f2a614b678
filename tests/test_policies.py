import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shbuf import (
    ArrivalSequence,
    CompleteSharing,
    Credence,
    DynamicThresholds,
    FollowLqd,
    LongestQueueDrop,
    PerfectOracle,
    SwitchConfig,
    SwitchState,
    ThresholdState,
    run_simulation,
)
from shbuf.analysis import find_threshold_divergence, throughput
from shbuf.core import Simulation
from shbuf.oracles import ConstantOracle, FlipOracle, PredictionLabel
from shbuf.policies import ACCEPT, DROP
from shbuf.workloads import followlqd_adversary, followlqd_adversary_fill

from conftest import random_sequence


def _state_with(lengths):
    state = SwitchState(len(lengths))
    state.queues = [deque(range(port * 100, port * 100 + length)) for port, length in enumerate(lengths)]
    state.queue_len = list(lengths)
    state.occupancy = sum(lengths)
    return state


PID = 0  # arrival index


# --- CompleteSharing ---------------------------------------------------------


def test_complete_sharing_rule():
    policy = CompleteSharing()
    policy.reset(SwitchConfig(2, 4))
    assert policy.on_arrival(0, PID, _state_with([0, 0])).accept
    assert not policy.on_arrival(0, PID, _state_with([2, 2])).accept
    assert policy.on_arrival(0, PID, _state_with([2, 1])).accept


# --- DynamicThresholds -------------------------------------------------------


def test_dynamic_thresholds_rule():
    policy = DynamicThresholds(Fraction(1, 2))
    policy.reset(SwitchConfig(2, 16))
    # hand-built state: q_0 = 8 with free space 16, so the threshold is
    # exactly 8 and the strict comparison fails
    state = SwitchState(2)
    state.queue_len[0] = 8
    assert not policy.on_arrival(0, PID, state).accept
    assert policy.on_arrival(1, PID, state).accept  # empty queue accepts
    full = _state_with([8, 8])
    assert not policy.on_arrival(0, PID, full).accept  # buffer full


def test_dynamic_thresholds_accepts_string_alpha():
    policy = DynamicThresholds("1/3")
    policy.reset(SwitchConfig(2, 10))
    # free space 9, threshold exactly 3: q=2 accepted, q=3 dropped
    state = SwitchState(2)
    state.queue_len[0] = 2
    state.occupancy = 1
    assert policy.on_arrival(0, PID, state).accept
    state.queue_len[0] = 3
    assert not policy.on_arrival(0, PID, state).accept
    with pytest.raises(ValueError):
        DynamicThresholds(Fraction(0))


# --- LongestQueueDrop --------------------------------------------------------


def test_lqd_accepts_when_room():
    policy = LongestQueueDrop()
    policy.reset(SwitchConfig(2, 4))
    decision = policy.on_arrival(1, PID, _state_with([2, 1]))
    assert decision.accept and decision.pushout_victim is None


def test_lqd_pushes_out_tail_of_longest_queue():
    cfg = SwitchConfig(2, 4)
    # fill queues to [3, 1], then a packet to port 1 displaces queue 0's tail
    seq = ArrivalSequence([[0, 0], [0, 1], [1]])
    sim = Simulation(cfg, LongestQueueDrop())
    for row in seq.slots[:2]:
        for port in row:
            sim.arrive(port)
    assert sim.state.queue_len == [3, 1]
    tail_before = sim.state.queues[0][-1]
    sim.arrive(1)
    assert sim.state.queue_len == [2, 2]
    assert tail_before not in sim.state.queues[0]


def test_lqd_drops_arrival_to_its_own_longest_queue():
    policy = LongestQueueDrop()
    policy.reset(SwitchConfig(2, 4))
    state = _state_with([3, 1])
    assert not policy.on_arrival(0, PID, state).accept
    decision = policy.on_arrival(1, PID, state)
    assert decision.accept and decision.pushout_victim == 0


def test_lqd_tie_breaks_to_lowest_port():
    policy = LongestQueueDrop()
    policy.reset(SwitchConfig(2, 4))
    state = _state_with([2, 2])
    # arriving at port 1: the tie goes to queue 0, which gives up a packet
    decision = policy.on_arrival(1, PID, state)
    assert decision.accept and decision.pushout_victim == 0
    # arriving at port 0: queue 0 is chosen, so the newcomer is dropped
    assert not policy.on_arrival(0, PID, state).accept


# --- ThresholdState ----------------------------------------------------------


def test_threshold_update_below_capacity():
    thresholds = ThresholdState(4, 8)
    thresholds.on_arrival(2)
    assert thresholds.thresholds == [0, 0, 1, 0]
    assert thresholds.total == 1


def test_threshold_update_at_capacity_redistributes():
    thresholds = ThresholdState(2, 4)
    for _ in range(3):
        thresholds.on_arrival(0)
    thresholds.on_arrival(1)
    assert thresholds.thresholds == [3, 1] and thresholds.total == 4
    thresholds.on_arrival(1)
    assert thresholds.thresholds == [2, 2]
    assert thresholds.total == 4


def test_threshold_departure_ignores_zero():
    thresholds = ThresholdState(2, 4)
    thresholds.on_departure(0)
    assert thresholds.thresholds == [0, 0] and thresholds.total == 0
    thresholds.on_arrival(0)
    thresholds.on_departure(0)
    assert thresholds.thresholds == [0, 0] and thresholds.total == 0


def test_threshold_redistribution_is_noop_for_own_largest():
    thresholds = ThresholdState(2, 4)
    for _ in range(3):
        thresholds.on_arrival(0)
    thresholds.on_arrival(1)
    assert thresholds.thresholds == [3, 1]
    thresholds.on_arrival(0)  # decrement-then-increment of the same entry
    assert thresholds.thresholds == [3, 1] and thresholds.total == 4


# --- FollowLqd ---------------------------------------------------------------


def test_follow_lqd_basic_accept():
    policy = FollowLqd()
    policy.reset(SwitchConfig(2, 4))
    decision = policy.on_arrival(0, PID, _state_with([0, 0]))
    assert decision.accept  # threshold became 1, queue is 0


def test_follow_lqd_drops_when_buffer_full():
    policy = FollowLqd()
    policy.reset(SwitchConfig(2, 4))
    state = _state_with([2, 2])
    assert not policy.on_arrival(0, PID, state).accept


def test_follow_lqd_adversary_step_drops_behind_threshold():
    # after the fill, one all-ports slot pulls the mirrored threshold down to
    # B - N + 1 while the real queue still holds B - 1 packets
    cfg = SwitchConfig(4, 16)
    fill = followlqd_adversary_fill(cfg)
    policy = FollowLqd()
    sim = Simulation(cfg, policy)
    for row in fill.slots:
        for port in row:
            sim.arrive(port)
        sim.drain(1)
    assert sim.state.queue_len[0] == cfg.buffer_size - 1
    accepted_before = sim.state.occupancy + sim.transmitted
    for port in range(4):
        sim.arrive(port)
    assert policy.thresholds.thresholds[0] == cfg.buffer_size - cfg.num_ports + 1
    accepted = sim.state.occupancy + sim.transmitted - accepted_before
    assert accepted == 1  # only one of the N incoming packets fits


def test_follow_lqd_transmits_two_per_adversary_cycle():
    for n, b in ((4, 8), (4, 16), (8, 32)):
        cfg = SwitchConfig(n, b)
        fill_tx = throughput(cfg, followlqd_adversary_fill(cfg), FollowLqd())
        for cycles in (1, 3):
            total = throughput(cfg, followlqd_adversary(cfg, cycles), FollowLqd())
            assert total - fill_tx == 2 * cycles


# --- Credence ----------------------------------------------------------------


class _CountingOracle:
    reads_features = True

    def __init__(self, label):
        self.label = label
        self.calls = 0

    def predict(self, index, features):
        self.calls += 1
        return self.label


def test_credence_safeguard_bypasses_oracle():
    # all queues at 3 < 16/4, so even a drop-everything oracle cannot matter
    oracle = _CountingOracle(PredictionLabel.POSITIVE)
    policy = Credence(oracle)
    policy.reset(SwitchConfig(4, 16))
    decision = policy.on_arrival(0, PID, _state_with([3, 3, 3, 3]))
    assert decision.accept
    assert oracle.calls == 0


def test_credence_consults_oracle_when_safeguard_inactive():
    # longest queue is exactly B/N, so the strict safeguard fails and the
    # prediction is honored
    oracle = _CountingOracle(PredictionLabel.POSITIVE)
    policy = Credence(oracle)
    policy.reset(SwitchConfig(4, 16))
    state = _state_with([4, 0, 0, 0])
    decision = policy.on_arrival(1, PID, state)
    assert not decision.accept
    assert oracle.calls == 1


def test_credence_threshold_drop_skips_oracle():
    oracle = _CountingOracle(PredictionLabel.NEGATIVE)
    policy = Credence(oracle)
    policy.reset(SwitchConfig(4, 16))
    state = _state_with([4, 4, 0, 0])
    # port 0: queue 4 >= threshold 1 after the update; dropped unheard
    decision = policy.on_arrival(0, PID, state)
    assert not decision.accept
    assert oracle.calls == 0


def test_credence_full_buffer_drop_skips_oracle():
    # queue below threshold but buffer full: drop without asking the oracle
    oracle = _CountingOracle(PredictionLabel.NEGATIVE)
    policy = Credence(oracle)
    policy.reset(SwitchConfig(2, 4))
    for port in (0, 0, 1, 1):
        policy.thresholds.on_arrival(port)  # thresholds [2, 2], total 4
    state = _state_with([3, 1])
    decision = policy.on_arrival(1, PID, state)
    # after the update the arriving threshold is 3 > q_1 = 1, yet Q = B
    assert policy.thresholds.thresholds[1] > state.queue_len[1]
    assert not decision.accept
    assert oracle.calls == 0


def test_credence_drop_implies_long_queue():
    # whenever Credence drops, some queue has reached B/N
    class Spy:
        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name

        @property
        def thresholds(self):
            return self.inner.thresholds

        def reset(self, config):
            self.config = config
            self.inner.reset(config)

        def on_arrival(self, port, index, state):
            decision = self.inner.on_arrival(port, index, state)
            if not decision.accept:
                assert max(state.queue_len) * self.config.num_ports >= self.config.buffer_size
            return decision

        def on_departure(self, port, state):
            self.inner.on_departure(port, state)

    rng = random.Random(5)
    for n, b in ((2, 4), (4, 8), (4, 16), (3, 7)):
        cfg = SwitchConfig(n, b)
        seq = random_sequence(rng, n, 100, 0.9)
        run_simulation(cfg, seq, Spy(Credence(ConstantOracle(PredictionLabel.POSITIVE))))
        run_simulation(cfg, seq, Spy(Credence(ConstantOracle(PredictionLabel.NEGATIVE))))


def test_credence_matches_follow_lqd_rule_when_safeguard_inactive():
    # with an always-accept oracle the decision reduces to the threshold rule
    class Check:
        def __init__(self):
            self.inner = Credence(ConstantOracle(PredictionLabel.NEGATIVE))
            self.name = "check"

        @property
        def thresholds(self):
            return self.inner.thresholds

        def reset(self, config):
            self.config = config
            self.inner.reset(config)

        def on_arrival(self, port, index, state):
            safeguard = max(state.queue_len) * self.config.num_ports < self.config.buffer_size
            decision = self.inner.on_arrival(port, index, state)
            if not safeguard:
                mirror = self.inner.thresholds
                expected = (
                    state.queue_len[port] < mirror.thresholds[port]
                    and state.occupancy < self.config.buffer_size
                )
                assert decision.accept == expected
            return decision

        def on_departure(self, port, state):
            self.inner.on_departure(port, state)

    rng = random.Random(9)
    cfg = SwitchConfig(4, 8)
    run_simulation(cfg, random_sequence(rng, 4, 150, 0.8), Check())


class _LiteralSafeguardCredence(Credence):
    """Credence whose safeguard finds the longest queue with ``max`` on every arrival."""

    def reset(self, config):
        super().reset(config)
        self._ports = config.num_ports

    def on_arrival(self, port, index, state):
        tracker = self.features
        features = tracker.on_arrival(port, state) if tracker is not None else None
        mirror = self.thresholds
        mirror.on_arrival(port)
        lengths = state.queue_len
        if max(lengths) * self._ports < self._buffer:
            return ACCEPT
        if lengths[port] < mirror.thresholds[port] and state.occupancy < self._buffer:
            label = self.oracle.predict(index, features)
            return DROP if label is PredictionLabel.POSITIVE else ACCEPT
        return DROP


@st.composite
def safeguard_instances(draw):
    # N > B, N == B and B not divisible by N all occur
    num_ports = draw(st.integers(1, 6))
    buffer_size = draw(st.integers(1, 20))
    row = st.lists(st.integers(0, num_ports - 1), max_size=num_ports)
    slots = draw(st.lists(row, max_size=24))
    oracle = draw(st.sampled_from(("drop", "accept", "perfect", "flip")))
    p = draw(st.sampled_from((0.1, 0.5, 0.9)))
    return SwitchConfig(num_ports, buffer_size), ArrivalSequence(slots), oracle, p, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(safeguard_instances())
def test_credence_safeguard_from_bounds_matches_the_longest_queue(instance):
    config, sequence, kind, p, seed = instance
    if kind in ("drop", "accept"):
        oracle = ConstantOracle(PredictionLabel.POSITIVE if kind == "drop" else PredictionLabel.NEGATIVE)
    else:
        oracle = PerfectOracle.from_run(run_simulation(config, sequence, LongestQueueDrop()))
        if kind == "flip":
            oracle = FlipOracle(oracle, p, seed, sequence)
    # a drop-tail policy's verdict for each arrival is its decision there
    credence = run_simulation(config, sequence, Credence(oracle))
    reference = run_simulation(config, sequence, _LiteralSafeguardCredence(oracle))
    assert credence.verdicts == reference.verdicts


def test_threshold_mirror_on_random_instances():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.choice((2, 3, 4, 8))
        b = rng.choice((4, 8, 16))
        cfg = SwitchConfig(n, b)
        seq = random_sequence(rng, n, 120, rng.choice((0.4, 0.7, 1.0)))
        oracle = None
        if trial % 3 == 1:
            oracle = ConstantOracle(PredictionLabel.POSITIVE)
        elif trial % 3 == 2:
            lqd = run_simulation(cfg, seq, LongestQueueDrop())
            oracle = FlipOracle(PerfectOracle.from_run(lqd), 0.4, trial, seq)
        assert find_threshold_divergence(cfg, seq, oracle) is None


def test_credence_with_perfect_oracle_matches_lqd():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.choice((2, 4, 8))
        cfg = SwitchConfig(n, rng.choice((8, 16)))
        seq = random_sequence(rng, n, 150, rng.choice((0.5, 0.8)))
        lqd = run_simulation(cfg, seq, LongestQueueDrop())
        credence_tx = throughput(cfg, seq, Credence(PerfectOracle.from_run(lqd)))
        assert credence_tx >= lqd.transmitted_count
