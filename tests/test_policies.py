import math
import random
import re
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
    Verdict,
    run_simulation,
)
from shbuf.analysis import competitive_sweep, find_threshold_divergence, throughput
from shbuf.core import Simulation
from shbuf.oracles import ConstantOracle, FlipOracle, PredictionLabel
from shbuf.policies import threshold_levels
from shbuf.workloads import followlqd_adversary, followlqd_adversary_fill, poisson_bursts

from conftest import LiveCredence, LiveFollowLqd, dense_slots, random_sequence, visit_every_port


def _state_with(lengths):
    state = SwitchState(len(lengths))
    state.queue_len = list(lengths)
    state.occupancy = sum(lengths)
    return state


PID = 0  # arrival index
NONE = ArrivalSequence([])  # the sequence a policy that ignores it is bound to


def _one_arrival(port):
    """A sequence whose arrival ``PID`` goes to ``port``: its recorded level is 1."""
    return ArrivalSequence([[port]])


# --- CompleteSharing ---------------------------------------------------------


def test_complete_sharing_rule():
    policy = CompleteSharing()
    policy.reset(SwitchConfig(2, 4), NONE)
    assert policy.on_arrival(0, PID, _state_with([0, 0])).accept
    assert not policy.on_arrival(0, PID, _state_with([2, 2])).accept
    assert policy.on_arrival(0, PID, _state_with([2, 1])).accept


# --- DynamicThresholds -------------------------------------------------------


def test_dynamic_thresholds_rule():
    policy = DynamicThresholds(Fraction(1, 2))
    policy.reset(SwitchConfig(2, 16), NONE)
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
    policy.reset(SwitchConfig(2, 10), NONE)
    # free space 9, threshold exactly 3: q=2 accepted, q=3 dropped
    state = SwitchState(2)
    state.queue_len[0] = 2
    state.occupancy = 1
    assert policy.on_arrival(0, PID, state).accept
    state.queue_len[0] = 3
    assert not policy.on_arrival(0, PID, state).accept
    with pytest.raises(ValueError):
        DynamicThresholds(Fraction(0))


def test_dynamic_thresholds_reads_a_zero_denominator_as_a_value_error():
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
        DynamicThresholds("1/0")


@pytest.mark.parametrize(
    "alpha, message",
    [
        (True, "alpha must be a Fraction, an int or a string, got True"),
        (False, "alpha must be a Fraction, an int or a string, got False"),
        (None, "alpha must be a Fraction, an int or a string, got None"),
        (b"1/2", "alpha must be a Fraction, an int or a string, got b'1/2'"),
        (math.inf, "alpha must be positive and finite, got inf"),
        (-math.inf, "alpha must be positive and finite, got -inf"),
        (math.nan, "alpha must be positive and finite, got nan"),
        (0.0, "alpha must be positive and finite, got 0.0"),
        (-0.5, "alpha must be positive and finite, got -0.5"),
    ],
    ids=["true", "false", "none", "bytes", "inf", "minus_inf", "nan", "zero_float", "negative_float"],
)
def test_dynamic_thresholds_checks_alpha_before_converting_it(alpha, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DynamicThresholds(alpha)
    # the sweep passes its ``dt_alpha`` straight through
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        competitive_sweep(SwitchConfig(2, 4), [0.0], [1], 0.1, 10, dt_alpha=alpha)


@pytest.mark.parametrize(
    "alpha, expected",
    [
        (0.75, Fraction(3, 4)),
        (0.1, Fraction(3602879701896397, 36028797018963968)),
        (2, Fraction(2)),
        (Fraction(1, 3), Fraction(1, 3)),
        ("3/4", Fraction(3, 4)),
        ("0.1", Fraction(1, 10)),
    ],
)
def test_dynamic_thresholds_reads_finite_floats_ints_fractions_and_strings_exactly(alpha, expected):
    assert DynamicThresholds(alpha).alpha == expected


# --- LongestQueueDrop --------------------------------------------------------


def test_lqd_accepts_when_room():
    policy = LongestQueueDrop()
    policy.reset(SwitchConfig(2, 4), NONE)
    decision = policy.on_arrival(1, PID, _state_with([2, 1]))
    assert decision.accept and decision.pushout_victim is None


def test_lqd_pushes_out_tail_of_longest_queue():
    cfg = SwitchConfig(2, 4)
    # fill queues to [3, 1], then a packet to port 1 displaces queue 0's tail
    seq = ArrivalSequence([[0, 0], [0, 1], [1]])
    sim = Simulation(cfg, LongestQueueDrop(), seq)
    for row in dense_slots(seq)[:2]:
        sim.arrive(row)
    assert sim.state.queue_len == [3, 1]
    tail_before = sim.state.tails[0][-1]
    sim.arrive((1,))
    assert sim.state.queue_len == [2, 2]
    assert tail_before not in sim.state.tails[0]
    assert sim.verdicts[tail_before] is Verdict.PUSHED_OUT


def test_lqd_drops_arrival_to_its_own_longest_queue():
    policy = LongestQueueDrop()
    policy.reset(SwitchConfig(2, 4), NONE)
    state = _state_with([3, 1])
    assert not policy.on_arrival(0, PID, state).accept
    decision = policy.on_arrival(1, PID, state)
    assert decision.accept and decision.pushout_victim == 0


def test_lqd_tie_breaks_to_lowest_port():
    policy = LongestQueueDrop()
    policy.reset(SwitchConfig(2, 4), NONE)
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


class _ScanningMirror:
    """Reference mirror: each steal scans for the largest threshold with ``max``, each drain rebuilds the list."""

    def __init__(self, num_ports, buffer_size):
        self.thresholds = [0] * num_ports
        self.total = 0
        self._buffer = buffer_size

    def on_arrival(self, port):
        thresholds = self.thresholds
        if self.total == self._buffer:
            largest = thresholds.index(max(thresholds))
            thresholds[largest] -= 1
            thresholds[port] += 1
        else:
            thresholds[port] += 1
            self.total += 1

    def on_departure(self, port):
        if self.thresholds[port] > 0:
            self.thresholds[port] -= 1
            self.total -= 1

    def drain(self, slots):
        thresholds = self.thresholds
        thresholds[:] = [level - slots if level > slots else 0 for level in thresholds]
        self.total = sum(thresholds)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_threshold_state_matches_the_scanning_mirror(data):
    num_ports = data.draw(st.integers(1, 48))
    buffer_size = data.draw(st.integers(1, 64))
    mirror = ThresholdState(num_ports, buffer_size)
    reference = _ScanningMirror(num_ports, buffer_size)
    held = mirror.thresholds
    # mostly arrivals, to a few low ports or to ports at or just below the
    # largest threshold, keep the mirror full with ties at its maximum; drains
    # are short or end near the largest threshold
    few = st.integers(0, min(num_ports, 3) - 1)
    for _ in range(data.draw(st.integers(0, 120))):
        levels = reference.thresholds
        top = max(levels)
        step = data.draw(st.sampled_from(("arrival",) * 6 + ("departure", "drain")))
        if step == "drain":
            slots = data.draw(st.one_of(st.integers(0, 2), st.integers(max(top - 1, 0), top + 1)))
            mirror.drain(slots)
            reference.drain(slots)
        else:
            near_top = [port for port, level in enumerate(levels) if level >= top - 1]
            port = data.draw(st.one_of(few, st.sampled_from(near_top), st.integers(0, num_ports - 1)))
            if step == "arrival":
                mirror.on_arrival(port)
                reference.on_arrival(port)
            else:
                mirror.on_departure(port)
                reference.on_departure(port)
        assert mirror.thresholds == reference.thresholds
        assert mirror.total == reference.total
    assert mirror.thresholds is held


# --- FollowLqd ---------------------------------------------------------------


def test_follow_lqd_basic_accept():
    policy = FollowLqd()
    policy.reset(SwitchConfig(2, 4), _one_arrival(0))
    decision = policy.on_arrival(0, PID, _state_with([0, 0]))
    assert decision.accept  # threshold became 1, queue is 0


def test_follow_lqd_drops_when_buffer_full():
    policy = FollowLqd()
    policy.reset(SwitchConfig(2, 4), _one_arrival(0))
    state = _state_with([2, 2])
    assert not policy.on_arrival(0, PID, state).accept


def test_follow_lqd_adversary_step_drops_behind_threshold():
    # after the fill, one all-ports slot pulls the mirrored threshold down to
    # B - N + 1 while the real queue still holds B - 1 packets
    cfg = SwitchConfig(4, 16)
    fill = followlqd_adversary_fill(cfg)
    sequence = ArrivalSequence(dense_slots(fill) + [list(range(4)), [0]])
    sim = Simulation(cfg, FollowLqd(), sequence)
    for row in dense_slots(fill):
        sim.arrive(row)
        sim.drain(1)
    assert sim.state.queue_len[0] == cfg.buffer_size - 1
    accepted_before = sim.state.occupancy + sim.transmitted
    sim.arrive((0, 1, 2, 3))
    accepted = sim.state.occupancy + sim.transmitted - accepted_before
    assert accepted == 1  # only one of the N incoming packets fits
    # one slot later port 0's threshold, drained and stepped once, is still
    # B - N + 1, below its queue, so the next packet there is dropped
    sim.drain(1)
    assert threshold_levels(cfg, sequence)[-1] == cfg.buffer_size - cfg.num_ports + 1
    assert sim.state.queue_len[0] > cfg.buffer_size - cfg.num_ports + 1
    sim.arrive((0,))
    assert sim.verdicts[-1] is Verdict.DROPPED_ON_ARRIVAL


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
    policy.reset(SwitchConfig(4, 16), _one_arrival(0))
    decision = policy.on_arrival(0, PID, _state_with([3, 3, 3, 3]))
    assert decision.accept
    assert oracle.calls == 0


def test_credence_consults_oracle_when_safeguard_inactive():
    # longest queue is exactly B/N, so the strict safeguard fails and the
    # prediction is honored
    oracle = _CountingOracle(PredictionLabel.POSITIVE)
    policy = Credence(oracle)
    policy.reset(SwitchConfig(4, 16), _one_arrival(1))
    state = _state_with([4, 0, 0, 0])
    decision = policy.on_arrival(1, PID, state)
    assert not decision.accept
    assert oracle.calls == 1


def test_credence_threshold_drop_skips_oracle():
    oracle = _CountingOracle(PredictionLabel.NEGATIVE)
    policy = Credence(oracle)
    policy.reset(SwitchConfig(4, 16), _one_arrival(0))
    state = _state_with([4, 4, 0, 0])
    # port 0: queue 4 >= threshold 1 after the update; dropped unheard
    decision = policy.on_arrival(0, PID, state)
    assert not decision.accept
    assert oracle.calls == 0


def test_credence_full_buffer_drop_skips_oracle():
    # queue below threshold but buffer full: drop without asking the oracle
    oracle = _CountingOracle(PredictionLabel.NEGATIVE)
    # the arriving threshold is 3 > q_1 = 1, yet Q = B
    policy = Credence(oracle, [3])
    policy.reset(SwitchConfig(2, 4), _one_arrival(1))
    decision = policy.on_arrival(1, PID, _state_with([3, 1]))
    assert not decision.accept
    assert oracle.calls == 0


def test_credence_drop_implies_long_queue():
    # whenever Credence drops, some queue has reached B/N
    class Spy:
        def __init__(self, inner):
            self.inner = inner
            self.name = inner.name

        def reset(self, config, sequence):
            self.config = config
            self.inner.reset(config, sequence)

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

        def reset(self, config, sequence):
            self.config = config
            self.levels = threshold_levels(config, sequence)
            self.inner.reset(config, sequence)

        def on_arrival(self, port, index, state):
            safeguard = max(state.queue_len) * self.config.num_ports < self.config.buffer_size
            decision = self.inner.on_arrival(port, index, state)
            if not safeguard:
                expected = (
                    state.queue_len[port] < self.levels[index]
                    and state.occupancy < self.config.buffer_size
                )
                assert decision.accept == expected
            return decision

        def on_departure(self, port, state):
            self.inner.on_departure(port, state)

    rng = random.Random(9)
    cfg = SwitchConfig(4, 8)
    run_simulation(cfg, random_sequence(rng, 4, 150, 0.8), Check())


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
    # a drop-tail policy's verdict for each arrival is its decision there; the
    # reference steps a live mirror and finds the longest queue with ``max``
    credence = run_simulation(config, sequence, Credence(oracle))
    reference = visit_every_port(config, sequence, LiveCredence(oracle))
    assert credence.verdicts == reference.verdicts
    # the same decisions from a column recorded beforehand
    replay = run_simulation(config, sequence, Credence(oracle, threshold_levels(config, sequence)))
    assert replay.verdicts == credence.verdicts


def _contended_sequences():
    yield SwitchConfig(8, 32), poisson_bursts(SwitchConfig(8, 32), 1 / 32, 2000, 7)
    for seed in (1000, 1007):
        yield SwitchConfig(48, 48), poisson_bursts(SwitchConfig(48, 48), 0.00833, 1000, seed)
    yield SwitchConfig(4, 16), followlqd_adversary(SwitchConfig(4, 16), 6)


@pytest.mark.parametrize("config, sequence", list(_contended_sequences()))
def test_credence_replaying_recorded_levels_matches_the_live_mirror(config, sequence):
    # random small sequences with N <= B never drop a packet; these do
    lqd = run_simulation(config, sequence, LongestQueueDrop())
    assert lqd.dropped_count > 0
    levels = threshold_levels(config, sequence)
    assert len(levels) == sequence.total_packets
    perfect = PerfectOracle.from_run(lqd)
    oracles = [ConstantOracle(PredictionLabel.POSITIVE), ConstantOracle(PredictionLabel.NEGATIVE), perfect]
    oracles += [FlipOracle(perfect, p, 3, sequence) for p in (0.1, 0.5)]
    for oracle in oracles:
        expected = visit_every_port(config, sequence, LiveCredence(oracle)).verdicts
        assert run_simulation(config, sequence, Credence(oracle)).verdicts == expected
        assert run_simulation(config, sequence, Credence(oracle, levels)).verdicts == expected
    expected = visit_every_port(config, sequence, LiveFollowLqd()).verdicts
    assert run_simulation(config, sequence, FollowLqd()).verdicts == expected


def test_credence_refuses_a_column_of_another_length():
    config, sequence = SwitchConfig(2, 4), ArrivalSequence([[0, 1], [1]])
    policy = Credence(ConstantOracle(PredictionLabel.NEGATIVE), [1, 1])
    with pytest.raises(ValueError, match="2 entries for a sequence of 3 packets"):
        run_simulation(config, sequence, policy)


def test_threshold_mirror_on_random_instances():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.choice((2, 3, 4, 8))
        b = rng.choice((4, 8, 16))
        cfg = SwitchConfig(n, b)
        seq = random_sequence(rng, n, 120, rng.choice((0.4, 0.7, 1.0)))
        assert find_threshold_divergence(cfg, seq) is None
    # the sweep shape, where a full mirror steals among 48 thresholds
    wide = SwitchConfig(48, 48)
    for seed in range(1000, 1005):
        assert find_threshold_divergence(wide, poisson_bursts(wide, 0.00833, 1000, seed)) is None
    assert find_threshold_divergence(wide, followlqd_adversary(wide, 8)) is None


def test_credence_with_perfect_oracle_matches_lqd():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.choice((2, 4, 8))
        cfg = SwitchConfig(n, rng.choice((8, 16)))
        seq = random_sequence(rng, n, 150, rng.choice((0.5, 0.8)))
        lqd = run_simulation(cfg, seq, LongestQueueDrop())
        credence_tx = throughput(cfg, seq, Credence(PerfectOracle.from_run(lqd)))
        assert credence_tx >= lqd.transmitted_count
