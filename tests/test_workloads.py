import math
import random
from collections import deque
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shbuf import (
    FollowLqd,
    LongestQueueDrop,
    SwitchConfig,
    load_sequence,
    run_simulation,
    save_sequence,
)
from shbuf import workloads
from shbuf.analysis import throughput
from shbuf.core import Bound
from shbuf.workloads import (
    WorkloadSpec,
    adversary_fill_slot_count,
    followlqd_adversary,
    followlqd_adversary_fill,
    generate,
    multi_burst_then_shorts,
    poisson_bursts,
    single_burst,
    spec_comment,
    uniform_random,
)


def test_single_burst_shape():
    cfg = SwitchConfig(4, 16)
    seq = single_burst(cfg, 16)
    assert seq.slots == [[0, 0, 0, 0]] * 4
    assert single_burst(cfg, 1).slots == [[0]]
    with pytest.raises(ValueError):
        single_burst(cfg, 0)


def test_generated_sequences_validate():
    for cfg in (SwitchConfig(5, 16), SwitchConfig(8, 32)):
        for seq in (
            single_burst(cfg, 3 * cfg.buffer_size),
            multi_burst_then_shorts(cfg),
            followlqd_adversary(cfg, 3),
            poisson_bursts(cfg, 0.02, 300, seed=1),
            uniform_random(cfg, 0.7, 300, seed=2),
        ):
            seq.validate(cfg)


def test_adversary_fill_reaches_buffer_size():
    for n, b in ((2, 4), (4, 8), (4, 16), (8, 32)):
        cfg = SwitchConfig(n, b)
        fill = followlqd_adversary_fill(cfg)
        assert fill.num_slots == adversary_fill_slot_count(cfg)
        result = run_simulation(cfg, fill, LongestQueueDrop())
        assert result.peak_occupancy == b
    with pytest.raises(ValueError):
        followlqd_adversary_fill(SwitchConfig(1, 4))
    with pytest.raises(ValueError):
        followlqd_adversary_fill(SwitchConfig(4, 3))


def test_adversary_fill_slot_count_rejects_switches_the_pattern_cannot_fill():
    # one port used to divide by zero, and B < N used to count one slot
    with pytest.raises(ValueError, match="at least 2 ports"):
        adversary_fill_slot_count(SwitchConfig(1, 4))
    with pytest.raises(ValueError, match="buffer_size >= num_ports"):
        adversary_fill_slot_count(SwitchConfig(4, 2))
    assert adversary_fill_slot_count(SwitchConfig(4, 4)) == 1


def test_adversary_cycle_structure():
    cfg = SwitchConfig(4, 8)
    seq = followlqd_adversary(cfg, 2)
    fill_slots = adversary_fill_slot_count(cfg)
    assert seq.num_slots == fill_slots + 4
    assert seq.slots[fill_slots] == [0, 1, 2, 3]
    assert seq.slots[fill_slots + 1] == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        followlqd_adversary(cfg, 0)


def test_adversary_follow_lqd_exact_per_cycle():
    cfg = SwitchConfig(8, 32)
    fill_tx = throughput(cfg, followlqd_adversary_fill(cfg), FollowLqd())
    for cycles in (1, 5, 20):
        total = throughput(cfg, followlqd_adversary(cfg, cycles), FollowLqd())
        assert total == fill_tx + 2 * cycles


def test_poisson_bursts_determinism_and_congestion():
    cfg = SwitchConfig(8, 32)
    a = poisson_bursts(cfg, 1 / 32, 1000, seed=9)
    b = poisson_bursts(cfg, 1 / 32, 1000, seed=9)
    assert a.slots == b.slots
    assert poisson_bursts(cfg, 1 / 32, 1000, seed=10).slots != a.slots
    # moderate rate keeps the reference policy busy enough to drop
    result = run_simulation(cfg, a, LongestQueueDrop())
    assert result.dropped_count > 0
    # near-zero rate produces an empty or nearly empty sequence
    sparse = poisson_bursts(cfg, 1e-9, 100, seed=3)
    assert sparse.total_packets <= cfg.buffer_size


def test_poisson_bursts_defers_excess_to_next_slot():
    cfg = SwitchConfig(4, 16)
    seq = poisson_bursts(cfg, 0.01, 400, seed=11)
    assert all(len(row) <= cfg.num_ports for row in seq.slots)
    # a full burst is 16 packets at 4 per slot: once it starts, four full rows follow
    first = next(i for i, row in enumerate(seq.slots) if row)
    assert [len(row) for row in seq.slots[first : first + 4]] == [4, 4, 4, 4]


def test_uniform_random_edges():
    cfg = SwitchConfig(4, 8)
    assert uniform_random(cfg, 0.0, 50, seed=1).total_packets == 0
    full = uniform_random(cfg, 1.0, 50, seed=1)
    assert all(row == [0, 1, 2, 3] for row in full.slots)
    assert uniform_random(cfg, 0.5, 50, seed=4).slots == uniform_random(cfg, 0.5, 50, seed=4).slots


def test_multi_burst_then_shorts_shape():
    cfg = SwitchConfig(8, 16)
    seq = multi_burst_then_shorts(cfg)
    seq.validate(cfg)
    # the four big bursts come first, then the short bursts to ports 4..7
    big_phase = (4 * cfg.buffer_size + cfg.num_ports - 1) // cfg.num_ports
    assert all(set(row) <= {0, 1, 2, 3} for row in seq.slots[:big_phase])
    assert all(set(row) == {4, 5, 6, 7} for row in seq.slots[big_phase:])
    with pytest.raises(ValueError):
        multi_burst_then_shorts(SwitchConfig(4, 16))


def test_multi_burst_then_shorts_favors_pushout():
    # wide switch: the big bursts saturate the buffer faster than it drains,
    # so the shorts find it full and only the push-out policy makes room
    cfg = SwitchConfig(16, 32)
    seq = multi_burst_then_shorts(cfg)
    lqd_tx = throughput(cfg, seq, LongestQueueDrop())
    flqd_tx = throughput(cfg, seq, FollowLqd())
    assert lqd_tx > flqd_tx



@pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
def test_poisson_bursts_rejects_non_finite_rate(rate):
    # nan used to yield an empty trace; inf never advanced the burst clock
    with pytest.raises(ValueError, match="rate"):
        poisson_bursts(SwitchConfig(4, 8), rate, 10, seed=0)

def test_trace_round_trip_with_spec_header(tmp_path):
    cfg = SwitchConfig(8, 32)
    spec = WorkloadSpec("poisson_bursts", {"rate": 0.02, "horizon": 200, "seed": 5})
    seq = generate(cfg, spec)
    path = tmp_path / "trace.csv"
    save_sequence(path, seq, comment=spec_comment(cfg, spec))
    first = path.read_text().splitlines()[0]
    assert first == "# spec: kind=poisson_bursts ports=8 buffer=32 horizon=200 rate=0.02 seed=5"
    loaded = load_sequence(path)
    # trailing arrival-free slots are not representable in the file format
    trimmed = list(seq.slots)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert loaded.slots == trimmed


def test_workload_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        WorkloadSpec("bursty_mcburstface", {})


def test_generate_dispatch():
    cfg = SwitchConfig(4, 8)
    assert generate(cfg, WorkloadSpec("single_burst", {"burst": 4})).total_packets == 4
    assert generate(cfg, WorkloadSpec("followlqd_adversary", {"cycles": 1})).num_slots > 2
    assert (
        generate(cfg, WorkloadSpec("uniform_random", {"load": 1.0, "horizon": 5, "seed": 0})).total_packets
        == 20
    )


# --- the generators against test-local copies of their first, loop-by-loop versions


def _reference_uniform_random(config, load, horizon, seed):
    """One ``rng.random() < load`` per port, ports in order, slot after slot."""
    rng = random.Random(seed)
    n = config.num_ports
    return [[port for port in range(n) if rng.random() < load] for _ in range(horizon)]


def _reference_poisson_bursts(config, rate, horizon, seed):
    """Every burst start first; then one packet at a time from a first-come first-served backlog."""
    rng = random.Random(seed)
    starts = []
    t = rng.expovariate(rate)
    while t < horizon:
        starts.append((int(t), rng.randrange(config.num_ports)))
        t += rng.expovariate(rate)
    slots = []
    backlog = deque()
    upcoming = 0
    slot = 0
    while upcoming < len(starts) or backlog:
        if not backlog and upcoming < len(starts) and starts[upcoming][0] > slot:
            while slot < starts[upcoming][0]:
                slots.append([])
                slot += 1
        while upcoming < len(starts) and starts[upcoming][0] <= slot:
            backlog.extend([starts[upcoming][1]] * config.buffer_size)
            upcoming += 1
        slots.append([backlog.popleft() for _ in range(min(config.num_ports, len(backlog)))])
        slot += 1
    return slots


def _rows_are_distinct_lists(sequence):
    return len(set(map(id, sequence.slots))) == len(sequence.slots)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.integers(1, 10),
    load=st.sampled_from([0.0, 0, 1.0, 1, Fraction(1, 3), 0.5]),
    horizon=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
@example(n=10, load=Fraction(1, 3), horizon=1, seed=0)
def test_uniform_random_matches_the_reference(n, load, horizon, seed):
    config = SwitchConfig(n, 4)
    sequence = uniform_random(config, load, horizon, seed)
    assert sequence.slots == _reference_uniform_random(config, load, horizon, seed)
    assert _rows_are_distinct_lists(sequence)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.integers(1, 10),
    b=st.integers(1, 40),
    rate=st.sampled_from([0.005, 0.05, 0.3, 1.0, 4.0]),
    horizon=st.integers(1, 200),
    seed=st.integers(0, 2**32),
)
@example(n=8, b=32, rate=0.03, horizon=400, seed=1)  # N < B: each burst spans four full rows
@example(n=8, b=3, rate=4.0, horizon=30, seed=2)  # N > B: several bursts share each row
@example(n=3, b=7, rate=1.0, horizon=60, seed=3)  # bursts overlap and rows mix their ports
@example(n=4, b=16, rate=4.0, horizon=1, seed=4)  # every burst starts in slot 0
def test_poisson_bursts_matches_the_reference(n, b, rate, horizon, seed):
    config = SwitchConfig(n, b)
    sequence = poisson_bursts(config, rate, horizon, seed)
    assert sequence.slots == _reference_poisson_bursts(config, rate, horizon, seed)
    assert _rows_are_distinct_lists(sequence)


def test_poisson_bursts_refuses_a_burst_that_starts_past_the_last_slot_a_sequence_holds():
    # one burst per 2**33 slots on average, over 2**40 slots: the first starts past 2**32 - 1
    with pytest.raises(ValueError, match="^poisson_bursts needs slot [0-9]+; a sequence holds slots up to 4294967295$"):
        poisson_bursts(SwitchConfig(2, 4), 2.0**-33, 2**40, seed=1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    b=st.integers(1, 30),
    rate=st.sampled_from([0.05, 0.3, 1.0, 4.0]),
    horizon=st.integers(1, 60),
    seed=st.integers(0, 2**32),
    last=st.integers(0, 80),
)
def test_poisson_bursts_refuses_exactly_the_sequences_that_need_a_slot_past_the_last(n, b, rate, horizon, seed, last):
    # with the last slot lowered to ``last``, a burst may start past it or spill over it
    config = SwitchConfig(n, b)
    expected = _reference_poisson_bursts(config, rate, horizon, seed)
    with mock.patch.object(workloads, "SLOT", Bound("slot", int, 0, last)):
        if len(expected) - 1 > last:
            with pytest.raises(ValueError, match=f"a sequence holds slots up to {last}$"):
                poisson_bursts(config, rate, horizon, seed)
        else:
            assert poisson_bursts(config, rate, horizon, seed).slots == expected
