import math

import pytest

from shbuf import (
    FollowLqd,
    LongestQueueDrop,
    SwitchConfig,
    load_sequence,
    run_simulation,
    save_sequence,
)
from shbuf.analysis import throughput
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
