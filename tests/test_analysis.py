import math
import os
import random
import signal
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
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
    ThresholdState,
    run_simulation,
)
from shbuf import _fork, analysis, oracles
from shbuf.core import run_slots
from shbuf.analysis import (
    InstanceTooLarge,
    LQD_COMPETITIVE_RATIO,
    SweepRow,
    ThresholdDivergence,
    brute_force_opt,
    competitive_sweep,
    compute_eta,
    eta_upper_bound,
    find_threshold_divergence,
    simulate_with_prediction_log,
    throughput,
    write_sweep_rows,
)
from shbuf.learner import ConfusionCounts
from shbuf.oracles import (
    ConstantOracle,
    FlipOracle,
    PredictionLabel,
    _flip_draws,
    ground_truth_from_run,
)
from shbuf.policies import threshold_levels
from shbuf.workloads import (
    followlqd_adversary,
    followlqd_adversary_fill,
    poisson_bursts,
    single_burst,
    uniform_random,
)

from conftest import (
    FORKS, ROUTES, LiveCredence, contended_instance, dense_slots, forced_route, four_way_confusion, random_sequence,
    random_tiny_sequence, visit_every_port,
)

POS = PredictionLabel.POSITIVE
NEG = PredictionLabel.NEGATIVE


# --- error ratio ----------------------------------------------------------------


def test_eta_is_one_for_perfect_predictions():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        cfg = SwitchConfig(n, rng.choice((4, 8)))
        seq = random_sequence(rng, n, 60, 0.8)
        lqd = run_simulation(cfg, seq, LongestQueueDrop())
        truth = ground_truth_from_run(lqd)
        predictions = {
            packet: POS if dropped else NEG for packet, dropped in truth.items()
        }
        report = compute_eta(cfg, seq, predictions, truth)
        assert report.eta == 1.0
        assert report.confusion.fp == 0 and report.confusion.fn == 0



def test_eta_lqd_transmitted_equals_an_lqd_run():
    rng = random.Random(17)
    for trial in range(30):
        n = rng.choice((2, 3, 4))
        cfg = SwitchConfig(n, rng.choice((2, 4, 8)))
        seq = random_sequence(rng, n, 60, 0.9)
        lqd = run_simulation(cfg, seq, LongestQueueDrop())
        truth = ground_truth_from_run(lqd)
        oracle = FlipOracle(PerfectOracle(truth), 0.3, seed=trial, sequence=seq)
        _, predictions = simulate_with_prediction_log(cfg, seq, oracle)
        report = compute_eta(cfg, seq, predictions, truth)
        assert report.lqd_transmitted == lqd.transmitted_count

def test_eta_is_one_without_congestion():
    cfg = SwitchConfig(4, 64)
    seq = uniform_random(cfg, 0.4, 60, seed=5)
    lqd = run_simulation(cfg, seq, LongestQueueDrop())
    truth = ground_truth_from_run(lqd)
    assert not any(truth.values())
    predictions = {packet: NEG for packet in truth}
    report = compute_eta(cfg, seq, predictions, truth)
    assert report.eta == 1.0
    assert report.lqd_transmitted == seq.total_packets


def test_eta_all_positive_predictions_is_infinite():
    cfg = SwitchConfig(2, 4)
    seq = ArrivalSequence([[0, 1], [0, 1]])
    lqd = run_simulation(cfg, seq, LongestQueueDrop())
    truth = ground_truth_from_run(lqd)
    predictions = {packet: POS for packet in truth}
    report = compute_eta(cfg, seq, predictions, truth)
    assert math.isinf(report.eta)
    assert report.reduced_transmitted == 0


def test_eta_requires_total_coverage():
    cfg = SwitchConfig(2, 4)
    seq = ArrivalSequence([[0, 1]])
    lqd = run_simulation(cfg, seq, LongestQueueDrop())
    truth = ground_truth_from_run(lqd)
    with pytest.raises(ValueError, match="coverage"):
        compute_eta(cfg, seq, {}, truth)


def test_eta_names_the_first_packet_either_input_misses():
    cfg = SwitchConfig(2, 4)
    seq = ArrivalSequence([[0, 1], [0, 1]])
    for predictions, truth, missing in (
        ([NEG] * 4, [False, True], 2),
        ({0: NEG, 1: NEG, 3: NEG}, [False] * 4, 2),
        ([NEG], {0: False, 2: True}, 1),
        ([NEG] * 4, {index: False for index in range(4) if index != 3}, 3),
    ):
        with pytest.raises(ValueError, match=f"^packet {missing} missing from predictions or ground truth; coverage must be total$"):
            compute_eta(cfg, seq, predictions, truth)


def test_eta_refuses_a_forecast_that_is_not_a_drop_flag():
    cfg, seq = SwitchConfig(2, 2), ArrivalSequence([[0, 1], [1]])
    with pytest.raises(ValueError, match="^a drop flag is True or False, got 'drop'$"):
        compute_eta(cfg, seq, ["drop"] * 3, [True, False, False])
    with pytest.raises(ValueError, match="^a drop flag is True or False, got None$"):
        compute_eta(cfg, seq, [False] * 3, {0: True, 1: None, 2: False})
    # the ints 1 and 0 are drop flags
    assert compute_eta(cfg, seq, [1, 0, 0], [1, 0, 0]) == compute_eta(cfg, seq, [True, False, False], [True, False, False])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_eta_reads_list_and_mapping_inputs_alike_and_counts_as_a_four_way_loop_does(data):
    num_ports = data.draw(st.integers(1, 4))
    config = SwitchConfig(num_ports, data.draw(st.integers(1, 6)))
    rows = data.draw(st.lists(st.lists(st.integers(0, num_ports - 1), max_size=num_ports), max_size=12))
    sequence = ArrivalSequence(rows)
    flags = st.sampled_from([True, False, 1, 0])
    predictions = data.draw(st.lists(flags, min_size=sequence.total_packets, max_size=sequence.total_packets))
    truth = data.draw(st.lists(flags, min_size=sequence.total_packets, max_size=sequence.total_packets))
    report = compute_eta(config, sequence, predictions, truth)
    for forecasts in (predictions, dict(enumerate(predictions))):
        assert compute_eta(config, sequence, forecasts, dict(enumerate(truth))) == report
    assert report.confusion == four_way_confusion(predictions, truth)
    assert report.lqd_transmitted == report.confusion.tn + report.confusion.fp
    kept = iter(predictions)
    survivors = ArrivalSequence([[port for port in row if not next(kept)] for row in rows])
    assert report.reduced_transmitted == throughput(config, survivors, FollowLqd())


def test_eta_empty_sequence_is_one():
    cfg = SwitchConfig(2, 4)
    report = compute_eta(cfg, ArrivalSequence([]), {}, {})
    assert report.eta == 1.0


def test_flip_one_inverts_all_predictions():
    cfg = SwitchConfig(3, 2)
    seq = ArrivalSequence([[0, 0, 1]])
    lqd = run_simulation(cfg, seq, LongestQueueDrop())
    truth = ground_truth_from_run(lqd)
    oracle = FlipOracle(PerfectOracle(truth), 1.0, seed=0, sequence=seq)
    _, predictions = simulate_with_prediction_log(cfg, seq, oracle)
    report = compute_eta(cfg, seq, predictions, truth)
    assert report.confusion.tp == 0 and report.confusion.tn == 0
    assert report.confusion.fp + report.confusion.fn == seq.total_packets


# --- error-ratio upper bound ------------------------------------------------------


def test_eta_bound_direct_evaluation():
    bound = eta_upper_bound(ConfusionCounts(tp=4, fp=5, tn=90, fn=1), num_ports=4)
    assert bound == pytest.approx(95 / 87)


def test_eta_bound_perfect_corner():
    assert eta_upper_bound(ConfusionCounts(tp=3, fp=0, tn=50, fn=0), num_ports=4) == 1.0


def test_eta_bound_clamps_to_infinity():
    assert math.isinf(eta_upper_bound(ConfusionCounts(tp=0, fp=0, tn=6, fn=2), num_ports=4))
    assert math.isinf(eta_upper_bound(ConfusionCounts(tp=0, fp=0, tn=0, fn=0), num_ports=2))


def test_eta_bounded_by_formula_on_random_instances():
    rng = random.Random(17)
    checked = 0
    for trial in range(120):
        n = rng.choice((2, 3, 4))
        cfg = SwitchConfig(n, rng.choice((4, 8, 12)))
        seq = random_sequence(rng, n, 60, rng.choice((0.6, 0.9)))
        if seq.total_packets == 0:
            continue
        lqd = run_simulation(cfg, seq, LongestQueueDrop())
        truth = ground_truth_from_run(lqd)
        oracle = FlipOracle(PerfectOracle(truth), rng.choice((0.1, 0.3, 0.5)), seed=trial, sequence=seq)
        _, predictions = simulate_with_prediction_log(cfg, seq, oracle)
        report = compute_eta(cfg, seq, predictions, truth)
        c = report.confusion
        denominator = c.tn - min((n - 1) * c.fn, c.tn)
        if denominator <= 0:
            continue
        checked += 1
        assert Fraction(report.lqd_transmitted, max(report.reduced_transmitted, 1)) <= Fraction(
            c.tn + c.fp, denominator
        )
        assert report.reduced_transmitted > 0  # the bound promises a positive floor
    assert checked >= 40


# --- brute-force optimum -----------------------------------------------------------


def test_opt_single_packet():
    cfg = SwitchConfig(2, 4)
    assert brute_force_opt(cfg, ArrivalSequence([[0]])) == 1


def test_opt_accepts_full_buffer_burst():
    cfg = SwitchConfig(4, 16)
    assert brute_force_opt(cfg, single_burst(cfg, 16)) == 16


def test_opt_adversary_cycle_gains_n_plus_one():
    cfg = SwitchConfig(4, 8)
    fill = followlqd_adversary_fill(cfg)
    one_cycle = followlqd_adversary(cfg, 1)
    assert brute_force_opt(cfg, one_cycle) - brute_force_opt(cfg, fill) == cfg.num_ports + 1


def test_opt_adversary_minimal_ports():
    cfg = SwitchConfig(2, 4)
    fill = followlqd_adversary_fill(cfg)
    one_cycle = followlqd_adversary(cfg, 1)
    gain = brute_force_opt(cfg, one_cycle) - brute_force_opt(cfg, fill)
    assert gain == 3  # N + 1
    flqd_gain = throughput(cfg, one_cycle, FollowLqd()) - throughput(cfg, fill, FollowLqd())
    assert gain / flqd_gain >= 1.5


def test_opt_refuses_large_instances():
    cfg, seq = contended_instance()
    message = f"^160310 queue vectors after arrival 45 of 160 packets; exact OPT refuses above {1 << 17}$"
    with pytest.raises(InstanceTooLarge, match=message):
        brute_force_opt(cfg, seq)
    # packets alone do not make an instance large: 22 to 2 ports build no vector
    assert brute_force_opt(SwitchConfig(2, 4), ArrivalSequence([[0, 1]] * 11)) == 22


def _branch_and_bound_opt(config, sequence):
    """The optimum by exhaustive branch-and-bound over drop-tail decision
    vectors, with the bound ``transmitted + buffered + remaining arrivals``
    and its own departure phases: the reference for ``brute_force_opt``."""
    slots = dense_slots(sequence)
    num_slots = len(slots)
    n = config.num_ports
    best = max(throughput(config, sequence, CompleteSharing()), throughput(config, sequence, LongestQueueDrop()))
    queue = [0] * n

    def search(slot_index, pos, transmitted, occupancy, remaining):
        nonlocal best
        if transmitted + occupancy + remaining <= best:
            return
        if slot_index == num_slots:
            best = transmitted + occupancy
            return
        row = slots[slot_index]
        if pos == len(row):
            # departure phase, then fast-forward over arrival-free slots
            saved = queue[:]
            next_slot = slot_index
            while True:
                drained = 0
                for port in range(n):
                    if queue[port]:
                        queue[port] -= 1
                        drained += 1
                transmitted += drained
                occupancy -= drained
                next_slot += 1
                if next_slot == num_slots or slots[next_slot]:
                    break
                if occupancy == 0:
                    while next_slot < num_slots and not slots[next_slot]:
                        next_slot += 1
                    break
            search(next_slot, 0, transmitted, occupancy, remaining)
            queue[:] = saved
            return
        port = row[pos]
        if occupancy < config.buffer_size:
            queue[port] += 1
            search(slot_index, pos + 1, transmitted, occupancy + 1, remaining - 1)
            queue[port] -= 1
        search(slot_index, pos + 1, transmitted, occupancy, remaining - 1)

    search(0, 0, 0, 0, sequence.total_packets)
    return best


@st.composite
def opt_instances(draw):
    # N in 2..4, B in 1..8, at most 14 packets; rows are empty, mixed, or a
    # burst to one port, so that a queue can outlast a run of empty slots
    num_ports = draw(st.integers(2, 4))
    buffer_size = draw(st.integers(1, 8))
    port = st.integers(0, num_ports - 1)
    burst = st.builds(lambda p, k: [p] * k, port, st.integers(1, num_ports))
    row = st.one_of(st.just([]), st.lists(port, max_size=num_ports), burst)
    slots, budget = [], 14
    for ports in draw(st.lists(row, max_size=12)):
        slots.append(ports[:budget])
        budget -= len(slots[-1])
    return SwitchConfig(num_ports, buffer_size), ArrivalSequence(slots)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(opt_instances())
def test_opt_equals_the_branch_and_bound_reference(instance):
    config, sequence = instance
    expected = _branch_and_bound_opt(config, sequence)
    assert brute_force_opt(config, sequence) == expected
    # the LQD floor settles most tiny instances, so also step a frontier with none
    unpruned = analysis._Frontier(config, 0, sequence.total_packets)
    run_slots(unpruned, sequence)
    assert max(unpruned.vectors.values()) == expected


def test_opt_floor_keeps_one_wide_slot_small():
    # 16 packets to 16 ports in one slot fit a 16-packet buffer: LQD's floor
    # already equals the packet count, so no accept/drop vector survives it.
    # Without the floor all 2**16 vectors would be kept.
    cfg = SwitchConfig(16, 16)
    seq = ArrivalSequence([list(range(16))])
    tracemalloc.start()
    try:
        assert brute_force_opt(cfg, seq) == 16
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak {peak} bytes"


def test_opt_dominates_every_policy():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.choice((2, 3))
        cfg = SwitchConfig(n, rng.choice((2, 3, 4, 6)))
        seq = random_tiny_sequence(rng, n)
        opt = brute_force_opt(cfg, seq)
        for policy in (
            CompleteSharing(),
            DynamicThresholds(),
            LongestQueueDrop(),
            FollowLqd(),
            Credence(ConstantOracle(NEG)),
        ):
            assert throughput(cfg, seq, policy) <= opt


# --- ratio bounds on tiny instances -------------------------------------------------


def test_robustness_and_smoothness_bounds_hold():
    rng = random.Random(29)
    for trial in range(60):
        n = rng.choice((2, 3))
        cfg = SwitchConfig(n, rng.choice((2, 4, 6)))
        seq = random_tiny_sequence(rng, n)
        if seq.total_packets == 0:
            continue
        opt = brute_force_opt(cfg, seq)
        lqd = run_simulation(cfg, seq, LongestQueueDrop())
        truth = ground_truth_from_run(lqd)
        oracles = (
            PerfectOracle(truth),
            ConstantOracle(POS),
            ConstantOracle(NEG),
            FlipOracle(PerfectOracle(truth), 1.0, trial, seq),
        )
        for oracle in oracles:
            result, predictions = simulate_with_prediction_log(cfg, seq, oracle)
            tx = result.transmitted_count
            assert opt <= n * tx
            report = compute_eta(cfg, seq, predictions, truth)
            if report.reduced_transmitted > 0:
                eta = Fraction(report.lqd_transmitted, report.reduced_transmitted)
                bound = min(LQD_COMPETITIVE_RATIO * eta, Fraction(n))
            else:
                bound = Fraction(n)
            assert Fraction(opt) <= bound * tx
            # the throughput floor behind the error ratio
            assert tx >= report.reduced_transmitted


def test_lqd_within_literature_ratio_on_tiny_instances():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.choice((2, 3))
        cfg = SwitchConfig(n, rng.choice((2, 4, 6)))
        seq = random_tiny_sequence(rng, n)
        if seq.total_packets == 0:
            continue
        opt = brute_force_opt(cfg, seq)
        lqd_tx = throughput(cfg, seq, LongestQueueDrop())
        assert Fraction(opt) <= LQD_COMPETITIVE_RATIO * lqd_tx


@settings(derandomize=True, max_examples=600, deadline=None)
@given(opt_instances(), st.integers(0, 2**64 - 1))
def test_opt_bounds_hold_for_lqd_and_credence_under_any_oracle(instance, seed):
    config, sequence = instance
    n = config.num_ports
    opt = Fraction(brute_force_opt(config, sequence))
    lqd = run_simulation(config, sequence, LongestQueueDrop())
    lqd_tx = lqd.transmitted_count
    if lqd.dropped_count:
        event("LQD drops")
    assert lqd_tx <= opt <= LQD_COMPETITIVE_RATIO * lqd_tx
    truth = ground_truth_from_run(lqd)
    perfect = PerfectOracle(truth)
    oracles = {"perfect": perfect, "always drop": ConstantOracle(POS), "never drop": ConstantOracle(NEG)}
    for p in (0.1, 0.5, 1.0):
        oracles[f"flip {p}"] = FlipOracle(perfect, p, seed, sequence)
    for name, oracle in oracles.items():
        result, predictions = simulate_with_prediction_log(config, sequence, oracle)
        tx = result.transmitted_count
        if oracle is perfect:
            assert tx >= lqd_tx
        assert opt <= n * tx
        # the error ratio, as test_robustness_and_smoothness_bounds_hold computes it
        report = compute_eta(config, sequence, predictions, truth)
        if report.confusion.fn:
            event(f"fn > 0 under {name}")
        if report.reduced_transmitted > 0:
            eta = Fraction(report.lqd_transmitted, report.reduced_transmitted)
            bound = min(LQD_COMPETITIVE_RATIO * eta, Fraction(n))
        else:
            bound = Fraction(n)
        assert opt <= bound * tx, name


# --- sweep ---------------------------------------------------------------------


def test_sweep_perfect_predictions_match_lqd():
    cfg = SwitchConfig(8, 32)
    rows = competitive_sweep(cfg, [0.0], seeds=range(3), rate=1 / 64, horizon=300)
    for row in rows:
        assert row.credence_throughput == row.lqd_throughput
        assert row.ratio_credence == 1.0


def test_sweep_draws_each_seeds_coins_once_and_matches_a_flip_oracle_per_row(monkeypatch):
    cfg = SwitchConfig(8, 32)
    p_values = [0.0, 0.1, 0.5, 1.0]
    seeds = [4, 0, 9]
    drawn = []
    recorded = []

    def counting_draws(seed, sequence):
        drawn.append(seed)
        return _flip_draws(seed, sequence)

    def counting_levels(config, sequence):
        recorded.append(sequence)
        return threshold_levels(config, sequence)

    # FlipOracle's own constructor draws through the oracles module's name
    monkeypatch.setattr(analysis, "_flip_draws", counting_draws)
    monkeypatch.setattr(oracles, "_flip_draws", counting_draws)
    monkeypatch.setattr(analysis, "threshold_levels", counting_levels)
    # the counters see only this process, so every seed runs here
    with forced_route("in_process"):
        rows = competitive_sweep(cfg, p_values, seeds, rate=1 / 64, horizon=300)
    assert drawn == seeds
    # one threshold trajectory per seed, shared by its Credence runs
    assert recorded == [poisson_bursts(cfg, 1 / 64, 300, seed) for seed in seeds]
    monkeypatch.undo()
    # the expected rows come from live Credence runs, each stepping its own mirror
    expected = []
    for p in p_values:
        for seed in seeds:
            sequence = poisson_bursts(cfg, 1 / 64, 300, seed)
            lqd = run_simulation(cfg, sequence, LongestQueueDrop())
            oracle = PerfectOracle.from_run(lqd)
            credence_tx = visit_every_port(cfg, sequence, LiveCredence(FlipOracle(oracle, p, seed, sequence))).transmitted
            dt_tx = throughput(cfg, sequence, DynamicThresholds(Fraction(1, 2)))
            expected.append(SweepRow(p, seed, lqd.transmitted_count, credence_tx, dt_tx))
    assert rows == expected


def test_sweep_rows_and_csv(tmp_path):
    cfg = SwitchConfig(4, 16)
    p_values = [0.0, 0.5]
    rows = competitive_sweep(cfg, p_values, seeds=range(2), rate=1 / 32, horizon=200)
    assert len(rows) == len(p_values) * 2
    path = tmp_path / "sweep.csv"
    write_sweep_rows(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,lqd_throughput,credence_throughput,dt_throughput,ratio_credence,ratio_dt,seed"
    assert len(lines) == 1 + len(rows)


# --- the sweep's two routes: every seed here, or every second seed in a forked child ---


SWEEP_SHAPE = dict(config=SwitchConfig(8, 32), rate=1 / 64, horizon=300)


@ROUTES
@pytest.mark.parametrize(
    "p_values, seeds",
    [
        ([0.0, 0.5], [3]),  # one seed: nothing to share, so no fork
        ([0.0, 0.1, 0.7], [5, 1, 8, 2]),
        ([0.0, 0.3, 1.0], [4, 0, 9, 6, 11]),
        ([0.2, 0.0], [2, 7, 2, 2]),  # a repeated seed gives the same row each time
        ([0.3], range(3)),
    ],
    ids=["one_seed", "even_seeds", "odd_seeds", "repeated_seeds", "one_p"],
)
def test_the_sweep_gives_the_same_rows_on_both_routes(route, p_values, seeds):
    with forced_route("in_process") as (forks, _):
        expected = competitive_sweep(p_values=p_values, seeds=seeds, **SWEEP_SHAPE)
    assert forks == []
    with forced_route(route) as (forks, statuses):
        rows = competitive_sweep(p_values=p_values, seeds=seeds, **SWEEP_SHAPE)
    assert len(forks) == (route == "two_processes" and len(seeds) >= 2)
    assert all(os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0 for status in statuses)
    assert rows == expected
    assert [(row.p, row.seed) for row in rows] == [(p, seed) for p in p_values for seed in seeds]


def _levels_failing_in(side, error, stall=0.0):
    """A ``threshold_levels`` that raises ``error`` in this process (``side="parent"``) or in
    the forked child (``side="child"``); the other process sleeps ``stall`` seconds once, then runs."""
    parent, stalls = os.getpid(), [stall]

    def failing(config, sequence):
        if (os.getpid() == parent) == (side == "parent"):
            raise error
        time.sleep(stalls.pop() if stalls else 0)
        return threshold_levels(config, sequence)

    return failing


@FORKS
@pytest.mark.parametrize("error", [MemoryError(), ValueError("a child's error")], ids=["memory", "value"])
def test_an_error_in_the_sweeps_child_is_raised_here_as_its_type(monkeypatch, error):
    with forced_route("two_processes") as (forks, statuses):
        monkeypatch.setattr(analysis, "threshold_levels", _levels_failing_in("child", error))
        with pytest.raises(type(error)) as raised:
            competitive_sweep(p_values=[0.0, 0.5], seeds=range(4), **SWEEP_SHAPE)
    assert raised.value.args == error.args
    # the child sent its error back and exited normally
    assert len(forks) == 1 and os.WIFEXITED(statuses[0]) and os.WEXITSTATUS(statuses[0]) == 0


@FORKS
def test_an_error_in_the_sweeps_parent_kills_and_reaps_the_child(monkeypatch):
    # the child would sleep for a minute before its first seed; the parent's error must not wait for it
    started = time.monotonic()
    with forced_route("two_processes") as (forks, statuses):
        monkeypatch.setattr(analysis, "threshold_levels", _levels_failing_in("parent", KeyError("boom"), stall=60))
        with pytest.raises(KeyError, match="boom"):
            competitive_sweep(p_values=[0.0], seeds=range(4), **SWEEP_SHAPE)
    assert time.monotonic() - started < 30
    assert len(forks) == 1 and os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL


@pytest.mark.parametrize(
    "bad",
    [dict(p_values=[0.0, 1.5]), dict(p_values=[math.nan]), dict(rate=0.0), dict(rate=-1.0), dict(horizon=0),
     dict(dt_alpha=Fraction(0))],
    ids=["p_above_one", "p_nan", "zero_rate", "negative_rate", "zero_horizon", "zero_alpha"],
)
def test_a_bad_sweep_argument_is_raised_before_any_fork(bad):
    arguments = dict(p_values=[0.0], seeds=range(6), **SWEEP_SHAPE) | bad
    with forced_route("two_processes") as (forks, _):
        with pytest.raises(ValueError):
            competitive_sweep(**arguments)
    assert forks == []


def test_the_sweep_forks_only_where_it_pays(monkeypatch):
    asked = []
    monkeypatch.setattr(_fork, "forks", lambda work, break_even: asked.append((work, break_even)) and False)
    competitive_sweep(p_values=[0.0, 0.5], seeds=[1, 2, 3], **SWEEP_SHAPE)
    # packet-runs: seeds x rate x horizon x buffer size x (LQD, DT, the mirror and one Credence run per p)
    assert asked == [(3 * (1 / 64) * 300 * 32 * 5, analysis._SWEEP_BREAK_EVEN)]
    # README's sweep and a ten-seed chunk of it pay for a fork; CI's small sweep does not
    readme = 20 * 0.00833 * 1000 * 48 * 8
    assert readme / 2 >= analysis._SWEEP_BREAK_EVEN > 2 * 0.05 * 200 * 8 * 5


@pytest.mark.parametrize(
    "slots, expected",
    [
        ([[0]], ThresholdDivergence("per_port", "departure", 0, 0, [1, 0], [0, 0])),
        ([[], [1]], ThresholdDivergence("per_port", "departure", 1, 1, [0, 1], [0, 0])),
        # both routes grow through on_arrival; the per-port route is named first
        ([[0]], ThresholdDivergence("per_port", "arrival", 0, 0, [0, 0], [1, 0])),
        # idle slots are skipped but still counted
        ([[], [], [], [1]], ThresholdDivergence("per_port", "departure", 3, 1, [0, 1], [0, 0])),
    ],
)
def test_divergence_names_the_first_mismatching_event(monkeypatch, slots, expected):
    # thresholds that never drain port by port (or never grow) part from
    # LQD's queues at the first departure (or arrival); the expected event
    # names the method, and the stub returns the unchanged level, as
    # on_arrival returns its level
    monkeypatch.setattr(ThresholdState, f"on_{expected.event}", lambda self, port: self.thresholds[port])
    assert find_threshold_divergence(SwitchConfig(2, 4), ArrivalSequence(slots)) == expected


@pytest.mark.parametrize(
    "slots, expected",
    [
        # the last drain, of one slot, leaves port 0's threshold behind
        ([[0]], ThresholdDivergence("bulk", "departure", 0, 0, [1, 0], [0, 0])),
        # the drain of slots 0 and 1, before slot 2's arrival, leaves port 0 one behind
        ([[0, 0], [], [1]], ThresholdDivergence("bulk", "departure", 1, 0, [1, 0], [0, 0])),
    ],
)
def test_divergence_names_the_bulk_route_when_drain_falls_short(monkeypatch, slots, expected):
    # ``threshold_levels`` drains its mirror in bulk; one slot too few must show
    drain = ThresholdState.drain
    monkeypatch.setattr(ThresholdState, "drain", lambda self, slots: drain(self, max(slots - 1, 0)))
    assert find_threshold_divergence(SwitchConfig(2, 4), ArrivalSequence(slots)) == expected
