"""Prediction-error and competitive-ratio measurement.

Provides the error ratio relating push-out LongestQueueDrop throughput to
FollowLqd throughput on the prediction-reduced sequence, its closed-form
upper bound from the confusion counts (``ConfusionCounts.count`` of the
forecast and truth drop flags), the exact offline optimum over a
frontier of drop-tail queue vectors pruned against LQD, flip-probability
sweeps with their CSV and SVG chart, and an event-by-event check that the
threshold mirror, drained port by port and in bulk as FollowLqd's and
Credence's recorded thresholds are, really does replay LQD queue lengths.
Every run here goes through ``core.run_slots``; the optimum's frontier
and the event-by-event check, a lockstep of one LQD simulation and two
mirrors, are each driven by the loop as one simulation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, islice
from operator import ne, not_
from typing import Optional, Sequence, Union

from . import _fork
from .core import (
    NUM_PORTS,
    ArrivalSequence,
    RunResult,
    Simulation,
    SwitchConfig,
    _write_lines,
    run_simulation,
    run_slots,
)
from .learner import ConfusionCounts
from .oracles import (
    FLIP_PROBABILITY,
    FeatureSampler,
    FeatureVector,
    FlipOracle,
    Oracle,
    PerfectOracle,
    _Column,
    _column,
    _flip_draws,
)
from .policies import (
    Credence,
    DynamicThresholds,
    FollowLqd,
    LongestQueueDrop,
    Policy,
    ThresholdState,
    threshold_levels,
)
from .workloads import HORIZON, RATE, poisson_bursts

__all__ = [
    "ErrorReport",
    "SweepRow",
    "ThresholdDivergence",
    "InstanceTooLarge",
    "throughput",
    "simulate_with_prediction_log",
    "compute_eta",
    "eta_upper_bound",
    "brute_force_opt",
    "competitive_sweep",
    "find_threshold_divergence",
    "write_sweep_rows",
    "write_sweep_chart",
    "LQD_COMPETITIVE_RATIO",
]

# push-out LQD's known worst-case throughput gap versus a clairvoyant
# schedule; treated as an exact literature constant
LQD_COMPETITIVE_RATIO = Fraction(1707, 1000)


class InstanceTooLarge(RuntimeError):
    """The exact optimum's frontier of queue vectors outgrew ``_MAX_VECTORS``;
    it can grow exponentially with the packets that contend for the buffer."""


def throughput(config: SwitchConfig, sequence: ArrivalSequence, policy: Policy) -> int:
    """Transmitted-packet count for one policy on one sequence."""
    return run_simulation(config, sequence, policy).transmitted_count


class _LabelRecorder:
    """Oracle wrapper that keeps every forecast it hands out, by arrival index."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self.reads_features = oracle.reads_features
        self.labels: dict[int, bool] = {}

    def predict(self, index: int, features: Optional[FeatureVector]) -> bool:
        label = self.labels[index] = self.oracle.predict(index, features)
        return label


def simulate_with_prediction_log(
    config: SwitchConfig, sequence: ArrivalSequence, oracle: Oracle
) -> tuple[RunResult, list[bool]]:
    """Run Credence while recording the oracle's drop flag for every packet.

    Credence asks only about packets its thresholds would admit; every other
    packet is forecast after the run from the features it arrived with, so
    the oracle is asked once per arrival and the log holds one flag per
    arrival, in arrival order, and can feed the error ratio directly. An
    oracle that reads no features is not asked: its log is a copy of its
    drop column.
    """
    if not oracle.reads_features:
        log = list(oracle.drops(sequence.total_packets))
        return run_simulation(config, sequence, Credence(oracle)), log
    recorder = _LabelRecorder(oracle)
    sampler = FeatureSampler(Credence(recorder))
    result = run_simulation(config, sequence, sampler)
    asked = recorder.labels
    log = [
        asked[index] if index in asked else oracle.predict(index, features)
        for index, features in enumerate(sampler.features)
    ]
    return result, log


@dataclass(frozen=True)
class ErrorReport:
    """Error ratio, its closed-form bound, and the ingredients behind both."""

    eta: float
    eta_bound: float
    confusion: ConfusionCounts
    lqd_transmitted: int
    reduced_transmitted: int


def compute_eta(config: SwitchConfig, sequence: ArrivalSequence, predictions: _Column, truth: _Column) -> ErrorReport:
    """Measure prediction error as LQD(sequence) / FollowLqd(reduced sequence).

    ``predictions`` and ``truth`` hold one drop flag (``True`` = dropped) per
    arrival index, as sequences or as mappings read up to their first gap
    (``oracles._column``); the first arrival either lacks, or an entry that
    is not a flag, is refused with a ValueError. ``truth`` must be
    LongestQueueDrop's outcomes on ``sequence``: LQD's throughput is then the
    count of packets it marks transmitted, so LQD is not run again. The
    reduced sequence deletes every packet forecast to drop (rightly or not)
    while preserving slot timing and the within-slot order of the survivors.
    Corner cases: 0/0 is reported as 1 (a drop-free sequence, where every
    policy here coincides) and x/0 as +inf.
    """
    confusion, reduced = _classify_and_reduce(sequence, predictions, truth)
    lqd_tx = confusion.tn + confusion.fp
    reduced_tx = throughput(config, reduced, FollowLqd())
    eta = _ratio(lqd_tx, reduced_tx)
    return ErrorReport(eta, eta_upper_bound(confusion, config.num_ports), confusion, lqd_tx, reduced_tx)


def _classify_and_reduce(
    sequence: ArrivalSequence, predictions: _Column, truth: _Column
) -> tuple[ConfusionCounts, ArrivalSequence]:
    total = sequence.total_packets
    forecasts, dropped = _column(predictions), _column(truth)
    covered = min(len(forecasts), len(dropped))
    if covered < total:
        raise ValueError(f"packet {covered} missing from predictions or ground truth; coverage must be total")
    confusion = ConfusionCounts.count(islice(forecasts, total), islice(dropped, total))
    kept = map(not_, forecasts)
    reduced_slots = array("I")
    reduced_rows: list[tuple[int, ...]] = []
    for slot_index, row in zip(sequence.arrival_slots, sequence.rows):
        # a list: tuple() of an iterator over-allocates, and the shrunk tuples pile up on its free lists
        survivors = list(compress(row, islice(kept, len(row))))
        if survivors:
            reduced_slots.append(slot_index)
            reduced_rows.append(row if len(survivors) == len(row) else tuple(survivors))
    reduced = ArrivalSequence._from_rows(sequence.num_slots, reduced_slots, reduced_rows)
    return confusion, reduced


def eta_upper_bound(confusion: ConfusionCounts, num_ports: int) -> float:
    """Closed-form ceiling on the error ratio from confusion counts alone.

    Evaluates ``(tn + fp) / (tn - min((N - 1) * fn, tn))`` with +inf where
    the denominator is not positive. False negatives are the expensive
    mistakes: each can cost up to ``N`` extra drops.
    """
    NUM_PORTS.check(num_ports)
    numerator = confusion.tn + confusion.fp
    denominator = confusion.tn - min((num_ports - 1) * confusion.fn, confusion.tn)
    if denominator <= 0:
        return math.inf
    return numerator / denominator


# --- exact offline optimum ------------------------------------------------------


# Live vectors a frontier may hold after an arrival: 155-225 B each at N=8-16
# (tracemalloc), and an arrival's old and new maps hold at most three times
# the bound. It is 6.9 times the largest frontier a test solves (19,059, at
# N=8, B=64); 160 packets to random ports of N=16, B=32 pass it at arrival 45.
_MAX_VECTORS = 1 << 17


class _Frontier:
    """The drop-tail queue-length vectors a run can reach, each with the most
    packets accepted on the way to it, stepped by ``run_slots`` like a
    simulation: ``arrive(row)`` branches every vector on each of the row's
    packets in turn, and ``drain(k)`` runs ``k`` departure phases on each.
    Unit packets and work-conserving departures make a run's future depend
    on that vector alone. A vector whose count plus the arrivals still to
    come cannot exceed a known throughput, the floor, is discarded, and more
    than ``_MAX_VECTORS`` raise ``InstanceTooLarge``.
    """

    backlog = 0

    def __init__(self, config: SwitchConfig, floor: int, total: int) -> None:
        self.config = config
        self.floor, self.total, self.left = floor, total, total  # left: the arrivals still to come
        self.vectors = {(0,) * config.num_ports: 0}

    def arrive(self, row: Sequence[int]) -> None:
        room = self.config.buffer_size
        for port in row:
            self.left -= 1
            least = self.floor - self.left
            vectors = self.vectors
            # the drop branch of each vector, then the accept branch where there is room
            after = {vector: accepted for vector, accepted in vectors.items() if accepted > least}
            for vector, accepted in vectors.items():
                if accepted >= least and sum(vector) < room:
                    grown = vector[:port] + (vector[port] + 1,) + vector[port + 1 :]
                    if after.get(grown, -1) <= accepted:
                        after[grown] = accepted + 1
            if len(after) > _MAX_VECTORS:
                arrival = f"arrival {self.total - self.left} of {self.total} packets"
                raise InstanceTooLarge(f"{len(after)} queue vectors after {arrival}; exact OPT refuses above {_MAX_VECTORS}")
            self.vectors = after

    def drain(self, slots: int) -> None:
        after: dict[tuple[int, ...], int] = {}
        for vector, accepted in self.vectors.items():
            vector = tuple([q - slots if q > slots else 0 for q in vector])
            if after.get(vector, -1) < accepted:
                after[vector] = accepted
        self.vectors = after


def brute_force_opt(config: SwitchConfig, sequence: ArrivalSequence) -> int:
    """Exact clairvoyant throughput over all accept/drop decision vectors.

    Only drop-tail vectors are searched: any push-out schedule transmits the
    same set of packets as the drop-tail twin that rejects, on arrival,
    exactly the packets it would later evict. Every accepted packet is sent,
    so the optimum is the best count left in a ``_Frontier`` pruned against
    LongestQueueDrop's throughput, or that throughput when none beats it.
    Raises ``InstanceTooLarge`` when the frontier outgrows ``_MAX_VECTORS``.
    """
    sequence.validate(config)
    floor = throughput(config, sequence, LongestQueueDrop())
    frontier = _Frontier(config, floor, sequence.total_packets)
    run_slots(frontier, sequence)
    return max(frontier.vectors.values(), default=floor)


# --- flip-probability sweep ------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    p: float
    seed: int
    lqd_throughput: int
    credence_throughput: int
    dt_throughput: int

    @property
    def ratio_credence(self) -> float:
        return _ratio(self.lqd_throughput, self.credence_throughput)

    @property
    def ratio_dt(self) -> float:
        return _ratio(self.lqd_throughput, self.dt_throughput)


def _ratio(reference: int, achieved: int) -> float:
    # 0/0 means an arrival-free run where every policy coincides
    if achieved > 0:
        return reference / achieved
    return 1.0 if reference == 0 else math.inf


# expected packet-runs from which running every second seed in a forked child
# pays for the fork (see ``competitive_sweep``). On a shared 2-CPU host (31
# alternating rounds each, in a process holding the benchmark's 120 sequences)
# two processes won 8 of 31 rounds at 9,600 packet-runs and 21 to 31 of 31 from
# 12,800 on at N=B=48, and 25 to 31 of 31 from 9,600 on at N=8, B=32
_SWEEP_BREAK_EVEN = 2**14


def competitive_sweep(
    config: SwitchConfig,
    p_values: Sequence[float],
    seeds: Sequence[int],
    rate: float,
    horizon: int,
    dt_alpha: Union[Fraction, str] = Fraction(1, 2),
) -> list[SweepRow]:
    """Throughput of Credence under increasingly flipped predictions.

    For each seed, one burst workload is generated and served by
    LongestQueueDrop (whose outcomes double as the perfect predictions), by
    DynamicThresholds, and by Credence with the recorded predictions flipped
    at each probability in ``p_values``. Each seed's flip coins are drawn
    once and shared by every ``p``, and so is its threshold trajectory
    (``threshold_levels``), which depends on the sequence alone: every
    Credence run of a seed replays one recorded column. Rows are ordered by
    (p, seed).

    The seeds are independent, and every argument is checked before any of
    them runs. Where Linux lets this process run on two CPUs, no other
    Python thread exists, and the expected packet-runs (seeds x ``rate`` x
    ``horizon`` x buffer size x the ``len(p_values) + 3`` runs of a seed)
    reach a measured break-even, a forked child runs the odd-indexed seeds
    while this process runs the even-indexed ones. The rows are the same on
    either route.
    """
    for p in p_values:
        FLIP_PROBABILITY.check(p)
    RATE.check(rate)
    HORIZON.check(horizon)
    run_seed = partial(_sweep_seed, config, p_values, rate, horizon, DynamicThresholds(dt_alpha))
    work = len(seeds) * rate * horizon * config.buffer_size * (len(p_values) + 3)
    if _fork.forks(work, _SWEEP_BREAK_EVEN):
        per_seed = _fork.map_in_two_processes(run_seed, seeds)
    else:
        per_seed = list(map(run_seed, seeds))
    return [
        SweepRow(p, seed, lqd_tx, credence_tx[column], dt_tx)
        for column, p in enumerate(p_values)
        for seed, (lqd_tx, credence_tx, dt_tx) in zip(seeds, per_seed)
    ]


def _sweep_seed(
    config: SwitchConfig,
    p_values: Sequence[float],
    rate: float,
    horizon: int,
    dynamic_thresholds: DynamicThresholds,
    seed: int,
) -> tuple[int, list[int], int]:
    """One seed's LQD throughput, Credence throughput at each ``p`` and DynamicThresholds throughput."""
    sequence = poisson_bursts(config, rate, horizon, seed)
    lqd_result = run_simulation(config, sequence, LongestQueueDrop())
    oracle = PerfectOracle.from_run(lqd_result)
    dt_tx = throughput(config, sequence, dynamic_thresholds)
    draws = list(_flip_draws(seed, sequence))
    levels = threshold_levels(config, sequence)
    credence_tx = [
        throughput(config, sequence, Credence(FlipOracle.from_draws(oracle, p, draws), levels))
        for p in p_values
    ]
    return lqd_result.transmitted_count, credence_tx, dt_tx


def write_sweep_rows(path, rows: Sequence[SweepRow]) -> None:
    lines = ["p,lqd_throughput,credence_throughput,dt_throughput,ratio_credence,ratio_dt,seed"]
    for row in rows:
        lines.append(
            f"{row.p!r},{row.lqd_throughput},{row.credence_throughput},{row.dt_throughput},"
            f"{row.ratio_credence:.6f},{row.ratio_dt:.6f},{row.seed}"
        )
    _write_lines(path, lines)


def write_sweep_chart(path, rows: Sequence[SweepRow]) -> None:
    """Minimal self-contained SVG line chart: each policy's ratio, averaged over
    the seeds, versus flip probability."""
    width, height = 640, 420
    margin = 60
    ps = sorted({row.p for row in rows})
    at = {p: [row for row in rows if row.p == p] for p in ps}
    series = {
        "Credence": ([sum(r.ratio_credence for r in at[p]) / len(at[p]) for p in ps], "#1f77b4"),
        "DT": ([sum(r.ratio_dt for r in at[p]) / len(at[p]) for p in ps], "#ff7f0e"),
    }
    x_max = max(ps) if ps and max(ps) > 0 else 1.0
    y_max = max(max(values) for values, _ in series.values())
    y_max = max(1.0, y_max) * 1.1

    def sx(p: float) -> float:
        return margin + (width - 2 * margin) * (p / x_max)

    def sy(v: float) -> float:
        return height - margin - (height - 2 * margin) * (v / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" font-size="14">false-prediction probability</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" transform="rotate(-90 18 {height / 2:.1f})">LQD/ALG ratio</text>',
    ]
    for p in ps:
        parts.append(f'<text x="{sx(p):.1f}" y="{height - margin + 18}" text-anchor="middle" font-size="11">{p:g}</text>')
    ticks = 5
    for i in range(ticks + 1):
        v = y_max * i / ticks
        parts.append(f'<text x="{margin - 8}" y="{sy(v) + 4:.1f}" text-anchor="end" font-size="11">{v:.1f}</text>')
    legend_y = margin
    for label, (values, color) in series.items():
        points = " ".join(f"{sx(p):.1f},{sy(v):.1f}" for p, v in zip(ps, values))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<line x1="{width - margin - 120}" y1="{legend_y}" x2="{width - margin - 95}" y2="{legend_y}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{width - margin - 88}" y="{legend_y + 4}" font-size="12">{label}</text>')
        legend_y += 18
    parts.append("</svg>")
    _write_lines(path, parts)


# --- threshold mirror verification ------------------------------------------------


@dataclass(frozen=True)
class ThresholdDivergence:
    """First event after which a mirror route's thresholds stopped matching LQD's queues.

    ``route`` names the mirror: ``"per_port"``, stepped by ``on_departure``
    at each port, or ``"bulk"``, stepped by ``drain(k)``, the route
    ``threshold_levels`` records for every FollowLqd and Credence run.
    """

    route: str
    event: str
    slot: int
    detail: int  # the arrival index of an "arrival" event, the port of a "departure"
    thresholds: list[int]
    lqd_queue_len: list[int]


class _Diverged(Exception):
    """Carries the first ``ThresholdDivergence`` out of the slot loop."""


class _Lockstep:
    """A LongestQueueDrop simulation and two threshold mirrors stepped as one.

    ``run_slots`` drives it like a single simulation. ``arrive(row)`` hands
    the row to them one packet at a time: each arrival goes to the
    simulation, as a one-packet row, and to both mirrors, which are then
    compared with its queue lengths, so a mismatch is named by its arrival.
    The simulation departs port by port, through ``depart_port``: a
    ``drain`` of ``k`` slots is ``k`` departure phases, each visiting, in
    ascending order, the ports with a queued packet, until the buffer is
    empty; the slots left are counted without being visited. The per-port
    mirror follows each port's departure with ``on_departure``
    and is compared after it, so its mismatch is named by slot and port. The
    bulk mirror takes the ``drain(k)`` whole, as ``threshold_levels`` does,
    and is compared after the ``k`` phases; its mismatch is named by the
    drain's last slot and the first port that differs. The first mismatch
    ends the run by raising ``_Diverged``.
    """

    def __init__(self, config: SwitchConfig, sequence: ArrivalSequence) -> None:
        self.config = config
        self.lqd = Simulation(config, LongestQueueDrop(), sequence)
        self.per_port = ThresholdState(config.num_ports, config.buffer_size)
        self.bulk = ThresholdState(config.num_ports, config.buffer_size)
        self._ports = range(config.num_ports)
        # each port's one-packet row, made once: the simulation takes one packet at a time
        self._one = [(port,) for port in self._ports]
        self.slot = 0

    @property
    def backlog(self) -> int:
        return self.lqd.backlog

    def arrive(self, row: Sequence[int]) -> None:
        lqd, per_port, bulk = self.lqd, self.per_port, self.bulk
        queues = lqd.state.queue_len
        for port in row:
            lqd.arrive(self._one[port])
            per_port.on_arrival(port)
            bulk.on_arrival(port)
            if per_port.thresholds != queues or bulk.thresholds != queues:
                self._diverged("arrival", self.slot, len(lqd.verdicts) - 1)

    def drain(self, slots: int) -> None:
        # the simulation and the mirrors update these lists in place
        lqd, queues = self.lqd, self.lqd.state.queue_len
        per_port, on_departure = self.per_port.thresholds, self.per_port.on_departure
        end = self.slot + slots
        while self.slot < end and lqd.state.occupancy:
            # the ports with a queued packet when the phase reaches them
            for port in compress(self._ports, queues):
                lqd.depart_port(port)
                on_departure(port)
                if per_port != queues:
                    self._diverged("departure", self.slot, port)
            self.slot += 1
        self.slot = end
        self.bulk.drain(slots)
        bulk = self.bulk.thresholds
        if bulk != queues:
            self._diverged("departure", end - 1 if slots else end, next(compress(self._ports, map(ne, bulk, queues))))

    def _diverged(self, event: str, slot: int, detail: int) -> None:
        queues = self.lqd.state.queue_len
        route, mirror = ("per_port", self.per_port) if self.per_port.thresholds != queues else ("bulk", self.bulk)
        raise _Diverged(ThresholdDivergence(route, event, slot, detail, list(mirror.thresholds), list(queues)))


def find_threshold_divergence(
    config: SwitchConfig,
    sequence: ArrivalSequence,
    oracle: Optional[Oracle] = None,
) -> Optional[ThresholdDivergence]:
    """Step a push-out LongestQueueDrop simulation and two threshold mirrors,
    one drained port by port and one in bulk, in lockstep over the events of
    ``sequence``, and compare each mirror with LQD's queue lengths after
    every event.

    Returns None when both mirrors equal the LQD queue lengths throughout,
    otherwise a record of the first mismatch. The LQD instance here is the
    complete preemptive simulation, not the threshold arithmetic, so the
    comparison is a genuine two-route check. FollowLqd and Credence run on
    the bulk route's recording (``threshold_levels``), whatever their
    oracle, so ``oracle`` is unused; it stays because ``bench/shapes.py``
    passes it.
    """
    lockstep = _Lockstep(config, sequence)
    try:
        run_slots(lockstep, sequence)
    except _Diverged as diverged:
        return diverged.args[0]
    return None
