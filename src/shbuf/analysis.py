"""Prediction-error and competitive-ratio measurement.

Provides the error ratio relating push-out LongestQueueDrop throughput to
FollowLqd throughput on the prediction-reduced sequence, its closed-form
upper bound from the confusion counts, the exact offline optimum over a
frontier of drop-tail queue vectors pruned against LQD, flip-probability
sweeps, and an event-by-event check that threshold-following policies really
do replay LQD queue lengths. Every run here goes through ``core.run_slots``;
the optimum's frontier and the event-by-event check, a lockstep of three
simulations, are each driven by the loop as one simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .core import (
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
    ConstantOracle,
    FeatureSampler,
    FeatureVector,
    FlipOracle,
    Oracle,
    PerfectOracle,
    PredictionLabel,
    _flip_draws,
)
from .policies import (
    Credence,
    DynamicThresholds,
    FollowLqd,
    LongestQueueDrop,
    Policy,
    threshold_levels,
)
from .workloads import poisson_bursts

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
    """Oracle wrapper that keeps every label it hands out, by arrival index."""

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle
        self.reads_features = oracle.reads_features
        self.labels: dict[int, PredictionLabel] = {}

    def predict(self, index: int, features: Optional[FeatureVector]) -> PredictionLabel:
        label = self.labels[index] = self.oracle.predict(index, features)
        return label


def simulate_with_prediction_log(
    config: SwitchConfig, sequence: ArrivalSequence, oracle: Oracle
) -> tuple[RunResult, list[PredictionLabel]]:
    """Run Credence while recording the oracle's label for every packet.

    Credence asks only about packets its thresholds would admit; every other
    packet is labelled after the run from the features it arrived with, so
    the oracle is asked once per arrival and the log holds one label per
    arrival, in arrival order, and can feed the error ratio directly.
    """
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


def compute_eta(
    config: SwitchConfig,
    sequence: ArrivalSequence,
    predictions: Union[Sequence[PredictionLabel], Mapping[int, PredictionLabel]],
    truth: Union[Sequence[bool], Mapping[int, bool]],
) -> ErrorReport:
    """Measure prediction error as LQD(sequence) / FollowLqd(reduced sequence).

    ``predictions`` and ``truth`` are indexed by arrival index, as lists or
    mappings. ``truth`` must be LongestQueueDrop's outcomes on ``sequence``
    (``True`` = dropped): LQD's throughput is then the count of packets it
    marks transmitted, so LQD is not run again. The reduced sequence deletes
    every packet with a POSITIVE prediction (true or false) while preserving
    slot timing and the within-slot order of the survivors. Corner cases: 0/0
    is reported as 1 (a drop-free sequence, where every policy here
    coincides) and x/0 as +inf.
    """
    confusion, reduced = _classify_and_reduce(sequence, predictions, truth)
    lqd_tx = confusion.tn + confusion.fp
    reduced_tx = throughput(config, reduced, FollowLqd())
    eta = _ratio(lqd_tx, reduced_tx)
    return ErrorReport(eta, eta_upper_bound(confusion, config.num_ports), confusion, lqd_tx, reduced_tx)


def _classify_and_reduce(
    sequence: ArrivalSequence,
    predictions: Union[Sequence[PredictionLabel], Mapping[int, PredictionLabel]],
    truth: Union[Sequence[bool], Mapping[int, bool]],
) -> tuple[ConfusionCounts, ArrivalSequence]:
    tp = fp = tn = fn = 0
    reduced_slots: list[list[int]] = []
    index = 0
    for row in sequence.slots:
        survivors: list[int] = []
        for port in row:
            try:
                label = predictions[index]
                dropped = truth[index]
            except (KeyError, IndexError):
                raise ValueError(
                    f"packet {index} missing from predictions or ground truth; "
                    "coverage must be total"
                ) from None
            index += 1
            if label is PredictionLabel.POSITIVE:
                if dropped:
                    tp += 1
                else:
                    fp += 1
            else:
                survivors.append(port)
                if dropped:
                    fn += 1
                else:
                    tn += 1
        reduced_slots.append(survivors)
    return ConfusionCounts(tp, fp, tn, fn), ArrivalSequence(reduced_slots)


def eta_upper_bound(confusion: ConfusionCounts, num_ports: int) -> float:
    """Closed-form ceiling on the error ratio from confusion counts alone.

    Evaluates ``(tn + fp) / (tn - min((N - 1) * fn, tn))`` with +inf where
    the denominator is not positive. False negatives are the expensive
    mistakes: each can cost up to ``N`` extra drops.
    """
    if num_ports < 1:
        raise ValueError(f"num_ports must be >= 1, got {num_ports}")
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
    simulation: ``arrive`` branches every vector, and ``drain(k)`` runs ``k``
    departure phases on each. Unit packets and work-conserving departures
    make a run's future depend on that vector alone. A vector whose count plus the
    arrivals still to come cannot exceed a known throughput, the floor, is
    discarded, and more than ``_MAX_VECTORS`` raise ``InstanceTooLarge``.
    """

    backlog = 0

    def __init__(self, config: SwitchConfig, floor: int, total: int) -> None:
        self.config = config
        self.floor, self.total, self.left = floor, total, total  # left: the arrivals still to come
        self.vectors = {(0,) * config.num_ports: 0}

    def arrive(self, port: int) -> None:
        self.left -= 1
        least = self.floor - self.left
        room = self.config.buffer_size
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
    Credence run of a seed replays one recorded column. A seed's runs finish
    before the next seed's sequence is generated. Rows are ordered by (p,
    seed).
    """
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"flip probability must be in [0, 1], got {p}")
    per_seed: dict[int, tuple[int, list[int], int]] = {}
    for seed in seeds:
        sequence = poisson_bursts(config, rate, horizon, seed)
        lqd_result = run_simulation(config, sequence, LongestQueueDrop())
        oracle = PerfectOracle.from_run(lqd_result)
        dt_tx = throughput(config, sequence, DynamicThresholds(dt_alpha))
        draws = list(_flip_draws(seed, sequence))
        levels = threshold_levels(config, sequence)
        credence_tx = [
            throughput(config, sequence, Credence(FlipOracle.from_draws(oracle, p, draws), levels))
            for p in p_values
        ]
        per_seed[seed] = (lqd_result.transmitted_count, credence_tx, dt_tx)
    rows = []
    for column, p in enumerate(p_values):
        for seed in seeds:
            lqd_tx, credence_tx, dt_tx = per_seed[seed]
            rows.append(SweepRow(p, seed, lqd_tx, credence_tx[column], dt_tx))
    return rows


def write_sweep_rows(path, rows: Sequence[SweepRow]) -> None:
    lines = ["p,lqd_throughput,credence_throughput,dt_throughput,ratio_credence,ratio_dt,seed"]
    for row in rows:
        lines.append(
            f"{row.p!r},{row.lqd_throughput},{row.credence_throughput},{row.dt_throughput},"
            f"{row.ratio_credence:.6f},{row.ratio_dt:.6f},{row.seed}"
        )
    _write_lines(path, lines)


# --- threshold mirror verification ------------------------------------------------


@dataclass(frozen=True)
class ThresholdDivergence:
    """First event at which a policy's thresholds stopped matching LQD queues."""

    policy_name: str
    event: str
    slot: int
    detail: int  # the arrival index of an "arrival" event, the port of a "departure"
    thresholds: list[int]
    lqd_queue_len: list[int]


class _Diverged(Exception):
    """Carries the first ``ThresholdDivergence`` out of the slot loop."""


class _Lockstep:
    """FollowLqd, Credence and LongestQueueDrop simulations stepped as one.

    ``run_slots`` drives it like a single simulation. Each event goes to all
    three; after it, both policies' thresholds are compared with the LQD
    queue lengths, and the first mismatch ends the run by raising
    ``_Diverged``. It departs port by port, through ``depart_port`` and each
    policy's ``on_departure``, not through the bulk ``Simulation.drain``, so
    it checks the mirror independently of the route runs take. A ``drain``
    of ``k`` slots is ``k`` departure phases, each visiting, in ascending
    order, every port where any of the three has a queued packet or a
    nonzero threshold, so a mismatch is named by its slot and port. Once all
    three are idle, the slots left are counted without being visited.
    """

    def __init__(self, config: SwitchConfig, oracle: Oracle) -> None:
        self.config = config
        self.policies = (FollowLqd(), Credence(oracle))
        self.follow_sim = Simulation(config, self.policies[0])
        self.credence_sim = Simulation(config, self.policies[1])
        self.lqd_sim = Simulation(config, LongestQueueDrop())
        self._sims = (self.follow_sim, self.credence_sim, self.lqd_sim)
        # the policies and the LQD state update these lists in place
        self._follow = self.policies[0].thresholds.thresholds
        self._credence = self.policies[1].thresholds.thresholds
        self._lqd = self.lqd_sim.state.queue_len
        # per simulation, its queue lengths and mirrored thresholds: a port has
        # drain work when any of the six is nonzero there
        self._work = tuple(work for sim in self._sims for work in (sim.state.queue_len, sim.mirror.thresholds))
        self._ports = range(config.num_ports)
        self.slot = 0

    @property
    def backlog(self) -> int:
        return max(self.follow_sim.backlog, self.credence_sim.backlog, self.lqd_sim.backlog)

    def arrive(self, port: int) -> None:
        self.follow_sim.arrive(port)
        self.credence_sim.arrive(port)
        self.lqd_sim.arrive(port)
        if self._follow != self._lqd or self._credence != self._lqd:
            self._diverged("arrival", len(self.lqd_sim.verdicts) - 1)

    def drain(self, slots: int) -> None:
        follow, credence, lqd = self._sims
        end = self.slot + slots
        while self.slot < end and not (follow.idle and credence.idle and lqd.idle):
            self._depart_phase()
            self.slot += 1
        self.slot = end

    def _depart_phase(self) -> None:
        """One departure phase of slot ``self.slot``, compared port by port."""
        follow, credence, lqd = self._sims
        follow_q, follow_t, credence_q, credence_t, lqd_q, lqd_t = self._work
        for port in self._ports:
            if follow_q[port] or follow_t[port] or credence_q[port] or credence_t[port] or lqd_q[port] or lqd_t[port]:
                follow.depart_port(port)
                credence.depart_port(port)
                lqd.depart_port(port)
                if self._follow != self._lqd or self._credence != self._lqd:
                    self._diverged("departure", port)

    def _diverged(self, event: str, detail: int) -> None:
        policy = next(p for p in self.policies if p.thresholds.thresholds != self._lqd)
        thresholds = list(policy.thresholds.thresholds)
        raise _Diverged(ThresholdDivergence(policy.name, event, self.slot, detail, thresholds, list(self._lqd)))


def find_threshold_divergence(
    config: SwitchConfig,
    sequence: ArrivalSequence,
    oracle: Optional[Oracle] = None,
) -> Optional[ThresholdDivergence]:
    """Drive FollowLqd, Credence, and a push-out LongestQueueDrop instance in
    lockstep over the same events and compare after every single event.

    Returns None when both policies' threshold vectors equal the LQD queue
    lengths throughout, otherwise a record of the first mismatch. The LQD
    instance here is the complete preemptive simulation, not the threshold
    arithmetic, so the comparison is a genuine two-route check.
    """
    lockstep = _Lockstep(config, oracle if oracle is not None else ConstantOracle(PredictionLabel.NEGATIVE))
    try:
        run_slots(lockstep, sequence)
    except _Diverged as diverged:
        return diverged.args[0]
    return None
