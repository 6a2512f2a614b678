"""Prediction-error and competitive-ratio measurement.

Provides the error ratio relating push-out LongestQueueDrop throughput to
FollowLqd throughput on the prediction-reduced sequence, its closed-form
upper bound from the confusion counts, an exact brute-force offline optimum
for tiny instances, flip-probability sweeps, and an event-by-event check that
threshold-following policies really do replay LQD queue lengths. Every run
here goes through ``core.run_slots``; the event-by-event check is a lockstep
of three simulations that the loop drives as one.
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
    CompleteSharing,
    Credence,
    DynamicThresholds,
    FollowLqd,
    LongestQueueDrop,
    Policy,
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
    """The exhaustive search refuses instances beyond its packet cap."""


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


def brute_force_opt(config: SwitchConfig, sequence: ArrivalSequence, cap: int = 20) -> int:
    """Exact clairvoyant throughput over all accept/drop decision vectors.

    Only drop-tail vectors are searched: any push-out schedule transmits the
    same set of packets as the drop-tail twin that rejects, on arrival,
    exactly the packets it would later evict. Branch-and-bound with the bound
    ``transmitted + buffered + remaining arrivals``; instances above ``cap``
    packets are refused.
    """
    sequence.validate(config)
    total = sequence.total_packets
    if total > cap:
        raise InstanceTooLarge(
            f"instance has {total} packets; the exhaustive search caps at {cap}"
        )

    slots = sequence.slots
    num_slots = len(slots)
    n = config.num_ports
    buffer_size = config.buffer_size

    # greedy lower bounds to seed pruning; both are feasible drop-tail vectors
    best = max(
        throughput(config, sequence, CompleteSharing()),
        throughput(config, sequence, LongestQueueDrop()),
    )
    queue = [0] * n

    def search(slot_index: int, pos: int, transmitted: int, occupancy: int, remaining: int) -> None:
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
        if occupancy < buffer_size:
            queue[port] += 1
            search(slot_index, pos + 1, transmitted, occupancy + 1, remaining - 1)
            queue[port] -= 1
        search(slot_index, pos + 1, transmitted, occupancy, remaining - 1)

    search(0, 0, 0, 0, total)
    return best


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
    once and shared by every ``p``, and its runs finish before the next
    seed's sequence is generated. Rows are ordered by (p, seed).
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
        credence_tx = [
            throughput(config, sequence, Credence(FlipOracle.from_draws(oracle, p, draws))) for p in p_values
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
    ``_Diverged``. A departure phase visits, in ascending order, each port
    where any of the three has a queued packet or a nonzero threshold, and
    counts the slot even when all three are idle and it visits none. A
    ``drain`` of many slots is that many departure phases, so a mismatch is
    still named by its slot and port.
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

    def depart_phase(self) -> None:
        follow, credence, lqd = self._sims
        if not (follow.idle and credence.idle and lqd.idle):
            follow_q, follow_t, credence_q, credence_t, lqd_q, lqd_t = self._work
            for port in self._ports:
                if (
                    follow_q[port] or follow_t[port] or credence_q[port] or credence_t[port]
                    or lqd_q[port] or lqd_t[port]
                ):
                    follow.depart_port(port)
                    credence.depart_port(port)
                    lqd.depart_port(port)
                    if self._follow != self._lqd or self._credence != self._lqd:
                        self._diverged("departure", port)
        self.slot += 1

    def drain(self, slots: int) -> None:
        depart_phase = self.depart_phase
        for _ in range(slots):
            depart_phase()

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
