"""Buffer-sharing policies.

Five policies over the shared-buffer model:

* ``CompleteSharing``     -- accept whenever the buffer has room.
* ``DynamicThresholds``   -- accept while the queue is below ``alpha * (B - Q)``.
* ``LongestQueueDrop``    -- push-out: a full buffer evicts the tail of the
                             longest queue to admit the newcomer.
* ``FollowLqd``           -- drop-tail: per-port thresholds replay the queue
                             lengths of a shadow LongestQueueDrop instance fed
                             the same arrivals; accept while queue < threshold.
* ``Credence``            -- FollowLqd plus (a) an unconditional accept while
                             the longest queue is below ``B / N`` and (b) a
                             drop-prediction oracle consulted when the
                             thresholds would permit the packet.

Each policy subclasses ``Policy`` and states only its admission rule,
``on_arrival``: it sees each arrival's index (its position in arrival order)
and the queue lengths, never the lists of indices a push-out reads, and
returns a ``Decision`` that the simulator applies. All tie-breaking (longest
queue, largest threshold) is toward the lowest port index, so runs reproduce exactly.

The mirrored thresholds of FollowLqd and Credence depend on the switch
config and the arrival sequence alone, not on what the policy admits or what
an oracle predicts. ``threshold_levels`` records that trajectory, as the
arriving port's threshold right after each arrival's mirror step, and both
policies replay it: ``reset(config, sequence)`` takes the column, and each
arrival reads its own entry. Neither steps a mirror during a run, so no
policy keeps departure state and a run drains only its queues. A column is
recorded in ``reset`` unless ``Credence(oracle, levels)`` was given one, so
many Credence runs on one sequence (a sweep over flip probabilities) can
share one recording. A column is valid only for the config and sequence it
was recorded from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from types import SimpleNamespace
from typing import Optional, Protocol, Sequence, Union

from .core import ArrivalSequence, Bound, SwitchConfig, SwitchState, read_number, run_slots
from .oracles import FeatureTracker, Oracle

__all__ = [
    "Decision",
    "ACCEPT",
    "DROP",
    "Policy",
    "CompleteSharing",
    "ALPHA",
    "DynamicThresholds",
    "LongestQueueDrop",
    "ThresholdState",
    "threshold_levels",
    "FollowLqd",
    "Credence",
]


@dataclass(frozen=True)
class Decision:
    """Outcome of one arrival decision.

    ``pushout_victim`` names the queue whose tail packet must be evicted to
    make room; it is only legal for preemptive policies on a full buffer.
    """

    accept: bool
    pushout_victim: Optional[int] = None


ACCEPT = Decision(True)
DROP = Decision(False)


class Policy(Protocol):
    """Contract shared by every buffer-sharing policy, with default bodies.

    A protocol, so a wrapper such as ``FeatureSampler`` conforms without
    subclassing it; a policy with run state of its own binds it in ``reset``
    after ``super().reset``.
    """

    name: str

    def reset(self, config: SwitchConfig, sequence: ArrivalSequence) -> None:
        """Forget all run state and bind to a switch configuration and to the
        arrival sequence the run will feed ``on_arrival``; binds ``_buffer``."""
        self._buffer = config.buffer_size

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        """Decide the fate of arrival ``index``, bound for ``port``."""

    def on_departure(self, port: int, state: SwitchState) -> None:
        """Observe one port's share of a departure phase (after its drain).

        Only the per-port route, ``Simulation.depart_port``, calls it; runs
        drain in bulk. It must change nothing a later decision reads, so
        both routes reach the same state. Every policy here inherits this
        no-op, which ``bench/tracing.py`` wraps by name on each class."""


class CompleteSharing(Policy):
    """Accept if and only if the buffer is not full."""

    name = "complete_sharing"

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        return ACCEPT if state.occupancy < self._buffer else DROP


ALPHA = Bound("alpha", Fraction, 0, strict=True)


class DynamicThresholds(Policy):
    """Accept while the arriving queue is below ``alpha`` times the free space.

    The comparison ``q < alpha * (B - Q)`` is evaluated in exact rational
    arithmetic; ``alpha`` may be given as a ``Fraction``, an int, a finite
    float (read exactly) or a string that ``core.read_number`` reads as a
    Fraction, such as ``3/4``, and must be positive (``ALPHA``). A bool is
    not taken for an int.
    """

    name = "dynamic_thresholds"

    def __init__(self, alpha: Union[Fraction, str, int] = Fraction(1, 2)) -> None:
        if isinstance(alpha, str):
            alpha = read_number(alpha, Fraction)
        elif isinstance(alpha, bool) or not isinstance(alpha, (Rational, float)):
            raise ValueError(f"alpha must be a Fraction, an int or a string, got {alpha!r}")
        # before converting: ``Fraction`` cannot take inf or nan
        ALPHA.check(alpha)
        self.alpha = Fraction(alpha)

    def reset(self, config: SwitchConfig, sequence: ArrivalSequence) -> None:
        super().reset(config, sequence)
        # ``Fraction`` properties cost a call each; read them once per run
        self._numerator = self.alpha.numerator
        self._denominator = self.alpha.denominator

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        free = self._buffer - state.occupancy
        # cross-multiplied: q * denominator < numerator * free, which a full buffer fails (``alpha`` > 0)
        if state.queue_len[port] * self._denominator < self._numerator * free:
            return ACCEPT
        return DROP


class LongestQueueDrop(Policy):
    """Preemptive policy: a full buffer evicts from the longest queue.

    While the buffer has room every packet is accepted. On a full buffer the
    longest queue (ties toward the lowest port index) gives up its most
    recently queued packet to admit the newcomer; if that queue is the
    arriving one, evicting the newcomer itself is a plain drop.
    """

    name = "lqd"

    def reset(self, config: SwitchConfig, sequence: ArrivalSequence) -> None:
        super().reset(config, sequence)
        # one push-out decision per victim port, made once per run, not once per push-out; a
        # list: tuple() of a generator over-allocates, and the shrunk tuples pile up on the free lists
        self._pushouts = [Decision(True, port) for port in range(config.num_ports)]

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        if state.occupancy < self._buffer:
            return ACCEPT
        lengths = state.queue_len
        longest = lengths.index(max(lengths))
        if longest == port:
            return DROP
        return self._pushouts[longest]


class ThresholdState:
    """Per-port thresholds that replay LongestQueueDrop queue lengths.

    ``on_arrival`` mirrors how an LQD instance fed the same arrivals would
    change its queue-length vector: grow the arriving entry, stealing one
    unit from the largest entry when the vector already sums to the buffer
    size. ``drain`` mirrors departure phases at every port, the route
    ``threshold_levels`` records, and ``on_departure`` one port's share of
    one phase, the per-port route the lockstep divergence check steps
    beside it. The mirrored instance's accept decisions never matter here,
    only its lengths.

    The largest threshold is kept on hand, so a steal is one C-level scan to
    the first largest entry (plus one membership scan when the steal may
    have removed the last of them), and a ``drain`` that outlasts every
    threshold is a zero-fill.
    """

    __slots__ = ("thresholds", "total", "levels", "_buffer", "_largest")

    def __init__(self, num_ports: int, buffer_size: int) -> None:
        self.thresholds: list[int] = [0] * num_ports
        self.levels: list[int] = []  # each arrival's level, as on_arrival returns it
        self.total = 0
        self._buffer = buffer_size
        # never below the largest threshold; equal to it after on_arrival and
        # drain, the only mirror operations ``threshold_levels`` makes
        self._largest = 0

    def on_arrival(self, port: int) -> int:
        """Mirror one arrival at ``port``; append ``port``'s threshold after it to ``levels`` and return it."""
        thresholds = self.thresholds
        if self.total == self._buffer:
            largest = self._largest
            try:
                victim = thresholds.index(largest)
            except ValueError:
                # on_departure lowered the largest threshold below the bound
                largest = self._largest = max(thresholds)
                victim = thresholds.index(largest)
            # no-op when the arriving port already holds the largest
            # threshold, mirroring a push-out of the newcomer itself
            thresholds[victim] = largest - 1
            level = thresholds[port] + 1
            thresholds[port] = level
            if level > largest:
                self._largest = level
            elif level < largest and largest not in thresholds:
                self._largest = largest - 1
        else:
            level = thresholds[port] + 1
            thresholds[port] = level
            self.total += 1
            if level > self._largest:
                self._largest = level
        self.levels.append(level)
        return level

    def on_departure(self, port: int) -> None:
        # bench/test_bench.py breaks this body by its exact text: keep it as written
        if self.thresholds[port] > 0:
            self.thresholds[port] -= 1
            self.total -= 1

    def drain(self, slots: int) -> None:
        """``slots`` departure phases at every port: each threshold falls by ``min(threshold, slots)``."""
        thresholds = self.thresholds
        # in place: other holders keep a reference to this list
        if slots >= self._largest:
            thresholds[:] = [0] * len(thresholds)
            self.total = 0
            self._largest = 0
        else:
            thresholds[:] = [level - slots if level > slots else 0 for level in thresholds]
            self.total = sum(thresholds)
            self._largest -= slots


def threshold_levels(config: SwitchConfig, sequence: ArrivalSequence) -> list[int]:
    """The mirrored threshold of each arrival's port right after its mirror
    step, in arrival order: the column FollowLqd and Credence replay.

    One ``ThresholdState`` pass through ``run_slots``, stepping the mirror's
    ``on_arrival`` once per packet of each row, draining in bulk and not
    after the last arrival, which would change no recorded level. The
    column is valid only for this ``config`` and ``sequence``.
    """
    mirror = ThresholdState(config.num_ports, config.buffer_size)
    on_arrival = mirror.on_arrival

    def arrive(row: Sequence[int]) -> None:
        for port in row:
            on_arrival(port)

    run_slots(SimpleNamespace(config=config, arrive=arrive, drain=mirror.drain, backlog=0), sequence)
    return mirror.levels


class FollowLqd(Policy):
    """Drop-tail policy accepting while the queue is under its mirrored
    threshold, read from the column ``threshold_levels`` records in ``reset``."""

    name = "follow_lqd"

    def reset(self, config: SwitchConfig, sequence: ArrivalSequence) -> None:
        super().reset(config, sequence)
        self._levels = threshold_levels(config, sequence)

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        if state.queue_len[port] < self._levels[index] and state.occupancy < self._buffer:
            return ACCEPT
        return DROP


class Credence(Policy):
    """FollowLqd with a robustness safeguard and a drop-prediction oracle.

    Arrival handling, in order:

    1. read the arriving port's mirrored threshold;
    2. safeguard: if the longest queue is strictly below ``B / N`` (that is,
       below ``ceil(B / N)``), accept unconditionally;
    3. if the queue is under its threshold and the buffer has room, ask the
       oracle and follow its verdict;
    4. otherwise drop without consulting the oracle.

    The safeguard is decided from bounds on the longest queue, which lies in
    ``[max(q, ceil(Q / N)), Q]`` for the arriving port's queue ``q`` and the
    occupancy ``Q``. It accepts at once when ``Q`` is below ``B / N`` and is
    skipped when ``q`` or ``ceil(Q / N)`` already reaches it; only when the
    range straddles ``B / N`` is the longest queue found with ``max``, in
    O(N). With ``N >= B`` the range never straddles it.

    Step 1 reads arrival ``index``'s entry of a ``threshold_levels`` column:
    ``levels`` when given, which must be the column of the config and
    sequence the policy runs on, or else the one ``reset`` records.

    Step 3 asks ``oracle.predict`` with the arrival's features only when
    the oracle reads them. An oracle that reads none knows its answer before
    the run, so ``reset`` takes it as one column, ``oracle.drops(count)``,
    and step 3 reads arrival ``index``'s flag from it without a call.
    """

    name = "credence"

    def __init__(self, oracle: Oracle, levels: Optional[Sequence[int]] = None) -> None:
        self.oracle = oracle
        self.levels = levels

    def reset(self, config: SwitchConfig, sequence: ArrivalSequence) -> None:
        super().reset(config, sequence)
        total = sequence.total_packets
        levels = self.levels
        if levels is None:
            levels = threshold_levels(config, sequence)
        elif len(levels) != total:
            raise ValueError(f"levels holds {len(levels)} entries for a sequence of {total} packets")
        self._levels = levels
        # the safeguard accepts while the longest queue is below ``_safe``
        self._safe = -(-config.buffer_size // config.num_ports)
        # by pigeonhole, an occupancy above ``_crowded`` puts some queue at ``_safe``
        self._crowded = config.num_ports * (self._safe - 1)
        oracle = self.oracle
        if oracle.reads_features:
            self.features = FeatureTracker(config.num_ports)
            # bound once: the oracle is asked on every admitted arrival past the safeguard
            self._predict = oracle.predict
        else:
            # None: no features are built for an oracle that ignores them
            self.features = None
            drops = oracle.drops(total)
            if len(drops) != total:
                raise ValueError(f"the oracle's drop column holds {len(drops)} entries for a sequence of {total} packets")
            self._drops = drops

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        tracker = self.features
        if tracker is not None:
            features = tracker.on_arrival(port, state)
        level = self._levels[index]
        occupancy = state.occupancy
        lengths = state.queue_len
        queue = lengths[port]
        safe = self._safe
        # the longest queue lies in [max(queue, ceil(occupancy / N)), occupancy]
        if occupancy < safe or (queue < safe and occupancy <= self._crowded and max(lengths) < safe):
            return ACCEPT
        if queue < level and occupancy < self._buffer:
            if tracker is None:
                return DROP if self._drops[index] else ACCEPT
            return DROP if self._predict(index, features) else ACCEPT
        return DROP
