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

Policies see each arrival's index (its position in arrival order) but never
touch the queues (which hold those indices); they return a ``Decision`` and
the simulator applies it. All tie-breaking (longest queue, largest threshold)
is toward the lowest port index so that runs are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Protocol, Union

from .core import SwitchConfig, SwitchState
from .oracles import _POSITIVE, FeatureTracker, Oracle

__all__ = [
    "Decision",
    "ACCEPT",
    "DROP",
    "Policy",
    "CompleteSharing",
    "DynamicThresholds",
    "LongestQueueDrop",
    "ThresholdState",
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
    """Contract shared by every buffer-sharing policy.

    ``thresholds`` declares the policy's drain state: the ``ThresholdState``
    its ``on_departure`` drains, or None when ``on_departure`` changes
    nothing. A run's departure phases never call ``on_departure``: they
    drain the declared mirror many slots at once (``ThresholdState.drain``).
    """

    name: str
    thresholds: Optional[ThresholdState]

    def reset(self, config: SwitchConfig) -> None:
        """Forget all run state and bind to a switch configuration."""

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        """Decide the fate of arrival ``index``, bound for ``port``."""

    def on_departure(self, port: int, state: SwitchState) -> None:
        """Observe one port's share of a departure phase (after its drain).

        The per-port route of ``Simulation.depart_port``, which tests and
        the lockstep divergence check step; runs drain the declared mirror
        instead. It may change nothing but the declared mirror, and only as
        one slot of ``ThresholdState.drain`` changes it at ``port``, so that
        both routes reach the same state.
        """


class CompleteSharing:
    """Accept if and only if the buffer is not full."""

    name = "complete_sharing"
    thresholds = None

    def reset(self, config: SwitchConfig) -> None:
        self._buffer = config.buffer_size

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        return ACCEPT if state.occupancy < self._buffer else DROP

    def on_departure(self, port: int, state: SwitchState) -> None:
        pass


class DynamicThresholds:
    """Accept while the arriving queue is below ``alpha`` times the free space.

    The comparison ``q < alpha * (B - Q)`` is evaluated in exact rational
    arithmetic; ``alpha`` may be given as a ``Fraction`` or a ``p/q`` string.
    """

    name = "dynamic_thresholds"
    thresholds = None

    def __init__(self, alpha: Union[Fraction, str, int] = Fraction(1, 2)) -> None:
        self.alpha = Fraction(alpha)
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def reset(self, config: SwitchConfig) -> None:
        self._buffer = config.buffer_size
        # ``Fraction`` properties cost a call each; read them once per run
        self._numerator = self.alpha.numerator
        self._denominator = self.alpha.denominator

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        free = self._buffer - state.occupancy
        if free <= 0:
            return DROP
        # cross-multiplied: q * denominator < numerator * free
        if state.queue_len[port] * self._denominator < self._numerator * free:
            return ACCEPT
        return DROP

    def on_departure(self, port: int, state: SwitchState) -> None:
        pass


class LongestQueueDrop:
    """Preemptive policy: a full buffer evicts from the longest queue.

    While the buffer has room every packet is accepted. On a full buffer the
    longest queue (ties toward the lowest port index) gives up its most
    recently queued packet to admit the newcomer; if that queue is the
    arriving one, evicting the newcomer itself is a plain drop.
    """

    name = "lqd"
    thresholds = None

    def reset(self, config: SwitchConfig) -> None:
        self._buffer = config.buffer_size

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        if state.occupancy < self._buffer:
            return ACCEPT
        lengths = state.queue_len
        longest = lengths.index(max(lengths))
        if longest == port:
            return DROP
        return Decision(True, longest)

    def on_departure(self, port: int, state: SwitchState) -> None:
        pass


class ThresholdState:
    """Per-port thresholds that replay LongestQueueDrop queue lengths.

    ``on_arrival`` mirrors how an LQD instance fed the same arrivals would
    change its queue-length vector: grow the arriving entry, stealing one
    unit from the largest entry when the vector already sums to the buffer
    size. ``on_departure`` mirrors the per-port drain. The mirrored
    instance's accept decisions never matter here, only its lengths.
    """

    __slots__ = ("thresholds", "total", "_buffer")

    def __init__(self, num_ports: int, buffer_size: int) -> None:
        self.thresholds: list[int] = [0] * num_ports
        self.total = 0
        self._buffer = buffer_size

    def on_arrival(self, port: int) -> None:
        thresholds = self.thresholds
        if self.total == self._buffer:
            largest = thresholds.index(max(thresholds))
            # no-op when the arriving port already holds the largest
            # threshold, mirroring a push-out of the newcomer itself
            thresholds[largest] -= 1
            thresholds[port] += 1
        else:
            thresholds[port] += 1
            self.total += 1

    def on_departure(self, port: int) -> None:
        if self.thresholds[port] > 0:
            self.thresholds[port] -= 1
            self.total -= 1

    def drain(self, slots: int) -> None:
        """``slots`` departure phases at every port: each threshold falls by ``min(threshold, slots)``."""
        thresholds = self.thresholds
        # in place: other holders keep a reference to this list
        thresholds[:] = [level - slots if level > slots else 0 for level in thresholds]
        self.total = sum(thresholds)


class FollowLqd:
    """Drop-tail policy accepting while the queue is under its mirrored threshold."""

    name = "follow_lqd"

    def reset(self, config: SwitchConfig) -> None:
        self._buffer = config.buffer_size
        self.thresholds = ThresholdState(config.num_ports, config.buffer_size)

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        mirror = self.thresholds
        mirror.on_arrival(port)
        if state.queue_len[port] < mirror.thresholds[port] and state.occupancy < self._buffer:
            return ACCEPT
        return DROP

    def on_departure(self, port: int, state: SwitchState) -> None:
        self.thresholds.on_departure(port)


class Credence:
    """FollowLqd with a robustness safeguard and a drop-prediction oracle.

    Arrival handling, in order:

    1. update the mirrored threshold for the arriving port;
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
    """

    name = "credence"

    def __init__(self, oracle: Oracle) -> None:
        self.oracle = oracle

    def reset(self, config: SwitchConfig) -> None:
        self._buffer = config.buffer_size
        self.thresholds = ThresholdState(config.num_ports, config.buffer_size)
        # bound once: the oracle is asked on every admitted arrival past the safeguard
        self._predict = self.oracle.predict
        # the safeguard accepts while the longest queue is below ``_safe``
        self._safe = -(-config.buffer_size // config.num_ports)
        # by pigeonhole, an occupancy above ``_crowded`` puts some queue at ``_safe``
        self._crowded = config.num_ports * (self._safe - 1)
        # None when the oracle ignores features: nothing is built for it
        self.features = FeatureTracker(config.num_ports) if self.oracle.reads_features else None

    def on_arrival(self, port: int, index: int, state: SwitchState) -> Decision:
        tracker = self.features
        features = tracker.on_arrival(port, state) if tracker is not None else None
        mirror = self.thresholds
        mirror.on_arrival(port)
        occupancy = state.occupancy
        lengths = state.queue_len
        queue = lengths[port]
        safe = self._safe
        # the longest queue lies in [max(queue, ceil(occupancy / N)), occupancy]
        if occupancy < safe or (queue < safe and occupancy <= self._crowded and max(lengths) < safe):
            return ACCEPT
        if queue < mirror.thresholds[port] and occupancy < self._buffer:
            return DROP if self._predict(index, features) is _POSITIVE else ACCEPT
        return DROP

    def on_departure(self, port: int, state: SwitchState) -> None:
        self.thresholds.on_departure(port)
