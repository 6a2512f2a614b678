"""Discrete-time model of a shared-buffer switch.

Time advances in unit slots. Each slot has an arrival phase, in which up to
``num_ports`` unit-size packets arrive and the active policy accepts or
rejects each one in order, followed by a departure phase, in which every
non-empty queue transmits exactly one packet (ports processed in ascending
index order). After the last slot of the arrival sequence the simulator keeps
running departure-only slots until the buffer is empty, so every accepted
packet is eventually transmitted and throughput comparisons are exact.

``run_slots`` is the one loop that schedules these events; every run in the
library goes through it. A packet's identity is its arrival index (0, 1, 2,
... in arrival order), and a run's record is one ``Verdict`` per arrival.

The departure phase does only work that can change state. It visits a port
only when the port has a queued packet or its policy's mirrored threshold
(``Policy.thresholds``) is nonzero, and a slot whose buffer is empty and
whose thresholds are all 0 is skipped in O(1). A run of arrival-free slots,
and the departure-only slots after the last arrival, are applied in one
``Simulation.drain`` step: each queue sends ``min(length, slots)`` packets
and each mirrored threshold falls by ``min(threshold, slots)``, in O(N +
packets sent). Either shortcut gives the same state as visiting every port
in every slot. A policy that declares no ``thresholds`` has every port
visited in every slot, one departure phase per slot.

A run visits only the slots with arrivals. ``run_slots`` steps from one
such slot to the next, and an ``ArrivalSequence`` summarises its rows once,
on first use, so validating a sequence and counting its packets do not
rescan its slots; a run costs O(arrivals + slots with arrivals) on top of
the drains.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count
from typing import TYPE_CHECKING, Deque, Optional

if TYPE_CHECKING:
    from .policies import Policy

__all__ = [
    "SwitchConfig",
    "ArrivalSequence",
    "SwitchState",
    "Verdict",
    "RunResult",
    "PolicyError",
    "Simulation",
    "run_slots",
    "run_simulation",
    "save_sequence",
    "load_sequence",
    "save_outcomes",
]


@dataclass(frozen=True)
class SwitchConfig:
    """Switch dimensions: ``num_ports`` output queues sharing ``buffer_size`` packet slots."""

    num_ports: int
    buffer_size: int

    def __post_init__(self) -> None:
        if self.num_ports < 1:
            raise ValueError(f"num_ports must be >= 1, got {self.num_ports}")
        if self.buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {self.buffer_size}")


@dataclass(frozen=True)
class ArrivalSequence:
    """Per-slot arrivals; each slot lists destination ports in processing order.

    A sequence is a value: ``slots`` cannot be reassigned, and its rows must
    not be changed after the sequence is made. Its packet count, widest row
    and lowest and highest port are computed once, on first use, from the
    rows with arrivals; after that ``total_packets`` and a passing
    ``validate`` cost O(1). Equality compares ``slots`` only.
    """

    slots: list[list[int]]

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    @cached_property
    def _summary(self) -> tuple[int, int, int, int]:
        """Packets, widest row, lowest port and highest port; all 0 without arrivals."""
        rows = list(filter(None, self.slots))
        ports = set(chain.from_iterable(rows))
        return sum(map(len, rows)), max(map(len, rows), default=0), min(ports, default=0), max(ports, default=0)

    @property
    def total_packets(self) -> int:
        return self._summary[0]

    def validate(self, config: SwitchConfig) -> None:
        """Raise ValueError if any slot exceeds the aggregate cap or names a bad port."""
        n = config.num_ports
        _, widest, lowest, highest = self._summary
        if widest <= n and lowest >= 0 and highest < n:
            return
        # something is wrong: find the first bad slot, to name it
        for slot_index, row in enumerate(self.slots):
            if len(row) > n:
                raise ValueError(
                    f"slot {slot_index} carries {len(row)} arrivals; at most {n} allowed"
                )
            for port in row:
                if not 0 <= port < n:
                    raise ValueError(f"slot {slot_index}: port {port} out of range [0, {n})")


class Verdict(Enum):
    """Final fate of one packet."""

    TRANSMITTED = "transmitted"
    DROPPED_ON_ARRIVAL = "dropped_on_arrival"
    PUSHED_OUT = "pushed_out"


# enum member lookups cost ~0.1 us each on the arrival path
_TRANSMITTED = Verdict.TRANSMITTED
_DROPPED_ON_ARRIVAL = Verdict.DROPPED_ON_ARRIVAL
_PUSHED_OUT = Verdict.PUSHED_OUT


@dataclass
class RunResult:
    """Everything observable from one simulation run.

    ``verdicts[i]`` is the fate of arrival ``i``: one entry per packet of
    ``sequence``, in arrival order. The sequence supplies each packet's
    slot, position and port.
    """

    transmitted_count: int
    dropped_count: int
    verdicts: list[Verdict]
    peak_occupancy: int
    sequence: ArrivalSequence


class PolicyError(RuntimeError):
    """A policy returned a decision that cannot be applied to the current state."""


class SwitchState(object):
    """Queue lengths, total occupancy, and per-port FIFOs of arrival indices."""

    __slots__ = ("queue_len", "occupancy", "queues")

    def __init__(self, num_ports: int) -> None:
        self.queue_len: list[int] = [0] * num_ports
        self.occupancy: int = 0
        self.queues: list[Deque[int]] = [deque() for _ in range(num_ports)]

    def push(self, port: int, index: int) -> None:
        self.queues[port].append(index)
        self.queue_len[port] += 1
        self.occupancy += 1

    def pop_head(self, port: int) -> None:
        self.queues[port].popleft()
        self.queue_len[port] -= 1
        self.occupancy -= 1

    def pop_tail(self, port: int) -> int:
        index = self.queues[port].pop()
        self.queue_len[port] -= 1
        self.occupancy -= 1
        return index


class _FixedThresholds:
    """Stand-in mirror, ``level`` at every port, for a policy with no ``ThresholdState``."""

    __slots__ = ("thresholds", "total")

    def __init__(self, num_ports: int, level: int) -> None:
        self.thresholds = [level] * num_ports
        self.total = level * num_ports


_UNDECLARED = object()


def _mirror_of(policy: "Policy", num_ports: int):
    """The threshold state the departure phase reads for ``policy``.

    It is the policy's declared ``thresholds``. A declared None stands for
    all zeros, so only queued ports are visited. A policy that declares
    nothing may keep drain state the phase cannot see, so every port reads
    as busy and every port is visited in every slot.
    """
    mirror = getattr(policy, "thresholds", _UNDECLARED)
    if mirror is None:
        return _FixedThresholds(num_ports, 0)
    if mirror is _UNDECLARED:
        return _FixedThresholds(num_ports, 1)
    return mirror


class Simulation:
    """One switch under one policy, stepped event by event (``run_slots`` drives it).

    Queues hold arrival indices; ``verdicts[i]`` is the fate of arrival ``i``.
    An accepted packet reads ``TRANSMITTED`` unless a push-out overwrites it.
    ``mirror`` is the policy's threshold state, read after ``policy.reset``;
    ``depart_phase`` and ``drain`` drain it.
    """

    __slots__ = (
        "config", "policy", "state", "transmitted", "dropped", "verdicts", "peak_occupancy",
        "mirror", "_declared", "_buffer", "_ports",
    )

    def __init__(self, config: SwitchConfig, policy: "Policy") -> None:
        self.config = config
        self.policy = policy
        policy.reset(config)
        self.state = SwitchState(config.num_ports)
        self.transmitted = 0
        self.dropped = 0
        self.verdicts: list[Verdict] = []
        self.peak_occupancy = 0
        self.mirror = _mirror_of(policy, config.num_ports)
        # a declared mirror is all the policy's drain state, so many slots can drain at once
        self._declared = getattr(policy, "thresholds", _UNDECLARED) is not _UNDECLARED
        self._buffer = config.buffer_size
        self._ports = range(config.num_ports)

    @property
    def occupancy(self) -> int:
        return self.state.occupancy

    @property
    def backlog(self) -> int:
        """Departure-only slots left until the buffer is empty: the longest queue."""
        return max(self.state.queue_len)

    @property
    def idle(self) -> bool:
        """True when a departure phase would change nothing: no queued packet, no threshold."""
        return not self.state.occupancy and not self.mirror.total

    def arrive(self, port: int) -> None:
        """Process arrival ``len(verdicts)``: ask the policy, then apply its decision."""
        state = self.state
        verdicts = self.verdicts
        index = len(verdicts)
        decision = self.policy.on_arrival(port, index, state)
        if not decision.accept:
            self.dropped += 1
            verdicts.append(_DROPPED_ON_ARRIVAL)
            return
        victim_port = decision.pushout_victim
        if victim_port is not None:
            if state.occupancy != self._buffer:
                raise PolicyError("push-out is only legal when the buffer is full")
            if not state.queue_len[victim_port]:
                raise PolicyError(f"push-out victim queue {victim_port} is empty")
            verdicts[state.pop_tail(victim_port)] = _PUSHED_OUT
            self.dropped += 1
        elif state.occupancy >= self._buffer:
            raise PolicyError("accept would overflow the buffer")
        # ``state.push``, inlined: this runs once per accepted packet
        state.queues[port].append(index)
        state.queue_len[port] += 1
        occupancy = state.occupancy = state.occupancy + 1
        verdicts.append(_TRANSMITTED)
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy

    def depart_port(self, port: int) -> None:
        """One port's share of the departure phase: drain one packet, then notify the policy."""
        state = self.state
        if state.queue_len[port]:
            state.pop_head(port)
            self.transmitted += 1
        self.policy.on_departure(port, state)

    def depart_phase(self) -> None:
        """One slot's departure phase: ``depart_port`` for each port, in
        ascending order, whose queue or mirrored threshold is nonzero."""
        state = self.state
        mirror = self.mirror
        # ``idle``, inlined: this runs once per slot
        if not state.occupancy and not mirror.total:
            return
        depart_port = self.depart_port
        queue_len = state.queue_len
        thresholds = mirror.thresholds
        for port in self._ports:
            if queue_len[port] or thresholds[port]:
                depart_port(port)

    def drain(self, slots: int) -> None:
        """``slots`` arrival-free departure phases in one step.

        Each queue sends ``min(length, slots)`` packets from its head and the
        mirror lowers each threshold by ``min(threshold, slots)``, in O(N +
        packets sent), without calling ``on_departure``. A policy that
        declares no ``thresholds`` gets ``slots`` calls of ``depart_phase``.
        """
        state = self.state
        mirror = self.mirror
        if not state.occupancy and not mirror.total:
            return
        if not self._declared:
            depart_phase = self.depart_phase
            for _ in range(slots):
                depart_phase()
            return
        if state.occupancy:
            queue_len = state.queue_len
            queues = state.queues
            sent = 0
            for port, length in enumerate(queue_len):
                if not length:
                    continue
                queue = queues[port]
                if length <= slots:
                    queue.clear()
                    queue_len[port] = 0
                    sent += length
                else:
                    popleft = queue.popleft
                    for _ in range(slots):
                        popleft()
                    queue_len[port] = length - slots
                    sent += slots
            state.occupancy -= sent
            self.transmitted += sent
        if mirror.total:
            mirror.drain(slots)


def run_slots(sim, sequence: ArrivalSequence) -> None:
    """Feed every event of ``sequence`` to ``sim``, slot by slot.

    The only loop that schedules events. It visits only the slots with
    arrivals: each runs its arrivals in row order, then one departure phase.
    The run of arrival-free slots before each of them is applied in one
    ``sim.drain`` call; after the last one, a final ``sim.drain`` runs the
    trailing arrival-free slots or the ``sim.backlog`` departure-only slots
    that empty the buffer, whichever is more. ``sim`` is a ``Simulation`` or
    any object with the same ``config``, ``arrive``, ``depart_phase``,
    ``drain`` and ``backlog``. The sequence is validated first.
    """
    sequence.validate(sim.config)
    slots = sequence.slots
    arrive = sim.arrive
    depart_phase = sim.depart_phase
    drain = sim.drain
    last = -1  # the last slot visited
    for slot_index in compress(count(), slots):
        if slot_index - last > 1:
            drain(slot_index - last - 1)
        for port in slots[slot_index]:
            arrive(port)
        depart_phase()
        last = slot_index
    drain(max(len(slots) - 1 - last, sim.backlog))


def run_simulation(config: SwitchConfig, sequence: ArrivalSequence, policy: "Policy") -> RunResult:
    """Drive ``policy`` over ``sequence`` and return the complete run record."""
    sim = Simulation(config, policy)
    run_slots(sim, sequence)
    total = sequence.total_packets
    if sim.transmitted + sim.dropped != total:
        raise AssertionError(
            f"conservation violated: {sim.transmitted} + {sim.dropped} != {total}"
        )
    return RunResult(sim.transmitted, sim.dropped, sim.verdicts, sim.peak_occupancy, sequence)


# --- trace and result files -------------------------------------------------
#
# Arrival traces are line-oriented text: optional '#' comment lines, a
# 'slot,port' header, then one 'slot,port' row per packet, sorted by slot
# with within-slot order equal to row order. Slots mentioned by no row are
# empty (arrival-free); trailing empty slots are not representable.

_SEQUENCE_HEADER = "slot,port"


def save_sequence(path, sequence: ArrivalSequence, comment: Optional[str] = None) -> None:
    lines = []
    if comment is not None:
        lines.append(f"# {comment}")
    lines.append(_SEQUENCE_HEADER)
    for slot_index, row in enumerate(sequence.slots):
        for port in row:
            lines.append(f"{slot_index},{port}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_sequence(path) -> ArrivalSequence:
    rows: list[tuple[int, int]] = []
    with open(path) as fh:
        header_seen = False
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != _SEQUENCE_HEADER:
                    raise ValueError(f"{path}: expected header {_SEQUENCE_HEADER!r}, got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'slot,port', got {line!r}")
            try:
                slot, port = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-integer field in {line!r}") from None
            if slot < 0 or port < 0:
                raise ValueError(f"{path}:{line_no}: negative field in {line!r}")
            if rows and slot < rows[-1][0]:
                raise ValueError(f"{path}:{line_no}: rows not sorted by slot")
            rows.append((slot, port))
    if not header_seen:
        raise ValueError(f"{path}: missing {_SEQUENCE_HEADER!r} header")
    num_slots = rows[-1][0] + 1 if rows else 0
    slots: list[list[int]] = [[] for _ in range(num_slots)]
    for slot, port in rows:
        slots[slot].append(port)
    return ArrivalSequence(slots)


def save_outcomes(path, result: RunResult) -> None:
    lines = ["packet_slot,packet_pos,port,verdict"]
    verdicts = iter(result.verdicts)
    for slot_index, row in enumerate(result.sequence.slots):
        for pos, port in enumerate(row):
            lines.append(f"{slot_index},{pos},{port},{next(verdicts).value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
