"""Discrete-time model of a shared-buffer switch.

Time advances in unit slots. Each slot has an arrival phase, in which up to
``num_ports`` unit-size packets arrive and the active policy accepts or
rejects each one in order, followed by a departure phase, in which every
non-empty queue transmits exactly one packet. After the last slot of the
arrival sequence the simulator keeps running departure-only slots until the
buffer is empty, so every accepted packet is eventually transmitted and
throughput comparisons are exact.

``run_slots`` is the one loop that schedules these events; every run in the
library goes through it. It hands each slot's arrivals over as one row, and
``Simulation.arrive(row)`` admits the row's packets in row order, in one call.
A packet's identity is its arrival index (0, 1, 2, ... in arrival order),
and a run's record is one ``Verdict`` per arrival.

A queue is a length: no departure touches a packet, and each port keeps only
the arrival indices a push-out reads (``SwitchState.tails``). Every departure
phase of a run is applied by ``Simulation.drain``: ``k`` phases in one step,
in which each queue sends ``min(length, k)`` packets, in O(ports with a
queued packet). A policy keeps no departure state, so a run never calls
``on_departure``: FollowLqd and Credence replay mirrored thresholds recorded
from the sequence before the run (``policies.threshold_levels``), which is
why a ``Simulation`` binds its policy to the sequence it will run.
``Simulation.depart_port`` is the per-port route, one port's share of one
phase, that tests and the lockstep divergence check compare the bulk route
against.

A run visits only the slots with arrivals. ``run_slots`` calls one ``drain``
before each of them, covering the previous slot's departure phase and the
arrival-free slots after it, and one after the last, which empties the
buffer. An ``ArrivalSequence`` stores only those slots and summarises its
packets once, so every run costs O(arrivals + slots with arrivals) on top
of the drains, whatever the horizon. Every number read from text is read
by ``read_number``, which makes a zero denominator a ValueError, and each
numeric parameter's type and range is one ``Bound``.
"""

from __future__ import annotations

import math
import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, islice
from operator import attrgetter, lt, ne
from stat import S_ISREG
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from .policies import Policy

__all__ = [
    "read_number",
    "Bound",
    "NUM_PORTS",
    "BUFFER_SIZE",
    "SwitchConfig",
    "SLOT",
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


_GRAMMAR = {
    int: re.compile(r"-?[0-9]+"),
    float: re.compile(r"[0-9A-Za-z.+-]+"),
    Fraction: re.compile(r"[0-9.+/-]+"),
}


def read_number(text: str, kind: type):
    """``text`` as a ``kind``, int, float or Fraction, else a ValueError; every number read from text is read here.

    An int is ASCII ``-?[0-9]+``. A float is what ``float()`` makes of ASCII
    letters, digits, '.', '+' and '-', so ``nan``, ``inf`` and ``1e-05`` read,
    and a range check rejects them where it must. A Fraction is what
    ``Fraction()`` makes of ASCII digits, '.', '+', '/' and '-', such as
    ``3/4`` or ``0.75``; a zero denominator, as in ``1/0``, is a ValueError
    too. It takes no exponent, since ``Fraction('1e999999999')`` computes
    10**999999999. Python's ``int()``, ``float()`` and ``Fraction()`` would
    also take '_', non-ASCII digits and surrounding spaces.
    """
    if _GRAMMAR[kind].fullmatch(text) is None:
        raise ValueError(f"could not convert string to {kind.__name__}: {text!r}")
    try:
        return kind(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class Bound(NamedTuple):
    """The type and range of numeric parameter ``name``, declared once beside the library
    code that takes it: ``low <= value <= high``, or ``low < value < high`` when ``strict``,
    which without a ``high`` is the positive and finite numbers. NaN is never in range, and
    an int takes only an ``int``, not a bool. The CLI reads its setting as a ``kind`` and checks it here."""

    name: str
    kind: type
    low: float
    high: float = math.inf
    strict: bool = False

    def holds(self, value) -> bool:
        return self.low < value < self.high if self.strict else self.low <= value <= self.high

    def check(self, value, name: Optional[str] = None) -> None:
        """Raise a ValueError naming ``name``, or else the parameter, unless ``value`` is of its type and range."""
        if self.kind is int and type(value) is not int:
            raise ValueError(f"{name or self.name} must be an integer, got {value!r}")
        if not self.holds(value):
            if not self.strict:
                rule = f">= {self.low}" if self.high == math.inf else f"in [{self.low}, {self.high}]"
            elif self.high == math.inf:
                rule = "positive and finite"
            else:
                rule = f"strictly between {self.low} and {self.high}"
            raise ValueError(f"{name or self.name} must be {rule}, got {value}")


NUM_PORTS = Bound("num_ports", int, 1)
BUFFER_SIZE = Bound("buffer_size", int, 1)


@dataclass(frozen=True)
class SwitchConfig:
    """Switch dimensions: ``num_ports`` output queues sharing ``buffer_size`` packet slots."""

    num_ports: int
    buffer_size: int

    def __post_init__(self) -> None:
        NUM_PORTS.check(self.num_ports)
        BUFFER_SIZE.check(self.buffer_size)


# the largest slot a sequence holds: ``arrival_slots`` stores each as a C unsigned int
SLOT = Bound("slot", int, 0, 2 ** (8 * array("I").itemsize) - 1)


@dataclass(frozen=True, init=False)
class ArrivalSequence:
    """Arrivals slot by slot, stored only where there are any.

    ``num_slots`` slots, of which those in ``arrival_slots`` (ascending) carry
    the row of ``rows`` at the same index: the destination ports of the
    slot's packets, in processing order. No row is empty, and every other
    slot is arrival-free, so a sequence holds O(slots with arrivals +
    packets) whatever its horizon.

    ``ArrivalSequence(slots)`` makes one from one row of ports per slot,
    empty for an arrival-free one. ``rows`` is a tuple of tuples, which may
    share a row: a list row is copied, a tuple row kept. A sequence is a
    value: no field, row or arrival slot can change. The slots are stored as
    one ``bytes`` object, and ``arrival_slots`` is a new read-only
    ``memoryview`` of format ``'I'`` over it on each access. Its packet
    count, widest row and lowest and highest port are computed once, on
    first use; after that ``total_packets`` and a passing ``validate`` cost
    O(1). Two sequences are equal when their slot counts, arrival slots and
    rows are.
    """

    num_slots: int
    _slots: bytes = field(repr=False)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, slots: Sequence[Sequence[int]]) -> None:
        self._store(len(slots), compress(count(), slots), tuple(map(tuple, filter(None, slots))))

    @classmethod
    def _from_rows(cls, num_slots: int, arrival_slots: array, rows: Iterable[tuple[int, ...]]) -> "ArrivalSequence":
        """The sequence the fields describe, made without a row per slot: ``arrival_slots``
        ascending and below ``num_slots``, and ``rows`` one non-empty tuple each, which may be shared."""
        sequence = cls.__new__(cls)
        sequence._store(num_slots, arrival_slots, tuple(rows))
        return sequence

    def _store(self, num_slots: int, arrival_slots: Iterable[int], rows: tuple[tuple[int, ...], ...]) -> None:
        # a frozen dataclass's own __setattr__ refuses every assignment; the slots are
        # copied, so no array a caller keeps can change them
        object.__setattr__(self, "num_slots", num_slots)
        object.__setattr__(self, "_slots", array("I", arrival_slots).tobytes())
        object.__setattr__(self, "rows", rows)

    @property
    def arrival_slots(self) -> memoryview:
        return memoryview(self._slots).cast("I")

    @cached_property
    def _summary(self) -> tuple[int, int, int, int, bool]:
        """Packets, widest row, lowest and highest port, and whether every port
        is exactly an ``int``; 0, 0, 0, 0, True without arrivals.

        The type test sees every port, as a set of ports would not: ``{1,
        True, 1.0}`` is ``{1}``. When it fails, the lowest and highest read 0.
        """
        rows = self.rows
        packets, widest = sum(map(len, rows)), max(map(len, rows), default=0)
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            return packets, widest, 0, 0, False
        ports = set(chain.from_iterable(rows))
        return packets, widest, min(ports, default=0), max(ports, default=0), True

    @property
    def total_packets(self) -> int:
        return self._summary[0]

    def validate(self, config: SwitchConfig) -> None:
        """Raise ValueError if any slot exceeds the aggregate cap or names a bad
        port: one that is not exactly an ``int`` (a bool is not), or out of range."""
        n = config.num_ports
        _, widest, lowest, highest, ints = self._summary
        if ints and widest <= n and lowest >= 0 and highest < n:
            return
        # something is wrong: find the first bad slot, to name it
        for slot_index, row in zip(self.arrival_slots, self.rows):
            if len(row) > n:
                raise ValueError(
                    f"slot {slot_index} carries {len(row)} arrivals; at most {n} allowed"
                )
            for port in row:
                if type(port) is not int:
                    raise ValueError(f"slot {slot_index}: port {port!r} is not an int")
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
    """Queue lengths, total occupancy, and per-port arrival indices; only ``Simulation`` changes them:
    port ``p``'s queue is the last ``queue_len[p]`` entries of ``tails[p]``, its accepted arrivals in
    order, and the departed ones before them are deleted once they outnumber them."""

    __slots__ = ("queue_len", "occupancy", "tails")

    def __init__(self, num_ports: int) -> None:
        self.queue_len: list[int] = [0] * num_ports
        self.occupancy: int = 0
        self.tails: list[list[int]] = [[] for _ in range(num_ports)]


class Simulation:
    """One switch under one policy, stepped event by event (``run_slots`` drives it).

    ``verdicts[i]`` is the fate of arrival ``i``: an accepted packet reads ``TRANSMITTED``
    unless a push-out, which takes its queue's tail, overwrites it. ``policy.reset`` binds
    the policy to ``config`` and to ``sequence``, the arrivals the simulation will be fed."""

    __slots__ = ("config", "policy", "state", "transmitted", "dropped", "verdicts", "peak_occupancy", "_buffer")

    def __init__(self, config: SwitchConfig, policy: "Policy", sequence: ArrivalSequence) -> None:
        self.config = config
        self.policy = policy
        policy.reset(config, sequence)
        self.state = SwitchState(config.num_ports)
        self.transmitted = 0
        self.dropped = 0
        self.verdicts: list[Verdict] = []
        self.peak_occupancy = 0
        self._buffer = config.buffer_size

    @property
    def backlog(self) -> int:
        """Departure-only slots left until the buffer is empty: the longest queue."""
        return max(self.state.queue_len)

    def arrive(self, row: Sequence[int]) -> None:
        """Process one slot's arrivals, ``row``'s ports in order, the first being
        arrival ``len(verdicts)``: for each, ask the policy, then apply its decision."""
        policy = self.policy
        state = self.state
        verdicts = self.verdicts
        queue_len = state.queue_len
        tails = state.tails
        buffer = self._buffer
        index = len(verdicts)
        for port in row:
            decision = policy.on_arrival(port, index, state)
            if not decision.accept:
                self.dropped += 1
                verdicts.append(_DROPPED_ON_ARRIVAL)
                index += 1
                continue
            victim_port = decision.pushout_victim
            if victim_port is not None:
                if state.occupancy != buffer:
                    raise PolicyError("push-out is only legal when the buffer is full")
                if not 0 <= victim_port < len(queue_len):
                    raise PolicyError(f"push-out victim queue {victim_port} is not a port")
                if not queue_len[victim_port]:
                    raise PolicyError(f"push-out victim queue {victim_port} is empty")
                verdicts[tails[victim_port].pop()] = _PUSHED_OUT
                queue_len[victim_port] -= 1
                state.occupancy -= 1
                self.dropped += 1
            elif state.occupancy >= buffer:
                raise PolicyError("accept would overflow the buffer")
            # queue the packet at its port's tail: this runs once per accepted packet
            tails[port].append(index)
            queue_len[port] += 1
            occupancy = state.occupancy = state.occupancy + 1
            verdicts.append(_TRANSMITTED)
            index += 1
            if occupancy > self.peak_occupancy:
                self.peak_occupancy = occupancy

    def depart_port(self, port: int) -> None:
        """One port's share of one departure phase, step by step, under ``drain``'s rule for
        its list; then ``on_departure``. Runs use ``drain``; this is the route it is checked against."""
        state = self.state
        length = state.queue_len[port]
        if length:
            length = state.queue_len[port] = length - 1
            tail = state.tails[port]
            if not length:
                tail.clear()
            elif len(tail) > 2 * length:
                del tail[:-length]
            state.occupancy -= 1
            self.transmitted += 1
        self.policy.on_departure(port, state)

    def drain(self, slots: int) -> None:
        """``slots`` departure phases in one step, the first right after the
        arrivals of the slot before, if any, and the rest arrival-free.

        Each queue sends ``min(length, slots)`` packets from its head without
        calling ``on_departure``, in O(ports with a queued packet): lengths fall,
        and a list is cleared when its queue empties or trimmed as ``SwitchState``
        says. It is ``depart_port`` at every port, ``slots`` times over."""
        state = self.state
        if state.occupancy:
            queue_len = state.queue_len
            tails = state.tails
            sent = 0
            for port in compress(count(), queue_len):  # the ports with a queued packet
                length = queue_len[port]
                if length <= slots:
                    tails[port].clear()
                    queue_len[port] = 0
                    sent += length
                else:
                    length = queue_len[port] = length - slots
                    tail = tails[port]
                    if len(tail) > 2 * length:
                        del tail[:-length]
                    sent += slots
            state.occupancy -= sent
            self.transmitted += sent


def run_slots(sim, sequence: ArrivalSequence) -> None:
    """Feed every event of ``sequence`` to ``sim``, slot by slot.

    The only loop that schedules events. It visits only the slots with
    arrivals and hands each one's row to one ``sim.arrive(row)``, which
    admits its packets in row order. Before each, one ``sim.drain`` runs the
    departure phases not yet run: the previous visited slot's and those of
    the arrival-free slots after it, or the leading arrival-free slots.
    After the last, a final ``sim.drain`` runs the ``sim.backlog`` phases
    that empty the buffer; the trailing arrival-free slots after that change
    nothing. ``sim`` is a ``Simulation`` or any object with the same
    ``config``, ``arrive(row)``, ``drain(k)`` and ``backlog``. The sequence
    is validated first.
    """
    sequence.validate(sim.config)
    arrive = sim.arrive
    drain = sim.drain
    done = 0  # the slots whose departure phase has run
    for slot_index, row in zip(sequence.arrival_slots, sequence.rows):
        drain(slot_index - done)
        arrive(row)
        done = slot_index
    drain(sim.backlog)


def run_simulation(config: SwitchConfig, sequence: ArrivalSequence, policy: "Policy") -> RunResult:
    """Drive ``policy`` over ``sequence`` and return the complete run record."""
    sim = Simulation(config, policy, sequence)
    run_slots(sim, sequence)
    total = sequence.total_packets
    if sim.transmitted + sim.dropped != total:
        raise AssertionError(
            f"conservation violated: {sim.transmitted} + {sim.dropped} != {total}"
        )
    return RunResult(sim.transmitted, sim.dropped, sim.verdicts, sim.peak_occupancy, sequence)


# --- trace and result files -------------------------------------------------
#
# Arrival traces are UTF-8 text: a 'slot,port' header, then one 'slot,port'
# row per packet, sorted by slot, with within-slot order equal to row order.
# Blank lines and '#' comment lines may appear anywhere, spaces around a
# field are allowed, and a field is an int of the one grammar. Slots
# mentioned by no row are empty (arrival-free); trailing empty slots are not
# representable. A file that cannot be loaded raises ValueError naming
# ``path:line``, or only the path for a missing or wrong header or bytes that
# are not UTF-8.
#
# ``save_sequence`` writes the canonical form: optional '#' comment lines, the
# header, then 'digits,digits' lines. ``load_sequence`` parses that form in
# blocks of whole lines with C-level string and list operations; any other
# file, and any file with an error, goes through the line parser, which alone
# accepts the other forms and words every error.

_SEQUENCE_HEADER = "slot,port"
# the canonical form: the head up to the header line, then blocks of rows
_CANONICAL_HEAD = re.compile(rf"(?:#[^\n]*\n)*{_SEQUENCE_HEADER}\n")
_CANONICAL_ROWS = re.compile(r"(?:[0-9]+,[0-9]+\n)*")
# a block is the whole lines that reach this many characters past its start;
# one list of field strings per block keeps the parse's memory this small
_BLOCK_CHARS = 1 << 16


class _Memo(dict):
    """``make(key)`` for each key, made on the key's first lookup."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@contextmanager
def _utf8_errors_name(path):
    """Re-raise a ``UnicodeDecodeError`` inside the block as a ValueError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _open_output(path):
    """Open the output ``path`` for writing text; every file the library writes is opened here.

    An existing regular file with one link that this process may write is
    removed first, since truncating a file written moments ago can wait for
    its data to reach the disk (ext4's ``auto_da_alloc``), and a new file
    does not. Any other path opens in place, as ``open(path, "w")`` does: a
    symlink is written through, a hard-linked file keeps its other names,
    and a file this process may not write fails as before.
    """
    try:
        info = os.lstat(path)
        if S_ISREG(info.st_mode) and info.st_nlink == 1 and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:  # no file there yet, or one that cannot be unlinked: open in place
        pass
    return open(path, "w", encoding="utf-8")


def _write_lines(path, lines) -> None:
    """Write each of ``lines`` and a newline after it to the output ``path``."""
    with _open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def save_sequence(path, sequence: ArrivalSequence, comment: Optional[str] = None) -> None:
    """Write a trace file: ``# comment`` if given, the header, then ``slot,port`` per packet."""
    line = _Memo("{}\n".format).__getitem__  # "port\n", a line after its slot
    with _open_output(path) as fh:
        write = fh.write
        if comment is not None:
            write(f"# {comment}\n")
        write(f"{_SEQUENCE_HEADER}\n")
        for slot_index, row in zip(sequence.arrival_slots, sequence.rows):
            prefix = f"{slot_index},"
            write(prefix + prefix.join(map(line, row)))


def load_sequence(path) -> ArrivalSequence:
    """Read a trace file; raise ValueError naming ``path`` for anything that is not a valid trace."""
    with _utf8_errors_name(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    sequence = _parse_canonical(text)
    if sequence is None:
        sequence = _parse_lines(path, text)
    return sequence


def _parse_canonical(text: str) -> Optional[ArrivalSequence]:
    """The sequence in ``text`` if it is in the canonical form and valid, else None.

    Each block's slot fields are compared as strings to find where a row
    starts, and only those are converted; ports are converted through a
    cache of the port fields seen. The rows' slots must fit ``SLOT`` and
    increase, so a slot past it, or one spelt two ways ('7' and '07') in a
    row's lines, falls back to the line parser.
    """
    head = _CANONICAL_HEAD.match(text)
    if head is None:
        return None
    port_of = _Memo(int)
    ports: list[int] = []
    row_slots = array("I")
    row_starts: list[int] = []  # the index in ``ports`` of each row's first packet
    last_field = None  # the slot field of the previous block's last line
    start, end = head.end(), len(text)
    while start < end:
        stop = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or end
        block = text[start:stop]
        if _CANONICAL_ROWS.fullmatch(block) is None:
            return None
        fields = block[:-1].replace("\n", ",").split(",")
        slot_fields = fields[::2]
        firsts = list(compress(count(), map(ne, slot_fields, chain((last_field,), slot_fields))))
        try:
            row_slots.extend(map(int, map(slot_fields.__getitem__, firsts)))
            row_starts += map(len(ports).__add__, firsts)
            ports += map(port_of.__getitem__, fields[1::2])
        except (ValueError, OverflowError):  # more digits than int() converts, or a slot an array('I') cannot hold
            return None
        last_field = slot_fields[-1]
        start = stop
    if not all(map(lt, row_slots, islice(row_slots, 1, None))):
        return None
    row_starts.append(len(ports))
    rows = map(tuple(ports).__getitem__, map(slice, row_starts, islice(row_starts, 1, None)))
    return ArrivalSequence._from_rows(row_slots[-1] + 1 if row_slots else 0, row_slots, rows)


def _parse_lines(path, text: str) -> ArrivalSequence:
    """Parse ``text`` line by line, raising ValueError naming ``path:line`` at the first error."""
    arrival_slots = array("I")
    rows: list[list[int]] = []
    header_seen = False
    for line_no, raw in enumerate(text.split("\n"), start=1):
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
            slot, port = read_number(parts[0].strip(), int), read_number(parts[1].strip(), int)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: non-integer field in {line!r}") from None
        if slot < 0 or port < 0:
            raise ValueError(f"{path}:{line_no}: negative field in {line!r}")
        if not SLOT.holds(slot):
            raise ValueError(f"{path}:{line_no}: slot {slot} is past {SLOT.high}, the last a sequence holds")
        if rows and slot <= arrival_slots[-1]:
            if slot < arrival_slots[-1]:
                raise ValueError(f"{path}:{line_no}: rows not sorted by slot")
            rows[-1].append(port)
        else:
            arrival_slots.append(slot)
            rows.append([port])
    if not header_seen:
        raise ValueError(f"{path}: missing {_SEQUENCE_HEADER!r} header")
    return ArrivalSequence._from_rows(arrival_slots[-1] + 1 if rows else 0, arrival_slots, map(tuple, rows))


_OUTCOMES_HEADER = "packet_slot,packet_pos,port,verdict"


def save_outcomes(path, result: RunResult) -> None:
    sequence = result.sequence
    # ``_value_`` is the plain attribute behind the ``Verdict.value`` descriptor
    values = map(attrgetter("_value_"), result.verdicts)
    # "pos,port,verdict\n", a line after its slot, by (pos, port, verdict value)
    line = _Memo(lambda key: f"{key[0]},{key[1]},{key[2]}\n").__getitem__
    with _open_output(path) as fh:
        write = fh.write
        write(f"{_OUTCOMES_HEADER}\n")
        for slot_index, row in zip(sequence.arrival_slots, sequence.rows):
            prefix = f"{slot_index},"
            # zip stops at the row's end before it takes a value past it
            write(prefix + prefix.join(map(line, zip(count(), row, values))))
