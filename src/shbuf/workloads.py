"""Seeded arrival-sequence generators.

Every generator is a pure function of its parameters: the same arguments
always produce the same sequence. Bursts larger than the per-slot aggregate
cap of ``num_ports`` packets are serialized over consecutive slots.

A seeded generator draws from one ``random.Random(seed)``, in an order that
is part of its contract: a trace file made from the same arguments stays the
same byte for byte as long as the order does.

- ``uniform_random`` takes ``num_ports * horizon`` draws of ``random()``,
  slot by slot and, within a slot, port by port from port 0. Port ``p``
  receives a packet in slot ``t`` when draw ``t * num_ports + p`` is below
  ``load``.
- ``poisson_bursts`` takes ``expovariate(rate)`` for the first burst start,
  then, for each start below ``horizon``, ``randrange(num_ports)`` for its
  port and ``expovariate(rate)`` for the gap to the next start. The draw
  that reaches ``horizon`` is the last.

The other generators draw nothing.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import compress, repeat, starmap
from operator import gt
from typing import Callable, Optional

from .core import SLOT, ArrivalSequence, Bound, SwitchConfig, _Memo

__all__ = [
    "BURST",
    "SHORT_BURST",
    "CYCLES",
    "RATE",
    "HORIZON",
    "LOAD",
    "WorkloadKind",
    "WorkloadSpec",
    "WORKLOADS",
    "WORKLOAD_KINDS",
    "generate",
    "spec_comment",
    "single_burst",
    "multi_burst_then_shorts",
    "followlqd_adversary",
    "followlqd_adversary_fill",
    "adversary_fill_slot_count",
    "poisson_bursts",
    "uniform_random",
]

# the range of each generator parameter
BURST = Bound("burst", int, 1)
SHORT_BURST = Bound("short_burst", int, 1)
CYCLES = Bound("cycles", int, 1)
RATE = Bound("rate", float, 0, strict=True)
HORIZON = Bound("horizon", int, 1)
LOAD = Bound("load", float, 0, 1)


def single_burst(config: SwitchConfig, burst: int) -> ArrivalSequence:
    """One burst of ``burst`` packets to port 0, arriving as fast as the model allows."""
    BURST.check(burst)
    slots = []
    remaining = burst
    while remaining:
        take = min(config.num_ports, remaining)
        slots.append([0] * take)
        remaining -= take
    return ArrivalSequence(slots)


def multi_burst_then_shorts(config: SwitchConfig, short_burst: Optional[int] = None) -> ArrivalSequence:
    """Four simultaneous buffer-sized bursts to ports 0-3, then short bursts everywhere else.

    The four large bursts interleave at the per-slot cap so the buffer fills
    while they are still arriving; once they finish, every remaining port
    receives a short burst (default ``buffer_size // 8`` packets each). Needs
    at least five ports so that "everywhere else" is non-empty.
    """
    n = config.num_ports
    if n < 5:
        raise ValueError(f"multi_burst_then_shorts needs at least 5 ports, got {n}")
    if short_burst is None:
        short_burst = max(1, config.buffer_size // 8)
    SHORT_BURST.check(short_burst)

    slots: list[list[int]] = []
    remaining = {port: config.buffer_size for port in range(4)}
    while any(remaining.values()):
        row: list[int] = []
        while len(row) < n and any(remaining.values()):
            for port in range(4):
                if remaining[port]:
                    row.append(port)
                    remaining[port] -= 1
                    if len(row) == n:
                        break
        slots.append(row)
    for _ in range(short_burst):
        slots.append(list(range(4, n)))
    return ArrivalSequence(slots)


def adversary_fill_slot_count(config: SwitchConfig) -> int:
    """Slots of ``num_ports`` packets needed to grow one queue to the full buffer."""
    if config.num_ports < 2:
        raise ValueError("the adversarial pattern needs at least 2 ports")
    if config.buffer_size < config.num_ports:
        raise ValueError("the adversarial pattern needs buffer_size >= num_ports")
    return math.ceil((config.buffer_size - 1) / (config.num_ports - 1))


def followlqd_adversary_fill(config: SwitchConfig) -> ArrivalSequence:
    """The fill prefix of the adversarial pattern: hammer port 0 until its queue hits the buffer size."""
    n = config.num_ports
    return ArrivalSequence([[0] * n for _ in range(adversary_fill_slot_count(config))])


def followlqd_adversary(config: SwitchConfig, cycles: int) -> ArrivalSequence:
    """Worst-case pattern for threshold-following drop-tail policies.

    After filling queue 0 to the buffer size, each cycle sends one slot with
    one packet per port (forcing the mirrored thresholds to redistribute away
    from queue 0) followed by one slot with ``num_ports`` packets back to
    queue 0 (restoring them). A threshold follower accepts exactly two
    packets per cycle while a clairvoyant schedule accepts ``num_ports + 1``.
    """
    CYCLES.check(cycles)
    n = config.num_ports
    slots = [[0] * n for _ in range(adversary_fill_slot_count(config))]
    for _ in range(cycles):
        slots.append(list(range(n)))
        slots.append([0] * n)
    return ArrivalSequence(slots)


def poisson_bursts(config: SwitchConfig, rate: float, horizon: int, seed: int) -> ArrivalSequence:
    """Buffer-sized bursts whose start times form a Poisson process.

    ``rate`` is the expected number of bursts per slot; each burst sends
    ``buffer_size`` packets to one uniformly chosen port. All pending burst
    packets share the per-slot cap first-come first-served; the excess spills
    into following slots, which may run past ``horizon``, but not past
    ``core.SLOT``: a sequence that would is a ValueError.
    """
    RATE.check(rate)
    HORIZON.check(horizon)
    rng = random.Random(seed)
    n, b = config.num_ports, config.buffer_size
    bursts: deque[tuple[int, int]] = deque()  # (start slot, port), in start order
    t = rng.expovariate(rate)
    while t < horizon:
        bursts.append((int(t), rng.randrange(n)))
        t += rng.expovariate(rate)

    arrival_slots = array("I")
    rows: list[tuple[int, ...]] = []
    slot = 0  # the first slot not yet filled
    runs: deque[list[int]] = deque()  # pending bursts as [port, packets left], first come first served
    while bursts or runs:
        if not runs and bursts[0][0] > slot:
            slot = bursts[0][0]  # skip the idle gap
        while bursts and bursts[0][0] <= slot:
            runs.append([bursts.popleft()[1], b])
        head = runs[0]
        if head[1] >= n:
            # the head burst fills whole rows whatever starts behind it, all one tuple
            filled, head[1] = divmod(head[1], n)
            new_rows = repeat((head[0],) * n, filled)
            if not head[1]:
                runs.popleft()
        else:
            row: list[int] = []
            while runs and len(row) < n:
                run = runs[0]
                take = min(run[1], n - len(row))
                row += [run[0]] * take
                run[1] -= take
                if not run[1]:
                    runs.popleft()
            filled, new_rows = 1, (tuple(row),)
        if not SLOT.holds(slot + filled - 1):
            raise ValueError(f"poisson_bursts needs slot {slot + filled - 1}; a sequence holds slots up to {SLOT.high}")
        arrival_slots.extend(range(slot, slot + filled))
        rows += new_rows
        slot += filled
    return ArrivalSequence._from_rows(slot, arrival_slots, rows)


def uniform_random(config: SwitchConfig, load: float, horizon: int, seed: int) -> ArrivalSequence:
    """Independent per-port arrivals: each port receives a packet with probability ``load`` each slot."""
    LOAD.check(load)
    HORIZON.check(horizon)
    rng = random.Random(seed)
    n = config.num_ports
    # ``load > draw`` is ``draw < load`` for a float, int or Fraction load
    hits = map(gt, repeat(load), starmap(rng.random, repeat((), n * horizon)))
    # each slot's n-tuple of hits to its ports, made once per distinct tuple;
    # the sequence keeps the non-empty ones as its rows, shared, not copied
    ports = _Memo(lambda mask: tuple(compress(range(n), mask)))
    return ArrivalSequence(list(map(ports.__getitem__, zip(*[hits] * n))))


# --- named workload specs for the CLI -----------------------------------------


@dataclass(frozen=True)
class WorkloadKind:
    """How one named workload is generated.

    ``params`` lists the generator's arguments after the switch config, in
    call order, as ``(name, required)``; an optional one left out is passed
    as ``None``. A seeded generator takes ``seed`` as its last argument.
    """

    generator: Callable[..., ArrivalSequence]
    params: tuple[tuple[str, bool], ...]
    seeded: bool = False


WORKLOADS = {
    "single_burst": WorkloadKind(single_burst, (("burst", True),)),
    "multi_burst_then_shorts": WorkloadKind(multi_burst_then_shorts, (("short_burst", False),)),
    "followlqd_adversary": WorkloadKind(followlqd_adversary, (("cycles", True),)),
    "poisson_bursts": WorkloadKind(poisson_bursts, (("rate", True), ("horizon", True)), seeded=True),
    "uniform_random": WorkloadKind(uniform_random, (("load", True), ("horizon", True)), seeded=True),
}
WORKLOAD_KINDS = tuple(WORKLOADS)


@dataclass
class WorkloadSpec:
    """A generator name plus its parameters, typed as the generator takes them."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in WORKLOADS:
            raise ValueError(f"unknown workload kind {self.kind!r}")


def generate(config: SwitchConfig, spec: WorkloadSpec) -> ArrivalSequence:
    kind = WORKLOADS[spec.kind]
    args = [spec.params[name] if required else spec.params.get(name) for name, required in kind.params]
    if kind.seeded:
        args.append(spec.params.get("seed", 0))
    return kind.generator(config, *args)


def spec_comment(config: SwitchConfig, spec: WorkloadSpec) -> str:
    """Canonical one-line description embedded in generated trace files."""
    parts = [f"kind={spec.kind}", f"ports={config.num_ports}", f"buffer={config.buffer_size}"]
    for key in sorted(spec.params):
        parts.append(f"{key}={spec.params[key]}")
    return "spec: " + " ".join(parts)
