"""Seeded arrival-sequence generators.

Every generator is a pure function of its parameters: the same arguments
always produce the same sequence. Bursts larger than the per-slot aggregate
cap of ``num_ports`` packets are serialized over consecutive slots.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import ArrivalSequence, SwitchConfig

__all__ = [
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


def single_burst(config: SwitchConfig, burst_size: int) -> ArrivalSequence:
    """One burst of ``burst_size`` packets to port 0, arriving as fast as the model allows."""
    if burst_size < 1:
        raise ValueError(f"burst_size must be >= 1, got {burst_size}")
    slots = []
    remaining = burst_size
    while remaining:
        take = min(config.num_ports, remaining)
        slots.append([0] * take)
        remaining -= take
    return ArrivalSequence(slots)


def multi_burst_then_shorts(
    config: SwitchConfig, short_burst_size: Optional[int] = None
) -> ArrivalSequence:
    """Four simultaneous buffer-sized bursts to ports 0-3, then short bursts everywhere else.

    The four large bursts interleave at the per-slot cap so the buffer fills
    while they are still arriving; once they finish, every remaining port
    receives a short burst (default ``buffer_size // 8`` packets each). Needs
    at least five ports so that "everywhere else" is non-empty.
    """
    n = config.num_ports
    if n < 5:
        raise ValueError(f"multi_burst_then_shorts needs at least 5 ports, got {n}")
    if short_burst_size is None:
        short_burst_size = max(1, config.buffer_size // 8)
    if short_burst_size < 1:
        raise ValueError(f"short_burst_size must be >= 1, got {short_burst_size}")

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
    for _ in range(short_burst_size):
        slots.append(list(range(4, n)))
    return ArrivalSequence(slots)


def adversary_fill_slot_count(config: SwitchConfig) -> int:
    """Slots of ``num_ports`` packets needed to grow one queue to the full buffer."""
    return math.ceil((config.buffer_size - 1) / (config.num_ports - 1))


def followlqd_adversary_fill(config: SwitchConfig) -> ArrivalSequence:
    """The fill prefix of the adversarial pattern: hammer port 0 until its queue hits the buffer size."""
    if config.num_ports < 2:
        raise ValueError("the adversarial pattern needs at least 2 ports")
    if config.buffer_size < config.num_ports:
        raise ValueError("the adversarial pattern needs buffer_size >= num_ports")
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
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    fill = followlqd_adversary_fill(config)
    n = config.num_ports
    slots = list(fill.slots)
    for _ in range(cycles):
        slots.append(list(range(n)))
        slots.append([0] * n)
    return ArrivalSequence(slots)


def poisson_bursts(config: SwitchConfig, rate: float, horizon: int, seed: int) -> ArrivalSequence:
    """Buffer-sized bursts whose start times form a Poisson process.

    ``rate`` is the expected number of bursts per slot; each burst sends
    ``buffer_size`` packets to one uniformly chosen port. All pending burst
    packets share the per-slot cap first-come first-served; the excess spills
    into following slots, which may run past ``horizon``.
    """
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be positive and finite, got {rate}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = random.Random(seed)
    starts: list[tuple[int, int]] = []
    t = rng.expovariate(rate)
    while t < horizon:
        starts.append((int(t), rng.randrange(config.num_ports)))
        t += rng.expovariate(rate)

    slots: list[list[int]] = []
    backlog: deque[int] = deque()
    upcoming = 0
    slot = 0
    while upcoming < len(starts) or backlog:
        if not backlog and upcoming < len(starts) and starts[upcoming][0] > slot:
            # idle gap: emit empty slots up to the next burst
            while slot < starts[upcoming][0]:
                slots.append([])
                slot += 1
        while upcoming < len(starts) and starts[upcoming][0] <= slot:
            backlog.extend([starts[upcoming][1]] * config.buffer_size)
            upcoming += 1
        row = [backlog.popleft() for _ in range(min(config.num_ports, len(backlog)))]
        slots.append(row)
        slot += 1
    return ArrivalSequence(slots)


def uniform_random(config: SwitchConfig, load: float, horizon: int, seed: int) -> ArrivalSequence:
    """Independent per-port arrivals: each port receives a packet with probability ``load`` each slot."""
    if not 0.0 <= load <= 1.0:
        raise ValueError(f"load must be in [0, 1], got {load}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    rng = random.Random(seed)
    n = config.num_ports
    slots = [[port for port in range(n) if rng.random() < load] for _ in range(horizon)]
    return ArrivalSequence(slots)


# --- named workload specs for the CLI -----------------------------------------


@dataclass(frozen=True)
class WorkloadKind:
    """How one named workload is generated.

    ``params`` lists the generator's arguments after the switch config, in
    call order, as ``(name, type, required)``; an optional one left out is
    passed as ``None``. A seeded generator takes ``seed`` as its last argument.
    """

    generator: Callable[..., ArrivalSequence]
    params: tuple[tuple[str, type, bool], ...]
    seeded: bool = False


WORKLOADS = {
    "single_burst": WorkloadKind(single_burst, (("burst", int, True),)),
    "multi_burst_then_shorts": WorkloadKind(multi_burst_then_shorts, (("short_burst", int, False),)),
    "followlqd_adversary": WorkloadKind(followlqd_adversary, (("cycles", int, True),)),
    "poisson_bursts": WorkloadKind(poisson_bursts, (("rate", float, True), ("horizon", int, True)), seeded=True),
    "uniform_random": WorkloadKind(uniform_random, (("load", float, True), ("horizon", int, True)), seeded=True),
}
WORKLOAD_KINDS = tuple(WORKLOADS)


@dataclass
class WorkloadSpec:
    """A generator name plus its keyword parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in WORKLOADS:
            raise ValueError(f"unknown workload kind {self.kind!r}")


def generate(config: SwitchConfig, spec: WorkloadSpec) -> ArrivalSequence:
    kind = WORKLOADS[spec.kind]
    args = []
    for name, convert, required in kind.params:
        value = spec.params[name] if required else spec.params.get(name)
        args.append(None if value is None else convert(value))
    if kind.seeded:
        args.append(int(spec.params.get("seed", 0)))
    return kind.generator(config, *args)


def spec_comment(config: SwitchConfig, spec: WorkloadSpec) -> str:
    """Canonical one-line description embedded in generated trace files."""
    parts = [f"kind={spec.kind}", f"ports={config.num_ports}", f"buffer={config.buffer_size}"]
    for key in sorted(spec.params):
        parts.append(f"{key}={spec.params[key]}")
    return "spec: " + " ".join(parts)
