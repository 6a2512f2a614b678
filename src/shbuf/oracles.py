"""Drop-prediction oracles.

An oracle forecasts, for each arriving packet, whether a push-out
LongestQueueDrop instance serving the same arrival sequence would eventually
drop it; push-outs count as drops. A forecast is a drop flag, ``True`` for
dropped, as LQD's outcomes (``ground_truth_from_run``) and the learner's
labels are; ``PredictionLabel`` names the two flags. Packets are named by
their arrival index (0, 1, 2, ... in arrival order). Oracles are pure:
predicting never mutates simulation state, and two queries for the same
packet and features return the same flag.
``FeatureSampler`` records the features an oracle would see for every
arrival, under any policy.

An oracle that reads no features (``ConstantOracle``, ``PerfectOracle`` and
a ``FlipOracle`` of either) knows its whole answer before the run: a pure
function of the arrival index. It also gives that answer as one column,
``drops(count)``, a drop flag per arrival built with C-level iterators, and
``Credence`` reads the column instead of calling ``predict`` per arrival.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import repeat
from operator import gt, is_not, mul, ne
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Optional, Protocol, Sequence, Union

from .core import ArrivalSequence, Bound, RunResult, Verdict

if TYPE_CHECKING:
    from .core import SwitchConfig, SwitchState
    from .learner import ForestModel
    from .policies import Decision, Policy

__all__ = [
    "PredictionLabel",
    "FeatureVector",
    "FeatureTracker",
    "FeatureSampler",
    "Oracle",
    "ConstantOracle",
    "PerfectOracle",
    "FlipOracle",
    "FLIP_PROBABILITY",
    "ForestOracle",
    "ground_truth_from_run",
]


class PredictionLabel:
    """The two forecasts by name: ``POSITIVE``, "this packet will be dropped", is True.

    Kept for ``bench/shapes.py``, which builds ``ConstantOracle(PredictionLabel.NEGATIVE)``.
    """

    POSITIVE = True
    NEGATIVE = False


def _drop_flag(value) -> bool:
    """``value`` as a bool when it is a drop flag (True, False, 1 or 0); otherwise a ValueError."""
    if value not in (False, True):
        raise ValueError(f"a drop flag is True or False, got {value!r}")
    return bool(value)


_DROP_FLAGS = frozenset((False, True))


class FeatureVector(NamedTuple):
    """Switch statistics visible to a predictor at one arrival.

    Sampled before the accept/drop decision: the arriving port's queue
    length, the total buffer occupancy, and exponentially weighted moving
    averages of both.
    """

    queue_len: int
    queue_len_avg: float
    occupancy: int
    occupancy_avg: float


# builds a FeatureVector from one 4-tuple without the Python-level __new__
_new_features = partial(tuple.__new__, FeatureVector)


# weight of each new value in the moving averages: 2 / (window + 1) for a
# window of 16 slots, which stands in for one round-trip time of the modelled network
_EWMA_WEIGHT = 2 / 17


class FeatureTracker:
    """Maintains the moving averages behind ``FeatureVector``.

    Averages fold in the observed value at every arrival with weight
    ``_EWMA_WEIGHT``. When ``log`` is a list, every vector built is appended
    to it.
    """

    def __init__(self, num_ports: int) -> None:
        self.log: Optional[list[FeatureVector]] = None
        self._queue_avg = [0.0] * num_ports
        self._occupancy_avg = 0.0

    def on_arrival(self, port: int, state: "SwitchState") -> FeatureVector:
        """Fold the pre-decision state into the averages and return the features."""
        weight = _EWMA_WEIGHT
        queue_len = state.queue_len[port]
        occupancy = state.occupancy
        queue_avg = self._queue_avg[port] + weight * (queue_len - self._queue_avg[port])
        self._queue_avg[port] = queue_avg
        self._occupancy_avg += weight * (occupancy - self._occupancy_avg)
        features = _new_features((queue_len, queue_avg, occupancy, self._occupancy_avg))
        if self.log is not None:
            self.log.append(features)
        return features


class FeatureSampler:
    """Wraps any policy and records, in ``features[i]``, the features of
    arrival ``i`` sampled from the pre-decision state.

    A wrapped policy that builds features itself (Credence, through its
    ``features`` tracker, when its oracle reads them) logs them from that
    tracker, so each arrival's features are built once; for any other
    policy the sampler builds them.
    """

    def __init__(self, policy: "Policy") -> None:
        self.policy = policy
        self.name = policy.name
        # the wrapped policy's, for the per-port departure route (``Simulation.depart_port``)
        self.on_departure = policy.on_departure

    def reset(self, config: "SwitchConfig", sequence: ArrivalSequence) -> None:
        self.policy.reset(config, sequence)
        self.features: list[FeatureVector] = []
        tracker = getattr(self.policy, "features", None)
        if isinstance(tracker, FeatureTracker):
            self._tracker = None
        else:
            tracker = self._tracker = FeatureTracker(config.num_ports)
        tracker.log = self.features

    def on_arrival(self, port: int, index: int, state: "SwitchState") -> "Decision":
        if self._tracker is not None:
            self._tracker.on_arrival(port, state)
        return self.policy.on_arrival(port, index, state)


class Oracle(Protocol):
    """Contract shared by every oracle.

    ``reads_features`` says whether ``predict`` looks at its ``features``
    argument. When it is False, callers may pass None instead, and the
    oracle also has ``drops(count)``: the list of ``count`` drop flags whose
    entry ``i`` is ``predict(i, None)``.
    ``Credence`` builds no features for such an oracle and reads that column
    instead of asking ``predict``.
    """

    reads_features: bool

    def predict(self, index: int, features: Optional[FeatureVector]) -> bool:
        """True when one arriving packet is forecast to be dropped."""


class ConstantOracle:
    """Always returns the same drop flag; the degenerate ends of the error spectrum."""

    reads_features = False

    def __init__(self, label: bool) -> None:
        self.label = _drop_flag(label)

    def predict(self, index: int, features: Optional[FeatureVector]) -> bool:
        return self.label

    def drops(self, count: int) -> list[bool]:
        return [self.label] * count


def ground_truth_from_run(result: RunResult) -> dict[int, bool]:
    """Map every arrival index of a finished run to True when the packet was dropped or pushed out."""
    # a dict, not a list: bench/shapes.py's learn_n8 check calls ``.values()`` on it
    return dict(enumerate(_dropped(result)))


def _dropped(result: RunResult) -> Iterator[bool]:
    return map(is_not, result.verdicts, repeat(Verdict.TRANSMITTED))


def _uncovered(index: int) -> ValueError:
    return ValueError(
        f"packet {index} is not covered by the ground-truth trace; trace and arrival sequence do not match"
    )


class PerfectOracle:
    """Replays recorded per-packet outcomes, usually from a LongestQueueDrop run.

    ``truth`` holds one drop flag per arrival: a list indexed by arrival
    index, as ``from_run`` keeps it, or a mapping from arrival index, such
    as ``ground_truth_from_run``'s. ``predict`` returns the entry, and
    ``drops(count)`` is the list itself when it holds exactly ``count``
    entries. Both queries
    raise ``packet N is not covered ...`` for an arrival the truth lacks,
    ``drops`` for the first such one, and a negative index is never covered.
    The constructor refuses a truth with an entry that is not a drop flag,
    naming the first in index order, so no query ever reads one.
    """

    reads_features = False

    def __init__(self, truth: Union[Sequence[bool], Mapping[int, bool]]) -> None:
        is_mapping = isinstance(truth, Mapping)
        try:
            # one C-level pass; the loop below runs only to name an offender
            flags = _DROP_FLAGS.issuperset(truth.values() if is_mapping else truth)
        except TypeError:  # an unhashable entry
            flags = False
        if not flags:
            for index in sorted(truth) if is_mapping else range(len(truth)):
                _drop_flag(truth[index])
        self.truth = truth

    @classmethod
    def from_run(cls, result: RunResult) -> "PerfectOracle":
        # a list costs about 10 ns a packet to build, ``ground_truth_from_run``'s dict 53
        return cls(list(_dropped(result)))

    def predict(self, index: int, features: Optional[FeatureVector]) -> bool:
        # a list would wrap a negative index
        if index >= 0:
            try:
                return self.truth[index]
            except (KeyError, IndexError):
                pass
        raise _uncovered(index)

    def drops(self, count: int) -> Sequence[bool]:
        truth = self.truth
        if isinstance(truth, Mapping):
            try:
                return list(map(truth.__getitem__, range(count)))
            except KeyError:
                raise _uncovered(next(index for index in range(count) if index not in truth)) from None
        if len(truth) < count:
            raise _uncovered(len(truth))
        return truth if len(truth) == count else truth[:count]


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer; avalanches every input bit across the output
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


# the coins pack many 64-bit values into one int, one per 16-byte lane,
# little-endian: a lane has room for the 128-bit product of its value and a
# 64-bit constant, so a multiply never carries into the next lane
_LANE = 16
_LANE_MASK = b"\xff" * 8 + bytes(8)
# slots with arrivals per chunk; bounds the packed ints, and so the memory a
# chunk holds, to a few tens of kilobytes on dense traces
_CHUNK_SLOTS = 256
# a chunk's slot keys, one bytes object each; a short chunk's are padded
# with zero lanes to the full width
_SPLIT_LANES = struct.Struct(f"{_LANE}s" * _CHUNK_SLOTS)


def _mix_lanes(x: int, mask: int) -> int:
    """``_mix64`` of every lane of ``x``; ``mask`` covers at least as many
    lanes, each with its low 64 bits set."""
    # a right shift leaves the next lane's low bits in a lane's upper half,
    # so every multiply's operand is masked back to 64 bits first
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (x ^ (x >> 31)) & mask


def _flip_draws(seed: int, sequence: ArrivalSequence) -> Iterator[float]:
    """Yield one draw in [0, 1) per arrival of ``sequence``, in arrival order.

    The draw of the packet at position ``pos`` of slot ``slot`` is
    ``mix(mix(mix(seed) ^ slot·G1) ^ pos·G2) / 2**64``, where ``mix`` is the
    splitmix64 finalizer ``_mix64``, ``G1`` and ``G2`` are
    0x9E3779B97F4A7C15 and 0xC2B2AE3D27D4EB4F, and the seed and each product
    are taken modulo 2**64. The draws are computed ``_CHUNK_SLOTS`` slots
    with arrivals at a time, each ``mix`` as a few operations on one int
    that packs a 64-bit value per 16-byte lane: first every slot's key, then
    every packet's draw, from its slot's key repeated once per packet of the
    row and XORed with a table of ``pos·G2`` that grows with the widest row
    seen.
    """
    seed_lane = _mix64(seed & _MASK64).to_bytes(_LANE, "little")
    arrival_slots, slot_rows = sequence.arrival_slots, sequence.rows
    mask, mask_lanes = 0, 0
    # positions[w] is the position table's first w lanes
    positions = [b""]
    for start in range(0, len(arrival_slots), _CHUNK_SLOTS):
        chunk = arrival_slots[start:start + _CHUNK_SLOTS]
        widths = list(map(len, slot_rows[start:start + _CHUNK_SLOTS]))
        widest = max(widths)
        if widest >= len(positions):
            table = memoryview(
                b"".join((pos * 0xC2B2AE3D27D4EB4F & _MASK64).to_bytes(_LANE, "little") for pos in range(widest))
            )
            positions = [table[:_LANE * width] for width in range(widest + 1)]
        lanes = sum(widths)
        if lanes > mask_lanes:
            mask, mask_lanes = int.from_bytes(_LANE_MASK * lanes, "little"), lanes
        slot_lanes = int.from_bytes(b"".join(map(int.to_bytes, chunk, repeat(_LANE), repeat("little"))), "little")
        seed_lanes = int.from_bytes(seed_lane * len(chunk), "little")
        keys = _mix_lanes((slot_lanes * 0x9E3779B97F4A7C15 & mask) ^ seed_lanes, mask)
        # each slot's key once per packet of its row; map stops at the chunk's
        # last width, before any padding
        rows = b"".join(map(mul, _SPLIT_LANES.unpack(keys.to_bytes(_LANE * _CHUNK_SLOTS, "little")), widths))
        row_positions = b"".join(map(positions.__getitem__, widths))
        inputs = int.from_bytes(rows, "little") ^ int.from_bytes(row_positions, "little")
        # every lane's upper word is zero
        values = struct.unpack(f"<{2 * lanes}Q", _mix_lanes(inputs, mask).to_bytes(_LANE * lanes, "little"))[::2]
        # scaling by a power of two is exact: value * 2**-64 == value / 2**64
        yield from map(mul, values, repeat(2.0**-64))


FLIP_PROBABILITY = Bound("flip probability", float, 0, 1)


class FlipOracle:
    """Inverts a base oracle's forecast with probability ``p``, per packet.

    The coin for each packet of ``sequence`` is a pure function of
    ``(seed, slot, pos)``, tossed up front into ``flips[i]`` for arrival
    ``i``, so the set of flipped packets does not depend on query order or
    on how often a packet is queried, and sweeps over ``p`` stay comparable
    across policies. It reads features when ``base`` does; when it does not,
    ``drops(count)`` gives its whole answer as the base's column with every
    flipped entry inverted, and ``Credence`` reads that column. The coins are
    ``_flip_draws``': a chunk of slots at a time, each splitmix64 step is a
    few operations on one int packing a 64-bit lane per packet, so tossing
    costs about a third of a per-packet loop and loads no numpy. ``predict``
    raises ``packet N is not covered ...`` for an arrival without a coin, a
    negative index included.

    ``FlipOracle.from_draws(base, p, draws)`` builds the same oracle from
    the coins' uniform draws (``list(oracles._flip_draws(seed, sequence))``),
    so a sweep over ``p`` draws each sequence's coins once; arrival ``i`` is
    flipped when ``draws[i] < p``, the comparison this constructor makes.
    """

    def __init__(self, base: Oracle, p: float, seed: int, sequence: ArrivalSequence) -> None:
        self._bind(base, p, _flip_draws(seed, sequence))

    @classmethod
    def from_draws(cls, base: Oracle, p: float, draws: Iterable[float]) -> "FlipOracle":
        oracle = cls.__new__(cls)
        oracle._bind(base, p, draws)
        return oracle

    def _bind(self, base: Oracle, p: float, draws: Iterable[float]) -> None:
        FLIP_PROBABILITY.check(p)
        self.base = base
        self.reads_features = base.reads_features
        # bound once: the base is asked on every query
        self._base_predict = base.predict
        self.flips: list[bool] = list(map(gt, repeat(p), draws))

    def predict(self, index: int, features: Optional[FeatureVector]) -> bool:
        if 0 <= index < len(self.flips):
            return self._base_predict(index, features) != self.flips[index]
        raise _uncovered(index)

    def drops(self, count: int) -> list[bool]:
        """The base's column with each flipped entry inverted; shorter than
        ``count`` when ``flips`` is, which ``Credence`` refuses."""
        return list(map(ne, self.base.drops(count), self.flips))


class ForestOracle:
    """Forecasts drops with a trained decision-tree ensemble over the features."""

    reads_features = True

    def __init__(self, model: "ForestModel") -> None:
        self.model = model
        # bound once: the model is asked on every query
        self._predict_one = model.predict_one

    def predict(self, index: int, features: FeatureVector) -> bool:
        return self._predict_one(features)
