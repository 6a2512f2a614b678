"""Drop-predictor training and evaluation.

Collects per-packet feature/label traces from LongestQueueDrop runs, trains a
small bagged ensemble of depth-limited decision trees on them, and computes
the usual binary-classification scores. The trainer is written for exact
reproducibility: given the same examples and seed it produces byte-identical
model files, with Gini ties broken toward the lower feature index and then
the lower threshold. A tree is one flat tuple, its nodes in preorder, from
the trainer to the compiled model; only the model file nests it. Each tree
is grown over three (features x examples)
blocks, example indices, values and labels, whose row ``f`` holds the
bootstrap sample in stable sorted order of feature ``f``. A node owns the
same column range of every row, and its split is found in one pass over all
rows: the first least cost in the row-major flattening is the one that tie
rule picks. A model compiles each of its trees into a small Python function
of nested comparisons when it is made, and predicts through one compiled
decision that runs the trees in index order and stops as soon as the
majority is settled. Before the trees run, it turns each feature that is
exactly an ``int`` within ±2**53 into the equal ``float``, so that its tests
against float thresholds compare two floats; such ints are exact as floats,
and the result is the same as comparing the int. numpy is imported only by
the functions that train and split, so importing the package does not load
it.

The trees of a forest are independent once their bootstrap samples are
drawn, so a large enough training on a Linux host that offers this process
two CPUs grows them in two processes (``_fork.map_in_two_processes``): a
forked child grows the odd-indexed trees and sends back their node lists as
they are, while the parent grows the even-indexed ones. The model is the
same either way.

A label, like every forecast, is a drop flag (``True`` = dropped), and
``ConfusionCounts.count`` is the one tally of forecasts against labels,
here and in the error ratio (``analysis.compute_eta``).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence

from . import _fork
from .core import (
    ArrivalSequence, Bound, SwitchConfig, _utf8_errors_name, _write_lines, read_number, run_simulation,
)
from .oracles import FeatureSampler, FeatureVector, _drop_flag, _dropped
from .policies import LongestQueueDrop

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LabeledExample",
    "ForestModel",
    "ConfusionCounts",
    "EvalMetrics",
    "collect_trace",
    "train_forest",
    "split_examples",
    "evaluate",
    "evaluate_on",
    "tree_count_sweep",
    "save_forest",
    "load_forest",
    "save_examples",
    "load_examples",
    "MODEL_FORMAT_VERSION",
    "MAX_TREES",
    "TREES",
    "MAX_DEPTH",
    "SPLIT",
]

MODEL_FORMAT_VERSION = 1
MAX_TREES = 16
TREES = Bound("trees", int, 1, MAX_TREES)
MAX_DEPTH = Bound("max_depth", int, 1)
SPLIT = Bound("split", float, 0, 1, strict=True)
_FEATURE_COUNT = len(FeatureVector._fields)


class LabeledExample(NamedTuple):
    features: FeatureVector
    label: bool  # True when LQD dropped the packet


# builds a LabeledExample from one (features, label) pair without the Python-level __new__
_new_example = partial(tuple.__new__, LabeledExample)


def collect_trace(config: SwitchConfig, sequence: ArrivalSequence) -> list[LabeledExample]:
    """Run LongestQueueDrop over ``sequence`` and label every arrival.

    Features are sampled at arrival time, before the accept decision; labels
    are the packet's final fate (push-outs resolved after the run), so the
    trace has exactly one example per packet of the sequence.
    """
    sampler = FeatureSampler(LongestQueueDrop())
    result = run_simulation(config, sequence, sampler)
    return list(map(_new_example, zip(sampler.features, _dropped(result))))


# --- decision trees ----------------------------------------------------------

# A tree is a tuple of its nodes in preorder. A split is the pair
# ``(feature_index, threshold)``, followed by its left subtree and then its
# right one; an example goes left when its feature is <= the threshold. A leaf
# is the int label, 1 for a predicted drop. The trainer, the compiled model,
# pickle and equality all read this one list; only the model file nests.


def _leaf(positives: int, total: int) -> int:
    # majority label; ties fall to the negative (accept) side
    return 1 if 2 * positives > total else 0


def _split_node(
    block: tuple[np.ndarray, np.ndarray, np.ndarray],
    lo: int,
    hi: int,
    positives: int,
    children_are_leaves: bool,
    goes_left: np.ndarray,
) -> Optional[tuple[int, float, int, int]]:
    """Split the node that holds ``[lo, hi)`` at its least weighted Gini impurity.

    Returns ``(feature, threshold, middle, left positives)``, where the left
    child holds ``[lo, middle)``, or None when no feature varies. Every
    candidate of every feature is scored at once: the boundaries between
    adjacent distinct values are the nonzero positions of the row-major
    flattened comparison of the node's value block, and the first least cost
    among them belongs to the lowest feature and then to the lowest
    boundary. That is the tie rule of scoring one feature at a time, taking
    its first least cost, and moving to a later feature only when it costs
    strictly less. The cost is half the weighted Gini impurity,
    ``sum(pos * (n - pos) / n)`` over the two children, with each numerator
    an exact int64 product; halving every cost changes no comparison. Then
    every row's range is partitioned stably, left examples first, unless the
    children are leaves, which need only their counts. Its arrays are freed
    on return, before the children grow.
    """
    import numpy as np

    ids, values, labels = block
    total = hi - lo
    width = total - 1
    node = values[:, lo:hi]
    candidates = (node[:, :-1] < node[:, 1:]).ravel().nonzero()[0]
    if candidates.size == 0:
        return None
    left_pos = labels[:, lo : hi - 1].cumsum(axis=1, dtype=np.int64).ravel().take(candidates)
    left_n = candidates % width + 1
    right_n = total - left_n
    right_pos = positives - left_pos
    cost = left_pos * (left_n - left_pos) / left_n + right_pos * (right_n - right_pos) / right_n
    feature, at = divmod(int(candidates[int(cost.argmin())]), width)
    row = values[feature]
    threshold = float((row[lo + at] + row[lo + at + 1]) / 2.0)
    if children_are_leaves:
        # the midpoint of two adjacent doubles can round up to the larger one, so
        # the split is found by searching for the threshold, not taken from the
        # boundary between the two values
        middle = lo + int(row[lo:hi].searchsorted(threshold, side="right"))
    else:
        goes_left[ids[feature, lo:hi]] = row[lo:hi] <= threshold
        mask = goes_left[ids[:, lo:hi]]
        # row by row: one take over the flattened block makes temporaries four
        # times as large, and big nodes slower
        for index in range(len(mask)):
            # positions then take(): much faster than boolean indexing on a scattered mask
            left_at = mask[index].nonzero()[0]
            order = np.concatenate((left_at, (~mask[index]).nonzero()[0]))
            for rows in block:
                rows[index, lo:hi] = rows[index, lo:hi].take(order)
        middle = lo + left_at.size
    # the left examples come first in ``labels`` either way
    return feature, threshold, middle, int(labels[feature, lo:middle].sum(dtype=np.int64))


def _grow_tree(
    block: tuple[np.ndarray, np.ndarray, np.ndarray],
    lo: int,
    hi: int,
    positives: int,
    depth_left: int,
    goes_left: np.ndarray,
    nodes: list,
) -> None:
    """Append, in preorder, a subtree over the node that holds columns ``[lo, hi)`` of every row.

    ``nodes`` is the tree's node list. ``block`` holds one tree's example indices, feature values and labels,
    each a (features x samples) array whose row ``f`` lists the bootstrap
    sample in stable sorted order of feature ``f``. A split partitions every
    row's range stably, left examples first, which keeps that order, so each
    range equals a stable ``argsort`` of the node's own sample and every
    split is computed exactly as if the node were sorted afresh. An example
    drawn twice has the same values in both places, so ``goes_left``, a
    reusable mask over the example indices, sends both copies the same way.
    """
    total = hi - lo
    split = None
    if positives != 0 and positives != total and depth_left != 0:
        split = _split_node(block, lo, hi, positives, depth_left == 1, goes_left)
    if split is None:
        nodes.append(_leaf(positives, total))
        return
    feature, threshold, middle, left_positives = split
    nodes.append((feature, threshold))
    _grow_tree(block, lo, middle, left_positives, depth_left - 1, goes_left, nodes)
    _grow_tree(block, middle, hi, positives - left_positives, depth_left - 1, goes_left, nodes)


# CPython's parser allows 100 indentation levels; deeper left spines move into helper functions
_MAX_NESTING = 48


def _threshold_source(threshold) -> Optional[str]:
    """A literal that compares exactly as ``threshold`` does; None for NaN, which nothing is <=."""
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ValueError(f"threshold must be a number, got {threshold!r}")
    if isinstance(threshold, int):
        return repr(int(threshold))
    value = float(threshold)
    if math.isnan(value):
        return None
    if math.isinf(value):
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


def _tree_source(index: int, tree: tuple, feature_count: int, max_depth: int) -> str:
    """Tree ``index`` as Python functions of ``x0, x1, ...`` that return its leaf, the first named ``tree<index>``.

    The left branch of each test returns, so the right one follows it
    unindented; only left turns nest, and a spine deeper than
    ``_MAX_NESTING`` continues in a helper function. Each node takes the
    place of the subtree on top of a stack of pending ones, which holds the
    indent, the level (splits above it) and the lines it is written to; a
    NaN test sends nothing left, so its left subtree is checked but not
    written. Every node, the depth bound and the shape of the list are
    checked on the way.
    """
    name = f"tree{index}"
    params = ", ".join(f"x{feature}" for feature in range(feature_count))
    functions: list[list[str]] = []

    def function(function_name: str) -> list[str]:
        functions.append([f"def {function_name}({params}):"])
        return functions[-1]

    pending: list = [(1, 0, function(name))]
    for node in tree:
        if not pending:
            raise ValueError(f"tree {index} has nodes past its last leaf")
        depth, level, lines = pending.pop()
        if not isinstance(node, tuple):
            if isinstance(node, bool) or not isinstance(node, int) or node not in (0, 1):
                raise ValueError(f"leaf label must be the integer 0 or 1, got {node!r}")
            if lines is not None:
                lines.append(f"{'    ' * depth}return {int(node)}")
            continue
        if len(node) != 2:
            raise ValueError(f"a split is a (feature_index, threshold) pair, got {node!r}")
        feature, threshold = node
        if isinstance(feature, bool) or not isinstance(feature, int):
            raise ValueError(f"feature_index must be an integer, got {feature!r}")
        if not 0 <= feature < feature_count:
            raise ValueError(f"feature_index {feature} outside [0, {feature_count})")
        bound = _threshold_source(threshold)
        if level >= max_depth:
            raise ValueError(f"tree {index} is deeper than max_depth {max_depth}")
        if lines is not None and depth > _MAX_NESTING:
            helper = f"{name}_{len(functions)}"
            lines.append(f"{'    ' * depth}return {helper}({params})")
            depth, lines = 1, function(helper)
        # the left subtree's nodes come first, so it goes on top
        pending.append((depth, level + 1, lines))
        if bound is not None and lines is not None:
            lines.append(f"{'    ' * depth}if x{int(feature)} <= {bound}:")
            pending.append((depth + 1, level + 1, lines))
        else:
            pending.append((depth, level + 1, None))
    if pending:
        raise ValueError(f"tree {index} ends before its last leaf")
    return "\n\n".join(map("\n".join, functions))


# ints in [-2**53, 2**53] are exact as floats, so converting them changes no comparison
_EXACT_INT = 2**53


def _compile_decide(trees: Sequence[tuple], feature_count: int, max_depth: int) -> Callable[[Sequence[float]], bool]:
    """Compile ``decide(features)``: True when a strict majority of ``trees`` predicts a drop.

    Each tree becomes its own small function of nested ``if`` tests, compiled
    separately so that the compiler never holds the whole forest at once.
    ``decide`` turns exact ints into floats as ``ForestModel`` describes, then
    runs the trees in index order and returns after the first one that
    settles the majority. Each function is taken out of the namespace it was
    defined in, so no function and namespace refer to each other and a
    dropped model is freed at once rather than by the cycle collector.
    """
    namespace: dict = {}
    for index, tree in enumerate(trees):
        scope: dict = {}
        exec(compile(_tree_source(index, tree, feature_count, max_depth), f"<forest tree {index}>", "exec"), scope)
        namespace[f"tree{index}"] = scope.pop(f"tree{index}")
    params = ", ".join(f"x{index}" for index in range(feature_count))
    lines = ["def decide(features):"]
    if feature_count:
        lines.append(f"    {params}, = features")
    for index in range(feature_count):
        lines.append(f"    if x{index}.__class__ is int and {-_EXACT_INT} <= x{index} <= {_EXACT_INT}:")
        lines.append(f"        x{index} = float(x{index})")
    count = len(trees)
    half = count // 2
    lines.append("    votes = 0")
    for index in range(count):
        lines.append(f"    votes += tree{index}({params})")
        # drop once a strict majority is in; accept once the trees left cannot make one
        done, left = index + 1, count - index - 1
        if done > half:
            lines.append(f"    if votes > {half}:\n        return True")
        if left <= half:
            lines.append(f"    if votes <= {half - left}:\n        return False")
    lines.append("    return False")
    exec(compile("\n".join(lines) + "\n", "<forest decide>", "exec"), namespace)
    return namespace.pop("decide")


@dataclass(frozen=True)
class ForestModel:
    """Bagged ensemble of depth-limited trees over the four switch features.

    ``trees`` is kept as a tuple of trees, each the tuple of its nodes in
    preorder, so the model hashes, compares, prints and pickles without
    recursion however deep its trees are. Each tree is checked (its nodes,
    its shape and its depth against ``max_depth``) and the forest compiled
    into one decision function when the model is made; the model is frozen,
    so the two never disagree. A
    strict majority of drop votes predicts a drop and a tie accepts. The
    decision stops at the first tree after which the majority is settled:
    a drop once the drop votes exceed half the trees, an accept once the
    trees left cannot get them there. Before the trees run, each feature
    whose class is exactly ``int`` and that lies within ±2**53 becomes the
    equal float, so a float threshold is compared with a float; bools,
    larger ints and other numbers keep their own exact comparisons. Both
    steps give the answer that running every tree on the features as given
    would.
    """

    trees: tuple[tuple, ...]
    max_depth: int
    feature_count: int
    _decide: Callable[[Sequence[float]], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        trees = tuple(map(tuple, self.trees))
        object.__setattr__(self, "trees", trees)
        object.__setattr__(self, "_decide", _compile_decide(trees, self.feature_count, self.max_depth))

    def __reduce__(self):
        # a compiled function does not pickle, so the model is made again on load
        return (ForestModel, (self.trees, self.max_depth, self.feature_count))

    def predict_one(self, features: Sequence[float]) -> bool:
        """True when a strict majority of the trees predicts a drop for ``features``."""
        if len(features) != self.feature_count:
            raise ValueError(
                f"expected {self.feature_count} features, got {len(features)}"
            )
        return self._decide(features)


def _as_arrays(examples: Sequence[LabeledExample]) -> tuple[np.ndarray, np.ndarray]:
    """The examples as a (features x examples) float64 block and an int8 label (1 = drop) per example."""
    import numpy as np

    features = list(map(itemgetter(0), examples))
    width = len(features[0])
    if set(map(len, features)) != {width}:
        raise ValueError("examples have inconsistent feature arity")
    X = np.fromiter(chain.from_iterable(features), dtype=np.float64, count=len(features) * width)
    y = np.fromiter(map(itemgetter(1), examples), dtype=np.int8, count=len(examples))
    return X.reshape(len(features), width).T.copy(), y


def train_forest(
    examples: Sequence[LabeledExample],
    trees: int = 4,
    max_depth: int = 4,
    seed: int = 0,
) -> ForestModel:
    """Train ``trees`` bagged trees of depth at most ``max_depth``.

    Each tree sees a bootstrap resample (with replacement, same size) of the
    examples; splits greedily minimise Gini impurity over axis-aligned
    thresholds placed at midpoints of consecutive distinct feature values.
    Deterministic for a fixed seed; trees are assembled in index order.

    Every tree's sample is drawn first, in index order, and the trees are
    independent after that. Where Linux lets this process run on two CPUs,
    no other Python thread exists, and there are at least two trees and
    enough examples x trees to pay for a fork, a forked child grows the
    odd-indexed trees while this process grows the even-indexed ones, and
    its node lists are put back in index order. Each tree is grown by the
    same code from the same sample on either route, so the model is the
    same.
    """
    if not examples:
        raise ValueError("cannot train on an empty example list")
    TREES.check(trees)
    MAX_DEPTH.check(max_depth)
    import numpy as np

    columns, y = _as_arrays(examples)
    # dense ranks of each feature's values (-0.0 equal to 0.0, NaN last) sort
    # stably exactly as the values do, and numpy radix-sorts ranks that fit in
    # 16 bits, as they do for up to 65,535 examples; the blocks are built with
    # np.array and reshape, not np.stack, so examples without features still
    # give (0 x examples) blocks and one-leaf trees
    ranks = np.array(
        [np.unique(column, return_inverse=True)[1] for column in columns],
        dtype=np.min_scalar_type(len(y)),
    ).reshape(columns.shape)
    rng = np.random.Generator(np.random.PCG64(seed))
    # every sample is drawn before any tree grows, in tree order, so each tree
    # gets the sample it would get if the trees were grown one after another
    samples = [rng.integers(0, len(y), size=len(y)) for _ in range(trees)]
    goes_left = np.zeros(len(y), dtype=bool)

    def grow(sample: np.ndarray) -> list:
        ids = sample.take(ranks.take(sample, axis=1).argsort(axis=1, kind="stable"))
        labels = y.take(ids)
        values = np.array([column.take(row) for column, row in zip(columns, ids)]).reshape(ids.shape)
        positives = int(y.take(sample).sum(dtype=np.int64))
        nodes: list = []
        _grow_tree((ids, values, labels), 0, len(sample), positives, max_depth, goes_left, nodes)
        return nodes

    if _fork.forks(trees * len(y), _FORK_BREAK_EVEN):
        grown = _fork.map_in_two_processes(grow, samples)
    else:
        grown = map(grow, samples)
    return ForestModel(grown, max_depth, len(columns))


# examples x trees from which growing half the trees in a forked child pays for
# the fork, which costs about 3 ms in a 50 MB process. On a shared 2-CPU host
# (2, 4 or 16 trees of depth 4, 15 rounds each) two processes won at most 1 of
# 15 rounds up to 8,000 examples x trees, 5 to 13 of 15 from 16,000 to 32,000, and
# at least 13 of 15 from 64,000
_FORK_BREAK_EVEN = 2**16


# --- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts; positive means a drop."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def count(cls, predicted: Iterable[bool], actual: Iterable[bool]) -> "ConfusionCounts":
        """Tally forecasts against the truth, pair by pair; an entry that is not a drop flag is refused."""
        pairs = Counter(zip(predicted, actual))
        counts = cls(pairs[True, True], pairs[True, False], pairs[False, False], pairs[False, True])
        if counts.total != sum(pairs.values()):
            # checked in a fixed order, so the same entry is named on every run
            for value in sorted(chain.from_iterable(pairs), key=repr):
                _drop_flag(value)
        return counts


@dataclass(frozen=True)
class EvalMetrics:
    """Classification scores; entries are None where the denominator is zero."""

    accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]
    confusion: ConfusionCounts


def metrics_from_confusion(confusion: ConfusionCounts) -> EvalMetrics:
    tp, fp, tn, fn = confusion.tp, confusion.fp, confusion.tn, confusion.fn
    total = confusion.total
    if total == 0:
        raise ValueError("cannot score an empty prediction set")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else None
    return EvalMetrics(accuracy, precision, recall, f1, confusion)


def split_examples(
    examples: Sequence[LabeledExample], split: float, seed: int
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Deterministic shuffled split; the first ``split`` fraction is the training part."""
    SPLIT.check(split)
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(examples)).tolist()  # ints: indexing with numpy scalars is slower
    cut = int(len(examples) * split)
    train = [examples[i] for i in order[:cut]]
    test = [examples[i] for i in order[cut:]]
    return train, test


def evaluate_on(model: ForestModel, examples: Sequence[LabeledExample]) -> EvalMetrics:
    """Score ``model`` on an explicit example set."""
    if not examples:
        raise ValueError("cannot evaluate on an empty example list")
    predicted = map(model.predict_one, map(itemgetter(0), examples))
    return metrics_from_confusion(ConfusionCounts.count(predicted, map(itemgetter(1), examples)))


def evaluate(
    model: ForestModel,
    examples: Sequence[LabeledExample],
    split: float = 0.6,
    seed: int = 0,
) -> EvalMetrics:
    """Score ``model`` on the held-out part of a deterministic shuffled split."""
    _, test = split_examples(examples, split, seed)
    if not test:
        raise ValueError("test split is empty; lower the split fraction")
    return evaluate_on(model, test)


def tree_count_sweep(
    examples: Sequence[LabeledExample],
    counts: Sequence[int],
    max_depth: int = 4,
    split: float = 0.6,
    seed: int = 0,
) -> list[tuple[int, EvalMetrics]]:
    """Score each count's forest, trained on a shared split, on the held-out part. A forest of
    ``count`` trees is the first ``count`` of a larger one, so only the largest is trained."""
    train, test = split_examples(examples, split, seed)
    if not train or not test:
        raise ValueError("split leaves an empty train or test part")
    for count in counts:
        TREES.check(count)
    forest = train_forest(train, trees=max(counts, default=1), max_depth=max_depth, seed=seed)
    return [(count, evaluate_on(ForestModel(forest.trees[:count], max_depth, forest.feature_count), test))
            for count in counts]


# --- files --------------------------------------------------------------------


def _tree_to_obj(tree: tuple):
    """The model file's nesting of ``tree``, built from the last node back."""
    built: list = []
    for node in reversed(tree):
        if isinstance(node, tuple):
            # a split's left subtree was built last, so it is on top, its right one below it
            feature, threshold = node
            built.append({"feature_index": feature, "threshold": threshold, "left": built.pop(), "right": built.pop()})
        else:
            built.append(node)
    return built.pop()


def _tree_from_obj(obj) -> list:
    """The preorder nodes of a model file's tree; ForestModel checks the leaves, feature indices and threshold types."""
    nodes, stack = [], [obj]
    while stack:
        obj = stack.pop()
        if not isinstance(obj, dict):
            nodes.append(obj)
            continue
        threshold = obj["threshold"]
        # a JSON int stays the int it is, which ForestModel compiles exactly
        if type(threshold) is float and math.isnan(threshold):
            raise ValueError("threshold must not be NaN")
        nodes.append((obj["feature_index"], threshold))
        left, right = obj["left"], obj["right"]
        stack += (right, left)
    return nodes


def save_forest(model: ForestModel, path) -> None:
    """Write ``model`` as a model file; raise ValueError for trees nested deeper than ``json`` writes."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_count": model.feature_count,
        "max_depth": model.max_depth,
        "trees": list(map(_tree_to_obj, model.trees)),
    }
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except RecursionError:
        raise ValueError("model is nested too deeply for a model file") from None
    _write_lines(path, [text])


def load_forest(path) -> ForestModel:
    """Read a model file; raise ValueError naming ``path`` for anything that is not a valid model."""
    with _utf8_errors_name(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a model file holds one JSON object")
        version = payload.get("format_version")
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format_version {version!r}")
        feature_count, max_depth = payload["feature_count"], payload["max_depth"]
        if type(feature_count) is not int or feature_count != _FEATURE_COUNT:
            raise ValueError(f"feature_count must be {_FEATURE_COUNT}, got {feature_count!r}")
        MAX_DEPTH.check(max_depth)
        trees = [_tree_from_obj(obj) for obj in payload["trees"]]
        if not TREES.holds(len(trees)):
            raise ValueError(f"a model holds {TREES.low} to {TREES.high} trees, got {len(trees)}")
        return ForestModel(trees, max_depth, feature_count)
    except KeyError as exc:
        raise ValueError(f"{path}: model is missing the {exc.args[0]!r} key") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed model: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: model is nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_EXAMPLES_HEADER = "q,q_ewma,Q,Q_ewma,label"


def save_examples(examples: Sequence[LabeledExample], path) -> None:
    lines = [_EXAMPLES_HEADER]
    for features, label in examples:
        lines.append(
            f"{features.queue_len},{features.queue_len_avg!r},"
            f"{features.occupancy},{features.occupancy_avg!r},{label:d}"
        )
    _write_lines(path, lines)


def load_examples(path) -> list[LabeledExample]:
    examples: list[LabeledExample] = []
    with _utf8_errors_name(path), open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != _EXAMPLES_HEADER:
            raise ValueError(f"{path}: expected header {_EXAMPLES_HEADER!r}, got {header!r}")
        for line_no, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"{path}:{line_no}: expected 5 fields, got {len(parts)}")
            try:
                features = FeatureVector(*map(read_number, parts[:4], (int, float, int, float)))
                finite = all(math.isfinite(value) for value in features)
            except (ValueError, OverflowError) as exc:  # isfinite overflows on an int beyond a double
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if not finite:
                raise ValueError(f"{path}:{line_no}: non-finite feature in {line!r}")
            if parts[4] not in ("0", "1"):
                raise ValueError(f"{path}:{line_no}: label must be 0 or 1, got {parts[4]!r}")
            examples.append(LabeledExample(features, parts[4] == "1"))
    return examples
