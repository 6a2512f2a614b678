"""Drop-predictor training and evaluation.

Collects per-packet feature/label traces from LongestQueueDrop runs, trains a
small bagged ensemble of depth-limited decision trees on them, and computes
the usual binary-classification scores. The trainer is written for exact
reproducibility: given the same examples and seed it produces byte-identical
model files, with Gini ties broken toward the lower feature index and then
the lower threshold. numpy is imported only by the functions that train and
split, so importing the package does not load it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .core import ArrivalSequence, SwitchConfig, Verdict, run_simulation
from .oracles import FeatureSampler, FeatureVector, PredictionLabel
from .policies import LongestQueueDrop

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LabeledExample",
    "TreeNode",
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
]

MODEL_FORMAT_VERSION = 1
MAX_TREES = 16
_FEATURE_COUNT = len(FeatureVector._fields)


class LabeledExample(NamedTuple):
    features: FeatureVector
    label: PredictionLabel


def collect_trace(config: SwitchConfig, sequence: ArrivalSequence) -> list[LabeledExample]:
    """Run LongestQueueDrop over ``sequence`` and label every arrival.

    Features are sampled at arrival time, before the accept decision; labels
    are the packet's final fate (push-outs resolved after the run), so the
    trace has exactly one example per packet of the sequence.
    """
    sampler = FeatureSampler(LongestQueueDrop())
    result = run_simulation(config, sequence, sampler)
    return [
        LabeledExample(
            features,
            PredictionLabel.NEGATIVE if verdict is Verdict.TRANSMITTED else PredictionLabel.POSITIVE,
        )
        for features, verdict in zip(sampler.features, result.verdicts)
    ]


# --- decision trees ----------------------------------------------------------


@dataclass(frozen=True)
class TreeNode:
    """Internal split node; leaves are plain ints (1 = predicted drop)."""

    feature_index: int
    threshold: float
    left: Union["TreeNode", int]
    right: Union["TreeNode", int]


def _tree_depth(node: Union[TreeNode, int]) -> int:
    if isinstance(node, int):
        return 0
    return 1 + max(_tree_depth(node.left), _tree_depth(node.right))


def _leaf(positives: int, total: int) -> int:
    # majority label; ties fall to the negative (accept) side
    return 1 if 2 * positives > total else 0


def _grow_tree(X: np.ndarray, y: np.ndarray, indices: np.ndarray, depth_left: int) -> Union[TreeNode, int]:
    import numpy as np

    labels = y[indices]
    total = len(indices)
    positives = int(labels.sum())
    if positives == 0 or positives == total or depth_left == 0:
        return _leaf(positives, total)

    best_cost = np.inf
    best_feature = -1
    best_threshold = 0.0
    for feature in range(X.shape[1]):
        column = X[indices, feature]
        order = np.argsort(column, kind="stable")
        values = column[order]
        ordered_labels = labels[order]
        boundaries = np.nonzero(values[:-1] < values[1:])[0]
        if boundaries.size == 0:
            continue
        left_pos = np.cumsum(ordered_labels)[boundaries]
        left_n = boundaries + 1
        right_n = total - left_n
        right_pos = positives - left_pos
        # weighted Gini: sum over children of 2 * p * (1 - p) * n_child
        cost = (
            2.0 * left_pos * (left_n - left_pos) / left_n
            + 2.0 * right_pos * (right_n - right_pos) / right_n
        )
        at = int(np.argmin(cost))
        if cost[at] < best_cost:
            best_cost = float(cost[at])
            best_feature = feature
            best_threshold = float((values[boundaries[at]] + values[boundaries[at] + 1]) / 2.0)

    if best_feature < 0:
        return _leaf(positives, total)
    mask = X[indices, best_feature] <= best_threshold
    left = _grow_tree(X, y, indices[mask], depth_left - 1)
    right = _grow_tree(X, y, indices[~mask], depth_left - 1)
    return TreeNode(best_feature, best_threshold, left, right)


@dataclass
class ForestModel:
    """Bagged ensemble of depth-limited trees over the four switch features."""

    trees: list[Union[TreeNode, int]]
    max_depth: int
    feature_count: int

    def predict_one(self, features: Sequence[float]) -> int:
        if len(features) != self.feature_count:
            raise ValueError(
                f"expected {self.feature_count} features, got {len(features)}"
            )
        votes = 0
        for node in self.trees:
            while not isinstance(node, int):
                node = node.left if features[node.feature_index] <= node.threshold else node.right
            votes += node
        # strict majority votes drop; ties fall to accept
        return 1 if 2 * votes > len(self.trees) else 0

    def predict_label(self, features: Sequence[float]) -> PredictionLabel:
        return PredictionLabel.POSITIVE if self.predict_one(features) else PredictionLabel.NEGATIVE


def _as_arrays(examples: Sequence[LabeledExample]) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    width = len(examples[0].features)
    for example in examples:
        if len(example.features) != width:
            raise ValueError("examples have inconsistent feature arity")
    X = np.array([tuple(example.features) for example in examples], dtype=np.float64)
    y = np.array(
        [1 if example.label is PredictionLabel.POSITIVE else 0 for example in examples],
        dtype=np.int64,
    )
    return X, y


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
    """
    if not examples:
        raise ValueError("cannot train on an empty example list")
    if not 1 <= trees <= MAX_TREES:
        raise ValueError(f"trees must be in [1, {MAX_TREES}], got {trees}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    import numpy as np

    X, y = _as_arrays(examples)
    rng = np.random.Generator(np.random.PCG64(seed))
    grown: list[Union[TreeNode, int]] = []
    for _ in range(trees):
        sample = rng.integers(0, len(examples), size=len(examples))
        grown.append(_grow_tree(X, y, np.asarray(sample), max_depth))
    return ForestModel(grown, max_depth, X.shape[1])


# --- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts with POSITIVE = predicted drop."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


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
    if not 0.0 < split < 1.0:
        raise ValueError(f"split must be strictly between 0 and 1, got {split}")
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(examples))
    cut = int(len(examples) * split)
    train = [examples[i] for i in order[:cut]]
    test = [examples[i] for i in order[cut:]]
    return train, test


def evaluate_on(model: ForestModel, examples: Sequence[LabeledExample]) -> EvalMetrics:
    """Score ``model`` on an explicit example set."""
    if not examples:
        raise ValueError("cannot evaluate on an empty example list")
    tp = fp = tn = fn = 0
    for features, label in examples:
        predicted_drop = model.predict_one(features)
        actual_drop = label is PredictionLabel.POSITIVE
        if predicted_drop and actual_drop:
            tp += 1
        elif predicted_drop:
            fp += 1
        elif actual_drop:
            fn += 1
        else:
            tn += 1
    return metrics_from_confusion(ConfusionCounts(tp, fp, tn, fn))


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
    """Train one forest per tree count on a shared split and score each on the held-out part."""
    train, test = split_examples(examples, split, seed)
    if not train or not test:
        raise ValueError("split leaves an empty train or test part")
    rows = []
    for count in counts:
        model = train_forest(train, trees=count, max_depth=max_depth, seed=seed)
        rows.append((count, evaluate_on(model, test)))
    return rows


# --- files --------------------------------------------------------------------


def _node_to_obj(node: Union[TreeNode, int]):
    if isinstance(node, int):
        return node
    return {
        "feature_index": node.feature_index,
        "threshold": node.threshold,
        "left": _node_to_obj(node.left),
        "right": _node_to_obj(node.right),
    }


def _node_from_obj(obj, feature_count: int) -> Union[TreeNode, int]:
    if isinstance(obj, int):
        if isinstance(obj, bool) or obj not in (0, 1):
            raise ValueError(f"leaf label must be the integer 0 or 1, got {obj}")
        return obj
    feature_index = int(obj["feature_index"])
    if not 0 <= feature_index < feature_count:
        raise ValueError(f"feature_index {feature_index} outside [0, {feature_count})")
    return TreeNode(
        feature_index,
        float(obj["threshold"]),
        _node_from_obj(obj["left"], feature_count),
        _node_from_obj(obj["right"], feature_count),
    )


def save_forest(model: ForestModel, path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_count": model.feature_count,
        "max_depth": model.max_depth,
        "trees": [_node_to_obj(tree) for tree in model.trees],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_forest(path) -> ForestModel:
    """Read a model file; raise ValueError for anything that is not a valid model."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a model file holds one JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    try:
        feature_count = int(payload["feature_count"])
        max_depth = int(payload["max_depth"])
        if feature_count != _FEATURE_COUNT:
            raise ValueError(f"{path}: feature_count must be {_FEATURE_COUNT}, got {feature_count}")
        trees = [_node_from_obj(obj, feature_count) for obj in payload["trees"]]
    except KeyError as exc:
        raise ValueError(f"{path}: model is missing the {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed model: {exc}") from None
    if not 1 <= len(trees) <= MAX_TREES:
        raise ValueError(f"{path}: a model holds 1 to {MAX_TREES} trees, got {len(trees)}")
    for index, tree in enumerate(trees):
        if _tree_depth(tree) > max_depth:
            raise ValueError(f"{path}: tree {index} is deeper than max_depth {max_depth}")
    return ForestModel(trees, max_depth, feature_count)


_EXAMPLES_HEADER = "q,q_ewma,Q,Q_ewma,label"


def save_examples(examples: Sequence[LabeledExample], path) -> None:
    lines = [_EXAMPLES_HEADER]
    for features, label in examples:
        flag = 1 if label is PredictionLabel.POSITIVE else 0
        lines.append(
            f"{features.queue_len},{features.queue_len_avg!r},"
            f"{features.occupancy},{features.occupancy_avg!r},{flag}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_examples(path) -> list[LabeledExample]:
    examples: list[LabeledExample] = []
    with open(path) as fh:
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
                features = FeatureVector(
                    int(parts[0]), float(parts[1]), int(parts[2]), float(parts[3])
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if not all(math.isfinite(value) for value in features):
                raise ValueError(f"{path}:{line_no}: non-finite feature in {line!r}")
            if parts[4] not in ("0", "1"):
                raise ValueError(f"{path}:{line_no}: label must be 0 or 1, got {parts[4]!r}")
            label = PredictionLabel.POSITIVE if parts[4] == "1" else PredictionLabel.NEGATIVE
            examples.append(LabeledExample(features, label))
    return examples
