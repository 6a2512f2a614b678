import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import shbuf
from shbuf import (
    ArrivalSequence,
    FeatureVector,
    LongestQueueDrop,
    SwitchConfig,
    Verdict,
    run_simulation,
)
from shbuf.learner import (
    ConfusionCounts,
    LabeledExample,
    collect_trace,
    evaluate,
    evaluate_on,
    load_examples,
    load_forest,
    metrics_from_confusion,
    save_examples,
    save_forest,
    split_examples,
    train_forest,
    tree_count_sweep,
    _tree_depth,
)
from shbuf.oracles import PredictionLabel
from shbuf.workloads import followlqd_adversary, poisson_bursts, uniform_random

from conftest import BAD_EXAMPLE_ROWS, BAD_MODELS

POS = PredictionLabel.POSITIVE
NEG = PredictionLabel.NEGATIVE


def _toy_examples(n=200, cutoff=8, seed=0):
    # drop exactly when occupancy exceeds the cutoff; other features are noise
    rng = random.Random(seed)
    examples = []
    for _ in range(n):
        occupancy = rng.randrange(0, 17)
        label = POS if occupancy > cutoff else NEG
        features = FeatureVector(rng.randrange(4), rng.random(), occupancy, rng.random() * 16)
        examples.append(LabeledExample(features, label))
    return examples


# --- trace collection ---------------------------------------------------------


def test_collect_trace_one_example_per_packet():
    cfg = SwitchConfig(4, 16)
    seq = uniform_random(cfg, 0.7, 100, seed=3)
    examples = collect_trace(cfg, seq)
    assert len(examples) == seq.total_packets


def test_collect_trace_without_congestion_is_all_negative():
    cfg = SwitchConfig(4, 64)
    seq = uniform_random(cfg, 0.3, 50, seed=4)
    examples = collect_trace(cfg, seq)
    assert all(example.label is NEG for example in examples)


def test_collect_trace_labels_match_lqd_outcomes():
    cfg = SwitchConfig(4, 8)
    seq = followlqd_adversary(cfg, 2)
    examples = collect_trace(cfg, seq)
    result = run_simulation(cfg, seq, LongestQueueDrop())
    assert len(examples) == len(result.verdicts)
    for verdict, example in zip(result.verdicts, examples):
        expected = NEG if verdict is Verdict.TRANSMITTED else POS
        assert example.label is expected
    assert any(example.label is POS for example in examples)


# --- training -----------------------------------------------------------------


def test_all_negative_examples_give_leaf_trees():
    examples = [LabeledExample(FeatureVector(i, 0.0, i, 0.0), NEG) for i in range(10)]
    model = train_forest(examples, trees=3, max_depth=4, seed=1)
    assert model.trees == [0, 0, 0]


def test_toy_cutoff_learns_single_split():
    examples = _toy_examples()
    model = train_forest(examples, trees=1, max_depth=1, seed=5)
    tree = model.trees[0]
    assert tree.feature_index == 2
    assert 8.0 < tree.threshold < 9.0
    metrics = evaluate_on(model, examples)
    assert metrics.accuracy == 1.0


def test_depth_bound_is_structural():
    cfg = SwitchConfig(8, 32)
    seq = poisson_bursts(cfg, 1 / 32, 1500, seed=9)
    examples = collect_trace(cfg, seq)
    model = train_forest(examples, trees=4, max_depth=4, seed=2)
    assert len(model.trees) == 4
    assert all(_tree_depth(tree) <= 4 for tree in model.trees)


def test_training_is_deterministic(tmp_path):
    # noisy labels so that bootstrap resampling actually shapes the trees
    rng = random.Random(8)
    examples = [
        LabeledExample(example.features, example.label if rng.random() > 0.3 else NEG)
        for example in _toy_examples(n=300, seed=8)
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_forest(train_forest(examples, trees=4, max_depth=4, seed=11), a)
    save_forest(train_forest(examples, trees=4, max_depth=4, seed=11), b)
    assert a.read_bytes() == b.read_bytes()
    save_forest(train_forest(examples, trees=4, max_depth=4, seed=12), b)
    assert a.read_bytes() != b.read_bytes()


def test_train_validation():
    with pytest.raises(ValueError):
        train_forest([], trees=4, max_depth=4, seed=0)
    examples = _toy_examples(20)
    with pytest.raises(ValueError):
        train_forest(examples, trees=17, max_depth=4, seed=0)
    with pytest.raises(ValueError):
        train_forest(examples, trees=4, max_depth=0, seed=0)
    ragged = examples + [LabeledExample((1.0, 2.0), NEG)]
    with pytest.raises(ValueError, match="arity"):
        train_forest(ragged, trees=1, max_depth=1, seed=0)


def test_model_file_round_trip(tmp_path):
    model = train_forest(_toy_examples(), trees=4, max_depth=3, seed=3)
    path = tmp_path / "model.json"
    save_forest(model, path)
    loaded = load_forest(path)
    assert loaded.max_depth == model.max_depth
    assert loaded.feature_count == model.feature_count
    probe = FeatureVector(1, 0.5, 9, 4.0)
    assert loaded.predict_one(probe) == model.predict_one(probe)
    # version gate
    path.write_text(path.read_text().replace('"format_version":1', '"format_version":99'))
    with pytest.raises(ValueError, match="format_version"):
        load_forest(path)


def test_examples_file_round_trip(tmp_path):
    cfg = SwitchConfig(4, 8)
    seq = followlqd_adversary(cfg, 1)
    examples = collect_trace(cfg, seq)
    path = tmp_path / "trace.csv"
    save_examples(examples, path)
    assert path.read_text().splitlines()[0] == "q,q_ewma,Q,Q_ewma,label"
    assert load_examples(path) == examples


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_load_forest_rejects_malformed_models(tmp_path, case):
    payload, message = BAD_MODELS[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_forest(path)


def test_load_examples_rejects_labels_other_than_0_and_1(tmp_path):
    path = tmp_path / "examples.csv"
    path.write_text("q,q_ewma,Q,Q_ewma,label\n1,0.5,3,1.5,0\n2,1.0,4,2.0,7\n")
    with pytest.raises(ValueError, match=":3: label must be 0 or 1, got '7'"):
        load_examples(path)


@pytest.mark.parametrize("case", sorted(BAD_EXAMPLE_ROWS))
def test_load_examples_rejects_bad_features_naming_the_line(tmp_path, case):
    row, message = BAD_EXAMPLE_ROWS[case]
    path = tmp_path / "examples.csv"
    path.write_text(f"q,q_ewma,Q,Q_ewma,label\n1,0.5,3,1.5,0\n{row}\n")
    with pytest.raises(ValueError, match=f"examples.csv:3: {message}"):
        load_examples(path)


# --- metrics ------------------------------------------------------------------


def test_precision_from_confusion_counts():
    # 65% of predicted drops are real drops, at any scale
    for k in (1, 20, 1000):
        metrics = metrics_from_confusion(ConfusionCounts(tp=65 * k, fp=35 * k, tn=0, fn=0))
        assert metrics.precision == pytest.approx(0.65)


def test_f1_consistent_with_precision_recall():
    # precision 0.65 and recall 0.35 combine to about 0.455
    metrics = metrics_from_confusion(ConfusionCounts(tp=455, fp=245, tn=0, fn=845))
    assert metrics.precision == pytest.approx(0.65)
    assert metrics.recall == pytest.approx(0.35)
    assert metrics.f1 == pytest.approx(2 * 0.65 * 0.35 / (0.65 + 0.35), abs=1e-12)
    assert metrics.f1 == pytest.approx(0.455)
    assert abs(metrics.f1 - 0.45) < 0.01


def test_metric_identities_on_random_confusions():
    rng = random.Random(19)
    for _ in range(300):
        confusion = ConfusionCounts(
            rng.randrange(0, 50), rng.randrange(0, 50), rng.randrange(0, 50), rng.randrange(0, 50)
        )
        if confusion.total == 0:
            continue
        metrics = metrics_from_confusion(confusion)
        assert metrics.accuracy * confusion.total == pytest.approx(
            confusion.tp + confusion.tn, abs=1e-9
        )
        if (
            metrics.precision is not None
            and metrics.recall is not None
            and metrics.precision + metrics.recall > 0
        ):
            expected = (
                2 * metrics.precision * metrics.recall / (metrics.precision + metrics.recall)
            )
            assert math.isclose(metrics.f1, expected, abs_tol=1e-12)


def test_zero_denominators_are_undefined_not_zero():
    metrics = metrics_from_confusion(ConfusionCounts(tp=0, fp=0, tn=10, fn=0))
    assert metrics.precision is None
    assert metrics.f1 is None
    assert metrics.accuracy == 1.0
    metrics = metrics_from_confusion(ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
    assert metrics.precision is None
    assert metrics.recall == 0.0


def test_perfect_predictions_score_perfectly():
    examples = _toy_examples(seed=21)
    model = train_forest(examples, trees=1, max_depth=1, seed=5)
    metrics = evaluate_on(model, examples)
    assert metrics.accuracy == 1.0
    assert metrics.confusion.fp == 0 and metrics.confusion.fn == 0


def test_split_is_deterministic_and_partitions():
    examples = _toy_examples(n=100, seed=2)
    train1, test1 = split_examples(examples, 0.6, seed=42)
    train2, test2 = split_examples(examples, 0.6, seed=42)
    assert train1 == train2 and test1 == test2
    assert len(train1) == 60 and len(test1) == 40
    with pytest.raises(ValueError):
        split_examples(examples, 1.0, seed=0)


def test_evaluate_rejects_empty_test_split():
    model = train_forest(_toy_examples(n=10), trees=1, max_depth=1, seed=0)
    with pytest.raises(ValueError, match="test split"):
        evaluate(model, [], split=0.6, seed=0)


def test_evaluate_beats_majority_on_separable_toy():
    examples = _toy_examples(n=400, seed=33)
    train, test = split_examples(examples, 0.6, seed=7)
    model = train_forest(train, trees=4, max_depth=2, seed=7)
    metrics = evaluate_on(model, test)
    labels = [e.label for e in test]
    majority = max(labels.count(POS), labels.count(NEG)) / len(labels)
    assert metrics.accuracy >= 0.95
    assert metrics.accuracy > majority


def test_tree_count_sweep_schema():
    examples = _toy_examples(n=300, seed=44)
    rows = tree_count_sweep(examples, [1, 2, 4], max_depth=2, split=0.6, seed=1)
    assert [count for count, _ in rows] == [1, 2, 4]
    for _, metrics in rows:
        assert 0.0 <= metrics.accuracy <= 1.0


def test_importing_the_package_does_not_load_numpy():
    # numpy is imported by the training path only, so start-up does not pay for it
    src = Path(shbuf.__file__).resolve().parent.parent
    code = "import sys, shbuf, shbuf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "[]"
