import dataclasses
import json
import math
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shbuf
from shbuf import (
    ArrivalSequence,
    FeatureVector,
    LongestQueueDrop,
    SwitchConfig,
    Verdict,
    run_simulation,
)
from shbuf import _fork, learner
from shbuf.learner import (
    ConfusionCounts,
    ForestModel,
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
)
from shbuf.oracles import PredictionLabel
from shbuf.workloads import followlqd_adversary, poisson_bursts, uniform_random

from conftest import (
    BAD_EXAMPLE_ROWS, BAD_MODELS, FORKS, ROUTES, TWO_CPUS, assert_no_child_left, forced_route, four_way_confusion,
    split,
)

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


def _depth(tree):
    """The most splits above any leaf of a preorder tree, counted without ``ForestModel``'s check."""
    depth, levels = 0, [0]
    for node in tree:
        level = levels.pop()
        if isinstance(node, tuple):
            levels += (level + 1, level + 1)
        else:
            depth = max(depth, level)
    return depth


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
    assert model.trees == ((0,), (0,), (0,))


def test_toy_cutoff_learns_single_split():
    examples = _toy_examples()
    model = train_forest(examples, trees=1, max_depth=1, seed=5)
    (feature_index, threshold), *leaves = model.trees[0]
    assert feature_index == 2 and leaves == [0, 1]
    assert 8.0 < threshold < 9.0
    metrics = evaluate_on(model, examples)
    assert metrics.accuracy == 1.0


def test_depth_bound_is_structural():
    cfg = SwitchConfig(8, 32)
    seq = poisson_bursts(cfg, 1 / 32, 1500, seed=9)
    examples = collect_trace(cfg, seq)
    model = train_forest(examples, trees=4, max_depth=4, seed=2)
    assert len(model.trees) == 4
    assert all(_depth(tree) <= 4 for tree in model.trees)


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


def test_examples_without_features_train_one_leaf_trees():
    examples = [LabeledExample((), POS), LabeledExample((), POS), LabeledExample((), NEG)]
    model = train_forest(examples, trees=2, max_depth=3, seed=0)
    assert model.feature_count == 0
    assert all(tree in ((0,), (1,)) for tree in model.trees)
    assert model.predict_one(()) == _reference_predict(model.trees, ())


# --- references: the per-node argsort trainer and the node-walking predictor ---------


def _reference_grow(X, y, indices, depth_left):
    # re-sorts every feature at every node; the trainer must build the same trees
    import numpy as np

    labels = y[indices]
    total = len(indices)
    positives = int(labels.sum())
    if positives == 0 or positives == total or depth_left == 0:
        return (1 if 2 * positives > total else 0,)
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
        return (1 if 2 * positives > total else 0,)
    mask = X[indices, best_feature] <= best_threshold
    left = _reference_grow(X, y, indices[mask], depth_left - 1)
    right = _reference_grow(X, y, indices[~mask], depth_left - 1)
    return split(best_feature, best_threshold, left, right)


def _reference_forest(examples, trees, max_depth, seed):
    import numpy as np

    X = np.array([tuple(example.features) for example in examples], dtype=np.float64)
    y = np.array([1 if example.label is POS else 0 for example in examples], dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    grown = []
    for _ in range(trees):
        sample = rng.integers(0, len(examples), size=len(examples))
        grown.append(_reference_grow(X, y, np.asarray(sample), max_depth))
    return ForestModel(grown, max_depth, X.shape[1])


def _reference_predict(trees, features):
    votes = 0
    for tree in trees:
        at = 0
        while isinstance(tree[at], tuple):
            feature_index, threshold = tree[at]
            at += 1
            if not features[feature_index] <= threshold:
                # skip the left subtree: it ends where its leaves outnumber its splits
                pending = 1
                while pending:
                    pending += 1 if isinstance(tree[at], tuple) else -1
                    at += 1
        votes += tree[at]
    return 1 if 2 * votes > len(trees) else 0


def _assert_same_forest(model, reference):
    # compared as JSON text, which tells -0.0 from 0.0 and 1 from 1.0 and matches NaN thresholds
    def as_json(forest):
        return json.dumps([forest.max_depth, forest.feature_count, forest.trees])

    assert as_json(model) == as_json(reference)


# adjacent doubles whose midpoint rounds up to the larger one, so a split between
# them sends both to the left child
_ADJACENT_DOUBLES = (1 + 2**-52, 1 + 2**-51)


@st.composite
def tied_example_sets(draw):
    # few distinct values per feature, so most split candidates tie; the signed
    # zeros, infinities and NaN check that presorting orders them as argsort does
    queue = st.sampled_from((0, 1, 2, 3))
    average = st.one_of(
        st.sampled_from((0.0, 0.25, 0.5, 1.5, 3.0)),
        st.sampled_from((-0.0, math.nan, math.inf, -math.inf)),
        st.sampled_from(_ADJACENT_DOUBLES),
    )
    occupancy = st.sampled_from((0, 4, 8, 9, 16))
    example = st.builds(
        lambda q, qa, o, oa, drop: LabeledExample(FeatureVector(q, qa, o, oa), POS if drop else NEG),
        queue, average, occupancy, average, st.booleans(),
    )
    return draw(st.lists(example, min_size=1, max_size=80))


# --- the two routes: every tree grown here, or the odd-indexed ones in a forked child ---


def _train_by_route(route, examples, trees, depth, seed):
    with forced_route(route) as (forks, _):
        model = train_forest(examples, trees=trees, max_depth=depth, seed=seed)
    assert len(forks) == (route == "two_processes" and trees >= 2)
    return model


@ROUTES
@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    tied_example_sets(),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_trainer_matches_the_per_node_argsort_reference(route, examples, trees, depth, seed):
    model = _train_by_route(route, examples, trees, depth, seed)
    _assert_same_forest(model, _reference_forest(examples, trees, depth, seed))


@ROUTES
@pytest.mark.parametrize("trees", [2, 3, 16])
def test_trainer_matches_the_reference_on_a_congested_trace(route, trees):
    # 2 trees give the child one; 3 leave it fewer than this process
    cfg = SwitchConfig(8, 32)
    examples = collect_trace(cfg, poisson_bursts(cfg, 1 / 32, 1500, seed=9))
    model = _train_by_route(route, examples, trees, 8, seed=3)
    _assert_same_forest(model, _reference_forest(examples, trees, 8, seed=3))
    assert any(_depth(tree) == 8 for tree in model.trees)


@ROUTES
def test_trainer_matches_the_reference_beyond_16_bit_ranks(route):
    # more examples than a 16-bit rank can number, so the presort takes wider ranks
    rng = random.Random(12)
    examples = [
        LabeledExample(
            FeatureVector(rng.randrange(4), rng.randrange(50) / 4, rng.randrange(33), rng.random()),
            POS if rng.random() < 0.3 else NEG,
        )
        for _ in range(70_000)
    ]
    model = _train_by_route(route, examples, 2, 3, seed=4)
    _assert_same_forest(model, _reference_forest(examples, 2, 3, 4))


def _fail_in(side, error, stall=0.0):
    """A ``_grow_tree`` that raises ``error`` in this process (``side="parent"``) or in the
    forked child (``side="child"``); the other process sleeps ``stall`` seconds once, then grows."""
    parent, grow = os.getpid(), learner._grow_tree
    stalls = [stall]

    def failing(*args):
        if (os.getpid() == parent) == (side == "parent"):
            raise error
        time.sleep(stalls.pop() if stalls else 0)
        return grow(*args)

    return failing


def _congested_examples():
    cfg = SwitchConfig(8, 32)
    return collect_trace(cfg, poisson_bursts(cfg, 1 / 32, 600, seed=9))


@FORKS
def test_a_child_that_runs_out_of_memory_makes_train_forest_raise_memory_error(monkeypatch):
    with forced_route("two_processes") as (forks, statuses):
        monkeypatch.setattr(learner, "_grow_tree", _fail_in("child", MemoryError()))
        with pytest.raises(MemoryError):
            train_forest(_congested_examples(), trees=4, max_depth=4, seed=0)
    assert len(forks) == 1 and os.WIFEXITED(statuses[0]) and os.WEXITSTATUS(statuses[0]) == 0


@FORKS
def test_an_exception_the_child_cannot_send_back_raises_child_process_error(monkeypatch):
    class Unpicklable(Exception):  # a local class pickles by a name that cannot be found
        pass

    with forced_route("two_processes") as (forks, statuses):
        monkeypatch.setattr(learner, "_grow_tree", _fail_in("child", Unpicklable()))
        with pytest.raises(ChildProcessError, match="ended with status"):
            train_forest(_congested_examples(), trees=2, max_depth=4, seed=0)
    assert len(forks) == 1 and os.WIFEXITED(statuses[0]) and os.WEXITSTATUS(statuses[0]) == 1


@FORKS
def test_a_parent_whose_half_raises_kills_and_reaps_the_child(monkeypatch):
    # the child would sleep for a minute before growing; the parent's error must not wait for it
    started = time.monotonic()
    with forced_route("two_processes") as (forks, statuses):
        monkeypatch.setattr(learner, "_grow_tree", _fail_in("parent", ValueError("boom"), stall=60))
        with pytest.raises(ValueError, match="boom"):
            train_forest(_congested_examples(), trees=4, max_depth=4, seed=0)
    assert time.monotonic() - started < 30
    assert len(forks) == 1 and os.WIFSIGNALED(statuses[0]) and os.WTERMSIG(statuses[0]) == signal.SIGKILL


@FORKS
@pytest.mark.parametrize("fork_warns", [False, True])
def test_the_two_process_route_warns_about_nothing(monkeypatch, fork_warns):
    # Python 3.12+ warns when a process with more than one OS thread forks, as
    # one that has imported numpy may; the trainer silences that one warning,
    # here also on a Python that does not give it
    if fork_warns:
        fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with forced_route("two_processes") as (forks, _):
            train_forest(_congested_examples(), trees=4, max_depth=4, seed=0)
    assert len(forks) == 1
    assert [str(warning.message) for warning in caught] == []


def _spine(depth):
    """A left spine of ``depth`` splits, each with a one-split right child: ``depth + 1`` levels for ``depth >= 1``."""
    tree = (1,)
    for level in range(depth):
        tree = split(level % 4, level + 0.5, tree, split(3, -0.0, 0, 1))
    return tree


@FORKS
def test_a_tree_deeper_than_pickle_nests_comes_back_from_the_child_whole(monkeypatch):
    # nested nodes would overflow the recursion limit when pickled at 400 levels; a tree crosses the pipe
    # as the flat node list the trainer appends to
    depths = [1, 600, 0, 400, 7]
    parent, grown = os.getpid(), []

    def grow_spine(*args):
        # the samples are drawn before the fork, then this process grows trees 0, 2 and 4 and the child 1 and 3
        index = 2 * len(grown) + (os.getpid() != parent)
        grown.append(index)
        args[-1].extend(_spine(depths[index]))

    monkeypatch.setattr(learner, "_grow_tree", grow_spine)
    with forced_route("two_processes") as (forks, _):
        model = train_forest(_toy_examples(), trees=len(depths), max_depth=601, seed=0)
    assert len(forks) == 1 and grown == [0, 2, 4]
    # the model compares flat, node by node; the reprs also tell -0.0 from 0.0 and 1 from 1.0
    expected = ForestModel([_spine(depth) for depth in depths], 601, 4)
    assert model == expected
    assert repr(model.trees) == repr(expected.trees)
    assert model != ForestModel([_spine(depth - (depth == 600)) for depth in depths], 601, 4)


def test_a_forest_deeper_than_the_recursion_limit_pickles_and_compares_flat(tmp_path):
    deep = ForestModel([_spine(1000), (0,), _spine(3)], 1001, 4)
    copied = pickle.loads(pickle.dumps(deep, pickle.HIGHEST_PROTOCOL))
    assert copied is not deep and copied == deep and copied.trees[1] == (0,)
    assert hash(copied) == hash(deep)
    assert repr(copied) == repr(deep)
    assert repr(deep).startswith("ForestModel(trees=(((3, 999.5), (2, 998.5), ")
    assert repr(deep).endswith(", 0, 1)), max_depth=1001, feature_count=4)")
    assert copied != ForestModel([_spine(999), (0,), _spine(3)], 1001, 4)
    assert copied != ForestModel([_spine(1000), (0,), _spine(3)], 1002, 4)
    assert copied != ForestModel([_spine(1000), (1,), _spine(3)], 1001, 4)
    assert deep.__eq__(deep.trees) is NotImplemented
    for x in range(-1, 1002, 7):
        probe = (x, x / 2, 0, 0.0)
        assert copied.predict_one(probe) == deep.predict_one(probe) == _reference_predict(deep.trees, probe)
    # json itself refuses to nest this deep, so no model file can hold it: one line, and no file
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="^model is nested too deeply for a model file$"):
        save_forest(deep, path)
    assert not path.exists()


@FORKS
def test_a_fork_that_fails_grows_every_tree_in_this_process(monkeypatch):
    attempts = []

    def no_fork():
        attempts.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    examples = _congested_examples()
    expected = _train_by_route("in_process", examples, 4, 4, seed=0)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(_fork, "forks", lambda work, break_even: True)
    assert train_forest(examples, trees=4, max_depth=4, seed=0) == expected
    assert attempts == [1]
    assert_no_child_left()


def test_the_trainer_forks_only_where_it_pays(monkeypatch):
    # the gate the trainer and the sweep share
    assert _fork.forks(100, 100) == TWO_CPUS
    assert not _fork.forks(99, 100)
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert not _fork.forks(100, 100)
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not _fork.forks(100, 100)
    monkeypatch.delattr(os, "sched_getaffinity")
    assert not _fork.forks(100, 100)
    # the trainer asks it about examples x trees against its own break-even
    asked = []
    monkeypatch.setattr(_fork, "forks", lambda work, break_even: asked.append((work, break_even)) and False)
    train_forest(_toy_examples(50), trees=3, max_depth=2, seed=0)
    assert asked == [(150, learner._FORK_BREAK_EVEN)]
    # and a single tree is never grown in a child, whatever the gate says
    with forced_route("two_processes") as (forks, _):
        train_forest(_toy_examples(50), trees=1, max_depth=2, seed=0)
    assert forks == []


def test_a_cost_tie_between_features_goes_to_the_lower_feature_index():
    # q and Q each separate the labels exactly, so both splits cost 0; Q's
    # boundary comes earlier in its sorted order (after the negatives, which
    # are fewer), yet the split is on q, the lower feature index
    drop = LabeledExample(FeatureVector(0, 0.0, 1, 0.0), POS)
    accept = LabeledExample(FeatureVector(1, 0.0, 0, 0.0), NEG)
    model = train_forest([drop] * 150 + [accept] * 50, trees=3, max_depth=2, seed=0)
    assert model.trees == (split(0, 0.5, 1, 0),) * 3


_SPECIAL_VALUES = (
    0, 0.0, -0.0, 1, 1.0, -1, 2.5, 2**53 + 1, float(2**53), 1e308, -1e-308,
    math.inf, -math.inf, math.nan,
)


@st.composite
def forests_and_probes(draw):
    value = st.one_of(
        st.sampled_from(_SPECIAL_VALUES),
        st.integers(-4, 4),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    probes = draw(st.lists(st.tuples(value, value, value, value), min_size=1, max_size=6))
    # thresholds are mostly the probes' own values, so == ties decide the branch
    seen = [x for probe in probes for x in probe]
    threshold = st.one_of(st.sampled_from(seen), st.sampled_from(_SPECIAL_VALUES), value)

    def node(depth):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            return (draw(st.integers(0, 1)),)
        return split(draw(st.integers(0, 3)), draw(threshold), node(depth - 1), node(depth - 1))

    depth = draw(st.integers(0, 8))
    trees = [node(depth) for _ in range(draw(st.integers(1, 16)))]
    return trees, depth, probes


@settings(derandomize=True, max_examples=200, deadline=None)
@given(forests_and_probes())
def test_predict_one_matches_the_node_walk(case):
    trees, depth, probes = case
    model = ForestModel(trees, max(depth, 1), 4)
    for probe in probes:
        assert model.predict_one(probe) == _reference_predict(trees, probe)
        assert model.predict_one(list(probe)) == _reference_predict(trees, probe)


# ints are exact as floats up to 2**53: ints on both sides of it, the floats beside them
_EXACT_EDGE = (
    2**53, -(2**53), 2**53 - 1, 2**53 + 1, -(2**53 + 1), float(2**53), -float(2**53), float(2**53 + 2), 0.5, 3,
)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    st.tuples(*[st.sampled_from(_EXACT_EDGE + (True, False))] * 4),
    st.lists(st.sampled_from(_EXACT_EDGE), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_predict_one_matches_the_reference_at_every_vote_count(probe, thresholds, seed):
    # each tree is a stump whose leaves are placed so the probe lands on the vote it
    # is meant to cast; bools and ints just past 2**53 stay exact, and every vote
    # count of every forest size is decided as the full count decides it
    rng = random.Random(seed)
    pool = list(thresholds) + [x for x in probe if not isinstance(x, bool)]
    for count in range(1, 17):
        for votes in range(count + 1):
            drops = set(rng.sample(range(count), votes))
            trees = []
            for index in range(count):
                vote = int(index in drops)
                feature = rng.randrange(4)
                threshold = rng.choice(pool)
                if probe[feature] <= threshold:
                    trees.append(split(feature, threshold, vote, 1 - vote))
                else:
                    trees.append(split(feature, threshold, 1 - vote, vote))
            model = ForestModel(trees, 1, 4)
            expected = 1 if 2 * votes > count else 0
            assert _reference_predict(trees, probe) == expected
            assert model.predict_one(probe) == expected
            assert model.predict_one(FeatureVector(*probe)) == expected


def test_predict_one_handles_a_left_spine_deeper_than_the_parser_nests():
    # CPython's parser nests at most 100 blocks; a 150-split left spine still compiles
    tree = (1,)
    for level in range(150):
        tree = split(0, float(level), tree, level % 2)
    model = ForestModel([tree], 150, 4)
    for x in range(-1, 152):
        probe = (x, 0.0, 0, 0.0)
        assert model.predict_one(probe) == _reference_predict(model.trees, probe)


def test_forest_model_is_frozen_so_its_compiled_votes_cannot_go_stale():
    trees = [[(0, 1.0), 0, 1]]
    model = ForestModel(trees, 1, 4)
    trees[0][0] = 1  # the model keeps its own tuples
    trees[0] = (1,)
    assert model.trees == (split(0, 1.0, 0, 1),)
    assert model.predict_one((0, 0, 0, 0)) == 0 and model.predict_one((2, 0, 0, 0)) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.trees = ((1,),)
    assert model == ForestModel((split(0, 1.0, 0, 1),), 1, 4)
    assert "_decide" not in repr(model)
    copied = pickle.loads(pickle.dumps(model))
    assert copied == model and copied.predict_one((2, 0, 0, 0)) == 1


@pytest.mark.parametrize(
    "tree, message",
    [
        (split(4, 1.0, 0, 1), r"feature_index 4 outside \[0, 4\)"),
        (split(1.0, 1.0, 0, 1), "feature_index must be an integer, got 1.0"),
        (split(0, "1.0", 0, 1), "threshold must be a number, got '1.0'"),
        (split(0, 1.0, 0, 2), "leaf label must be the integer 0 or 1, got 2"),
        # load_forest refused this file as too deep, so the constructor refuses the model that wrote it
        (split(0, 0.5, split(1, 0.5, 0, 1), 1), "^tree 0 is deeper than max_depth 1$"),
        (((0, 0.5, 1.0), 0, 1), r"^a split is a \(feature_index, threshold\) pair, got \(0, 0.5, 1.0\)$"),
        (((0,), 0, 1), r"^a split is a \(feature_index, threshold\) pair, got \(0,\)$"),
        (split(0, 0.5, 0, 1) + (1,), "^tree 0 has nodes past its last leaf$"),
        ((1, 0), "^tree 0 has nodes past its last leaf$"),
        (split(0, 0.5, 0, 1)[:-1], "^tree 0 ends before its last leaf$"),
        ((), "^tree 0 ends before its last leaf$"),
    ],
)
def test_forest_model_rejects_trees_it_cannot_compile(tree, message):
    with pytest.raises(ValueError, match=message):
        ForestModel([tree], 1, 4)


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


@pytest.mark.parametrize("name, value", [("trees", 2.0), ("trees", True), ("max_depth", 2.0), ("max_depth", True)])
def test_train_forest_takes_only_an_int_so_the_model_file_it_writes_loads_back(tmp_path, name, value):
    # a max_depth of 2.0 used to train, and save_forest wrote a file that load_forest refused
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        train_forest(_toy_examples(), **{name: value})
    model = train_forest(_toy_examples(), **{name: int(value)})
    path = tmp_path / "model.json"
    save_forest(model, path)
    loaded = load_forest(path)
    assert (loaded.max_depth, len(loaded.trees)) == (model.max_depth, len(model.trees))


def test_examples_file_round_trip(tmp_path):
    cfg = SwitchConfig(4, 8)
    seq = followlqd_adversary(cfg, 1)
    examples = collect_trace(cfg, seq)
    path = tmp_path / "trace.csv"
    save_examples(examples, path)
    assert path.read_text().splitlines()[0] == "q,q_ewma,Q,Q_ewma,label"
    assert load_examples(path) == examples


finite_features = st.builds(
    FeatureVector,
    st.integers(-(2**63), 2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**63), 2**63),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.builds(LabeledExample, finite_features, st.booleans()), max_size=8))
def test_examples_round_trip_through_a_file(examples):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "examples.csv"
        save_examples(examples, path)
        loaded = load_examples(path)
    assert loaded == examples
    assert [type(label) for _, label in loaded] == [bool] * len(examples)
    assert [tuple(map(type, features)) for features, _ in loaded] == [(int, float, int, float)] * len(examples)


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_load_forest_rejects_malformed_models(tmp_path, case):
    payload, message = BAD_MODELS[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
        load_forest(path)


def test_load_forest_rejects_models_nested_too_deeply(tmp_path):
    # deeper than the interpreter's recursion limit: one line, not a RecursionError traceback
    depth = 3000
    tree = '{"feature_index":0,"threshold":1.0,"left":' * depth + "0" + ',"right":1}' * depth
    path = tmp_path / "model.json"
    path.write_text(f'{{"format_version":1,"feature_count":4,"max_depth":{depth},"trees":[{tree}]}}')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: model is nested too deeply$"):
        load_forest(path)


_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-2, 5), st.sampled_from((10**400, -(10**400))),
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(("feature_index", "threshold", "left", "right", "trees")), inner, max_size=4),
    ),
    max_leaves=10,
)


@st.composite
def fuzzed_models(draw):
    # a one-tree model with some fields, in the file or in the tree, swapped for any JSON value
    tree = {"feature_index": 0, "threshold": 1.0, "left": 0, "right": 1}
    payload = {"format_version": 1, "feature_count": 4, "max_depth": 1, "trees": [tree]}
    for key in draw(st.lists(st.sampled_from(sorted(tree)), max_size=2, unique=True)):
        tree[key] = draw(_JSON_VALUES)
    for key in draw(st.lists(st.sampled_from(sorted(payload)), max_size=1, unique=True)):
        payload[key] = draw(_JSON_VALUES)
    return payload


@settings(derandomize=True, max_examples=300, deadline=None)
@given(fuzzed_models())
def test_load_forest_raises_only_value_errors_naming_the_file(payload):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "model.json"
        path.write_text(json.dumps(payload))
        try:
            model = load_forest(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert model.predict_one((0, 0.0, 0, 0.0)) in (0, 1)


def test_infinite_thresholds_round_trip(tmp_path):
    # a midpoint can overflow to infinity, so save_forest writes it and load_forest reads it back
    tree = split(0, math.inf, split(1, -math.inf, 1, 0), 1)
    model = ForestModel([tree], 2, 4)
    path = tmp_path / "model.json"
    save_forest(model, path)
    assert "Infinity" in path.read_text()
    loaded = load_forest(path)
    assert loaded == model
    for probe in [(0, -math.inf, 0, 0.0), (5, 0.0, 1, 0.0), (math.inf, 1.0, 0, 0.0)]:
        assert loaded.predict_one(probe) == _reference_predict(model.trees, probe)


def _without_nan_thresholds(tree) -> bool:
    return not any(isinstance(node, tuple) and isinstance(node[1], float) and math.isnan(node[1]) for node in tree)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(forests_and_probes().filter(lambda case: all(map(_without_nan_thresholds, case[0]))))
@example(([split(0, 2**53 + 1, 1, 0)], 1, [(2**53 + 1, 0.0, 0, 0.0)]))
@example(([split(0, 10**400, 1, 0)], 1, [(10**400, 0.0, 0, 0.0), (10**400 + 1, 0.0, 0, 0.0)]))
def test_a_model_file_loads_back_as_the_model_it_was_saved_from(case):
    # every threshold but NaN, which load_forest refuses: ints past 2**53 stay ints
    trees, depth, probes = case
    model = ForestModel(trees, max(depth, 1), 4)
    with tempfile.TemporaryDirectory() as folder:
        path, again = Path(folder) / "model.json", Path(folder) / "again.json"
        save_forest(model, path)
        loaded = load_forest(path)
        save_forest(loaded, again)
        assert again.read_bytes() == path.read_bytes()
    assert loaded == model
    for probe in probes:
        assert loaded.predict_one(probe) == model.predict_one(probe)


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


_JUNK_FIELDS = st.one_of(
    st.integers(-5, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(("", " 1 ", "nan", "-inf", "1e999", "0x10", "1_0", "\u0663", "1" * 400, "2")),
    st.text(max_size=3),
)


@st.composite
def example_rows(draw):
    # a valid row, with one field swapped for junk or not, or any number of junk fields
    if draw(st.booleans()):
        return ",".join(draw(st.lists(_JUNK_FIELDS, max_size=6)))
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    fields = [str(draw(st.integers(0, 40))), draw(number), str(draw(st.integers(0, 99))), draw(number),
              draw(st.sampled_from("01"))]
    if draw(st.booleans()):
        fields[draw(st.integers(0, 4))] = draw(_JUNK_FIELDS)
    return ",".join(fields)


@st.composite
def examples_files(draw):
    # the header or not, then rows, as text or with bytes that may not be UTF-8
    header = "q,q_ewma,Q,Q_ewma,label"
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.sampled_from((" q,q_ewma,Q,Q_ewma,label ", "q,q_ewma", "")))
    text = "\n".join([header, *draw(st.lists(example_rows(), max_size=4))])
    data = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.binary(min_size=1, max_size=4)) + data[cut:]
    return data


@settings(derandomize=True, max_examples=400, deadline=None)
@given(examples_files())
def test_load_examples_returns_examples_or_raises_a_value_error_naming_the_file(data):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "examples.csv"
        path.write_bytes(data)
        try:
            examples = load_examples(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            for features, label in examples:
                assert all(math.isfinite(value) for value in features)
                assert label in (POS, NEG)


# --- metrics ------------------------------------------------------------------


drop_flags = st.sampled_from([True, False, 1, 0])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(drop_flags, drop_flags), max_size=40))
def test_the_confusion_tally_counts_mixed_drop_flags_as_a_four_way_loop_does(pairs):
    predicted = [forecast for forecast, _ in pairs]
    actual = [dropped for _, dropped in pairs]
    counts = ConfusionCounts.count(predicted, actual)
    assert counts == four_way_confusion(predicted, actual)
    assert all(type(value) is int for value in dataclasses.astuple(counts))
    # any iterables: a truth mapping's values in arrival order count the same
    assert ConfusionCounts.count(iter(predicted), dict(enumerate(actual)).values()) == counts


@pytest.mark.parametrize("bad", ["drop", None, 2, "1"])
def test_the_confusion_tally_refuses_an_entry_that_is_not_a_drop_flag(bad):
    message = f"^a drop flag is True or False, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        ConfusionCounts.count([True, bad, False], [True, False, False])
    with pytest.raises(ValueError, match=message):
        ConfusionCounts.count([True, False], [bad, True])


def test_evaluate_on_refuses_a_label_that_is_not_a_drop_flag():
    model = train_forest(_toy_examples(), trees=1, max_depth=2)
    examples = _toy_examples(n=4)
    examples[2] = LabeledExample(examples[2].features, "drop")
    with pytest.raises(ValueError, match="^a drop flag is True or False, got 'drop'$"):
        evaluate_on(model, examples)


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


def test_a_forest_of_k_trees_is_the_first_k_of_sixteen_and_the_sweep_scores_each_prefix():
    # tree_count_sweep trains only its largest forest, so each smaller one must be a prefix of it
    config = SwitchConfig(8, 32)
    examples = collect_trace(config, poisson_bursts(config, 0.03, 2000, 7))
    assert len(examples) == 2304
    train, test = split_examples(examples, 0.6, 7)
    counts = list(range(1, 17))
    forests = [train_forest(train, trees=count, max_depth=4, seed=7) for count in counts]
    for count, forest in zip(counts, forests):
        assert forest.trees == forests[-1].trees[:count]
    expected = [(count, evaluate_on(forest, test)) for count, forest in zip(counts, forests)]
    assert tree_count_sweep(examples, counts, max_depth=4, split=0.6, seed=7) == expected


def test_importing_the_package_does_not_load_numpy():
    # numpy is imported by the training path only, so start-up does not pay for it
    src = Path(shbuf.__file__).resolve().parent.parent
    code = "import sys, shbuf, shbuf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "[]"
