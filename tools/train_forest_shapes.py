"""Time ``learner.train_forest`` at four shapes against another checkout.

    python tools/train_forest_shapes.py --parent OTHER/src [--rounds 15]

loads this checkout's ``shbuf`` and the one under ``OTHER/src`` (for example
a ``git archive`` of the parent commit) side by side in one process, trains
both on the same examples at each shape, fails unless the two model files
are byte-identical, and then times ``rounds`` trainings of each, alternating
which goes first. It prints one JSON object: per shape, the median and
quartiles in ms of each side, and how many rounds the change won.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shbuf  # noqa: E402  (this checkout)
from _checkouts import load_other, quartiles  # noqa: E402
from shbuf.learner import collect_trace, split_examples  # noqa: E402
from shbuf.oracles import PredictionLabel  # noqa: E402
from shbuf.workloads import poisson_bursts  # noqa: E402

SEED = 1


def _shapes() -> dict:
    """name -> (rows of (features, drop), trees, depth)."""
    # learn_n8's training part: an 8x32 switch, 30,000 slots of bursts, a 0.6 split
    config = shbuf.SwitchConfig(8, 32)
    learn, _ = split_examples(collect_trace(config, poisson_bursts(config, 1 / 32, 30_000, SEED)), 0.6, SEED)
    learn = [(tuple(features), label is PredictionLabel.POSITIVE) for features, label in learn]
    rng = random.Random(12)
    # more examples than a 16-bit rank can number
    wide = [
        ((rng.randrange(4), rng.randrange(50) / 4, rng.randrange(33), rng.random()), rng.random() < 0.3)
        for _ in range(70_000)
    ]
    # few distinct values per feature, so most split candidates tie
    tied = [
        ((rng.choice((0, 1, 2, 3)), rng.choice((0.0, 0.25, 0.5, 1.5, 3.0)), rng.choice((0, 4, 8, 9, 16)),
          rng.choice((0.0, 0.5, 1.5))), rng.random() < 0.4)
        for _ in range(200)
    ]
    return {
        "learn_n8 (16 trees, depth 8)": (learn, 16, 8),
        "CLI default (4 trees, depth 4)": (learn, 4, 4),
        "70,000 examples (4 trees, depth 8)": (wide, 4, 8),
        "200 tied examples (4 trees, depth 6)": (tied, 4, 6),
    }


def _examples(learner, rows):
    """``rows`` as LabeledExamples of ``learner``'s package, whose trainer checks labels by identity."""
    label = importlib.import_module(learner.__name__.replace(".learner", ".oracles")).PredictionLabel
    return [learner.LabeledExample(features, label.POSITIVE if drop else label.NEGATIVE) for features, drop in rows]


def _model_text(learner, examples, trees, depth) -> str:
    model = learner.train_forest(examples, trees=trees, max_depth=depth, seed=SEED)
    return json.dumps([learner._node_to_obj(tree) for tree in model.trees])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the src directory of the checkout to compare with")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    learners = {
        side: importlib.import_module(package.__name__ + ".learner")
        for side, package in (("parent", load_other(args.parent)), ("change", shbuf))
    }
    table = {}
    for name, (rows, trees, depth) in _shapes().items():
        examples = {side: _examples(learner, rows) for side, learner in learners.items()}
        texts = {side: _model_text(learner, examples[side], trees, depth) for side, learner in learners.items()}
        if texts["parent"] != texts["change"]:
            raise SystemExit(f"{name}: the two checkouts grow different trees")
        times = {side: [] for side in learners}
        for round_ in range(args.rounds):
            for side in ("parent", "change") if round_ % 2 == 0 else ("change", "parent"):
                start = time.perf_counter()
                learners[side].train_forest(examples[side], trees=trees, max_depth=depth, seed=SEED)
                times[side].append((time.perf_counter() - start) * 1e3)
        wins = sum(change < parent for parent, change in zip(times["parent"], times["change"]))
        table[name] = {
            "examples": len(rows),
            "identical_trees": True,
            "parent_ms": quartiles(times["parent"]),
            "change_ms": quartiles(times["change"]),
            "change_wins": f"{wins}/{args.rounds}",
        }
        print(json.dumps({name: table[name]}), file=sys.stderr, flush=True)
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
