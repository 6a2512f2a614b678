"""Time Credence runs at two shapes and five oracles against another checkout.

    python tools/credence_shapes.py --parent OTHER/src [--rounds 15]

loads this checkout's ``shbuf`` and the one under ``OTHER/src`` (for example
a ``git archive`` of the parent commit) side by side in one process. Each
side builds its own inputs from the same seeds: sweep_n48's shape (N=B=48,
the 120 burst sequences of seeds 1000-1119) and trace_n8's (N=8, B=32, the
four 25,000-slot burst traces of seeds 4-7), and for each sequence a perfect
oracle from its LongestQueueDrop run, flips of it at p = 0.1 and 0.7, a
constant drop oracle and a small forest, the same model file on both sides.
It fails unless both sides' Credence runs give identical verdict columns for
every sequence and oracle, and then times ``rounds`` runs of each over all
of a shape's sequences, alternating which side goes first. A run replays a
threshold column recorded beforehand, so what is timed is ``Credence``'s
set-up and arrivals and the simulation around them. It prints one JSON
object: per shape and oracle, the median and quartiles in ns per packet of
each side, and how many rounds the change won.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shbuf  # noqa: E402  (this checkout)
from _checkouts import load_other, quartiles  # noqa: E402

# (N, B, burst rate, horizon, sequence seeds), as bench/shapes.py builds them for seed 1
SHAPES = {
    "sweep_n48": (48, 48, 0.00833, 1000, range(1000, 1120)),
    "trace_n8": (8, 32, 0.03, 25_000, range(4, 8)),
}
ORACLES = ("perfect", "flip 0.1", "flip 0.7", "constant drop", "forest")
FLIP_SEED = 1


def _model_file(directory: str) -> str:
    """A 4-tree depth-4 forest trained by this checkout on an 8x32 burst trace."""
    config = shbuf.SwitchConfig(8, 32)
    examples = shbuf.collect_trace(config, shbuf.workloads.poisson_bursts(config, 1 / 32, 4000, 1))
    path = str(Path(directory) / "model.json")
    shbuf.save_forest(shbuf.train_forest(examples, trees=4, max_depth=4, seed=1), path)
    return path


def _runs(side, shape, model: str) -> dict:
    """oracle name -> [(config, sequence, levels, oracle)], built by ``side``."""
    num_ports, buffer_size, rate, horizon, seeds = SHAPES[shape]
    config = side.SwitchConfig(num_ports, buffer_size)
    forest = side.ForestOracle(side.load_forest(model))
    runs = {name: [] for name in ORACLES}
    for seed in seeds:
        sequence = side.workloads.poisson_bursts(config, rate, horizon, seed)
        levels = side.threshold_levels(config, sequence)
        perfect = side.PerfectOracle.from_run(side.run_simulation(config, sequence, side.LongestQueueDrop()))
        oracles = {
            "perfect": perfect,
            "flip 0.1": side.FlipOracle(perfect, 0.1, FLIP_SEED, sequence),
            "flip 0.7": side.FlipOracle(perfect, 0.7, FLIP_SEED, sequence),
            "constant drop": side.ConstantOracle(side.PredictionLabel.POSITIVE),
            "forest": forest,
        }
        for name, oracle in oracles.items():
            runs[name].append((config, sequence, levels, oracle))
    return runs


def _verdicts(side, runs) -> list[list[str]]:
    return [
        [verdict.value for verdict in side.run_simulation(config, sequence, side.Credence(oracle, levels)).verdicts]
        for config, sequence, levels, oracle in runs
    ]


def _time_ns(side, runs) -> int:
    run_simulation, credence = side.run_simulation, side.Credence
    start = time.perf_counter_ns()
    for config, sequence, levels, oracle in runs:
        run_simulation(config, sequence, credence(oracle, levels))
    return time.perf_counter_ns() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the src directory of the checkout to compare with")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    sides = {"parent": load_other(args.parent), "change": shbuf}
    table = {}
    with tempfile.TemporaryDirectory() as directory:
        model = _model_file(directory)
        for shape in SHAPES:
            runs = {side: _runs(package, shape, model) for side, package in sides.items()}
            for name in ORACLES:
                case = f"{shape} {name}"
                columns = {side: _verdicts(sides[side], runs[side][name]) for side in sides}
                if columns["parent"] != columns["change"]:
                    raise SystemExit(f"{case}: the two checkouts give different verdict columns")
                packets = sum(sequence.total_packets for _, sequence, _, _ in runs["change"][name])
                times = {side: [] for side in sides}
                for round_ in range(args.rounds):
                    for side in ("parent", "change") if round_ % 2 == 0 else ("change", "parent"):
                        times[side].append(_time_ns(sides[side], runs[side][name]) / packets)
                wins = sum(change < parent for parent, change in zip(times["parent"], times["change"]))
                table[case] = {
                    "packets": packets,
                    "identical_verdicts": True,
                    "parent_ns_per_packet": quartiles(times["parent"]),
                    "change_ns_per_packet": quartiles(times["change"]),
                    "change_wins": f"{wins}/{args.rounds}",
                }
                print(json.dumps({case: table[case]}), file=sys.stderr, flush=True)
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
