"""Time ``analysis.competitive_sweep`` at three shapes against another checkout.

    python tools/sweep_shapes.py --parent OTHER/src [--rounds 15]

loads this checkout's ``shbuf`` and the one under ``OTHER/src`` (for example
a ``git archive`` of the parent commit) side by side in one process, fails
unless both give the same rows at each shape, and then times ``rounds``
sweeps of each, alternating which goes first. The benchmark's shape takes
its ten-seed chunks in turn, one chunk per round. It prints one JSON object:
per shape, the median and quartiles of each side's wall time in ms, the CPU
ms per sweep that this process (``RUSAGE_SELF``) and the children it forked
and reaped (``RUSAGE_CHILDREN``) used, and how many rounds the change won.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shbuf  # noqa: E402  (this checkout)
from _checkouts import load_other, quartiles  # noqa: E402

P_VALUES = (0.0, 0.1, 0.3, 0.5, 0.7)

# name -> (ports = buffer, rate, horizon, p values, the seed lists a round cycles through)
SHAPES = {
    # bench/run.py's sweep_n48 at seed 1: 120 seeds in twelve chunks of ten
    "sweep_n48 chunk (10 seeds)": (48, 0.00833, 1000, P_VALUES, [range(1000 + i, 1010 + i) for i in range(0, 120, 10)]),
    # README's sweep line
    "README sweep (20 seeds)": (48, 0.00833, 1000, P_VALUES, [range(1, 21)]),
    # CI's small sweep, far below the break-even
    "8x8 sweep (2 seeds)": (8, 0.05, 200, (0.0, 0.5), [range(1, 3)]),
}


def _rows(analysis, ports, rate, horizon, p_values, seeds) -> list[tuple]:
    config = importlib.import_module(analysis.__name__.replace(".analysis", ".core")).SwitchConfig(ports, ports)
    rows = analysis.competitive_sweep(config, p_values, seeds, rate, horizon)
    return [(row.p, row.seed, row.lqd_throughput, row.credence_throughput, row.dt_throughput) for row in rows]


def _cpu_ms(who) -> float:
    usage = resource.getrusage(who)
    return (usage.ru_utime + usage.ru_stime) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the src directory of the checkout to compare with")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    analyses = {
        side: importlib.import_module(package.__name__ + ".analysis")
        for side, package in (("parent", load_other(args.parent)), ("change", shbuf))
    }
    table = {}
    for name, (ports, rate, horizon, p_values, chunks) in SHAPES.items():
        for seeds in chunks:
            rows = {side: _rows(analysis, ports, rate, horizon, p_values, seeds) for side, analysis in analyses.items()}
            if rows["parent"] != rows["change"]:
                raise SystemExit(f"{name}, seeds {seeds.start}-{seeds.stop - 1}: the two checkouts give different rows")
        wall = {side: [] for side in analyses}
        cpu = {side: {"self": [], "children": []} for side in analyses}
        for round_ in range(args.rounds):
            seeds = chunks[round_ % len(chunks)]
            for side in ("parent", "change") if round_ % 2 == 0 else ("change", "parent"):
                own, children = _cpu_ms(resource.RUSAGE_SELF), _cpu_ms(resource.RUSAGE_CHILDREN)
                start = time.perf_counter()
                _rows(analyses[side], ports, rate, horizon, p_values, seeds)
                wall[side].append((time.perf_counter() - start) * 1e3)
                cpu[side]["self"].append(_cpu_ms(resource.RUSAGE_SELF) - own)
                cpu[side]["children"].append(_cpu_ms(resource.RUSAGE_CHILDREN) - children)
        wins = sum(change < parent for parent, change in zip(wall["parent"], wall["change"]))
        table[name] = {
            "seeds_per_sweep": len(chunks[0]),
            "identical_rows": True,
            "parent_ms": quartiles(wall["parent"]),
            "change_ms": quartiles(wall["change"]),
            "cpu_ms": {side: {who: quartiles(times) for who, times in cpu[side].items()} for side in analyses},
            "change_wins": f"{wins}/{args.rounds}",
        }
        print(json.dumps({name: table[name]}), file=sys.stderr, flush=True)
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
