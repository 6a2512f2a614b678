"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q

They start the benchmark in subprocesses, some on a copy of the tree with
the library deliberately broken, and take a few minutes. The library's own
suite (``tests/``) does not collect them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_n48", "trace_n8", "learn_n8", "corpus_small")
SKIP = shutil.ignore_patterns("__pycache__", ".bench_out")


def run(tree: Path, *args: str):
    """Run the benchmark in ``tree``; return (exit code, parsed result or None, stderr)."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is not None and "correct" not in result:
        result = None
    return done.returncode, result, done.stderr


def copy_tree(tmp_path: Path, with_library: bool = True) -> Path:
    tree = tmp_path / "checkout"
    shutil.copytree(ROOT / "bench", tree / "bench", ignore=SKIP)
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    if with_library:
        shutil.copytree(ROOT / "src", tree / "src", ignore=SKIP)
    return tree


def edit(tree: Path, relative: str, old: str, new: str) -> None:
    path = tree / relative
    text = path.read_text()
    assert old in text, f"{relative} no longer contains {old!r}"
    path.write_text(text.replace(old, new, 1))


def test_fails_without_the_library(tmp_path):
    tree = copy_tree(tmp_path, with_library=False)
    code, result, _ = run(tree, "--workload", "sweep_n48", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert code != 0
    assert result is None


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "bench"))
    import run as bench_run

    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"pkts_per_s", "setup_s", "peak_rss_mb", "ok_frac"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = []
    for _ in range(2):
        code, result, err = run(ROOT, "--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1")
        assert code == 0 and result["correct"], err
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        assert result["metrics"]["trace_overhead"]["value"] > 1.0
        counts.append({k: v["value"] for k, v in result["metrics"].items() if k.startswith("count.")})
    assert counts[0] == counts[1]
    assert counts[0]["count.arrivals"] > 0


def test_tampered_output_fails(tmp_path):
    tree = copy_tree(tmp_path)
    # one extra byte in the outcomes header: only the recorded digest notices
    edit(tree, "src/shbuf/core.py", '"packet_slot,packet_pos,port,verdict"', '"packet_slot,packet_pos,port,verdict "')
    code, result, err = run(tree, "--workload", "trace_n8", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert "!= recorded" in err


def test_broken_invariant_fails(tmp_path):
    tree = copy_tree(tmp_path)
    # mirrored thresholds stop draining, so they drift away from LQD's queues
    edit(tree, "src/shbuf/policies.py", "            self.thresholds[port] -= 1\n            self.total -= 1\n", "            pass\n")
    # seed 3 has no recorded digest, so the invariant checks alone must catch it
    code, result, err = run(tree, "--workload", "corpus_small", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert code != 0
    assert result["correct"] is False
    assert "threshold divergence" in err
