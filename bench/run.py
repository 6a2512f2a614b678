#!/usr/bin/env python3
"""The shbuf benchmark.

One workload per process:

    python3 bench/run.py --workload sweep_n48 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (pkts_per_s and setup_s
at a reference host speed, peak_rss_mb, ok_frac); with ``--trace 1`` it installs timing wrappers on
shbuf's public names and reports the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. A fuller record (environment, pass times, digests, failures)
is written to ``.bench_out/``. The exit code is 0 only when every operation
and check passed.

Every workload, each in its own fresh process, with a summary table:

    python3 bench/run.py --all --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# relative to ROOT, the working directory, so output files name the same paths in every checkout
OUT_DIR = Path(".bench_out")
WORKLOAD_NAMES = ("sweep_n48", "trace_n8", "learn_n8", "corpus_small")
DEFAULT_SEED = 1
# fresh interpreters that repeat the set-up; setup_s is the median
SETUP_CHILDREN = 6
# wall seconds of ``host_kernel`` on the reference host (Intel Xeon, 2.0 GHz, 2 vCPUs) when
# no other tenant slows it; every reported time is scaled to that host speed
REFERENCE_KERNEL_S = 0.0145
# how much shbuf's times stretch, in log terms, per unit stretch of the kernel's time when
# the host slows down: fitted per workload as 0.79-0.87 over runs made while the kernel
# took 14 to 32 ms on that host
HOST_ELASTICITY = 0.8


def host_kernel(rounds: int = 30000) -> int:
    """Fixed pure-Python work shaped like the simulator's inner loop.

    The host is shared, and other tenants make the same code run up to twice
    as slow, in phases from a fraction of a second to minutes long. Timing
    this kernel next to each timed chunk measures the host's speed at that
    moment, independently of shbuf (it never calls the library). Keys are
    ints so that the kernel allocates nothing the cyclic GC tracks.
    """
    n = 8
    queues = [deque() for _ in range(n)]
    lengths = [0] * n
    seen = {}
    x = total = 0
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        port = x % n
        if total >= 32:
            longest = lengths.index(max(lengths))
            queues[longest].pop()
            lengths[longest] -= 1
            total -= 1
        queues[port].append(i)
        lengths[port] += 1
        total += 1
        seen[i * n + port] = lengths[port]
        if not i & 3:
            for p in range(n):
                if lengths[p]:
                    queues[p].popleft()
                    lengths[p] -= 1
                    total -= 1
    return len(seen)


def kernel_s() -> float:
    t0 = time.perf_counter()
    host_kernel()
    return time.perf_counter() - t0


def at_reference_speed(elapsed: float, kernel: float) -> float:
    """Scale a wall time measured while the kernel took ``kernel`` seconds."""
    return elapsed * (REFERENCE_KERNEL_S / kernel) ** HOST_ELASTICITY


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no library to import)."""


def import_library():
    """Import shbuf from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "shbuf" / "__init__.py").is_file():
        raise SetupError(f"no shbuf package under {src}")
    sys.path.insert(0, str(src))
    import shbuf

    if Path(shbuf.__file__).resolve().parent != (src / "shbuf").resolve():
        raise SetupError(f"shbuf imported from {shbuf.__file__}, not from {src}")
    return shbuf


def environment() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    numpy = sys.modules.get("numpy")
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workload_dir(name: str, seed: int, suffix: str = "") -> Path:
    """Scratch directory for one run's files (traces, outcomes, models)."""
    return OUT_DIR / f"{name}-s{seed}{suffix}"


def recorded_digest(name: str, seed: int):
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    return recorded.get(name, {}).get(str(seed))


def timed_passes(workload, inputs, ledger, seconds: float, after_pass=None):
    """Repeat the pass while another one fits in ``seconds``; at least one pass.

    Returns one list per pass of ``(chunk wall seconds, host kernel seconds)``
    pairs, the kernel time being the mean of the kernel runs just before and
    just after the chunk, and the digest of each pass's outputs. Kernel runs,
    digests and invariant checks fall outside the timed chunks.
    """
    passes: list[list[tuple[float, float]]] = []
    digests: list[str] = []
    started = time.perf_counter()
    while True:
        timings, outputs = [], []
        kernel_before = kernel_s()
        try:
            for chunk in inputs.chunks:
                t0 = time.perf_counter()
                outputs.append(workload.run_chunk(inputs, chunk, ledger, outputs))
                elapsed = time.perf_counter() - t0
                kernel_after = kernel_s()
                timings.append((elapsed, (kernel_before + kernel_after) / 2))
                kernel_before = kernel_after
        except Exception as exc:  # a failed operation is counted, not fatal
            ledger.fail(f"{workload.name}: pass raised {exc!r}")
            break
        passes.append(timings)
        try:
            digests.append(workload.digest(inputs, outputs))
            workload.check(inputs, outputs, ledger)
        except Exception as exc:
            ledger.fail(f"{workload.name}: checking the outputs raised {exc!r}")
            break
        if after_pass is not None:
            after_pass()
        if time.perf_counter() - started + statistics.median(raw_pass_s(p) for p in passes) > seconds:
            break
    ledger.check(len(set(digests)) <= 1, f"{workload.name}: passes disagree: {sorted(set(digests))}")
    return passes, digests


def raw_pass_s(timings) -> float:
    return sum(elapsed for elapsed, _ in timings)


def reference_pass_s(passes) -> float:
    """Pass time at the reference host speed: the median of each chunk's
    scaled time over the run's passes, summed over chunks."""
    return sum(
        statistics.median(at_reference_speed(elapsed, kernel) for elapsed, kernel in repeats)
        for repeats in zip(*passes)
    )


def lqd_probe(workload, inputs, ledger, repeats: int) -> float:
    """Check ``throughput() == run_simulation().transmitted_count`` under LQD on
    the workload's sequences; return run_simulation time / throughput time."""
    from shbuf import analysis, core, policies

    ratios = []
    for _ in range(repeats):
        recorded_s = counted_s = 0.0
        for config, sequence in inputs.sequences:
            t0 = time.perf_counter()
            recorded = core.run_simulation(config, sequence, policies.LongestQueueDrop()).transmitted_count
            t1 = time.perf_counter()
            counted = analysis.throughput(config, sequence, policies.LongestQueueDrop())
            t2 = time.perf_counter()
            recorded_s += t1 - t0
            counted_s += t2 - t1
            ledger.check(
                recorded == counted,
                f"{workload.name}: throughput() {counted} != run_simulation() {recorded}",
            )
        ratios.append(recorded_s / counted_s)
    return statistics.median(ratios)


def measure_setup_child(name: str, seed: int, index: int, ledger):
    """(set-up seconds, host kernel seconds) from one fresh interpreter, or None."""
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--setup-only", str(index),
    ]
    ledger.op()
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=150, cwd=ROOT)
    except subprocess.TimeoutExpired:
        ledger.fail(f"{name}: set-up child {index} timed out")
        return None
    finally:
        shutil.rmtree(workload_dir(name, seed, f"-setup{index}"), ignore_errors=True)
    if done.returncode != 0:
        ledger.fail(f"{name}: set-up child {index} exited {done.returncode}: {done.stderr.strip()[-300:]}")
        return None
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["kernel_s"]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name, workload, inputs, ledger, seconds, seed, own_setup, record):
    passes, digests = timed_passes(workload, inputs, ledger, seconds)
    expected = recorded_digest(name, seed)
    if expected is not None and digests:
        ledger.check(digests[0] == expected, f"{name}: digest {digests[0]} != recorded {expected}")
    lqd_probe(workload, inputs, ledger, repeats=1)
    setup_samples = [own_setup]
    for index in range(SETUP_CHILDREN):
        sample = measure_setup_child(name, seed, index, ledger)
        if sample is not None:
            setup_samples.append(sample)
    record.update(
        chunk_and_kernel_s=passes, digests=digests, setup_and_kernel_s=setup_samples, packets=inputs.packets,
        wall_pkts_per_s=inputs.packets / statistics.median(map(raw_pass_s, passes)) if passes else 0.0,
        wall_setup_s=statistics.median(setup for setup, _ in setup_samples),
    )
    metrics = {
        "pkts_per_s": metric(inputs.packets / reference_pass_s(passes) if passes else 0.0, "pkt/s"),
        "setup_s": metric(
            statistics.median(at_reference_speed(setup, kernel) for setup, kernel in setup_samples), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    metrics["ok_frac"] = metric(1.0 - len(ledger.failures) / max(ledger.attempted, 1), "fraction")
    return metrics


def per_layer(name, workload, inputs, ledger, seconds, tracer, import_ms, record):
    setup_gen_ns = tracer.total_ns("workloads.poisson_bursts") + tracer.total_ns("workloads.uniform_random")
    tracer.reset()
    untraced_passes, untraced_digests = timed_passes(workload, inputs, ledger, 0.0)

    pass_counts = []

    def after_pass():
        totals = tracer.counts()
        previous = [sum(c[k] for c in pass_counts) for k in totals] if pass_counts else [0] * len(totals)
        pass_counts.append({k: v - p for (k, v), p in zip(totals.items(), previous)})

    tracer.phase = "pass"
    tracer.install()
    try:
        traced_passes, traced_digests = timed_passes(workload, inputs, ledger, seconds, after_pass)
    finally:
        tracer.uninstall()
    record_ratio = lqd_probe(workload, inputs, ledger, repeats=3)

    ledger.check(
        bool(traced_digests) and set(traced_digests) == set(untraced_digests),
        f"{name}: traced digests {sorted(set(traced_digests))} != untraced {sorted(set(untraced_digests))}",
    )
    ledger.check(
        all(c == pass_counts[0] for c in pass_counts),
        f"{name}: counts differ between traced passes: {pass_counts}",
    )
    passes = max(len(traced_passes), 1)
    counts = pass_counts[0] if pass_counts else tracer.counts()

    def per_call_ns(key):
        calls = tracer.calls(key)
        return tracer.self_ns(key) / calls if calls else 0.0

    def per_pass_ms(key):
        return tracer.total_ns(key) / passes / 1e6

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    gen_ms = setup_gen_ns / 1e6 + per_pass_ms("workloads.poisson_bursts") + per_pass_ms("workloads.uniform_random")
    values = {
        "core.depart_ns": (per_call_ns("core.depart"), "ns"),
        "core.depart_calls_per_pkt": (ratio(counts["depart_calls"], counts["arrivals"]), "ratio"),
        "core.arrive_ns": (per_call_ns("core.arrive"), "ns"),
        "core.record_ratio": (record_ratio, "ratio"),
        "core.load_trace_ms": (per_pass_ms("core.load_sequence"), "ms"),
        "core.save_outcomes_ms": (per_pass_ms("core.save_outcomes"), "ms"),
        "policies.lqd.on_arrival_ns": (per_call_ns("policies.lqd.on_arrival"), "ns"),
        "policies.follow_lqd.on_arrival_ns": (per_call_ns("policies.follow_lqd.on_arrival"), "ns"),
        "policies.credence.on_arrival_ns": (per_call_ns("policies.credence.on_arrival"), "ns"),
        "policies.dynamic_thresholds.on_arrival_ns": (
            per_call_ns("policies.dynamic_thresholds.on_arrival"), "ns"),
        "policies.thresholds.on_arrival_ns": (per_call_ns("policies.thresholds.on_arrival"), "ns"),
        "policies.on_departure_ns": (per_call_ns("policies.on_departure"), "ns"),
        "policies.lqd.full_frac": (
            ratio(counts["lqd_full_arrivals"], tracer.calls("policies.lqd.on_arrival") / passes), "fraction"),
        "oracles.features_ns": (per_call_ns("oracles.features"), "ns"),
        "oracles.feature_use_frac": (ratio(counts["forest_predicts"], counts["features_built"]), "fraction"),
        "oracles.perfect.predict_ns": (per_call_ns("oracles.perfect.predict"), "ns"),
        "oracles.flip.predict_ns": (per_call_ns("oracles.flip.predict"), "ns"),
        "oracles.forest.predict_ns": (per_call_ns("oracles.forest.predict"), "ns"),
        "oracles.queries_per_pkt": (
            ratio(counts["oracle_queries"], tracer.calls("policies.credence.on_arrival") / passes), "ratio"),
        "oracles.truth_ms": (per_pass_ms("oracles.ground_truth_from_run"), "ms"),
        "learner.collect_ms": (per_pass_ms("learner.collect_trace"), "ms"),
        "learner.train_ms": (per_pass_ms("learner.train_forest"), "ms"),
        "learner.evaluate_ms": (per_pass_ms("learner.evaluate_on"), "ms"),
        "learner.predict_one_ns": (per_call_ns("learner.predict_one"), "ns"),
        "analysis.throughput_ms": (per_pass_ms("analysis.throughput"), "ms"),
        "analysis.divergence_ms": (per_pass_ms("analysis.find_threshold_divergence"), "ms"),
        "analysis.opt_ms": (per_pass_ms("analysis.brute_force_opt"), "ms"),
        "analysis.eta_ms": (per_pass_ms("analysis.compute_eta"), "ms"),
        "workloads.gen_ms": (gen_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (tracer.self_ns("cli.main") / passes / 1e6, "ms"),
        "trace_overhead": (
            ratio(reference_pass_s(traced_passes), reference_pass_s(untraced_passes))
            if traced_passes and untraced_passes else 0.0, "ratio"),
    }
    for key, value in counts.items():
        values[f"count.{key}"] = (value, "count")
    record.update(
        untraced_chunk_s=untraced_passes, traced_chunk_s=traced_passes,
        digests=traced_digests, pass_counts=pass_counts,
        stats={k: v for k, v in sorted(tracer.stats.items()) if v[0]},
    )
    return {key: metric(value, unit) for key, (value, unit) in values.items()}


def run_one(args) -> int:
    kernel_before = kernel_s()
    started = time.perf_counter()
    try:
        import_library()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import shapes

    import_s = time.perf_counter() - started
    workload = shapes.WORKLOADS[args.workload]
    if args.setup_only is not None:
        outdir = workload_dir(args.workload, args.seed, f"-setup{args.setup_only}")
        outdir.mkdir(exist_ok=True)
        workload.setup(args.seed, outdir)
        setup_s = time.perf_counter() - started
        print(json.dumps({"setup_s": setup_s, "kernel_s": (kernel_before + kernel_s()) / 2}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    outdir = workload_dir(args.workload, args.seed)
    outdir.mkdir(exist_ok=True)
    ledger = shapes.Ledger()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            inputs = workload.traced_inputs(workload.setup(args.seed, outdir))
        finally:
            tracer.uninstall()
        metrics = per_layer(args.workload, workload, inputs, ledger, args.seconds, tracer,
                            import_s * 1e3, record)
        spans_path = OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        record["spans"] = str(spans_path)
    else:
        inputs = workload.setup(args.seed, outdir)
        own_setup = (time.perf_counter() - started, (kernel_before + kernel_s()) / 2)
        metrics = end_to_end(args.workload, workload, inputs, ledger, args.seconds, args.seed,
                             own_setup, record)

    result = {
        "correct": not ledger.failures,
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    record.update(result=result, failures=ledger.failures)
    shutil.rmtree(outdir, ignore_errors=True)  # traces and outcome files; the digests are kept
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for failure in ledger.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process; print every metric by name with its unit."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {done.returncode})")
            worst = max(worst, done.returncode or 1)
            continue
        result = json.loads(lines[-1])
        failed_frac = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={failed_frac:.6f} fraction")
        for key, entry in result["metrics"].items():
            print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed; 7331 is kept aside to confirm claims (README.md)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", dest="setup_only", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy is imported, and inherited by children
    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
