"""The four benchmark workloads.

Each workload builds its inputs from the run seed (``setup``). A pass runs
every chunk of the inputs in order (``run_chunk``, timed one by one, given
the outputs of the pass's earlier chunks); the pass's outputs are hashed
(``digest``) and checked against invariants that hold for any seed
(``check``). Inputs are built before timing starts; a chunk only calls
shbuf. Functions are called through their modules
(``analysis.throughput``, not a local import) so that the tracer's wrappers
see every call. README.md in this directory says why each workload was
chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

from shbuf import analysis, cli, core, learner, oracles, policies, workloads
from shbuf.core import ArrivalSequence, SwitchConfig


class Ledger:
    """Counts operations attempted and records each one that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Inputs:
    """What ``setup`` built: every sequence a pass reads, and the pass's chunks."""

    sequences: list[tuple[SwitchConfig, ArrivalSequence]]
    chunks: list
    seed: int
    outdir: Path

    @property
    def packets(self) -> int:
        return sum(sequence.total_packets for _, sequence in self.sequences)


class Workload:
    name: str

    def traced_inputs(self, inputs: Inputs) -> Inputs:
        """The inputs the traced run uses; all of them unless tracing them is too slow."""
        return inputs


# --- sweep_n48: the README ``sweep`` shape -------------------------------------

SWEEP_CONFIG = SwitchConfig(48, 48)
SWEEP_RATE = 0.00833
SWEEP_HORIZON = 1000
SWEEP_P = (0.0, 0.1, 0.3, 0.5, 0.7)
SWEEP_SEEDS = 120
SWEEP_CHUNK = 10
# wrapping ~36M departure calls makes a traced pass over all 120 seeds take
# ~100 s, so the traced run covers the first 40
SWEEP_TRACED_CHUNKS = 4


class SweepN48(Workload):
    name = "sweep_n48"

    def setup(self, seed: int, outdir: Path) -> Inputs:
        seeds = [seed * 1000 + i for i in range(SWEEP_SEEDS)]
        # competitive_sweep regenerates these itself; they are built here to
        # know the input size and for the LQD record/throughput probe
        sequences = [
            (SWEEP_CONFIG, workloads.poisson_bursts(SWEEP_CONFIG, SWEEP_RATE, SWEEP_HORIZON, s))
            for s in seeds
        ]
        chunks = [seeds[i : i + SWEEP_CHUNK] for i in range(0, len(seeds), SWEEP_CHUNK)]
        return Inputs(sequences, chunks, seed, outdir)

    def traced_inputs(self, inputs: Inputs) -> Inputs:
        chunks = inputs.chunks[:SWEEP_TRACED_CHUNKS]
        return Inputs(inputs.sequences[: sum(map(len, chunks))], chunks, inputs.seed, inputs.outdir)

    def run_chunk(self, inputs: Inputs, seeds, ledger: Ledger, earlier: list):
        ledger.op()
        return analysis.competitive_sweep(SWEEP_CONFIG, SWEEP_P, seeds, SWEEP_RATE, SWEEP_HORIZON)

    def digest(self, inputs: Inputs, outputs) -> str:
        return _sha(
            *(
                f"{r.p!r},{r.seed},{r.lqd_throughput},{r.credence_throughput},{r.dt_throughput}"
                for rows in outputs
                for r in rows
            )
        )

    def check(self, inputs: Inputs, outputs, ledger: Ledger) -> None:
        rows = [row for chunk_rows in outputs for row in chunk_rows]
        seeds = sum(inputs.chunks, [])
        ledger.check(len(rows) == len(SWEEP_P) * len(seeds), f"sweep: {len(rows)} rows")
        packets = {s: sequence.total_packets for s, (_, sequence) in zip(seeds, inputs.sequences)}
        for row in rows:
            total = packets.get(row.seed, -1)
            ledger.check(
                0 <= row.credence_throughput <= total
                and 0 <= row.dt_throughput <= total
                and 0 <= row.lqd_throughput <= total,
                f"sweep seed {row.seed} p={row.p}: throughput outside [0, {total}]",
            )
            if row.p == 0.0:
                ledger.check(
                    row.credence_throughput == row.lqd_throughput,
                    f"sweep seed {row.seed}: Credence(flip p=0) {row.credence_throughput}"
                    f" != LQD {row.lqd_throughput}",
                )


# --- trace_n8: the README gen -> simulate path ------------------------------------

TRACE_CONFIG = SwitchConfig(8, 32)
TRACE_RATE = 0.03
TRACE_HORIZON = 25_000
# four traces of ~24k packets: short enough that the host-speed kernel runs
# every second or so and a 20 s run repeats each trace about five times
TRACE_FILES = 4


class TraceN8(Workload):
    name = "trace_n8"

    def setup(self, seed: int, outdir: Path) -> Inputs:
        sequences, chunks = [], []
        for index in range(TRACE_FILES):
            trace_seed = seed * TRACE_FILES + index
            spec = workloads.WorkloadSpec(
                "poisson_bursts", {"rate": TRACE_RATE, "horizon": TRACE_HORIZON, "seed": trace_seed}
            )
            sequence = workloads.poisson_bursts(TRACE_CONFIG, TRACE_RATE, TRACE_HORIZON, trace_seed)
            trace = outdir / f"trace-{index}.csv"
            core.save_sequence(trace, sequence, comment=workloads.spec_comment(TRACE_CONFIG, spec))
            argv = [
                "simulate", "--ports", "8", "--buffer", "32", "--trace", str(trace),
                "--policy", "credence", "--oracle", "flip", "--flip-p", "0.1",
                "--seed", str(seed), "--out", str(outdir / f"outcomes-{index}.csv"),
            ]
            sequences.append((TRACE_CONFIG, sequence))
            chunks.append(argv)
        return Inputs(sequences, chunks, seed, outdir)

    def run_chunk(self, inputs: Inputs, argv, ledger: Ledger, earlier: list):
        ledger.op()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        return code, printed.getvalue()

    def _files(self, inputs: Inputs, index: int) -> tuple[bytes, bytes]:
        out = inputs.outdir / f"outcomes-{index}.csv"
        return out.read_bytes(), Path(str(out) + ".config.txt").read_bytes()

    def digest(self, inputs: Inputs, outputs) -> str:
        return _sha(*(part for index in range(TRACE_FILES) for part in self._files(inputs, index)))

    def check(self, inputs: Inputs, outputs, ledger: Ledger) -> None:
        for index, ((code, printed), (_, sequence)) in enumerate(zip(outputs, inputs.sequences)):
            ledger.check(code == 0, f"trace {index}: simulate exited {code}")
            total = sequence.total_packets
            fields = dict(item.split("=", 1) for item in printed.split())
            transmitted = int(fields.get("transmitted", -1))
            dropped = int(fields.get("dropped", -1))
            ledger.check(
                transmitted + dropped == total,
                f"trace {index}: transmitted {transmitted} + dropped {dropped} != arrivals {total}",
            )
            rows = self._files(inputs, index)[0].decode().splitlines()[1:]
            sent = sum(row.endswith(",transmitted") for row in rows)
            ledger.check(len(rows) == total, f"trace {index}: {len(rows)} outcome rows for {total} arrivals")
            ledger.check(sent == transmitted, f"trace {index}: outcomes file transmits {sent}, CLI says {transmitted}")


# --- learn_n8: the train + evaluate pipeline ---------------------------------------

LEARN_CONFIG = SwitchConfig(8, 32)
LEARN_RATE = 1 / 32
LEARN_HORIZON = 30_000
LEARN_TREES = 16
LEARN_DEPTH = 8
# one chunk per pipeline step; each step reads the results of the steps before it
LEARN_STEPS = ("collect", "split", "train", "evaluate", "truth", "simulate", "eta")


class LearnN8(Workload):
    name = "learn_n8"

    def setup(self, seed: int, outdir: Path) -> Inputs:
        sequence = workloads.poisson_bursts(LEARN_CONFIG, LEARN_RATE, LEARN_HORIZON, seed)
        return Inputs([(LEARN_CONFIG, sequence)], list(LEARN_STEPS), seed, outdir)

    def run_chunk(self, inputs: Inputs, step: str, ledger: Ledger, earlier: list):
        config, sequence = inputs.sequences[0]
        seed = inputs.seed
        done = dict(zip(LEARN_STEPS, earlier))
        ledger.op()
        if step == "collect":
            return learner.collect_trace(config, sequence)
        if step == "split":
            return learner.split_examples(done["collect"], 0.6, seed)
        if step == "train":
            train, _ = done["split"]
            return learner.train_forest(train, trees=LEARN_TREES, max_depth=LEARN_DEPTH, seed=seed)
        if step == "evaluate":
            _, test = done["split"]
            return learner.evaluate_on(done["train"], test)
        if step == "truth":
            lqd = core.run_simulation(config, sequence, policies.LongestQueueDrop())
            return oracles.ground_truth_from_run(lqd)
        if step == "simulate":
            return analysis.simulate_with_prediction_log(config, sequence, oracles.ForestOracle(done["train"]))
        result, predictions = done["simulate"]
        return analysis.compute_eta(config, sequence, predictions, done["truth"])

    def digest(self, inputs: Inputs, outputs) -> str:
        done = dict(zip(LEARN_STEPS, outputs))
        model_path = inputs.outdir / "model.json"
        learner.save_forest(done["train"], model_path)
        result, _ = done["simulate"]
        return _sha(
            model_path.read_bytes(), repr(done["evaluate"]), repr(done["eta"]),
            result.transmitted_count, result.dropped_count,
        )

    def check(self, inputs: Inputs, outputs, ledger: Ledger) -> None:
        done = dict(zip(LEARN_STEPS, outputs))
        total = inputs.packets
        train, test = done["split"]
        result, predictions = done["simulate"]
        report = done["eta"]
        ledger.check(len(done["collect"]) == total, f"learn: {len(done['collect'])} examples for {total} arrivals")
        ledger.check(len(train) + len(test) == total, "learn: split loses examples")
        ledger.check(done["evaluate"].confusion.total == len(test), "learn: confusion total != test size")
        ledger.check(
            result.transmitted_count + result.dropped_count == total,
            "learn: Credence(forest) transmitted + dropped != arrivals",
        )
        ledger.check(len(predictions) == total, f"learn: {len(predictions)} predictions logged")
        ledger.check(report.confusion.total == total, "learn: eta confusion total != arrivals")
        ledger.check(
            report.lqd_transmitted == total - sum(done["truth"].values()),
            "learn: eta LQD throughput disagrees with the recorded LQD run",
        )


# --- corpus_small: a slice of the acceptance corpus --------------------------------

CORPUS_GRID = [(n, b) for n in (2, 4, 8) for b in (8, 16, 64)]
CORPUS_LOADS = (0.3, 0.6, 0.9)
CORPUS_HORIZON = 2000
# 54 consecutive indices visit every (N, B) cell with both generators and all loads
CORPUS_SEQUENCES = 108
CORPUS_CHUNK = 18
TINY_CELLS = [(n, b) for n in (2, 3) for b in range(2, 7)]
TINY_INSTANCES = 120
TINY_MAX_PACKETS = 16


def _tiny_instance(rng: random.Random, index: int) -> tuple[SwitchConfig, ArrivalSequence]:
    n, b = TINY_CELLS[index % len(TINY_CELLS)]
    slots: list[list[int]] = []
    total = 0
    for _ in range(rng.randint(1, 10)):
        take = min(rng.randint(0, n), TINY_MAX_PACKETS - total)
        slots.append([rng.randrange(n) for _ in range(take)])
        total += take
        if total >= TINY_MAX_PACKETS:
            break
    return SwitchConfig(n, b), ArrivalSequence(slots)


class CorpusSmall(Workload):
    name = "corpus_small"

    def setup(self, seed: int, outdir: Path) -> Inputs:
        corpus = []
        for i in range(CORPUS_SEQUENCES):
            n, b = CORPUS_GRID[i % len(CORPUS_GRID)]
            config = SwitchConfig(n, b)
            sub_seed = seed * 1000 + i
            if (i // len(CORPUS_GRID)) % 2 == 0:
                load = CORPUS_LOADS[(i // 18) % 3]
                sequence = workloads.uniform_random(config, load, CORPUS_HORIZON, sub_seed)
            else:
                sequence = workloads.poisson_bursts(config, 1.0 / (2 * b), CORPUS_HORIZON, sub_seed)
            corpus.append((config, sequence))
        rng = random.Random(seed)
        tiny = [_tiny_instance(rng, i) for i in range(TINY_INSTANCES)]
        chunks = [("corpus", start, corpus[start : start + CORPUS_CHUNK]) for start in range(0, len(corpus), CORPUS_CHUNK)]
        chunks.append(("tiny", 0, tiny))
        return Inputs(corpus + tiny, chunks, seed, outdir)

    def run_chunk(self, inputs: Inputs, chunk, ledger: Ledger, earlier: list):
        kind, start, items = chunk
        accept = oracles.ConstantOracle(oracles.PredictionLabel.NEGATIVE)
        drop = oracles.ConstantOracle(oracles.PredictionLabel.POSITIVE)
        rows = []
        for i, (config, sequence) in enumerate(items, start):
            ledger.op(3)
            lqd = core.run_simulation(config, sequence, policies.LongestQueueDrop())
            credence = analysis.throughput(
                config, sequence, policies.Credence(oracles.PerfectOracle.from_run(lqd))
            )
            if kind == "corpus":
                found = analysis.find_threshold_divergence(config, sequence, drop if i % 2 else accept)
            else:
                found = analysis.brute_force_opt(config, sequence)
            rows.append((kind, i, found, lqd.transmitted_count, lqd.dropped_count, credence))
        return rows

    def digest(self, inputs: Inputs, outputs) -> str:
        return _sha(*(repr(row) for rows in outputs for row in rows))

    def check(self, inputs: Inputs, outputs, ledger: Ledger) -> None:
        rows = [row for chunk_rows in outputs for row in chunk_rows]
        ledger.check(len(rows) == len(inputs.sequences), f"corpus: {len(rows)} results")
        for (config, sequence), (kind, i, found, lqd_tx, lqd_dropped, credence_tx) in zip(inputs.sequences, rows):
            ledger.check(
                lqd_tx + lqd_dropped == sequence.total_packets,
                f"{kind} {i}: LQD transmitted + dropped != arrivals",
            )
            if kind == "corpus":
                ledger.check(found is None, f"corpus {i}: threshold divergence {found}")
                ledger.check(credence_tx >= lqd_tx, f"corpus {i}: Credence(perfect) {credence_tx} < LQD {lqd_tx}")
            else:
                ledger.check(
                    lqd_tx <= found <= config.num_ports * credence_tx,
                    f"tiny {i}: not LQD {lqd_tx} <= OPT {found} <= N * Credence {credence_tx}",
                )


WORKLOADS = {w.name: w for w in (SweepN48(), TraceN8(), LearnN8(), CorpusSmall())}
