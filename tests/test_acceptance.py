"""End-to-end acceptance checks.

One test per promised behavior, each printing a summary line with the
measured numbers (visible with ``pytest -s`` or in the captured output).
Criteria 01, 02 and 11 share the 1000-sequence corpus, built once for the
module by the ``corpus`` fixture instead of once per criterion. The
trade-off: the criteria no longer stand alone, the corpus (0.6-1 s to
build, about 18 MB) is held until the module's last test ends, and
criterion 11, which reads only the first 108 sequences, builds all 1000
when run by itself. Sharing is safe because a sequence cannot change: its
rows are tuples and its arrival slots ``bytes`` behind a read-only view, so
no run in one criterion can alter what another reads. The other corpora
are regenerated deterministically inside each test.
"""

import math
import random
from fractions import Fraction
from statistics import mean

import pytest

from shbuf import (
    ArrivalSequence,
    Credence,
    FollowLqd,
    LongestQueueDrop,
    PerfectOracle,
    SwitchConfig,
    run_simulation,
)
from shbuf.analysis import (
    LQD_COMPETITIVE_RATIO,
    brute_force_opt,
    competitive_sweep,
    compute_eta,
    find_threshold_divergence,
    simulate_with_prediction_log,
    throughput,
)
from shbuf.cli import main
from shbuf.learner import (
    collect_trace,
    evaluate_on,
    save_examples,
    split_examples,
    train_forest,
    tree_count_sweep,
)
from shbuf.oracles import (
    ConstantOracle,
    FlipOracle,
    ForestOracle,
    PredictionLabel,
    ground_truth_from_run,
)
from shbuf.workloads import (
    followlqd_adversary,
    followlqd_adversary_fill,
    poisson_bursts,
    uniform_random,
)

from conftest import dense_slots

POS = PredictionLabel.POSITIVE
NEG = PredictionLabel.NEGATIVE

GRID = [(n, b) for n in (2, 4, 8) for b in (8, 16, 64)]
CORPUS_SIZE = 1000
CORPUS_HORIZON = 2000
LOADS = (0.3, 0.6, 0.9)


@pytest.fixture(scope="module")
def corpus():
    """The shared 1000-sequence corpus: every (N, B) cell, both generators, mixed loads."""
    entries = []
    for i in range(CORPUS_SIZE):
        n, b = GRID[i % len(GRID)]
        config = SwitchConfig(n, b)
        seed = 10_000 + i
        if (i // len(GRID)) % 2 == 0:
            sequence = uniform_random(config, LOADS[(i // 18) % 3], CORPUS_HORIZON, seed)
        else:
            sequence = poisson_bursts(config, 1.0 / (2 * b), CORPUS_HORIZON, seed)
        entries.append((i, config, sequence))
    return entries


def tiny_instances(count=500):
    """Seeded sample over the tiny grid N in {2,3}, B in {2..6}, at most 12 packets."""
    cells = [(n, b) for n in (2, 3) for b in range(2, 7)]
    rng = random.Random(424242)
    for i in range(count):
        n, b = cells[i % len(cells)]
        slots = []
        total = 0
        for _ in range(rng.randint(1, 8)):
            take = min(rng.randint(0, n), 12 - total)
            slots.append([rng.randrange(n) for _ in range(take)])
            total += take
            if total >= 12:
                break
        yield SwitchConfig(n, b), ArrivalSequence(slots)


def test_criterion_01_threshold_mirror_is_exact(corpus):
    checked = 0
    for i, config, sequence in corpus:
        divergence = find_threshold_divergence(config, sequence)
        assert divergence is None, f"sequence {i}: {divergence}"
        checked += 1
    print(f"criterion 1: PASS - per-port and bulk thresholds equal shadow LQD queues on {checked} sequences")


def test_criterion_02_perfect_predictions_match_lqd(corpus):
    strict = 0
    total = 0
    for i, config, sequence in corpus:
        lqd = run_simulation(config, sequence, LongestQueueDrop())
        credence_tx = throughput(config, sequence, Credence(PerfectOracle.from_run(lqd)))
        assert credence_tx >= lqd.transmitted_count, (
            f"sequence {i}: Credence {credence_tx} < LQD {lqd.transmitted_count}"
        )
        if credence_tx > lqd.transmitted_count:
            strict += 1
        total += 1
    print(
        f"criterion 2: PASS - Credence >= LQD on {total} sequences; "
        f"strict inequalities (soft report): {strict}"
    )


def test_criterion_03_robust_against_any_oracle():
    checked = 0
    for config, sequence in tiny_instances():
        opt = brute_force_opt(config, sequence)
        lqd = run_simulation(config, sequence, LongestQueueDrop())
        truth = ground_truth_from_run(lqd)
        oracles = (
            PerfectOracle(truth),
            ConstantOracle(POS),
            ConstantOracle(NEG),
            FlipOracle(PerfectOracle(truth), 1.0, checked, sequence),
        )
        for oracle in oracles:
            tx = throughput(config, sequence, Credence(oracle))
            assert opt <= config.num_ports * tx, (
                f"N={config.num_ports} B={config.buffer_size} slots={dense_slots(sequence)}: "
                f"OPT {opt} > N * {tx}"
            )
            checked += 1
    print(f"criterion 3: PASS - OPT <= N * Credence on {checked} oracle-instance pairs")


def test_criterion_04_error_scaled_bound_holds():
    checked = 0
    for config, sequence in tiny_instances():
        opt = brute_force_opt(config, sequence)
        lqd = run_simulation(config, sequence, LongestQueueDrop())
        truth = ground_truth_from_run(lqd)
        oracles = (
            PerfectOracle(truth),
            ConstantOracle(POS),
            ConstantOracle(NEG),
            FlipOracle(PerfectOracle(truth), 1.0, checked, sequence),
        )
        for oracle in oracles:
            result, predictions = simulate_with_prediction_log(config, sequence, oracle)
            report = compute_eta(config, sequence, predictions, truth)
            if report.reduced_transmitted > 0:
                eta = Fraction(report.lqd_transmitted, report.reduced_transmitted)
                bound = min(LQD_COMPETITIVE_RATIO * eta, Fraction(config.num_ports))
            else:
                bound = Fraction(config.num_ports)
            assert Fraction(opt) <= bound * result.transmitted_count, (
                f"N={config.num_ports} B={config.buffer_size} slots={dense_slots(sequence)}: "
                f"OPT {opt} > {bound} * {result.transmitted_count}"
            )
            checked += 1
    print(f"criterion 4: PASS - OPT <= min(1.707*eta, N) * Credence on {checked} pairs")


def test_criterion_05_eta_within_closed_form_bound():
    # two small pre-trained predictors reused across the sampled instances
    train_config = SwitchConfig(4, 16)
    train_seq = poisson_bursts(train_config, 1 / 16, 2000, seed=808)
    model_a = train_forest(collect_trace(train_config, train_seq), trees=4, max_depth=4, seed=1)
    train_config_b = SwitchConfig(3, 8)
    train_seq_b = poisson_bursts(train_config_b, 1 / 8, 2000, seed=809)
    model_b = train_forest(collect_trace(train_config_b, train_seq_b), trees=4, max_depth=4, seed=2)

    rng = random.Random(515151)
    flip_ps = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    checked = 0
    for i in range(500):
        n = rng.choice((2, 3, 4))
        b = rng.choice((4, 8, 16))
        config = SwitchConfig(n, b)
        sequence = uniform_random(config, rng.choice((0.5, 0.8, 1.0)), 60, seed=600_000 + i)
        truth = ground_truth_from_run(run_simulation(config, sequence, LongestQueueDrop()))
        if i % 2 == 0:
            oracle = FlipOracle(PerfectOracle(truth), flip_ps[i % len(flip_ps)], seed=i, sequence=sequence)
        else:
            oracle = ForestOracle(model_a if i % 4 == 1 else model_b)
        _, predictions = simulate_with_prediction_log(config, sequence, oracle)
        report = compute_eta(config, sequence, predictions, truth)
        c = report.confusion
        denominator = c.tn - min((n - 1) * c.fn, c.tn)
        if denominator <= 0:
            continue
        bound = Fraction(c.tn + c.fp, denominator)
        assert report.reduced_transmitted > 0, "positive denominator promises a throughput floor"
        eta = Fraction(report.lqd_transmitted, report.reduced_transmitted)
        assert eta <= bound, (
            f"instance {i} N={n} B={b}: eta {eta} exceeds bound {bound} ({c})"
        )
        checked += 1
    assert checked >= 150, f"only {checked} instances had a positive denominator"
    print(f"criterion 5: PASS - eta within the closed-form bound on {checked}/500 instances")


def test_criterion_06_threshold_follower_lower_bound():
    config = SwitchConfig(8, 32)
    cycles = 200
    fill = followlqd_adversary_fill(config)
    adversary = followlqd_adversary(config, cycles)
    fill_tx = throughput(config, fill, FollowLqd())
    total_tx = throughput(config, adversary, FollowLqd())
    cycle_tx = total_tx - fill_tx
    assert cycle_tx == 2 * cycles  # exactly two packets per cycle
    opt_cycle_total = (config.num_ports + 1) * cycles  # clairvoyant gain per cycle
    opt_gain = brute_force_opt(config, adversary) - brute_force_opt(config, fill)
    assert opt_gain == opt_cycle_total, f"exact OPT gains {opt_gain}, not {opt_cycle_total}"
    ratio = opt_cycle_total / cycle_tx
    target = 0.95 * (config.num_ports + 1) / 2
    assert ratio >= target, f"measured {ratio:.3f} < {target}"
    print(
        f"criterion 6: PASS - adversary ratio {ratio:.3f} >= {target} "
        f"(FollowLqd {cycle_tx} over {cycles} cycles after fill correction {fill_tx}; exact OPT gain {opt_gain})"
    )


def test_criterion_11_opt_bounds_at_corpus_scale(corpus):
    # both OPT bounds of criteria 03 and 04, with exact OPT, on the full-horizon
    # poisson_bursts sequences among the first 108 of the corpus
    checked = sequences = 0
    opt_beats_lqd = []
    for i, config, sequence in corpus:
        if i == 108:
            break
        if (i // len(GRID)) % 2 == 0:
            continue  # uniform_random, drop-free at N <= B
        n = config.num_ports
        opt = brute_force_opt(config, sequence)
        lqd = run_simulation(config, sequence, LongestQueueDrop())
        if opt > lqd.transmitted_count:
            opt_beats_lqd.append((i, opt, lqd.transmitted_count))
        truth = ground_truth_from_run(lqd)
        oracles = (
            PerfectOracle(truth),
            ConstantOracle(POS),
            ConstantOracle(NEG),
            FlipOracle(PerfectOracle(truth), 1.0, i, sequence),
            FlipOracle(PerfectOracle(truth), 0.1, i, sequence),
        )
        for oracle in oracles:
            result, predictions = simulate_with_prediction_log(config, sequence, oracle)
            tx = result.transmitted_count
            assert opt <= n * tx, f"sequence {i}: OPT {opt} > N * {tx}"
            report = compute_eta(config, sequence, predictions, truth)
            if report.reduced_transmitted > 0:
                eta = Fraction(report.lqd_transmitted, report.reduced_transmitted)
                bound = min(LQD_COMPETITIVE_RATIO * eta, Fraction(n))
            else:
                bound = Fraction(n)
            assert Fraction(opt) <= bound * tx, f"sequence {i}: OPT {opt} > {bound} * {tx}"
            checked += 1
        sequences += 1
    assert sequences == 54
    # OPT is not LQD under another name
    assert opt_beats_lqd, "OPT equals LQD on every sequence"
    print(
        f"criterion 11: PASS - OPT <= N * Credence and OPT <= min(1.707*eta, N) * Credence on "
        f"{checked} pairs over {sequences} sequences; OPT > LQD on {len(opt_beats_lqd)}: {opt_beats_lqd}"
    )


SWEEP_CONFIG = SwitchConfig(48, 48)
SWEEP_RATE = 1 / 120
SWEEP_HORIZON = 1000
SWEEP_SEEDS = range(20)
SWEEP_PS = (0.0, 0.1, 0.3, 0.5, 0.7)


def test_criterion_07_flip_probability_sweep():
    rows = competitive_sweep(SWEEP_CONFIG, SWEEP_PS, SWEEP_SEEDS, SWEEP_RATE, SWEEP_HORIZON)
    by_p: dict[float, list] = {}
    for row in rows:
        by_p.setdefault(row.p, []).append(row)
    # (a) with unflipped predictions every single run matches LQD exactly
    for row in by_p[0.0]:
        assert row.credence_throughput == row.lqd_throughput, (
            f"seed {row.seed}: {row.credence_throughput} != {row.lqd_throughput}"
        )
    # (b) averaged over seeds, Credence never does worse than DynamicThresholds
    credence_avg = {p: mean(r.ratio_credence for r in rs) for p, rs in by_p.items()}
    dt_avg = {p: mean(r.ratio_dt for r in rs) for p, rs in by_p.items()}
    for p in SWEEP_PS:
        assert credence_avg[p] <= dt_avg[p], (
            f"p={p}: Credence ratio {credence_avg[p]:.3f} > DT ratio {dt_avg[p]:.3f}"
        )
    # (c) heavy flipping degrades throughput into the expected band
    assert 2.0 <= credence_avg[0.7] <= 3.5, f"ratio at p=0.7 is {credence_avg[0.7]:.3f}"
    summary = " ".join(f"p={p}:{credence_avg[p]:.2f}/{dt_avg[p]:.2f}" for p in SWEEP_PS)
    print(f"criterion 7: PASS - ratios (Credence/DT) {summary}")


PREDICTOR_CONFIG = SwitchConfig(8, 32)
PREDICTOR_RATE = 1 / 32
PREDICTOR_HORIZON = 4000


def test_criterion_08_predictor_quality():
    sequence = poisson_bursts(PREDICTOR_CONFIG, PREDICTOR_RATE, PREDICTOR_HORIZON, seed=101)
    examples = collect_trace(PREDICTOR_CONFIG, sequence)
    drop_rate = sum(1 for e in examples if e.label is POS) / len(examples)
    assert drop_rate >= 0.01, f"training trace drop rate {drop_rate:.4f} below 1%"

    train_part, test_part = split_examples(examples, 0.6, seed=7)
    model = train_forest(train_part, trees=4, max_depth=4, seed=7)
    metrics = evaluate_on(model, test_part)
    labels = [e.label for e in test_part]
    majority = max(labels.count(POS), labels.count(NEG)) / len(labels)
    assert metrics.accuracy > majority, (
        f"accuracy {metrics.accuracy:.4f} does not beat majority baseline {majority:.4f}"
    )
    if metrics.precision is not None and metrics.recall is not None:
        if metrics.precision + metrics.recall > 0:
            identity = (
                2 * metrics.precision * metrics.recall / (metrics.precision + metrics.recall)
            )
            assert math.isclose(metrics.f1, identity, abs_tol=1e-12)

    held_out = poisson_bursts(PREDICTOR_CONFIG, PREDICTOR_RATE, PREDICTOR_HORIZON, seed=202)
    truth = ground_truth_from_run(run_simulation(PREDICTOR_CONFIG, held_out, LongestQueueDrop()))
    _, predictions = simulate_with_prediction_log(PREDICTOR_CONFIG, held_out, ForestOracle(model))
    report = compute_eta(PREDICTOR_CONFIG, held_out, predictions, truth)
    inv_eta = 1.0 / report.eta
    assert inv_eta >= 0.9, f"error score {inv_eta:.4f} below 0.9"
    print(
        f"criterion 8: PASS - drop rate {drop_rate:.3f}, accuracy {metrics.accuracy:.4f} "
        f"> majority {majority:.4f}, error score {inv_eta:.4f}"
    )


def test_criterion_09_tree_count_plateau():
    sequence = poisson_bursts(PREDICTOR_CONFIG, PREDICTOR_RATE, PREDICTOR_HORIZON, seed=101)
    examples = collect_trace(PREDICTOR_CONFIG, sequence)
    rows = tree_count_sweep(examples, [1, 2, 4, 8, 16], max_depth=4, split=0.6, seed=7)
    f1_by_count = {count: metrics.f1 for count, metrics in rows}
    assert all(f1 is not None for f1 in f1_by_count.values())
    best = max(f1_by_count.values())
    assert best - f1_by_count[4] <= 0.05, (
        f"F1 at 4 trees ({f1_by_count[4]:.4f}) trails the best ({best:.4f}) by more than 0.05"
    )
    table = " ".join(f"{count}:{f1:.3f}" for count, f1 in sorted(f1_by_count.items()))
    print(f"criterion 9: PASS - F1 by tree count {table}")


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    examples_csv = tmp_path / "examples.csv"
    cfg = SwitchConfig(8, 32)
    seq = poisson_bursts(cfg, 1 / 32, 1200, seed=5)
    save_examples(collect_trace(cfg, seq), examples_csv)

    # identical commands, identical paths: rerun into a wiped directory
    base = tmp_path / "run"
    trace = base / "trace.csv"
    outcomes = base / "outcomes.csv"
    model = base / "model.json"
    metrics = base / "metrics.csv"
    sweep = base / "sweep.csv"
    chart = base / "sweep.svg"
    commands = (
        ["gen", "--ports", "8", "--buffer", "32", "--workload", "poisson_bursts",
         "--rate", "0.03125", "--horizon", "600", "--seed", "21", "--out", str(trace)],
        ["simulate", "--ports", "8", "--buffer", "32", "--trace", str(trace),
         "--policy", "credence", "--oracle", "flip", "--flip-p", "0.3",
         "--seed", "21", "--out", str(outcomes)],
        ["train", "--data", str(examples_csv), "--trees", "4", "--depth", "4",
         "--split", "0.6", "--seed", "21", "--out", str(model)],
        ["evaluate", "--model", str(model), "--data", str(examples_csv),
         "--split", "0.6", "--seed", "21", "--ports", "8", "--buffer", "32",
         "--eta-trace", str(trace), "--out", str(metrics)],
        ["sweep", "--ports", "8", "--buffer", "32", "--rate", "0.0156",
         "--horizon", "300", "--p-list", "0,0.3", "--seeds", "2", "--seed", "21",
         "--out", str(sweep), "--chart", str(chart)],
        ["opt", "--ports", "2", "--buffer", "4", "--workload", "uniform_random",
         "--load", "1.0", "--horizon", "6", "--seed", "21"],
    )

    def run_all():
        import shutil

        if base.exists():
            shutil.rmtree(base)
        base.mkdir()
        stdout = []
        for argv in commands:
            assert main(list(argv)) == 0
            stdout.append(capsys.readouterr().out)
        files = [p.read_bytes() for p in (trace, outcomes, model, metrics, sweep, chart)]
        sidecars = [p.read_bytes() for p in sorted(base.glob("*.config.txt"))]
        return stdout, files, sidecars

    first = run_all()
    second = run_all()
    assert first == second
    print("criterion 10: PASS - gen/simulate/train/evaluate/sweep/opt reruns are byte-identical")
