"""Experiment runner.

Subcommands: ``gen`` (emit a workload trace), ``simulate`` (one policy over
one trace), ``train`` / ``evaluate`` (drop predictors), ``sweep``
(flip-probability competitive sweep), and ``opt`` (exact offline optimum for
tiny instances). Every command is a pure function of its flags plus the
seed, so reruns produce byte-identical outputs. Settings may come from an
INI-style config file (``--config``); explicit flags always win. The
``SHBUF_SEED`` environment variable supplies the seed when neither a flag
nor the config file does. The effective settings of each run are echoed to
``<output>.config.txt``.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import (
    InstanceTooLarge,
    brute_force_opt,
    competitive_sweep,
    compute_eta,
    simulate_with_prediction_log,
    write_sweep_rows,
)
from .core import (
    ArrivalSequence,
    SwitchConfig,
    load_sequence,
    run_simulation,
    save_outcomes,
    save_sequence,
)
from .learner import (
    MAX_TREES,
    EvalMetrics,
    evaluate,
    load_examples,
    load_forest,
    save_forest,
    split_examples,
    train_forest,
    tree_count_sweep,
)
from .oracles import (
    ConstantOracle,
    FlipOracle,
    ForestOracle,
    PerfectOracle,
    PredictionLabel,
    ground_truth_from_run,
)
from .policies import (
    CompleteSharing,
    Credence,
    DynamicThresholds,
    FollowLqd,
    LongestQueueDrop,
)
from .workloads import WORKLOAD_KINDS, WORKLOADS, WorkloadSpec, generate, spec_comment

__all__ = ["main", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSED = 3

POLICY_NAMES = ("complete_sharing", "dynamic_thresholds", "lqd", "follow_lqd", "credence")
ORACLE_NAMES = ("perfect", "flip", "forest", "constant_accept", "constant_drop")


class ConfigError(ValueError):
    """Bad flags, bad config file, or an invalid experiment description."""


# --- config file / flag merging -------------------------------------------------


# INI key of every flag, by argparse dest; a flag means the same setting in every
# subcommand that defines it
INI_KEYS = {
    "ports": "switch.ports",
    "buffer": "switch.buffer",
    "trace": "workload.trace",
    "workload": "workload.kind",
    "burst": "workload.burst",
    "short_burst": "workload.short_burst",
    "cycles": "workload.cycles",
    "rate": "workload.rate",
    "horizon": "workload.horizon",
    "load": "workload.load",
    "policy": "policy.name",
    "dt_alpha": "policy.dt_alpha",
    "oracle": "oracle.kind",
    "flip_p": "oracle.flip_p",
    "model": "oracle.model",
    "data": "train.data",
    "trees": "train.trees",
    "depth": "train.depth",
    "split": "train.split",
    "tree_sweep": "train.tree_sweep",
    "sweep_out": "train.sweep_out",
    "eta_trace": "evaluate.eta_trace",
    "p_list": "sweep.p_list",
    "seeds": "sweep.seeds",
    "chart": "sweep.chart",
    "cap": "opt.cap",
    "seed": "run.seed",
    "out": "run.out",
}
# evaluate reads the model and data it scores from its own section
INI_OVERRIDES = {"evaluate": {"model": "evaluate.model", "data": "evaluate.data"}}


def _load_config_file(path: Optional[str]) -> dict[str, str]:
    """Flatten an INI file into ``section.key -> value``."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    flat = {}
    try:
        read = parser.read(path, encoding="utf-8")
        for section in parser.sections():
            for key, value in parser.items(section):
                flat[f"{section}.{key}"] = value
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())
        raise ConfigError(f"malformed config file {path}: {detail}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    # a key of another subcommand is fine, as one file may serve several
    known = {*INI_KEYS.values(), *(key for keys in INI_OVERRIDES.values() for key in keys.values())}
    unknown = sorted(flat.keys() - known)
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)} in config file {path}")
    return flat


def _effective(args: argparse.Namespace, file_values: dict[str, str]) -> dict[str, str]:
    """Resolve flag-vs-file precedence for every flag the subcommand defines.

    Returns the settings as strings, as they are echoed to the sidecar.
    """
    keys = {**INI_KEYS, **INI_OVERRIDES.get(args.command, {})}
    resolved = {}
    for attr, flag_value in vars(args).items():
        if attr in ("config", "command", "func"):
            continue
        if flag_value is not None:
            resolved[attr] = str(flag_value)
        elif keys[attr] in file_values:
            resolved[attr] = file_values[keys[attr]]
    return resolved


@contextlib.contextmanager
def _as_config_error(prefix: str = "", errors: tuple = (ValueError,)):
    """Report an input the library rejects as a one-line ConfigError headed by ``prefix``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _setting(resolved: dict[str, str], name: str, default=None, convert=str):
    if name in resolved:
        try:
            return convert(resolved[name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {name}: {resolved[name]!r} ({exc})") from None
    return default


def _resolve_seed(resolved: dict[str, str]) -> int:
    if "seed" in resolved:
        return _setting(resolved, "seed", convert=int)
    env = os.environ.get("SHBUF_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"SHBUF_SEED must be an integer, got {env!r}") from None
    return 0


def _write_sidecar(primary_output: str, command: str, resolved: dict[str, str], seed: int) -> None:
    lines = [f"command = {command}", f"seed = {seed}"]
    for key in sorted(resolved):
        if key != "seed":
            lines.append(f"{key} = {resolved[key]}")
    with open(primary_output + ".config.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- shared builders --------------------------------------------------------------


def _switch_config(resolved: dict[str, str]) -> SwitchConfig:
    ports = _setting(resolved, "ports", convert=int)
    buffer_size = _setting(resolved, "buffer", convert=int)
    if ports is None or buffer_size is None:
        raise ConfigError("both --ports and --buffer are required")
    with _as_config_error():
        return SwitchConfig(ports, buffer_size)


def _workload_spec(resolved: dict[str, str], seed: int) -> WorkloadSpec:
    kind = _setting(resolved, "workload")
    if kind is None:
        raise ConfigError("--workload is required (or provide --trace)")
    if kind not in WORKLOAD_KINDS:
        raise ConfigError(f"unknown workload {kind!r}; choose from {', '.join(WORKLOAD_KINDS)}")
    workload = WORKLOADS[kind]
    params: dict = {}
    for name, convert, _ in workload.params:
        value = _setting(resolved, name, convert=convert)
        if value is not None:
            params[name] = value
    required = [name for name, _, needed in workload.params if needed]
    if any(name not in params for name in required):
        flags = " and ".join("--" + name.replace("_", "-") for name in required)
        raise ConfigError(f"{kind} needs {flags}")
    if workload.seeded:
        params["seed"] = seed
    return WorkloadSpec(kind, params)


def _sequence_for(resolved: dict[str, str], config: SwitchConfig, seed: int) -> ArrivalSequence:
    trace = _setting(resolved, "trace")
    if trace is not None:
        with _as_config_error("cannot load trace: ", (OSError, ValueError)):
            sequence = load_sequence(trace)
    else:
        spec = _workload_spec(resolved, seed)
        with _as_config_error():
            sequence = generate(config, spec)
    with _as_config_error():
        sequence.validate(config)
    return sequence


def _build_policy(resolved: dict[str, str], config: SwitchConfig, sequence: ArrivalSequence, seed: int):
    name = _setting(resolved, "policy", default="lqd")
    if name not in POLICY_NAMES:
        raise ConfigError(f"unknown policy {name!r}; choose from {', '.join(POLICY_NAMES)}")
    if name == "complete_sharing":
        return CompleteSharing()
    if name == "dynamic_thresholds":
        alpha = _setting(resolved, "dt_alpha", default="1/2")
        with _as_config_error(f"bad --dt-alpha {alpha!r}: ", (ValueError, ZeroDivisionError)):
            return DynamicThresholds(Fraction(alpha))
    if name == "lqd":
        return LongestQueueDrop()
    if name == "follow_lqd":
        return FollowLqd()
    return Credence(_build_oracle(resolved, config, sequence, seed))


def _build_oracle(resolved: dict[str, str], config: SwitchConfig, sequence: ArrivalSequence, seed: int):
    kind = _setting(resolved, "oracle", default="perfect")
    if kind not in ORACLE_NAMES:
        raise ConfigError(f"unknown oracle {kind!r}; choose from {', '.join(ORACLE_NAMES)}")
    if kind == "constant_accept":
        return ConstantOracle(PredictionLabel.NEGATIVE)
    if kind == "constant_drop":
        return ConstantOracle(PredictionLabel.POSITIVE)
    if kind == "forest":
        model_path = _setting(resolved, "model")
        if model_path is None:
            raise ConfigError("--model is required with --oracle forest")
        with _as_config_error("cannot load model: ", (OSError, ValueError)):
            return ForestOracle(load_forest(model_path))
    # perfect and flip both replay a LongestQueueDrop run over the same trace
    oracle = PerfectOracle.from_run(run_simulation(config, sequence, LongestQueueDrop()))
    if kind == "flip":
        p = _setting(resolved, "flip_p", default=0.0, convert=float)
        with _as_config_error():
            return FlipOracle(oracle, p, seed, sequence)
    return oracle


# --- subcommands ---------------------------------------------------------------


def _cmd_gen(resolved: dict[str, str], seed: int) -> int:
    config = _switch_config(resolved)
    spec = _workload_spec(resolved, seed)
    out = _setting(resolved, "out")
    if out is None:
        raise ConfigError("--out is required")
    with _as_config_error():
        sequence = generate(config, spec)
    save_sequence(out, sequence, comment=spec_comment(config, spec))
    print(f"packets={sequence.total_packets} slots={sequence.num_slots} out={out}")
    return EXIT_OK


def _cmd_simulate(resolved: dict[str, str], seed: int) -> int:
    config = _switch_config(resolved)
    sequence = _sequence_for(resolved, config, seed)
    policy = _build_policy(resolved, config, sequence, seed)
    result = run_simulation(config, sequence, policy)
    out = _setting(resolved, "out")
    if out is not None:
        save_outcomes(out, result)
    print(
        f"policy={policy.name} transmitted={result.transmitted_count} "
        f"dropped={result.dropped_count} peak_occupancy={result.peak_occupancy}"
    )
    return EXIT_OK


def _cmd_train(resolved: dict[str, str], seed: int) -> int:
    data = _setting(resolved, "data")
    out = _setting(resolved, "out")
    if data is None or out is None:
        raise ConfigError("--data and --out are required")
    trees = _setting(resolved, "trees", default=4, convert=int)
    depth = _setting(resolved, "depth", default=4, convert=int)
    split = _setting(resolved, "split", default=0.6, convert=float)
    sweep_counts = _setting(resolved, "tree_sweep")
    if sweep_counts is not None:
        sweep_out = _setting(resolved, "sweep_out")
        if sweep_out is None:
            raise ConfigError("--sweep-out is required with --tree-sweep")
        try:
            counts = [int(c) for c in sweep_counts.split(",") if c.strip()]
        except ValueError:
            raise ConfigError(f"bad --tree-sweep {sweep_counts!r}") from None
        if not counts:
            raise ConfigError("--tree-sweep names no tree count")
        if not all(1 <= count <= MAX_TREES for count in counts):
            raise ConfigError(f"--tree-sweep counts must be in [1, {MAX_TREES}], got {sweep_counts!r}")
    with _as_config_error("cannot load training data: ", (OSError, ValueError)):
        examples = load_examples(data)
    with _as_config_error():
        train_part, _ = split_examples(examples, split, seed)
        model = train_forest(train_part, trees=trees, max_depth=depth, seed=seed)
    save_forest(model, out)
    print(f"trained trees={trees} depth={depth} train_examples={len(train_part)} out={out}")

    if sweep_counts is not None:
        with _as_config_error():
            rows = tree_count_sweep(examples, counts, max_depth=depth, split=split, seed=seed)
        lines = ["trees,accuracy,precision,recall,f1"]
        for count, metrics in rows:
            lines.append(",".join([str(count), *_scores(metrics)]))
        with open(sweep_out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"tree_sweep={sweep_counts} out={sweep_out}")
    return EXIT_OK


def _scores(metrics: EvalMetrics) -> list[str]:
    """Accuracy, precision, recall and F1 as every output prints them."""
    values = (metrics.accuracy, metrics.precision, metrics.recall, metrics.f1)
    return ["undefined" if value is None else f"{value:.6f}" for value in values]


def _cmd_evaluate(resolved: dict[str, str], seed: int) -> int:
    model_path = _setting(resolved, "model")
    data = _setting(resolved, "data")
    out = _setting(resolved, "out")
    if model_path is None or data is None or out is None:
        raise ConfigError("--model, --data and --out are required")
    split = _setting(resolved, "split", default=0.6, convert=float)
    with _as_config_error(errors=(OSError, ValueError)):
        model = load_forest(model_path)
        examples = load_examples(data)
        metrics = evaluate(model, examples, split=split, seed=seed)

    inv_eta = ""
    eta_trace = _setting(resolved, "eta_trace")
    if eta_trace is not None:
        config = _switch_config(resolved)
        with _as_config_error("cannot load --eta-trace: ", (OSError, ValueError)):
            sequence = load_sequence(eta_trace)
            sequence.validate(config)
        truth = ground_truth_from_run(run_simulation(config, sequence, LongestQueueDrop()))
        _, predictions = simulate_with_prediction_log(config, sequence, ForestOracle(model))
        report = compute_eta(config, sequence, predictions, truth)
        inv_eta = f"{1.0 / report.eta:.6f}" if report.eta > 0 else "0.000000"

    accuracy, precision, recall, f1 = _scores(metrics)
    confusion = metrics.confusion
    lines = [
        "accuracy,precision,recall,f1,inv_eta,tp,fp,tn,fn",
        f"{accuracy},{precision},{recall},{f1},{inv_eta},"
        f"{confusion.tp},{confusion.fp},{confusion.tn},{confusion.fn}",
    ]
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(
        f"accuracy={accuracy} precision={precision} recall={recall} f1={f1}"
        + (f" inv_eta={inv_eta}" if inv_eta else "")
    )
    return EXIT_OK


def _cmd_sweep(resolved: dict[str, str], seed: int) -> int:
    config = _switch_config(resolved)
    rate = _setting(resolved, "rate", convert=float)
    horizon = _setting(resolved, "horizon", convert=int)
    out = _setting(resolved, "out")
    if rate is None or horizon is None or out is None:
        raise ConfigError("--rate, --horizon and --out are required")
    p_list_raw = _setting(resolved, "p_list", default="0,0.001,0.01,0.1,0.3,0.5,0.7")
    try:
        p_values = [float(p) for p in p_list_raw.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"bad --p-list {p_list_raw!r}") from None
    if not p_values:
        raise ConfigError("--p-list names no flip probability")
    num_seeds = _setting(resolved, "seeds", default=10, convert=int)
    if num_seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    dt_alpha = _setting(resolved, "dt_alpha", default="1/2")
    with _as_config_error(errors=(ValueError, ZeroDivisionError)):
        rows = competitive_sweep(
            config,
            p_values,
            [seed + i for i in range(num_seeds)],
            rate,
            horizon,
            dt_alpha=Fraction(dt_alpha),
        )
    write_sweep_rows(out, rows)

    chart = _setting(resolved, "chart")
    if chart is not None:
        averaged: dict[float, tuple[float, float]] = {}
        for p in p_values:
            at_p = [row for row in rows if row.p == p]
            averaged[p] = (
                sum(row.ratio_credence for row in at_p) / len(at_p),
                sum(row.ratio_dt for row in at_p) / len(at_p),
            )
        _write_ratio_chart(chart, averaged)
        print(f"rows={len(rows)} out={out} chart={chart}")
    else:
        print(f"rows={len(rows)} out={out}")
    return EXIT_OK


def _cmd_opt(resolved: dict[str, str], seed: int) -> int:
    config = _switch_config(resolved)
    sequence = _sequence_for(resolved, config, seed)
    cap = _setting(resolved, "cap", default=20, convert=int)
    if cap < 0:
        raise ConfigError("--cap must be >= 0")
    optimum = brute_force_opt(config, sequence, cap=cap)
    print(f"opt_transmitted={optimum} packets={sequence.total_packets}")
    return EXIT_OK


# --- chart ---------------------------------------------------------------------


def _write_ratio_chart(path: str, averaged: dict[float, tuple[float, float]]) -> None:
    """Minimal self-contained SVG line chart: ratio versus flip probability."""
    width, height = 640, 420
    margin = 60
    ps = sorted(averaged)
    series = {
        "Credence": ([averaged[p][0] for p in ps], "#1f77b4"),
        "DT": ([averaged[p][1] for p in ps], "#ff7f0e"),
    }
    x_max = max(ps) if ps and max(ps) > 0 else 1.0
    y_max = max(max(values) for values, _ in series.values())
    y_max = max(1.0, y_max) * 1.1

    def sx(p: float) -> float:
        return margin + (width - 2 * margin) * (p / x_max)

    def sy(v: float) -> float:
        return height - margin - (height - 2 * margin) * (v / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" font-size="14">false-prediction probability</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" transform="rotate(-90 18 {height / 2:.1f})">LQD/ALG ratio</text>',
    ]
    for p in ps:
        parts.append(
            f'<text x="{sx(p):.1f}" y="{height - margin + 18}" text-anchor="middle" font-size="11">{p:g}</text>'
        )
    ticks = 5
    for i in range(ticks + 1):
        v = y_max * i / ticks
        parts.append(
            f'<text x="{margin - 8}" y="{sy(v) + 4:.1f}" text-anchor="end" font-size="11">{v:.1f}</text>'
        )
    legend_y = margin
    for label, (values, color) in series.items():
        points = " ".join(f"{sx(p):.1f},{sy(v):.1f}" for p, v in zip(ps, values))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<line x1="{width - margin - 120}" y1="{legend_y}" x2="{width - margin - 95}" y2="{legend_y}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin - 88}" y="{legend_y + 4}" font-size="12">{label}</text>'
        )
        legend_y += 18
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# --- argument parsing -------------------------------------------------------------


def _add_switch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ports", type=int, help="number of switch ports (N)")
    parser.add_argument("--buffer", type=int, help="shared buffer size in packets (B)")


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=WORKLOAD_KINDS, help="workload generator")
    parser.add_argument("--burst", type=int, help="burst size for single_burst")
    parser.add_argument("--short-burst", dest="short_burst", type=int, help="short-burst size for multi_burst_then_shorts")
    parser.add_argument("--cycles", type=int, help="cycles for followlqd_adversary")
    parser.add_argument("--rate", type=float, help="bursts per slot for poisson_bursts")
    parser.add_argument("--horizon", type=int, help="slots for poisson_bursts/uniform_random")
    parser.add_argument("--load", type=float, help="per-port arrival probability for uniform_random")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shbuf", description=__doc__)
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a workload trace file")
    _add_switch_flags(p)
    _add_workload_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="trace file to write")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("simulate", help="run one policy over one trace")
    _add_switch_flags(p)
    _add_workload_flags(p)
    p.add_argument("--trace", help="existing trace file (overrides --workload)")
    p.add_argument("--policy", choices=POLICY_NAMES)
    p.add_argument("--dt-alpha", dest="dt_alpha", help="rational alpha for dynamic_thresholds, e.g. 1/2")
    p.add_argument("--oracle", choices=ORACLE_NAMES)
    p.add_argument("--flip-p", dest="flip_p", type=float, help="flip probability for --oracle flip")
    p.add_argument("--model", help="forest model file for --oracle forest")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="outcomes CSV to write")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train a drop predictor from a labeled trace CSV")
    p.add_argument("--data", help="labeled example CSV (q,q_ewma,Q,Q_ewma,label)")
    p.add_argument("--trees", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--split", type=float)
    p.add_argument("--tree-sweep", dest="tree_sweep", help="comma list of tree counts to sweep")
    p.add_argument("--sweep-out", dest="sweep_out", help="CSV for the tree-count sweep")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="model file to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a model on held-out examples")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--split", type=float)
    _add_switch_flags(p)
    p.add_argument("--eta-trace", dest="eta_trace", help="trace file for the error-score column")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="metrics CSV to write")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="flip-probability competitive sweep")
    _add_switch_flags(p)
    p.add_argument("--rate", type=float)
    p.add_argument("--horizon", type=int)
    p.add_argument("--p-list", dest="p_list", help="comma list of flip probabilities")
    p.add_argument("--seeds", type=int, help="number of workload seeds to average")
    p.add_argument("--dt-alpha", dest="dt_alpha")
    p.add_argument("--chart", help="optional SVG chart file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="sweep CSV to write")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("opt", help="exact offline optimum (tiny instances only)")
    _add_switch_flags(p)
    _add_workload_flags(p)
    p.add_argument("--trace")
    p.add_argument("--cap", type=int, help="refuse instances above this many packets")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_opt)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _effective(args, _load_config_file(args.config))
        seed = _resolve_seed(resolved)
        code = args.func(resolved, seed)
        if "out" in resolved:
            _write_sidecar(resolved["out"], args.command, resolved, seed)
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstanceTooLarge as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
