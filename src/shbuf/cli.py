"""Experiment runner.

Subcommands: ``gen`` (emit a workload trace), ``simulate`` (one policy over
one trace), ``train`` / ``evaluate`` (drop predictors), ``sweep``
(flip-probability competitive sweep), and ``opt`` (exact offline optimum).
Every command is a pure function of its flags plus the seed, so reruns
produce byte-identical outputs. Settings may come from an INI-style config
file (``--config``); explicit flags always win. The ``SHBUF_SEED``
environment variable supplies the seed when neither a flag nor the config
file does. The effective settings of each run are echoed to
``<output>.config.txt``.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import errno
import os
import sys
from typing import Callable, NamedTuple, Optional, Sequence

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
    _write_lines,
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

# every policy class by its name, in ``--policy`` choices order
_POLICIES = {cls.name: cls for cls in (CompleteSharing, DynamicThresholds, LongestQueueDrop, FollowLqd, Credence)}
ORACLE_NAMES = ("perfect", "flip", "forest", "constant_accept", "constant_drop")


class ConfigError(ValueError):
    """Bad flags, bad config file, or an invalid experiment description."""


# --- config file / flag merging -------------------------------------------------


class Setting(NamedTuple):
    """One flag: its INI ``section.key``, the type of its value, its value when
    neither a flag nor the config file sets it, its help line, the values it
    may take when they are a fixed set, and, for a flag that names an output,
    the suffix that each file it writes adds to that name."""

    key: str
    type: Callable = str
    default: object = None
    help: str = ""
    choices: Optional[tuple[str, ...]] = None
    outputs: tuple[str, ...] = ()


_SIDECAR = ".config.txt"  # the effective settings of a run, beside its --out

# every setting by argparse dest; a flag means the same setting in every
# subcommand that takes it
SETTINGS = {
    "ports": Setting("switch.ports", int, help="number of switch ports (N)"),
    "buffer": Setting("switch.buffer", int, help="shared buffer size in packets (B)"),
    "trace": Setting("workload.trace", help="existing trace file (overrides --workload)"),
    "workload": Setting("workload.kind", help="workload generator", choices=WORKLOAD_KINDS),
    "burst": Setting("workload.burst", int, help="burst size for single_burst"),
    "short_burst": Setting("workload.short_burst", int, help="short-burst size for multi_burst_then_shorts"),
    "cycles": Setting("workload.cycles", int, help="cycles for followlqd_adversary"),
    "rate": Setting("workload.rate", float, help="bursts per slot for poisson_bursts and sweep"),
    "horizon": Setting("workload.horizon", int, help="slots for poisson_bursts, uniform_random and sweep"),
    "load": Setting("workload.load", float, help="per-port arrival probability for uniform_random"),
    "policy": Setting("policy.name", default="lqd", help="buffer-sharing policy", choices=tuple(_POLICIES)),
    "dt_alpha": Setting("policy.dt_alpha", default="1/2", help="rational alpha for dynamic_thresholds"),
    "oracle": Setting("oracle.kind", default="perfect", help="credence's drop predictor", choices=ORACLE_NAMES),
    "flip_p": Setting("oracle.flip_p", float, 0.0, "flip probability for --oracle flip"),
    "model": Setting("oracle.model", help="forest model file"),
    "data": Setting("train.data", help="labeled example CSV (q,q_ewma,Q,Q_ewma,label)"),
    "trees": Setting("train.trees", int, 4, "trees in the forest"),
    "depth": Setting("train.depth", int, 4, "maximum tree depth"),
    "split": Setting("train.split", float, 0.6, "fraction of the examples to train on"),
    "tree_sweep": Setting("train.tree_sweep", help="comma list of tree counts to sweep"),
    "sweep_out": Setting("train.sweep_out", help="CSV for the tree-count sweep", outputs=("",)),
    "eta_trace": Setting("evaluate.eta_trace", help="trace file for the error-score column"),
    "p_list": Setting(
        "sweep.p_list", default="0,0.001,0.01,0.1,0.3,0.5,0.7", help="comma list of flip probabilities"
    ),
    "seeds": Setting("sweep.seeds", int, 10, "number of workload seeds to average"),
    "chart": Setting("sweep.chart", help="optional SVG chart file", outputs=("",)),
    "seed": Setting("run.seed", int, 0, "random seed, else $SHBUF_SEED"),
    "out": Setting("run.out", help="output file", outputs=("", _SIDECAR)),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _ini_key(command: str, name: str) -> str:
    return f"{command}.{name}" if name in COMMANDS[command].own_keys else SETTINGS[name].key


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
    known = {_ini_key(command, name) for command in COMMANDS for name in COMMANDS[command].settings}
    unknown = sorted(flat.keys() - known)
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)} in config file {path}")
    return flat


def _effective(command: str, args: argparse.Namespace, file_values: dict[str, str]) -> dict[str, str]:
    """Resolve flag-vs-file precedence for every setting the subcommand takes.

    Returns the settings as strings, as they are echoed to the sidecar.
    """
    resolved = {}
    for name in COMMANDS[command].settings:
        flag_value = getattr(args, name)
        if flag_value is not None:
            resolved[name] = str(flag_value)
        elif _ini_key(command, name) in file_values:
            resolved[name] = file_values[_ini_key(command, name)]
    return resolved


@contextlib.contextmanager
def _as_config_error(prefix: str = "", errors: tuple = (ValueError,)):
    """Report an input the library rejects as a one-line ConfigError headed by ``prefix``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _setting(resolved: dict[str, str], name: str):
    """The typed value of one setting, or its default when it is not set."""
    setting = SETTINGS[name]
    if name not in resolved:
        return setting.default
    try:
        value = setting.type(resolved[name])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {resolved[name]!r} ({exc})") from None
    if setting.choices is not None and value not in setting.choices:
        raise ConfigError(f"unknown {name} {value!r}; choose from {', '.join(setting.choices)}")
    return value


def _comma_list(resolved: dict[str, str], name: str, convert: Callable, noun: str) -> list:
    """A comma-separated setting as a list of ``convert``-ed items; one item is a ``noun``."""
    raw = _setting(resolved, name)
    try:
        values = [convert(value) for value in raw.split(",") if value.strip()]
    except ValueError:
        raise ConfigError(f"bad {_flag(name)} {raw!r}") from None
    if not values:
        raise ConfigError(f"{_flag(name)} names no {noun}")
    return values


def _resolve_seed(resolved: dict[str, str]) -> int:
    env = os.environ.get("SHBUF_SEED")
    if "seed" in resolved or env is None:
        return _setting(resolved, "seed")
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"SHBUF_SEED must be an integer, got {env!r}") from None


def _check_outputs(resolved: dict[str, str]) -> None:
    """Raise now the error that writing an output over a directory, or where its parent is none, would raise later."""
    for path in (resolved[name] + suffix for name in resolved for suffix in SETTINGS[name].outputs):
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.path.isdir(parent):
            error = errno.EISDIR if os.path.isdir(path) else errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(error, os.strerror(error), path)


# --- shared builders --------------------------------------------------------------


def _switch_config(resolved: dict[str, str]) -> SwitchConfig:
    ports = _setting(resolved, "ports")
    buffer_size = _setting(resolved, "buffer")
    if ports is None or buffer_size is None:
        raise ConfigError("both --ports and --buffer are required")
    with _as_config_error():
        return SwitchConfig(ports, buffer_size)


def _workload_spec(resolved: dict[str, str], seed: int) -> WorkloadSpec:
    kind = _setting(resolved, "workload")
    if kind is None:
        raise ConfigError("--workload is required (or provide --trace)")
    workload = WORKLOADS[kind]
    params = {name: _setting(resolved, name) for name, _ in workload.params if name in resolved}
    required = [name for name, needed in workload.params if needed]
    if any(name not in params for name in required):
        flags = " and ".join(map(_flag, required))
        raise ConfigError(f"{kind} needs {flags}")
    if workload.seeded:
        params["seed"] = seed
    return WorkloadSpec(kind, params)


@contextlib.contextmanager
def _as_flag_error(kind: str):
    """Report a ValueError as a one-line ConfigError; one that starts with a
    parameter name of the ``kind`` generator is reported under its flag."""
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        name = message.split(" ", 1)[0]
        if name in dict(WORKLOADS[kind].params):
            message = _flag(name) + message[len(name):]
        raise ConfigError(message) from None


def _generate(config: SwitchConfig, spec: WorkloadSpec) -> ArrivalSequence:
    """The sequence ``spec`` describes."""
    with _as_flag_error(spec.kind):
        return generate(config, spec)


def _sequence_for(resolved: dict[str, str], config: SwitchConfig, seed: int) -> ArrivalSequence:
    trace = _setting(resolved, "trace")
    if trace is not None:
        with _as_config_error("cannot load trace: ", (OSError, ValueError)):
            sequence = load_sequence(trace)
    else:
        sequence = _generate(config, _workload_spec(resolved, seed))
    with _as_config_error():
        sequence.validate(config)
    return sequence


def _build_policy(resolved: dict[str, str], config: SwitchConfig, sequence: ArrivalSequence, seed: int):
    name = _setting(resolved, "policy")
    if name == DynamicThresholds.name:
        return _dynamic_thresholds(resolved)
    if name == Credence.name:
        return Credence(_build_oracle(resolved, config, sequence, seed))
    return _POLICIES[name]()


def _dynamic_thresholds(resolved: dict[str, str]) -> DynamicThresholds:
    alpha = _setting(resolved, "dt_alpha")
    try:
        return DynamicThresholds(alpha)
    except ZeroDivisionError:
        raise ConfigError(f"bad --dt-alpha {alpha!r}: zero denominator") from None
    except ValueError as exc:
        raise ConfigError(f"bad --dt-alpha {alpha!r}: {exc}") from None


def _build_oracle(resolved: dict[str, str], config: SwitchConfig, sequence: ArrivalSequence, seed: int):
    kind = _setting(resolved, "oracle")
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
        p = _setting(resolved, "flip_p")
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
    sequence = _generate(config, spec)
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
    trees = _setting(resolved, "trees")
    depth = _setting(resolved, "depth")
    split = _setting(resolved, "split")
    sweep_counts = _setting(resolved, "tree_sweep")
    sweep_out = _setting(resolved, "sweep_out")
    if sweep_counts is None and sweep_out is not None:
        raise ConfigError("--sweep-out needs --tree-sweep")
    if sweep_counts is not None:
        if sweep_out is None:
            raise ConfigError("--sweep-out is required with --tree-sweep")
        counts = _comma_list(resolved, "tree_sweep", int, "tree count")
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
        lines = [",".join([str(count), *_scores(metrics)]) for count, metrics in rows]
        _write_lines(sweep_out, ["trees,accuracy,precision,recall,f1", *lines])
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
    split = _setting(resolved, "split")
    with _as_config_error("cannot load model: ", (OSError, ValueError)):
        model = load_forest(model_path)
    with _as_config_error(errors=(OSError, ValueError)):
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
    _write_lines(out, [
        "accuracy,precision,recall,f1,inv_eta,tp,fp,tn,fn",
        f"{accuracy},{precision},{recall},{f1},{inv_eta},"
        f"{confusion.tp},{confusion.fp},{confusion.tn},{confusion.fn}",
    ])
    print(
        f"accuracy={accuracy} precision={precision} recall={recall} f1={f1}"
        + (f" inv_eta={inv_eta}" if inv_eta else "")
    )
    return EXIT_OK


def _cmd_sweep(resolved: dict[str, str], seed: int) -> int:
    config = _switch_config(resolved)
    rate = _setting(resolved, "rate")
    horizon = _setting(resolved, "horizon")
    out = _setting(resolved, "out")
    if rate is None or horizon is None or out is None:
        raise ConfigError("--rate, --horizon and --out are required")
    p_values = _comma_list(resolved, "p_list", float, "flip probability")
    num_seeds = _setting(resolved, "seeds")
    if num_seeds < 1:
        raise ConfigError("--seeds must be >= 1")
    seeds = list(range(seed, seed + num_seeds))
    dt_alpha = _dynamic_thresholds(resolved).alpha
    # each seed's sequence is a poisson_bursts workload of --rate and --horizon
    with _as_flag_error("poisson_bursts"):
        rows = competitive_sweep(config, p_values, seeds, rate, horizon, dt_alpha=dt_alpha)
    write_sweep_rows(out, rows)

    chart = _setting(resolved, "chart")
    if chart is not None:
        by_p = {p: [row for row in rows if row.p == p] for p in p_values}
        averaged = {p: (sum(r.ratio_credence for r in at) / len(at), sum(r.ratio_dt for r in at) / len(at))
                    for p, at in by_p.items()}
        _write_ratio_chart(chart, averaged)
    print(f"rows={len(rows)} out={out}" + ("" if chart is None else f" chart={chart}"))
    return EXIT_OK


def _cmd_opt(resolved: dict[str, str], seed: int) -> int:
    config = _switch_config(resolved)
    sequence = _sequence_for(resolved, config, seed)
    print(f"opt_transmitted={brute_force_opt(config, sequence)} packets={sequence.total_packets}")
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
    _write_lines(path, parts)


# --- argument parsing -------------------------------------------------------------


class Command(NamedTuple):
    """One subcommand: its help line, its handler, the settings it takes in
    ``--help`` order, and those it reads from its own INI section as
    ``<command>.<dest>`` rather than from their usual key."""

    help: str
    run: Callable[[dict[str, str], int], int]
    settings: tuple[str, ...]
    own_keys: tuple[str, ...] = ()


_SWITCH = ("ports", "buffer")
_WORKLOAD = (*_SWITCH, "workload", "burst", "short_burst", "cycles", "rate", "horizon", "load")

COMMANDS = {
    "gen": Command("generate a workload trace file", _cmd_gen, (*_WORKLOAD, "seed", "out")),
    "simulate": Command("run one policy over one trace", _cmd_simulate,
                        (*_WORKLOAD, "trace", "policy", "dt_alpha", "oracle", "flip_p", "model", "seed", "out")),
    "train": Command("train a drop predictor from a labeled trace CSV", _cmd_train,
                     ("data", "trees", "depth", "split", "tree_sweep", "sweep_out", "seed", "out")),
    "evaluate": Command("score a model on held-out examples", _cmd_evaluate,
                        ("model", "data", "split", *_SWITCH, "eta_trace", "seed", "out"), ("model", "data")),
    "sweep": Command("flip-probability competitive sweep", _cmd_sweep,
                     (*_SWITCH, "rate", "horizon", "p_list", "seeds", "dt_alpha", "chart", "seed", "out")),
    "opt": Command("exact offline optimum", _cmd_opt, (*_WORKLOAD, "trace", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shbuf", description=__doc__)
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    for command_name, command in COMMANDS.items():
        p = sub.add_parser(command_name, help=command.help)
        for name in command.settings:
            setting = SETTINGS[name]
            default = "" if setting.default is None else f" (default {setting.default})"
            p.add_argument(
                _flag(name), dest=name, type=setting.type, choices=setting.choices, help=setting.help + default
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = _effective(args.command, args, _load_config_file(args.config))
        seed = _resolve_seed(resolved)
        _check_outputs(resolved)
        code = COMMANDS[args.command].run(resolved, seed)
        if "out" in resolved:
            settings = [f"{key} = {resolved[key]}" for key in sorted(resolved) if key != "seed"]
            _write_lines(resolved["out"] + _SIDECAR, [f"command = {args.command}", f"seed = {seed}", *settings])
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # every input file is read under _as_config_error, so this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstanceTooLarge as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
