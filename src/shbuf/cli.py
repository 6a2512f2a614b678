"""Experiment runner.

Subcommands: ``gen`` (emit a workload trace), ``simulate`` (one policy over
one trace), ``label`` (a trace's packets as labeled training examples),
``train`` / ``evaluate`` (drop predictors), ``sweep``
(flip-probability competitive sweep), and ``opt`` (exact offline optimum).
Every command is a pure function of its settings plus the seed, so reruns
produce byte-identical outputs. Settings may come from an INI-style config
file (``--config``); explicit flags always win. The ``SHBUF_SEED``
environment variable supplies the seed when neither a flag nor the config
file does. A setting's value is checked the same way whether a flag or the
file gives it, and whether or not the run reads it; a number is read and
checked by the ``core.Bound`` that the library code taking it declares. A
malformed command line (an unknown flag or subcommand, a flag without a
value, a value of the wrong type, ``--dt-alpha 1/0``'s zero denominator
among them, out of range or not among its choices), a missing setting, an
input or output file that cannot be used and a run that runs out of memory
each exit 2 with one ``error:`` line. The effective settings of each run
are echoed, each as its text was given, to ``<output>.config.txt``.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import errno
import math
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence

from . import core, learner, oracles, policies, workloads
from .analysis import (
    InstanceTooLarge,
    brute_force_opt,
    competitive_sweep,
    compute_eta,
    simulate_with_prediction_log,
    write_sweep_chart,
    write_sweep_rows,
)
from .core import (
    ArrivalSequence,
    Bound,
    SwitchConfig,
    _write_lines,
    load_sequence,
    read_number,
    run_simulation,
    save_outcomes,
    save_sequence,
)
from .learner import (
    EvalMetrics,
    collect_trace,
    evaluate,
    load_examples,
    load_forest,
    save_examples,
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
    """One flag: its INI ``section.key``, a number's Bound (None for a
    setting kept as text), its value when neither a flag nor the config file
    sets it, its help line, the values it may take when they are a fixed set,
    and, for a flag that names an output, the suffix that each file it
    writes adds to that name."""

    key: str
    type: Optional[Bound] = None
    default: object = None
    help: str = ""
    choices: Optional[tuple[str, ...]] = None
    outputs: tuple[str, ...] = ()


_SIDECAR = ".config.txt"  # the effective settings of a run, beside its --out

# every setting by argparse dest; a flag means the same setting in every
# subcommand that takes it
SETTINGS = {
    "ports": Setting("switch.ports", core.NUM_PORTS, help="number of switch ports (N)"),
    "buffer": Setting("switch.buffer", core.BUFFER_SIZE, help="shared buffer size in packets (B)"),
    "trace": Setting("workload.trace", help="existing trace file (overrides --workload)"),
    "workload": Setting("workload.kind", help="workload generator", choices=WORKLOAD_KINDS),
    "burst": Setting("workload.burst", workloads.BURST, help="burst size for single_burst"),
    "short_burst": Setting(
        "workload.short_burst", workloads.SHORT_BURST, help="short-burst size for multi_burst_then_shorts"
    ),
    "cycles": Setting("workload.cycles", workloads.CYCLES, help="cycles for followlqd_adversary"),
    "rate": Setting("workload.rate", workloads.RATE, help="bursts per slot for poisson_bursts and sweep"),
    "horizon": Setting(
        "workload.horizon", workloads.HORIZON, help="slots for poisson_bursts, uniform_random and sweep"
    ),
    "load": Setting("workload.load", workloads.LOAD, help="per-port arrival probability for uniform_random"),
    "policy": Setting("policy.name", default="lqd", help="buffer-sharing policy", choices=tuple(_POLICIES)),
    "dt_alpha": Setting("policy.dt_alpha", policies.ALPHA, Fraction(1, 2), "rational alpha for dynamic_thresholds"),
    "oracle": Setting("oracle.kind", default="perfect", help="credence's drop predictor", choices=ORACLE_NAMES),
    "flip_p": Setting("oracle.flip_p", oracles.FLIP_PROBABILITY, 0.0, "flip probability for --oracle flip"),
    "model": Setting("oracle.model", help="forest model file"),
    "data": Setting("train.data", help="labeled example CSV (q,q_ewma,Q,Q_ewma,label)"),
    "trees": Setting("train.trees", learner.TREES, 4, "trees in the forest"),
    "depth": Setting("train.depth", learner.MAX_DEPTH, 4, "maximum tree depth"),
    "split": Setting("train.split", learner.SPLIT, 0.6, "fraction of the examples to train on"),
    "tree_sweep": Setting("train.tree_sweep", help="comma list of tree counts to sweep"),
    "sweep_out": Setting("train.sweep_out", help="CSV for the tree-count sweep", outputs=("",)),
    "eta_trace": Setting("evaluate.eta_trace", help="trace file for the error-score column"),
    "p_list": Setting(
        "sweep.p_list", default="0,0.001,0.01,0.1,0.3,0.5,0.7", help="comma list of flip probabilities"
    ),
    # the workload seeds of a sweep, and a run's seed, are ranges no library code takes
    "seeds": Setting("sweep.seeds", Bound("seeds", int, 1), 10, "number of workload seeds to average"),
    "chart": Setting("sweep.chart", help="optional SVG chart file", outputs=("",)),
    "seed": Setting("run.seed", Bound("seed", int, -math.inf), 0, "random seed, else $SHBUF_SEED"),
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
    """The text of every setting of the subcommand that a flag, or else the config file, gives.

    Each text is kept as given, and the sidecar echoes it so.
    """
    resolved = {}
    for name in COMMANDS[command].settings:
        text = getattr(args, name)
        if text is None:
            text = file_values.get(_ini_key(command, name))
        if text is not None:
            resolved[name] = text
    return resolved


@contextlib.contextmanager
def _as_config_error(prefix: str = "", errors: tuple = (ValueError,)):
    """Report an input the library rejects as a one-line ConfigError headed by ``prefix``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _setting(command: str, name: str, text: Optional[str]):
    """The value of one setting of ``command`` from its text, or its default when it is not set.

    This is the only place a setting's text is converted and checked, whether
    a flag or the config file gave it, and whether or not the run reads it.
    A number is read through ``core.read_number`` as its Bound's kind. An
    error names both the flag and the key, except a number out of its range,
    which names the flag as the library names its parameter.
    """
    setting = SETTINGS[name]
    if text is None:
        return setting.default
    where = f"{_flag(name)} ({_ini_key(command, name)})"
    bound, value = setting.type, text
    if bound is not None:
        try:
            value = read_number(text, bound.kind)
        except ValueError as exc:
            raise ConfigError(f"bad {where} {text!r}: {exc}") from None
        with _as_config_error():
            bound.check(value, _flag(name))
    if setting.choices is not None and value not in setting.choices:
        raise ConfigError(f"unknown {where} {value!r}; choose from {', '.join(setting.choices)}")
    return value


def _require(values: dict, *names: str, needed_by: str = "") -> None:
    """Raise a ConfigError naming the flag of each of ``names`` that is not set, and what needs it."""
    missing = [_flag(name) for name in names if values[name] is None]
    if not missing:
        return
    flags = missing[0] if len(missing) == 1 else f"{', '.join(missing[:-1])} and {missing[-1]}"
    if needed_by:
        raise ConfigError(f"{needed_by} needs {flags}")
    raise ConfigError(f"{flags} {'is' if len(missing) == 1 else 'are'} required")


def _comma_list(values: dict, name: str, bound: Bound, noun: str) -> list:
    """A comma-separated setting as a list of numbers, each read and checked
    as ``bound`` says; the items are ``noun``, and spaces around one are allowed."""
    raw = values[name]
    try:
        items = [read_number(item.strip(), bound.kind) for item in raw.split(",") if item.strip()]
    except ValueError:
        raise ConfigError(f"bad {_flag(name)} {raw!r}") from None
    if not items:
        raise ConfigError(f"{_flag(name)} names no {noun}")
    with _as_config_error():
        for item in items:
            bound.check(item, f"{_flag(name)} {noun}")
    return items


def _resolve_seed(resolved: dict[str, str], values: dict) -> int:
    env = os.environ.get("SHBUF_SEED")
    if "seed" in resolved or env is None:
        return values["seed"]
    try:
        return read_number(env, int)
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


def _switch_config(values: dict) -> SwitchConfig:
    _require(values, "ports", "buffer")
    return SwitchConfig(values["ports"], values["buffer"])


def _workload_spec(values: dict, seed: int) -> WorkloadSpec:
    kind = values["workload"]
    workload = WORKLOADS[kind]
    _require(values, *(name for name, needed in workload.params if needed), needed_by=kind)
    params = {name: values[name] for name, _ in workload.params if values[name] is not None}
    if workload.seeded:
        params["seed"] = seed
    return WorkloadSpec(kind, params)


def _sequence_for(values: dict, config: SwitchConfig, seed: int) -> ArrivalSequence:
    trace = values["trace"]
    if trace is not None:
        with _as_config_error("cannot load trace: ", (OSError, ValueError)):
            sequence = load_sequence(trace)
    else:
        _require(values, "workload", needed_by="a run without --trace")
        with _as_config_error():
            sequence = generate(config, _workload_spec(values, seed))
    with _as_config_error():
        sequence.validate(config)
    return sequence


def _build_policy(values: dict, config: SwitchConfig, sequence: ArrivalSequence, seed: int):
    name = values["policy"]
    if name == DynamicThresholds.name:
        return DynamicThresholds(values["dt_alpha"])
    if name == Credence.name:
        return Credence(_build_oracle(values, config, sequence, seed))
    return _POLICIES[name]()


def _build_oracle(values: dict, config: SwitchConfig, sequence: ArrivalSequence, seed: int):
    kind = values["oracle"]
    if kind == "constant_accept":
        return ConstantOracle(False)
    if kind == "constant_drop":
        return ConstantOracle(True)
    if kind == "forest":
        _require(values, "model", needed_by="--oracle forest")
        with _as_config_error("cannot load model: ", (OSError, ValueError)):
            return ForestOracle(load_forest(values["model"]))
    # perfect and flip both replay a LongestQueueDrop run over the same trace
    oracle = PerfectOracle.from_run(run_simulation(config, sequence, LongestQueueDrop()))
    if kind == "flip":
        return FlipOracle(oracle, values["flip_p"], seed, sequence)
    return oracle


# --- subcommands ---------------------------------------------------------------


def _cmd_gen(values: dict, seed: int) -> int:
    config = _switch_config(values)
    _require(values, "workload", "out")
    spec = _workload_spec(values, seed)
    out = values["out"]
    with _as_config_error():
        sequence = generate(config, spec)
    save_sequence(out, sequence, comment=spec_comment(config, spec))
    print(f"packets={sequence.total_packets} slots={sequence.num_slots} out={out}")
    return EXIT_OK


def _cmd_simulate(values: dict, seed: int) -> int:
    config = _switch_config(values)
    sequence = _sequence_for(values, config, seed)
    policy = _build_policy(values, config, sequence, seed)
    result = run_simulation(config, sequence, policy)
    out = values["out"]
    if out is not None:
        save_outcomes(out, result)
    print(
        f"policy={policy.name} transmitted={result.transmitted_count} "
        f"dropped={result.dropped_count} peak_occupancy={result.peak_occupancy}"
    )
    return EXIT_OK


def _cmd_label(values: dict, seed: int) -> int:
    config = _switch_config(values)
    _require(values, "out")
    examples = collect_trace(config, _sequence_for(values, config, seed))
    save_examples(examples, values["out"])
    drops = sum(label for _, label in examples)
    print(f"examples={len(examples)} drops={drops} out={values['out']}")
    return EXIT_OK


def _cmd_train(values: dict, seed: int) -> int:
    _require(values, "data", "out")
    out = values["out"]
    trees, depth, split = values["trees"], values["depth"], values["split"]
    sweep_counts, sweep_out = values["tree_sweep"], values["sweep_out"]
    if sweep_out is not None:
        _require(values, "tree_sweep", needed_by="--sweep-out")
    if sweep_counts is not None:
        _require(values, "sweep_out", needed_by="--tree-sweep")
        counts = _comma_list(values, "tree_sweep", learner.TREES, "tree counts")
    with _as_config_error("cannot load training data: ", (OSError, ValueError)):
        examples = load_examples(values["data"])
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


def _cmd_evaluate(values: dict, seed: int) -> int:
    _require(values, "model", "data", "out")
    with _as_config_error("cannot load model: ", (OSError, ValueError)):
        model = load_forest(values["model"])
    with _as_config_error(errors=(OSError, ValueError)):
        examples = load_examples(values["data"])
    with _as_config_error():
        metrics = evaluate(model, examples, split=values["split"], seed=seed)

    inv_eta = ""
    eta_trace = values["eta_trace"]
    if eta_trace is not None:
        config = _switch_config(values)
        with _as_config_error("cannot load --eta-trace: ", (OSError, ValueError)):
            sequence = load_sequence(eta_trace)
            sequence.validate(config)
        # LQD's drop flags as the list ``from_run`` builds, which ``compute_eta`` reads as is
        truth = PerfectOracle.from_run(run_simulation(config, sequence, LongestQueueDrop())).truth
        _, predictions = simulate_with_prediction_log(config, sequence, ForestOracle(model))
        report = compute_eta(config, sequence, predictions, truth)
        inv_eta = f"{1.0 / report.eta:.6f}" if report.eta > 0 else "0.000000"

    accuracy, precision, recall, f1 = _scores(metrics)
    confusion = metrics.confusion
    _write_lines(values["out"], [
        "accuracy,precision,recall,f1,inv_eta,tp,fp,tn,fn",
        f"{accuracy},{precision},{recall},{f1},{inv_eta},"
        f"{confusion.tp},{confusion.fp},{confusion.tn},{confusion.fn}",
    ])
    print(
        f"accuracy={accuracy} precision={precision} recall={recall} f1={f1}"
        + (f" inv_eta={inv_eta}" if inv_eta else "")
    )
    return EXIT_OK


def _cmd_sweep(values: dict, seed: int) -> int:
    config = _switch_config(values)
    _require(values, "rate", "horizon", "out")
    out = values["out"]
    p_values = _comma_list(values, "p_list", oracles.FLIP_PROBABILITY, "flip probabilities")
    seeds = list(range(seed, seed + values["seeds"]))
    # each seed's sequence is a poisson_bursts workload of --rate and --horizon
    rows = competitive_sweep(config, p_values, seeds, values["rate"], values["horizon"], dt_alpha=values["dt_alpha"])
    write_sweep_rows(out, rows)

    chart = values["chart"]
    if chart is not None:
        write_sweep_chart(chart, rows)
    print(f"rows={len(rows)} out={out}" + ("" if chart is None else f" chart={chart}"))
    return EXIT_OK


def _cmd_opt(values: dict, seed: int) -> int:
    config = _switch_config(values)
    sequence = _sequence_for(values, config, seed)
    print(f"opt_transmitted={brute_force_opt(config, sequence)} packets={sequence.total_packets}")
    return EXIT_OK


# --- argument parsing -------------------------------------------------------------


class Command(NamedTuple):
    """One subcommand: its help line, its handler, the settings it takes in
    ``--help`` order, and those it reads from its own INI section as
    ``<command>.<dest>`` rather than from their usual key."""

    help: str
    run: Callable[[dict, int], int]
    settings: tuple[str, ...]
    own_keys: tuple[str, ...] = ()


_SWITCH = ("ports", "buffer")
_WORKLOAD = (*_SWITCH, "workload", "burst", "short_burst", "cycles", "rate", "horizon", "load")

COMMANDS = {
    "gen": Command("generate a workload trace file", _cmd_gen, (*_WORKLOAD, "seed", "out")),
    "simulate": Command("run one policy over one trace", _cmd_simulate,
                        (*_WORKLOAD, "trace", "policy", "dt_alpha", "oracle", "flip_p", "model", "seed", "out")),
    "label": Command("label every packet of a trace with its fate under LQD", _cmd_label,
                     (*_WORKLOAD, "trace", "seed", "out")),
    "train": Command("train a drop predictor from a labeled trace CSV", _cmd_train,
                     ("data", "trees", "depth", "split", "tree_sweep", "sweep_out", "seed", "out")),
    "evaluate": Command("score a model on held-out examples", _cmd_evaluate,
                        ("model", "data", "split", *_SWITCH, "eta_trace", "seed", "out"), ("model", "data")),
    "sweep": Command("flip-probability competitive sweep", _cmd_sweep,
                     (*_SWITCH, "rate", "horizon", "p_list", "seeds", "dt_alpha", "chart", "seed", "out")),
    "opt": Command("exact offline optimum", _cmd_opt, (*_WORKLOAD, "trace", "seed")),
}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a one-line ConfigError; its subcommand parsers are _Parsers too."""

    def error(self, message: str):
        raise ConfigError(" ".join(message.split()))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser that splits a command line into the text of each flag; ``_setting`` converts it.
    It is built once, on first use, and holds no state between parses."""
    parser = _Parser(prog="shbuf", description=__doc__)
    parser.add_argument("--config", help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    for command_name, command in COMMANDS.items():
        p = sub.add_parser(command_name, help=command.help)
        for name in command.settings:
            setting = SETTINGS[name]
            default = "" if setting.default is None else f" (default {setting.default})"
            # the choices as argparse would show them, were it to check them
            metavar = None if setting.choices is None else "{" + ",".join(setting.choices) + "}"
            p.add_argument(_flag(name), dest=name, metavar=metavar, help=setting.help + default)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = COMMANDS[args.command]
        resolved = _effective(args.command, args, _load_config_file(args.config))
        values = {name: _setting(args.command, name, resolved.get(name)) for name in command.settings}
        seed = _resolve_seed(resolved, values)
        _check_outputs(resolved)
        code = command.run(values, seed)
        if "out" in resolved:
            settings = [f"{key} = {resolved[key]}" for key in sorted(resolved) if key != "seed"]
            _write_lines(resolved["out"] + _SIDECAR, [f"command = {args.command}", f"seed = {seed}", *settings])
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChildProcessError as exc:
        # an OSError, but not an output's: a forked child ended without sending its results, killed by the kernel, say
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # every input file is read under _as_config_error, so this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstanceTooLarge as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except MemoryError:
        # raised before the sidecar, which is written last
        print("error: out of memory", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
