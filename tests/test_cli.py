import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from shbuf import SwitchConfig
from shbuf.cli import COMMANDS, EXIT_CONFIG, EXIT_OK, EXIT_REFUSED, SETTINGS, main
from shbuf.core import save_sequence
from shbuf.learner import MAX_TREES, collect_trace, load_examples, save_examples, save_forest, train_forest
from shbuf.workloads import poisson_bursts

from conftest import BAD_EXAMPLE_ROWS, BAD_MODELS, contended_instance

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def trace_csv(tmp_path):
    """A labeled-example CSV from a congested reference run."""
    cfg = SwitchConfig(8, 32)
    seq = poisson_bursts(cfg, 1 / 32, 1500, seed=101)
    path = tmp_path / "examples.csv"
    save_examples(collect_trace(cfg, seq), path)
    return path


def test_gen_and_simulate_single_burst(tmp_path, capsys):
    trace = tmp_path / "burst.csv"
    assert main([
        "gen", "--ports", "4", "--buffer", "16",
        "--workload", "single_burst", "--burst", "16", "--out", str(trace),
    ]) == EXIT_OK
    out = tmp_path / "outcomes.csv"
    assert main([
        "simulate", "--ports", "4", "--buffer", "16",
        "--trace", str(trace), "--policy", "lqd", "--out", str(out),
    ]) == EXIT_OK
    summary = capsys.readouterr().out
    assert "transmitted=16" in summary and "dropped=0" in summary
    assert out.exists()
    assert (tmp_path / "outcomes.csv.config.txt").exists()


def test_simulate_credence_perfect_at_least_lqd(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    main(["gen", "--ports", "4", "--buffer", "8", "--workload", "uniform_random",
          "--load", "0.9", "--horizon", "200", "--seed", "5", "--out", str(trace)])
    capsys.readouterr()
    assert main(["simulate", "--ports", "4", "--buffer", "8", "--trace", str(trace),
                 "--policy", "lqd"]) == EXIT_OK
    lqd_tx = int(capsys.readouterr().out.split("transmitted=")[1].split()[0])
    assert main(["simulate", "--ports", "4", "--buffer", "8", "--trace", str(trace),
                 "--policy", "credence", "--oracle", "perfect"]) == EXIT_OK
    credence_tx = int(capsys.readouterr().out.split("transmitted=")[1].split()[0])
    assert credence_tx >= lqd_tx


def test_simulate_empty_workload(tmp_path, capsys):
    assert main(["simulate", "--ports", "2", "--buffer", "4", "--workload",
                 "uniform_random", "--load", "0", "--horizon", "10"]) == EXIT_OK
    assert "transmitted=0" in capsys.readouterr().out


def test_invalid_config_exits_2(tmp_path, capsys):
    assert main(["simulate", "--ports", "0", "--buffer", "4", "--workload",
                 "uniform_random", "--load", "0.5", "--horizon", "10"]) == EXIT_CONFIG
    assert main(["simulate", "--ports", "2", "--buffer", "4"]) == EXIT_CONFIG
    assert main(["gen", "--ports", "2", "--buffer", "4", "--workload",
                 "single_burst", "--burst", "0", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    # no partial output on config errors
    assert not (tmp_path / "x.csv").exists()


@pytest.fixture
def contended_opt(tmp_path):
    """``shbuf opt`` arguments for the contended instance, written as a trace."""
    config, sequence = contended_instance()
    trace = tmp_path / "contended.csv"
    save_sequence(trace, sequence)
    return ["opt", "--ports", str(config.num_ports), "--buffer", str(config.buffer_size), "--trace", str(trace)]


def test_opt_cap_refusal_exits_3(contended_opt, capsys):
    assert main(contended_opt) == EXIT_REFUSED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: ") and captured.err.count("\n") == 1
    assert "after arrival 45 of 160 packets" in captured.err
    # the packet count alone refuses nothing: 120 packets to 2 ports build no queue vector
    assert main(["opt", "--ports", "2", "--buffer", "4", "--workload",
                 "uniform_random", "--load", "1.0", "--horizon", "60"]) == EXIT_OK
    assert capsys.readouterr().out == "opt_transmitted=120 packets=120\n"


# run the CLI, then print this process image's peak RSS; getrusage would also
# count the memory of the test process that forked it
_PEAK_RSS_AFTER_MAIN = (
    "import sys; from shbuf.cli import main; code = main(sys.argv[1:]); "
    "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))); sys.exit(code)"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_a_refused_opt_stays_under_100_mb(contended_opt):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS_AFTER_MAIN, *contended_opt], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_REFUSED and done.stderr.count("\n") == 1, done.stderr
    name, kilobytes, unit = done.stdout.split()
    assert (name, unit) == ("VmHWM:", "kB")
    assert int(kilobytes) < 100 * 1024, f"peak RSS {kilobytes} kB"


def test_a_flip_run_does_not_load_numpy(tmp_path):
    # the flip coins are packed into Python ints; numpy would add about 11 MB to a simulate run's peak memory
    code = ("import sys; from shbuf.cli import main; code = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')); sys.exit(code)")
    argv = ["simulate", "--ports", "8", "--buffer", "32", "--workload", "poisson_bursts", "--rate", "0.03",
            "--horizon", "2000", "--policy", "credence", "--oracle", "flip", "--flip-p", "0.1",
            "--out", str(tmp_path / "out.csv")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out.csv").stat().st_size > 0


def test_train_sweep_out_without_tree_sweep_exits_2(tmp_path, trace_csv, capsys):
    model = tmp_path / "model.json"
    sweep = tmp_path / "trees.csv"
    assert main([
        "train", "--data", str(trace_csv), "--trees", "1", "--out", str(model), "--sweep-out", str(sweep),
    ]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --sweep-out needs --tree-sweep\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["examples.csv"]


def test_train_evaluate_pipeline(tmp_path, trace_csv, capsys):
    model = tmp_path / "model.json"
    sweep = tmp_path / "trees.csv"
    assert main([
        "train", "--data", str(trace_csv), "--trees", "4", "--depth", "4",
        "--split", "0.6", "--seed", "7", "--out", str(model),
        "--tree-sweep", "1,2,4", "--sweep-out", str(sweep),
    ]) == EXIT_OK
    assert model.exists()
    lines = sweep.read_text().splitlines()
    assert lines[0] == "trees,accuracy,precision,recall,f1"
    assert len(lines) == 4

    eta_trace = tmp_path / "eta_trace.csv"
    main(["gen", "--ports", "8", "--buffer", "32", "--workload", "poisson_bursts",
          "--rate", "0.03125", "--horizon", "800", "--seed", "202", "--out", str(eta_trace)])
    metrics = tmp_path / "metrics.csv"
    assert main([
        "evaluate", "--model", str(model), "--data", str(trace_csv),
        "--split", "0.6", "--seed", "7", "--ports", "8", "--buffer", "32",
        "--eta-trace", str(eta_trace), "--out", str(metrics),
    ]) == EXIT_OK
    header, row = metrics.read_text().splitlines()
    assert header == "accuracy,precision,recall,f1,inv_eta,tp,fp,tn,fn"
    fields = row.split(",")
    assert 0.0 <= float(fields[0]) <= 1.0
    assert 0.0 < float(fields[4]) <= 1.0  # inv_eta column populated


def test_sweep_csv_and_chart(tmp_path):
    out = tmp_path / "sweep.csv"
    chart = tmp_path / "sweep.svg"
    assert main([
        "sweep", "--ports", "8", "--buffer", "32", "--rate", "0.0156",
        "--horizon", "300", "--p-list", "0,0.001,0.01,0.1,0.3,0.5,0.7",
        "--seeds", "1", "--seed", "3", "--out", str(out), "--chart", str(chart),
    ]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,lqd_throughput,")
    assert len(lines) == 1 + 7
    svg = chart.read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "false-prediction probability" in svg and "LQD/ALG ratio" in svg


def test_reruns_are_byte_identical(tmp_path, trace_csv):
    outputs = []
    for name in ("a", "b"):
        gen = tmp_path / f"gen_{name}.csv"
        sweep = tmp_path / f"sweep_{name}.csv"
        model = tmp_path / f"model_{name}.json"
        main(["gen", "--ports", "8", "--buffer", "32", "--workload", "poisson_bursts",
              "--rate", "0.02", "--horizon", "400", "--seed", "11", "--out", str(gen)])
        main(["sweep", "--ports", "4", "--buffer", "16", "--rate", "0.03",
              "--horizon", "200", "--p-list", "0,0.5", "--seeds", "2",
              "--seed", "11", "--out", str(sweep)])
        main(["train", "--data", str(trace_csv), "--seed", "11", "--out", str(model)])
        outputs.append((gen.read_bytes(), sweep.read_bytes(), model.read_bytes()))
    assert outputs[0] == outputs[1]


def test_seed_env_fallback(tmp_path, monkeypatch):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    monkeypatch.setenv("SHBUF_SEED", "77")
    main(["gen", "--ports", "4", "--buffer", "16", "--workload", "uniform_random",
          "--load", "0.5", "--horizon", "50", "--out", str(a)])
    monkeypatch.delenv("SHBUF_SEED")
    main(["gen", "--ports", "4", "--buffer", "16", "--workload", "uniform_random",
          "--load", "0.5", "--horizon", "50", "--seed", "77", "--out", str(b)])
    main(["gen", "--ports", "4", "--buffer", "16", "--workload", "uniform_random",
          "--load", "0.5", "--horizon", "50", "--seed", "78", "--out", str(c)])
    assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]
    assert a.read_text().splitlines()[1:] != c.read_text().splitlines()[1:]


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text(
        "[switch]\nports = 4\nbuffer = 16\n"
        "[workload]\nkind = single_burst\nburst = 16\n"
        "[policy]\nname = lqd\n"
        "[run]\nseed = 1\n"
    )
    assert main(["--config", str(config), "simulate"]) == EXIT_OK
    assert "transmitted=16" in capsys.readouterr().out
    # a flag overrides the file: complete sharing also takes the whole burst
    assert main(["--config", str(config), "simulate", "--policy", "complete_sharing"]) == EXIT_OK
    assert "policy=complete_sharing" in capsys.readouterr().out
    assert main(["--config", str(tmp_path / "missing.ini"), "simulate"]) == EXIT_CONFIG


def test_sidecar_reflects_effective_config(tmp_path):
    out = tmp_path / "t.csv"
    main(["gen", "--ports", "4", "--buffer", "16", "--workload", "single_burst",
          "--burst", "8", "--seed", "9", "--out", str(out)])
    sidecar = (tmp_path / "t.csv.config.txt").read_text()
    assert "command = gen" in sidecar
    assert "seed = 9" in sidecar
    assert "burst = 8" in sidecar


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_bad_model_exits_2(tmp_path, capsys, trace_csv, case, command):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(BAD_MODELS[case][0]))
    if command == "evaluate":
        argv = ["evaluate", "--model", str(model), "--data", str(trace_csv),
                "--out", str(tmp_path / "metrics.csv")]
    else:
        argv = ["simulate", "--ports", "8", "--buffer", "32", "--workload", "poisson_bursts",
                "--rate", "0.03", "--horizon", "300", "--policy", "credence",
                "--oracle", "forest", "--model", str(model)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    # both commands head a model they cannot load the same way
    assert err.startswith(f"error: cannot load model: {model}: ") and err.count("\n") == 1
    assert re.search(BAD_MODELS[case][1], err)


def test_simulate_with_a_nan_threshold_model_exits_2_with_one_line(tmp_path, capsys):
    # json reads NaN; a NaN threshold would send every packet right, so the model is refused
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(BAD_MODELS["nan_threshold"][0]))
    assert "NaN" in model.read_text()
    argv = ["simulate", "--ports", "8", "--buffer", "32", "--workload", "poisson_bursts",
            "--rate", "0.03", "--horizon", "300", "--policy", "credence",
            "--oracle", "forest", "--model", str(model)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: cannot load model: {model}: threshold must not be NaN\n"


def test_bad_example_label_exits_2(tmp_path, capsys):
    data = tmp_path / "examples.csv"
    data.write_text("q,q_ewma,Q,Q_ewma,label\n" + "1,0.5,3,1.5,0\n" * 4 + "2,1.0,4,2.0,7\n")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
    assert "label must be 0 or 1" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(BAD_EXAMPLE_ROWS))
def test_bad_example_features_exit_2(tmp_path, capsys, case):
    data = tmp_path / "examples.csv"
    data.write_text("q,q_ewma,Q,Q_ewma,label\n" + "1,0.5,3,1.5,0\n" * 4 + BAD_EXAMPLE_ROWS[case][0] + "\n")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "examples.csv:6: " in err and err.count("\n") == 1


# the flags each command line below needs besides the bad file and --out
NOT_UTF8_OTHER_FLAGS = {
    ("simulate", "--trace"): ["--ports", "4", "--buffer", "16"],
    ("train", "--data"): [],
    ("simulate", "--model"): ["--ports", "4", "--buffer", "16", "--workload", "single_burst", "--burst", "4",
                              "--policy", "credence", "--oracle", "forest"],
    ("evaluate", "--model"): ["--data", "{bad}"],
}


@pytest.mark.parametrize("command, flag, message", [
    ("simulate", "--trace", "cannot load trace"),
    ("train", "--data", "cannot load training data"),
    ("simulate", "--model", "cannot load model"),
    ("evaluate", "--model", "cannot load model"),
])
def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, command, flag, message):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"slot,port\n0,\xff\n")
    other = [arg.format(bad=bad) for arg in NOT_UTF8_OTHER_FLAGS[command, flag]]
    argv = [command, flag, str(bad), "--out", str(tmp_path / "out"), *other]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}: {bad}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("chart", [False, True])
def test_sweep_empty_p_list_exits_2(tmp_path, capsys, chart):
    out = tmp_path / "sweep.csv"
    extra = ["--chart", str(tmp_path / "sweep.svg")] if chart else []
    assert main(["sweep", "--ports", "4", "--buffer", "8", "--rate", "0.05", "--horizon", "50",
                 "--p-list", "", "--seeds", "1", "--out", str(out), *extra]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


BURST = ["--ports", "4", "--buffer", "16", "--workload", "single_burst", "--burst", "4"]
SWEEP = ["sweep", "--ports", "4", "--buffer", "8", "--rate", "0.05", "--horizon", "50", "--out", "{dir}/s.csv"]
# each case: the command line ({dir} is a scratch directory), the environment,
# the config file, and the flag or key its one-line error must name
BAD_SETTINGS = {
    "gen_without_out": (["gen", *BURST], {}, None, "--out"),
    "train_without_data": (["train", "--out", "{dir}/m.json"], {}, None, "--data"),
    "evaluate_without_model": (["evaluate", "--data", "{dir}/e.csv", "--out", "{dir}/m.csv"], {}, None, "--model"),
    "sweep_without_rate": (["sweep", "--ports", "4", "--buffer", "8", "--horizon", "50", "--out", "{dir}/s.csv"],
                           {}, None, "--rate"),
    "simulate_without_ports": (["simulate", *BURST[2:]], {}, None, "--ports"),
    "single_burst_without_burst": (["simulate", *BURST[:-2]], {}, None, "--burst"),
    "forest_without_model": (["simulate", *BURST, "--policy", "credence", "--oracle", "forest"], {}, None, "--model"),
    "zero_seeds": (["sweep", "--ports", "4", "--buffer", "8", "--rate", "0.05", "--horizon", "50", "--seeds", "0",
                    "--out", "{dir}/s.csv"], {}, None, "--seeds"),
    "seed_env_not_an_int": (["gen", *BURST, "--out", "{dir}/t.csv"], {"SHBUF_SEED": "x"}, None, "SHBUF_SEED"),
    "load_above_one": (["gen", "--ports", "4", "--buffer", "16", "--workload", "uniform_random", "--load", "1.5",
                        "--horizon", "10", "--out", "{dir}/t.csv"], {}, None, "--load must be in [0, 1], got 1.5"),
    "zero_uniform_horizon": (["gen", "--ports", "4", "--buffer", "16", "--workload", "uniform_random", "--load",
                              "0.5", "--horizon", "0", "--out", "{dir}/t.csv"], {}, None, "horizon"),
    "zero_burst_horizon": (["gen", "--ports", "4", "--buffer", "16", "--workload", "poisson_bursts", "--rate",
                            "0.05", "--horizon", "0", "--out", "{dir}/t.csv"], {}, None, "horizon"),
    "zero_short_burst": (["gen", "--ports", "8", "--buffer", "16", "--workload", "multi_burst_then_shorts",
                          "--short-burst", "0", "--out", "{dir}/t.csv"], {}, None, "--short-burst must be >= 1, got 0"),
    "zero_burst": (["gen", *BURST[:-1], "0", "--out", "{dir}/t.csv"], {}, None, "--burst must be >= 1, got 0"),
    "sweep_alpha_not_a_fraction": ([*SWEEP, "--dt-alpha", "abc"], {}, None, "bad --dt-alpha 'abc': "),
    "sweep_zero_alpha": ([*SWEEP, "--dt-alpha", "0"], {}, None, "bad --dt-alpha '0': alpha must be positive"),
    "sweep_zero_denominator": ([*SWEEP, "--dt-alpha", "1/0"], {}, None, "bad --dt-alpha '1/0': zero denominator"),
    "simulate_zero_denominator": (["simulate", *BURST, "--policy", "dynamic_thresholds", "--dt-alpha", "1/0",
                                   "--out", "{dir}/o.csv"], {}, None, "bad --dt-alpha '1/0': zero denominator"),
    "sweep_negative_rate": (["sweep", "--ports", "4", "--buffer", "8", "--rate", "-1", "--horizon", "50",
                             "--out", "{dir}/s.csv"], {}, None, "--rate must be positive and finite, got -1.0"),
    "sweep_zero_horizon": (["sweep", "--ports", "4", "--buffer", "8", "--rate", "0.05", "--horizon", "0",
                            "--out", "{dir}/s.csv"], {}, None, "--horizon must be >= 1, got 0"),
    "sweep_p_above_one": ([*SWEEP, "--p-list", "0,1.5"], {}, None,
                          "--p-list flip probabilities must be in [0, 1], got 1.5"),
    "sweep_p_nan": ([*SWEEP, "--p-list", "nan"], {}, None, "--p-list flip probabilities must be in [0, 1], got nan"),
    "flip_p_above_one": (["simulate", *BURST, "--policy", "credence", "--oracle", "flip", "--flip-p", "1.5",
                          "--out", "{dir}/o.csv"], {}, None, "--flip-p must be in [0, 1], got 1.5"),
    "flip_p_nan": (["simulate", *BURST, "--policy", "credence", "--oracle", "flip", "--flip-p", "nan",
                    "--out", "{dir}/o.csv"], {}, None, "--flip-p must be in [0, 1], got nan"),
    "ports_not_an_int": (["simulate", *BURST[2:]], {}, "[switch]\nports = four\n", "ports"),
    "unknown_policy": (["simulate", *BURST], {}, "[policy]\nname = nope\n", "policy"),
    "zero_ports": (["simulate", "--ports", "0", *BURST[2:]], {}, None, "--ports must be >= 1, got 0"),
    # trainer parameters are named by their flags; {data} and {model} are files in another directory
    "zero_depth": (["train", "--data", "{data}", "--depth", "0", "--out", "{dir}/m.json"], {}, None,
                   "--depth must be >= 1, got 0"),
    "zero_trees": (["train", "--data", "{data}", "--trees", "0", "--out", "{dir}/m.json"], {}, None,
                   f"--trees must be in [1, {MAX_TREES}], got 0"),
    "train_zero_split": (["train", "--data", "{data}", "--split", "0", "--out", "{dir}/m.json"], {}, None,
                         "--split must be strictly between 0 and 1, got 0.0"),
    "evaluate_zero_split": (["evaluate", "--model", "{model}", "--data", "{data}", "--split", "0",
                             "--out", "{dir}/e.csv"], {}, None, "--split must be strictly between 0 and 1, got 0.0"),
}


@pytest.fixture(scope="module")
def learned(tmp_path_factory):
    """An examples file and a forest trained on it, in a directory of their own."""
    base = tmp_path_factory.mktemp("learned")
    data, model = base / "examples.csv", base / "model.json"
    data.write_text(EXAMPLES)
    save_forest(train_forest(load_examples(data), trees=1, max_depth=2), model)
    return {"data": str(data), "model": str(model)}


@pytest.mark.parametrize("case", BAD_SETTINGS)
def test_a_missing_or_bad_setting_exits_2_naming_it(tmp_path, capsys, monkeypatch, learned, case):
    argv, env, ini, named = BAD_SETTINGS[case]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if ini is not None:
        (tmp_path / "bad.ini").write_text(ini)
        argv = ["--config", str(tmp_path / "bad.ini"), *argv]
    assert main([arg.format(dir=tmp_path, **learned) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert [path.name for path in tmp_path.iterdir()] == ([] if ini is None else ["bad.ini"])


# each case: the command line ({dir} is a scratch directory), the config
# file, and the flag, argument or key its one-line error must name
MALFORMED = {
    "ports_not_an_int": (["simulate", "--ports", "x", "--buffer", "4", "--out", "{dir}/o.csv"], None,
                         "bad --ports (switch.ports) 'x'"),
    "rate_not_a_number": (["sweep", "--ports", "4", "--buffer", "8", "--rate", "abc", "--horizon", "50",
                           "--out", "{dir}/s.csv"], None, "bad --rate (workload.rate) 'abc'"),
    "unknown_policy": (["simulate", *BURST, "--policy", "nope", "--out", "{dir}/o.csv"], None,
                       "unknown --policy (policy.name) 'nope'"),
    # every setting given is checked, also one the run would not read
    "unknown_oracle": (["simulate", *BURST, "--oracle", "nope", "--out", "{dir}/o.csv"], None,
                       "unknown --oracle (oracle.kind) 'nope'"),
    "unknown_workload": (["gen", "--ports", "4", "--buffer", "16", "--workload", "nope", "--out", "{dir}/t.csv"],
                         None, "unknown --workload (workload.kind) 'nope'"),
    "unknown_flag": (["simulate", *BURST, "--nope", "1", "--out", "{dir}/o.csv"], None, "--nope"),
    "unknown_flag_with_a_line_break": (["simulate", *BURST, "--no\npe", "--out", "{dir}/o.csv"], None, "--no pe"),
    "flag_without_value": (["simulate", *BURST, "--out", "{dir}/o.csv", "--ports"], None, "--ports"),
    "config_without_value": (["--config"], None, "--config"),
    "no_subcommand": ([], None, "command"),
    "unknown_subcommand": (["frobnicate", "--out", "{dir}/o.csv"], None, "frobnicate"),
    "ini_ports_not_an_int": (["simulate", *BURST[2:], "--out", "{dir}/o.csv"], "[switch]\nports = four\n",
                             "bad --ports (switch.ports) 'four'"),
    "ini_unknown_oracle": (["simulate", *BURST, "--out", "{dir}/o.csv"], "[oracle]\nkind = nope\n",
                           "unknown --oracle (oracle.kind) 'nope'"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_a_malformed_command_line_exits_2_with_one_line(tmp_path, capsys, case):
    argv, ini, named = MALFORMED[case]
    if ini is not None:
        (tmp_path / "bad.ini").write_text(ini)
        argv = ["--config", str(tmp_path / "bad.ini"), *argv]
    # main returns; it raises no SystemExit
    assert main([arg.format(dir=tmp_path) for arg in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert [path.name for path in tmp_path.iterdir()] == ([] if ini is None else ["bad.ini"])


GOOD_SIMULATE = {"--ports": "4", "--buffer": "16", "--workload": "poisson_bursts", "--rate": "0.05",
                 "--horizon": "50", "--policy": "lqd", "--oracle": "perfect"}


@pytest.mark.parametrize("flag, text", [("--ports", "x"), ("--rate", "abc"), ("--policy", "nope"),
                                        ("--oracle", "nope"), ("--workload", "nope")])
def test_a_bad_value_gives_one_error_from_a_flag_or_the_config_file(tmp_path, capsys, flag, text):
    flags = {**GOOD_SIMULATE, flag: text}
    assert main(["simulate", *(arg for item in flags.items() for arg in item)]) == EXIT_CONFIG
    from_flag = capsys.readouterr().err
    del flags[flag]
    section, key = INI_KEYS[flag].split(".")
    (tmp_path / "bad.ini").write_text(f"[{section}]\n{key} = {text}\n")
    assert main(["--config", str(tmp_path / "bad.ini"), "simulate",
                 *(arg for item in flags.items() for arg in item)]) == EXIT_CONFIG
    assert capsys.readouterr().err == from_flag
    assert flag in from_flag and INI_KEYS[flag] in from_flag


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_every_choice_and_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    printed = capsys.readouterr().out
    for name in COMMANDS[command].settings:
        flag = "--" + name.replace("_", "-")
        assert flag in printed
        if SETTINGS[name].choices is not None:
            assert f"{flag} {{{','.join(SETTINGS[name].choices)}}}" in printed


def test_sidecar_echoes_each_flag_as_given(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["gen", "--ports", "04", "--buffer", "16", "--workload", "poisson_bursts", "--rate", ".05",
                 "--horizon", "50", "--out", str(out)]) == EXIT_OK
    sidecar = (tmp_path / "t.csv.config.txt").read_text().splitlines()
    assert "ports = 04" in sidecar and "rate = .05" in sidecar


EXAMPLES = "q,q_ewma,Q,Q_ewma,label\n" + "1,0.5,3,1.5,0\n2,1.0,4,2.0,1\n" * 4


# each case: the examples file, the model file (None to train instead of
# evaluate), and the error after the name of the bad file
BAD_FILES = {
    "wrong_header": (EXAMPLES.replace("q_ewma", "qewma", 1), None, ": expected header"),
    "four_fields": (EXAMPLES + "1,0.5,3,1.5\n", None, ":10: expected 5 fields, got 4"),
    "model_is_an_array": (EXAMPLES, "[]", ": a model file holds one JSON object"),
}


@pytest.mark.parametrize("case", BAD_FILES)
def test_a_bad_examples_or_model_file_exits_2_naming_it(tmp_path, capsys, case):
    examples, model, error = BAD_FILES[case]
    data = tmp_path / "examples.csv"
    data.write_text(examples)
    if model is None:
        bad = data
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.json")]
    else:
        bad = tmp_path / "m.json"
        bad.write_text(model)
        argv = ["evaluate", "--model", str(bad), "--data", str(data), "--out", str(tmp_path / "e.csv")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{bad}{error}" in err


def test_an_examples_file_with_blank_lines_trains_the_same_model(tmp_path, capsys):
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text(EXAMPLES)
    spaced.write_text(EXAMPLES.replace("\n", "\n\n").replace(",0\n", ",0\n  \n"))
    for data in (plain, spaced):
        assert main(["train", "--data", str(data), "--trees", "2", "--out", f"{data}.json"]) == EXIT_OK
    assert Path(f"{plain}.json").read_bytes() == Path(f"{spaced}.json").read_bytes()


# INI key of every flag, copied from the per-command settings the CLI documents;
# written out literally so the check does not read the CLI's own table
INI_KEYS = {
    "--ports": "switch.ports",
    "--buffer": "switch.buffer",
    "--trace": "workload.trace",
    "--workload": "workload.kind",
    "--burst": "workload.burst",
    "--short-burst": "workload.short_burst",
    "--cycles": "workload.cycles",
    "--rate": "workload.rate",
    "--horizon": "workload.horizon",
    "--load": "workload.load",
    "--policy": "policy.name",
    "--dt-alpha": "policy.dt_alpha",
    "--oracle": "oracle.kind",
    "--flip-p": "oracle.flip_p",
    "--model": "oracle.model",
    "--data": "train.data",
    "--trees": "train.trees",
    "--depth": "train.depth",
    "--split": "train.split",
    "--tree-sweep": "train.tree_sweep",
    "--sweep-out": "train.sweep_out",
    "--eta-trace": "evaluate.eta_trace",
    "--p-list": "sweep.p_list",
    "--seeds": "sweep.seeds",
    "--chart": "sweep.chart",
    "--seed": "run.seed",
    "--out": "run.out",
}
EVALUATE_INI_KEYS = {"--model": "evaluate.model", "--data": "evaluate.data"}


def _as_ini(argv: list[str]) -> str:
    """Every flag of one command as an INI file; the subcommand is ``argv[0]``."""
    keys = {**INI_KEYS, **EVALUATE_INI_KEYS} if argv[0] == "evaluate" else INI_KEYS
    sections: dict[str, list[str]] = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        section, key = keys[flag].split(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in sections.items())


def test_config_file_settings_match_golden_flag_outputs(tmp_path):
    from test_golden_outputs import COMMANDS, GOLDEN

    workdir = tmp_path / "work"
    workdir.mkdir()
    previous = os.getcwd()
    os.chdir(workdir)
    digests = {}
    try:
        cfg = SwitchConfig(8, 32)
        save_examples(collect_trace(cfg, poisson_bursts(cfg, 1 / 32, 1500, seed=101)), "examples.csv")
        for name, argv in COMMANDS:
            ini = tmp_path / f"{name}.ini"
            ini.write_text(_as_ini(argv))
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main(["--config", str(ini), argv[0]]) == EXIT_OK, name
            digests[f"{name}:stdout"] = hashlib.sha256(printed.getvalue().encode()).hexdigest()
        for path in sorted(workdir.iterdir()):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        os.chdir(previous)
    assert digests == GOLDEN


BAD_CONFIG_FILES = {
    "no_section_header": b"ports = 4\n",
    "duplicate_key": b"[switch]\nports = 4\nports = 8\n",
    "lone_percent": b"[switch]\nports = 4\n[policy]\ndt_alpha = 50%\n",
    "not_utf8": b"[switch]\nports = 4\n# caf\xe9\n",
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_FILES))
def test_malformed_config_file_exits_2(tmp_path, capsys, case):
    config = tmp_path / "bad.ini"
    config.write_bytes(BAD_CONFIG_FILES[case])
    assert main(["--config", str(config), "simulate", "--buffer", "16",
                 "--workload", "single_burst", "--burst", "4"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, key",
    [("[policy]\nnmae = complete_sharing\n", "policy.nmae"),
     ("[swtich]\nports = 4\n", "swtich.ports"),
     ("[run]\nseed = 1\n[train]\ntree = 4\n", "train.tree")],
    ids=["misspelt_key", "misspelt_section", "misspelt_key_of_another_command"],
)
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, text, key):
    config = tmp_path / "typo.ini"
    config.write_text(text)
    out = tmp_path / "outcomes.csv"
    assert main(["--config", str(config), "simulate", "--ports", "4", "--buffer", "16",
                 "--workload", "single_burst", "--burst", "4", "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert key in captured.err
    assert not out.exists()


def test_config_keys_of_other_commands_are_allowed(tmp_path, capsys):
    # one config file may serve several subcommands, as README describes
    config = tmp_path / "shared.ini"
    config.write_text(
        "[switch]\nports = 4\nbuffer = 16\n[workload]\nkind = single_burst\nburst = 16\n"
        "[train]\ntrees = 4\n[evaluate]\nmodel = model.json\n[sweep]\nseeds = 3\n"
    )
    assert main(["--config", str(config), "simulate"]) == EXIT_OK
    assert "transmitted=16" in capsys.readouterr().out


@pytest.mark.parametrize(
    "sweep",
    [["--tree-sweep", "1,2"], ["--tree-sweep", "1,0"], ["--tree-sweep", ","],
     ["--tree-sweep", f"1,{MAX_TREES + 1}"], ["--tree-sweep", "1,two"]],
    ids=["no_sweep_out", "zero", "empty", "too_many", "not_a_number"],
)
def test_bad_tree_sweep_exits_2_before_training(tmp_path, capsys, trace_csv, sweep):
    model = tmp_path / "model.json"
    sweep_out = ["--sweep-out", str(tmp_path / "trees.csv")] if sweep[1] != "1,2" else []
    argv = ["train", "--data", str(trace_csv), "--out", str(model), *sweep, *sweep_out]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["examples.csv"]


@pytest.mark.parametrize("command", ["gen", "simulate", "sweep"])
def test_nan_rate_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out.csv"
    argv = [command, "--ports", "4", "--buffer", "8", "--rate", "nan", "--horizon", "50",
            "--out", str(out)]
    if command != "sweep":
        argv += ["--workload", "poisson_bursts"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


SWEEP = ["sweep", "--ports", "4", "--buffer", "8", "--rate", "0.05", "--horizon", "50",
         "--p-list", "0", "--seeds", "1"]
# every file-writing flag: the command's other arguments, with {data}, {model}
# and {dir} standing for paths it can read or write
OUTPUT_FLAGS = {
    "gen --out": ["gen", "--ports", "4", "--buffer", "16", "--workload", "single_burst", "--burst", "4"],
    "simulate --out": ["simulate", "--ports", "4", "--buffer", "16", "--workload", "single_burst",
                       "--burst", "4"],
    "train --out": ["train", "--data", "{data}"],
    "train --sweep-out": ["train", "--data", "{data}", "--out", "{dir}/model.json", "--tree-sweep", "1,2"],
    "evaluate --out": ["evaluate", "--model", "{model}", "--data", "{data}"],
    "sweep --out": SWEEP,
    "sweep --chart": [*SWEEP, "--out", "{dir}/sweep.csv"],
}


@pytest.mark.parametrize(
    "case, target",
    [(case, target) for case in OUTPUT_FLAGS for target in ("in_a_missing_directory", "a_directory")]
    # a sidecar sits beside its output, whose directory exists
    + [("sidecar", "a_directory")],
)
def test_an_output_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, trace_csv, case, target):
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(trace_csv), "--trees", "1", "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    if target == "in_a_missing_directory":
        path = tmp_path / "missing" / "x"
    else:
        path = tmp_path / ("x.csv.config.txt" if case == "sidecar" else "dir")
        path.mkdir()
    if case == "sidecar":
        argv = [*OUTPUT_FLAGS["gen --out"], "--out", str(path).removesuffix(".config.txt")]
    else:
        fields = {"data": str(trace_csv), "model": str(model), "dir": str(tmp_path)}
        argv = [arg.format(**fields) for arg in OUTPUT_FLAGS[case]] + [case.split()[1], str(path)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_a_sweep_whose_chart_cannot_be_written_writes_nothing(tmp_path, capsys):
    argv = [*SWEEP, "--out", str(tmp_path / "s.csv"), "--chart", str(tmp_path / "missing" / "c.svg")]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_tree_sweep_that_cannot_be_written_trains_nothing(tmp_path, capsys, trace_csv):
    argv = ["train", "--data", str(trace_csv), "--out", str(tmp_path / "model.json"),
            "--tree-sweep", "1,2", "--sweep-out", str(tmp_path / "missing" / "t.csv")]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["examples.csv"]


def test_an_output_under_a_file_exits_2_with_the_error_opening_it_gives(tmp_path, capsys):
    (tmp_path / "f").touch()
    path = tmp_path / "f" / "x.csv"
    assert main([*OUTPUT_FLAGS["gen --out"], "--out", str(path)]) == EXIT_CONFIG
    with pytest.raises(NotADirectoryError) as caught:
        open(path, "w")
    assert capsys.readouterr().err == f"error: cannot write output: {caught.value}\n"


def _simulate_to(path) -> bytes:
    assert main([*OUTPUT_FLAGS["simulate --out"], "--out", str(path)]) == EXIT_OK
    return Path(path).read_bytes()


def test_rerunning_a_command_writes_the_same_bytes_to_a_new_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    first = _simulate_to(out)
    with open(out, "rb") as old:
        assert _simulate_to(out) == first
        # the old file is gone from the directory, and its reader still sees its bytes
        assert os.fstat(old.fileno()).st_nlink == 0
        assert os.fstat(old.fileno()).st_ino != out.stat().st_ino
        assert old.read() == first


def test_an_output_given_as_a_symlink_is_written_through(tmp_path, capsys):
    expected = _simulate_to(tmp_path / "plain.csv")
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert _simulate_to(link) == expected
    assert link.is_symlink()
    assert target.read_bytes() == expected


def test_a_hard_linked_output_is_written_in_place(tmp_path, capsys):
    expected = _simulate_to(tmp_path / "plain.csv")
    out, other = tmp_path / "out.csv", tmp_path / "other.csv"
    out.write_text("old\n")
    os.link(out, other)
    inode = out.stat().st_ino
    assert _simulate_to(out) == expected
    assert out.stat().st_ino == inode
    assert other.read_bytes() == expected


def test_readme_flag_table_lists_every_setting():
    readme = (ROOT / "README.md").read_text()
    start = readme.index("| flag | INI key |")
    table, exception = readme[start:].split("\n\n")[:2]
    cells = [cell.strip(" `") for line in table.splitlines()[2:] for cell in line.strip("|").split("|")]
    listed = {flag: key for flag, key in zip(cells[::2], cells[1::2]) if flag}
    assert listed == {"--" + name.replace("_", "-"): setting.key for name, setting in SETTINGS.items()}
    # the paragraph after the table names every command that reads some settings from its own section
    own = {name: command.own_keys for name, command in COMMANDS.items() if command.own_keys}
    assert own == {"evaluate": ("model", "data")}
    assert exception.startswith("`evaluate` is the one exception")
    for name in own["evaluate"]:
        assert f"`--{name}`" in exception and f"`evaluate.{name}`" in exception
