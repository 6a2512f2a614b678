import copy
import dataclasses
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from shbuf import (
    ArrivalSequence,
    CompleteSharing,
    Credence,
    DynamicThresholds,
    FollowLqd,
    LongestQueueDrop,
    PerfectOracle,
    SwitchConfig,
    Verdict,
    load_sequence,
    run_simulation,
    save_outcomes,
    save_sequence,
)
from shbuf import core
from shbuf.analysis import (
    brute_force_opt,
    compute_eta,
    find_threshold_divergence,
    simulate_with_prediction_log,
    throughput,
)
from shbuf.core import PolicyError, Simulation
from shbuf.learner import collect_trace, load_examples, load_forest
from shbuf.oracles import ConstantOracle, FeatureSampler, FlipOracle, PredictionLabel, ground_truth_from_run
from shbuf.policies import Decision
from shbuf.workloads import single_burst

from conftest import random_sequence


def test_config_validation():
    with pytest.raises(ValueError):
        SwitchConfig(0, 4)
    with pytest.raises(ValueError):
        SwitchConfig(4, 0)
    # degenerate buffer smaller than the port count must still simulate
    cfg = SwitchConfig(4, 2)
    seq = ArrivalSequence([[0, 1, 2, 3]])
    result = run_simulation(cfg, seq, CompleteSharing())
    assert result.transmitted_count == 2
    assert result.dropped_count == 2


@pytest.mark.parametrize(
    "ports, buffer_size, field",
    [(True, 4, "num_ports"), (2, 4.0, "buffer_size"), (2.5, 4, "num_ports"), (2, "4", "buffer_size")],
    ids=["bool_ports", "float_buffer", "fractional_ports", "str_buffer"],
)
def test_config_sizes_must_be_ints(ports, buffer_size, field):
    with pytest.raises(ValueError, match=f"^{field} must be an int, got "):
        SwitchConfig(ports, buffer_size)


def test_empty_sequence_any_policy():
    cfg = SwitchConfig(2, 4)
    for policy in (CompleteSharing(), LongestQueueDrop(), FollowLqd()):
        result = run_simulation(cfg, ArrivalSequence([]), policy)
        assert result.transmitted_count == 0
        assert result.dropped_count == 0
        assert result.verdicts == []


def test_single_packet_complete_sharing():
    cfg = SwitchConfig(2, 4)
    result = run_simulation(cfg, ArrivalSequence([[0]]), CompleteSharing())
    assert result.transmitted_count == 1
    assert result.dropped_count == 0


def test_full_buffer_burst_is_absorbed_by_lqd():
    # a burst of exactly the buffer size into an empty buffer loses nothing
    cfg = SwitchConfig(4, 16)
    result = run_simulation(cfg, single_burst(cfg, 16), LongestQueueDrop())
    assert result.transmitted_count == 16
    assert result.dropped_count == 0


def test_sequence_validation_rejects_bad_input():
    cfg = SwitchConfig(2, 4)
    with pytest.raises(ValueError):
        run_simulation(cfg, ArrivalSequence([[0, 1, 0]]), CompleteSharing())
    with pytest.raises(ValueError):
        run_simulation(cfg, ArrivalSequence([[2]]), CompleteSharing())
    with pytest.raises(ValueError):
        run_simulation(cfg, ArrivalSequence([[1, True], [1.0]]), CompleteSharing())


@pytest.mark.parametrize(
    "slots, message",
    [
        ([[0], [1], [], [0, 1, 0]], "slot 3 carries 3 arrivals; at most 2 allowed"),
        ([[0, 1], [-1]], "slot 1: port -1 out of range [0, 2)"),
        ([[0], [], [1, 2]], "slot 2: port 2 out of range [0, 2)"),
        # the first bad slot is named, and a row's length is checked before its ports
        ([[0], [5], [0, 1, 1]], "slot 1: port 5 out of range [0, 2)"),
        ([[1], [1, 0, 7]], "slot 1 carries 3 arrivals; at most 2 allowed"),
        # every port must be exactly an int, though {1, True, 1.0} == {1}
        ([[1, True], [1.0]], "slot 0: port True is not an int"),
        ([[0], [1.0]], "slot 1: port 1.0 is not an int"),
        ([[0], ["1"]], "slot 1: port '1' is not an int"),
    ],
    ids=[
        "over_cap_late", "negative_port", "port_equals_n", "first_bad_slot", "length_before_ports",
        "bool_port", "float_port", "str_port",
    ],
)
def test_sequence_validation_names_the_first_bad_slot(slots, message):
    with pytest.raises(ValueError) as raised:
        ArrivalSequence(slots).validate(SwitchConfig(2, 4))
    assert str(raised.value) == message


def test_empty_sequence_validates_and_counts_no_packets():
    for slots in ([], [[], []]):
        sequence = ArrivalSequence(slots)
        sequence.validate(SwitchConfig(2, 4))
        assert sequence.total_packets == 0


def _walk_and_name_the_first_bad_slot(slots, num_ports):
    """Reference check: the message a walk over every slot raises first, or None."""
    for slot_index, row in enumerate(slots):
        if len(row) > num_ports:
            return f"slot {slot_index} carries {len(row)} arrivals; at most {num_ports} allowed"
        for port in row:
            if not 0 <= port < num_ports:
                return f"slot {slot_index}: port {port} out of range [0, {num_ports})"
    return None


def _validation_message(sequence, config):
    try:
        sequence.validate(config)
    except ValueError as error:
        return str(error)
    return None


@st.composite
def validation_instances(draw):
    # two port counts, and rows up to two over the larger one, with ports up
    # to two outside [0, N), between runs of empty rows at both ends
    ports = draw(st.lists(st.integers(1, 5), min_size=2, max_size=2))
    port = st.integers(-2, max(ports) + 1)
    row = st.one_of(st.just([]), st.lists(port, max_size=max(ports) + 2))
    empty = st.lists(st.just([]), max_size=3)
    return draw(empty) + draw(st.lists(row, max_size=8)) + draw(empty), ports


@settings(derandomize=True, max_examples=400, deadline=None)
@given(validation_instances())
def test_validate_raises_what_a_walk_over_every_slot_raises(instance):
    slots, ports = instance
    for order in (ports, ports[::-1]):
        # one sequence, validated against both configs: its summary must not depend on either
        sequence = ArrivalSequence(slots)
        for num_ports in order:
            expected = _walk_and_name_the_first_bad_slot(slots, num_ports)
            assert _validation_message(sequence, SwitchConfig(num_ports, 4)) == expected
        assert sequence.total_packets == sum(map(len, slots))
        assert list(sequence.arrival_slots) == [index for index, row in enumerate(slots) if row]


def test_a_sequence_is_a_value():
    slots = [[0, 1], [], [1]]
    sequence = ArrivalSequence(slots)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sequence.slots = [[0]]
    twin = ArrivalSequence(copy.deepcopy(slots))
    assert sequence == twin
    # equality compares slots only, whether or not either side has its summary
    sequence.validate(SwitchConfig(2, 4))
    assert sequence == twin and twin == sequence
    assert twin.total_packets == 3
    assert sequence == twin
    assert sequence != ArrivalSequence([[0, 1], [1]])
    assert ArrivalSequence([[0, 1], [1]]) != sequence


def test_no_entry_point_changes_the_rows_it_is_given():
    config = SwitchConfig(3, 3)
    sequence = ArrivalSequence([[], [0, 0, 1], [], [2, 2], [], [], [0, 1, 2], [0], []])
    before = copy.deepcopy(sequence.slots)
    lqd = run_simulation(config, sequence, LongestQueueDrop())
    oracle = PerfectOracle.from_run(lqd)
    flip = FlipOracle(oracle, 0.5, 3, sequence)
    _, log = simulate_with_prediction_log(config, sequence, flip)
    policies = (CompleteSharing(), DynamicThresholds(), LongestQueueDrop(), FollowLqd(), Credence(flip))
    entry_points = [(policy.name, lambda policy=policy: run_simulation(config, sequence, policy)) for policy in policies]
    entry_points += [
        ("find_threshold_divergence", lambda: find_threshold_divergence(config, sequence, flip)),
        ("simulate_with_prediction_log", lambda: simulate_with_prediction_log(config, sequence, flip)),
        ("compute_eta", lambda: compute_eta(config, sequence, log, ground_truth_from_run(lqd))),
        ("collect_trace", lambda: collect_trace(config, sequence)),
        ("brute_force_opt", lambda: brute_force_opt(config, sequence)),
    ]
    for name, call in entry_points:
        call()
        assert sequence.slots == before, name


def test_occupancy_bound_after_every_event(small_config):
    rng = random.Random(7)
    for policy in (CompleteSharing(), LongestQueueDrop(), FollowLqd(), DynamicThresholds()):
        seq = random_sequence(rng, small_config.num_ports, 80, 0.8)
        sim = Simulation(small_config, policy)
        for row in seq.slots:
            for port in row:
                sim.arrive(port)
                assert 0 <= sim.state.occupancy <= small_config.buffer_size
                assert sim.state.occupancy == sum(sim.state.queue_len)
            sim.drain(1)
            assert sim.state.occupancy == sum(sim.state.queue_len)
        while sim.state.occupancy:
            sim.drain(1)


def test_conservation_and_outcome_totality(small_config):
    rng = random.Random(11)
    for policy in (CompleteSharing(), LongestQueueDrop(), FollowLqd()):
        seq = random_sequence(rng, small_config.num_ports, 60, 0.7)
        result = run_simulation(small_config, seq, policy)
        assert result.transmitted_count + result.dropped_count == seq.total_packets
        assert len(result.verdicts) == seq.total_packets
        assert result.verdicts.count(Verdict.TRANSMITTED) == result.transmitted_count


def test_drop_tail_policies_never_push_out(small_config):
    rng = random.Random(13)
    for policy in (CompleteSharing(), DynamicThresholds(), FollowLqd()):
        seq = random_sequence(rng, small_config.num_ports, 60, 0.9)
        result = run_simulation(small_config, seq, policy)
        assert Verdict.PUSHED_OUT not in result.verdicts


def test_work_conservation(small_config):
    # each departure phase transmits exactly the number of non-empty queues
    rng = random.Random(17)
    seq = random_sequence(rng, small_config.num_ports, 50, 0.8)
    sim = Simulation(small_config, LongestQueueDrop())
    for row in seq.slots:
        for port in row:
            sim.arrive(port)
        nonempty = sum(1 for q in sim.state.queue_len if q)
        before = sim.transmitted
        sim.drain(1)
        assert sim.transmitted - before == nonempty


def test_identical_runs_are_byte_identical(small_config, tmp_path):
    rng1, rng2 = random.Random(23), random.Random(23)
    seq1 = random_sequence(rng1, small_config.num_ports, 80, 0.6)
    seq2 = random_sequence(rng2, small_config.num_ports, 80, 0.6)
    paths = []
    for i, seq in enumerate((seq1, seq2)):
        result = run_simulation(small_config, seq, LongestQueueDrop())
        path = tmp_path / f"run{i}.csv"
        save_outcomes(path, result)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_peak_occupancy_tracks_arrival_phase():
    cfg = SwitchConfig(4, 16)
    result = run_simulation(cfg, single_burst(cfg, 16), LongestQueueDrop())
    # 4 arrivals per slot, one departure per slot while the queue is backed up:
    # the occupancy after each arrival phase is 4, 7, 10, 13
    assert result.peak_occupancy == 13


def test_sequence_file_round_trip(tmp_path):
    seq = ArrivalSequence([[0, 1], [], [3, 0, 2]])
    path = tmp_path / "trace.csv"
    save_sequence(path, seq, comment="spec: kind=test")
    text = path.read_text()
    assert text.startswith("# spec: kind=test\nslot,port\n")
    loaded = load_sequence(path)
    assert loaded.slots == seq.slots


def test_sequence_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("slot,port\n1,0\n0,0\n")
    with pytest.raises(ValueError, match="sorted"):
        load_sequence(path)
    path.write_text("slot,port\n0,x\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_sequence(path)
    path.write_text("0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_sequence(path)


def _reference_load_sequence(path) -> ArrivalSequence:
    """The line-by-line trace parser that ``load_sequence`` must agree with."""
    rows: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        header_seen = False
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != "slot,port":
                    raise ValueError(f"{path}: expected header 'slot,port', got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'slot,port', got {line!r}")
            try:
                slot, port = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-integer field in {line!r}") from None
            if slot < 0 or port < 0:
                raise ValueError(f"{path}:{line_no}: negative field in {line!r}")
            if rows and slot < rows[-1][0]:
                raise ValueError(f"{path}:{line_no}: rows not sorted by slot")
            rows.append((slot, port))
    if not header_seen:
        raise ValueError(f"{path}: missing 'slot,port' header")
    num_slots = rows[-1][0] + 1 if rows else 0
    slots: list[list[int]] = [[] for _ in range(num_slots)]
    for slot, port in rows:
        slots[slot].append(port)
    return ArrivalSequence(slots)


def _loaded(load, path):
    """What ``load`` makes of ``path``: the rows, or the ValueError's message."""
    try:
        return load(path).slots
    except ValueError as exc:
        return str(exc)


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# trace lines other than the canonical f"{slot},{port}" that save_sequence writes
_TRACE_LINES = {
    "leading_zero": lambda slot, port: f"0{slot},{port}",
    "spaces": lambda slot, port: f" {slot} , {port}\t",
    "plus": lambda slot, port: f"+{slot},{port}",
    "underscore": lambda slot, port: f"{slot},1_{port}",
    "non_ascii_digits": lambda slot, port: f"{slot},{port}".translate(_ARABIC_INDIC),
    "one_field": lambda slot, port: f"{slot}",
    "three_fields": lambda slot, port: f"{slot},{port},0",
    "empty_field": lambda slot, port: f"{slot},",
    "negative_slot": lambda slot, port: f"-{slot},{port}",
    "negative_port": lambda slot, port: f"{slot},-{port}",
    "decimal": lambda slot, port: f"{slot}.0,{port}",
    "word": lambda slot, port: f"{slot},port",
    "huge_port": lambda slot, port: f"{slot},{'9' * 4400}",
    "comment_after": lambda slot, port: f"{slot},{port}\n# after",
    "blank_after": lambda slot, port: f"{slot},{port}\n  ",
}


@st.composite
def trace_texts(draw):
    """A trace file's text: canonical lines, then up to three lines in any of the forms above."""
    head = draw(st.lists(st.sampled_from(["# spec: kind=test", "#"] * 3 + ["", "  # indented"]), max_size=2))
    header = draw(st.sampled_from(["slot,port"] * 12 + [" slot,port ", "slot, port", "port,slot", None]))
    slots = sorted(draw(st.lists(st.integers(0, 25), max_size=40)))
    if len(slots) > 1 and draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, len(slots) - 2))
        slots[i], slots[i + 1] = slots[i + 1] + 1, slots[i]
    lines = [f"{slot},{draw(st.integers(0, 12))}" for slot in slots]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3])) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = _TRACE_LINES[draw(st.sampled_from(sorted(_TRACE_LINES)))](slots[i], draw(st.integers(0, 12)))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    last = newline if draw(st.integers(0, 5)) else ""
    text = "\n".join(head + ([header] if header is not None else []) + lines) + last
    return text.replace("\n", newline)


def _unlink(*paths) -> None:
    """Remove the files an earlier example wrote, since truncating one can wait on the disk."""
    for path in paths:
        path.unlink(missing_ok=True)


@settings(derandomize=True, max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=trace_texts(), block=st.sampled_from([1, 2, 9, 40, 1 << 16]))
def test_load_sequence_agrees_with_the_line_parser(tmp_path, text, block):
    # ``block`` is the block size in characters: small ones split rows across blocks
    path = tmp_path / "trace.csv"
    _unlink(path)
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(core, "_BLOCK_CHARS", block):
        assert _loaded(load_sequence, path) == _loaded(_reference_load_sequence, path)


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(st.lists(st.integers(0, 11), max_size=12), max_size=30).map(
        lambda rows: rows + [[0]] if rows and not rows[-1] else rows
    ),
    comment=st.sampled_from([None, "spec: kind=test"]),
    block=st.sampled_from([1, 5, 1 << 16]),
)
def test_load_sequence_reads_back_what_save_sequence_writes(tmp_path, rows, comment, block):
    path = tmp_path / "trace.csv"
    _unlink(path)
    sequence = ArrivalSequence(rows)
    save_sequence(path, sequence, comment=comment)
    with mock.patch.object(core, "_BLOCK_CHARS", block):
        loaded = load_sequence(path)
    assert loaded == sequence
    # no two rows share one list
    assert len(set(map(id, loaded.slots))) == len(loaded.slots)


def _reference_save_sequence(path, sequence, comment=None) -> None:
    """The line-by-line trace writer that ``save_sequence`` must match byte for byte."""
    lines = []
    if comment is not None:
        lines.append(f"# {comment}")
    lines.append("slot,port")
    for slot_index, row in enumerate(sequence.slots):
        for port in row:
            lines.append(f"{slot_index},{port}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(st.lists(st.integers(0, 23), max_size=12), max_size=40),
    comment=st.sampled_from([None, "spec: kind=test", ""]),
)
@example(rows=[], comment=None)
@example(rows=[], comment="spec: kind=test")
@example(rows=[[], [], [3, 10], [], [12, 0, 12], [], []], comment=None)
def test_save_sequence_writes_what_the_line_writer_writes(tmp_path, rows, comment):
    # leading and trailing empty slots, empty sequences, and ports of two digits
    sequence = ArrivalSequence(rows)
    _unlink(tmp_path / "trace.csv", tmp_path / "reference.csv")
    save_sequence(tmp_path / "trace.csv", sequence, comment=comment)
    _reference_save_sequence(tmp_path / "reference.csv", sequence, comment=comment)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("load", [load_sequence, load_examples, load_forest])
def test_a_file_that_is_not_utf8_is_an_error_naming_it(tmp_path, load):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"slot,port\n0,\xff\n")
    with pytest.raises(ValueError) as caught:
        load(path)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"{path}: not UTF-8 text (invalid start byte)"


# write a trace with a comment that is not ASCII, read it back, and print the locale's encoding
_TRACE_ROUND_TRIP = (
    "import locale, sys; from shbuf import ArrivalSequence, load_sequence, save_sequence; "
    "save_sequence(sys.argv[1], ArrivalSequence([[0]]), comment='caf\\u00e9 run'); "
    "print(locale.getpreferredencoding(False), load_sequence(sys.argv[1]).slots)"
)


def test_files_are_written_as_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "trace.csv"
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    # the C locale, with neither UTF-8 mode nor locale coercion to stand in for it
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    done = subprocess.run([sys.executable, "-c", _TRACE_ROUND_TRIP, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    encoding, slots = done.stdout.split(" ", 1)
    assert encoding.lower().replace("-", "") != "utf8" and slots == "[[0]]\n"
    assert path.read_bytes() == "# café run\nslot,port\n0,0\n".encode("utf-8")


def _reference_save_outcomes(path, result) -> None:
    """The per-packet outcome writer that ``save_outcomes`` must match byte for byte."""
    lines = ["packet_slot,packet_pos,port,verdict"]
    verdicts = iter(result.verdicts)
    for slot_index, row in enumerate(result.sequence.slots):
        for pos, port in enumerate(row):
            lines.append(f"{slot_index},{pos},{port},{next(verdicts).value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_save_outcomes_writes_what_the_per_packet_writer_writes(tmp_path):
    pairs = set()  # (pos, port) of every packet written
    verdicts = set()
    for seed in range(48):
        rng = random.Random(seed)
        num_ports = seed % 12 + 1
        config = SwitchConfig(num_ports, rng.choice([1, 4, 16, 64]))
        # rows of 0 to N packets in any port order, so that at N=12 both
        # (pos, port) = (1, 11) and (11, 1) occur
        rows = [rng.choices(range(num_ports), k=rng.randint(0, num_ports)) for _ in range(60)]
        sequence = ArrivalSequence(rows)
        pairs.update((pos, port) for row in rows for pos, port in enumerate(row))
        for policy in (LongestQueueDrop(), CompleteSharing()):
            result = run_simulation(config, sequence, policy)
            verdicts.update(result.verdicts)
            _unlink(tmp_path / "out.csv", tmp_path / "reference.csv")
            save_outcomes(tmp_path / "out.csv", result)
            _reference_save_outcomes(tmp_path / "reference.csv", result)
            assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert {(1, 11), (11, 1), (1, 10), (11, 0)} <= pairs
    assert verdicts == set(Verdict)


def test_outcomes_csv_schema(tmp_path):
    cfg = SwitchConfig(2, 2)
    result = run_simulation(cfg, ArrivalSequence([[0, 0], [0, 1]]), LongestQueueDrop())
    path = tmp_path / "out.csv"
    save_outcomes(path, result)
    lines = path.read_text().splitlines()
    assert lines[0] == "packet_slot,packet_pos,port,verdict"
    assert len(lines) == 1 + 4


@pytest.mark.parametrize("name, error", [("dir", IsADirectoryError), ("missing/out.csv", FileNotFoundError)])
def test_an_output_that_cannot_be_opened_raises_naming_it(tmp_path, name, error):
    (tmp_path / "dir").mkdir()
    result = run_simulation(SwitchConfig(1, 1), ArrivalSequence([[0]]), LongestQueueDrop())
    with pytest.raises(error) as caught:
        save_outcomes(tmp_path / name, result)
    assert str(caught.value.filename) == str(tmp_path / name)
    assert (tmp_path / "dir").is_dir()


def test_an_output_the_process_may_not_write_is_opened_in_place(tmp_path):
    # the writer leaves such a file for ``open`` to refuse, so the error stays the one it gives
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with open(path) as old, mock.patch.object(core.os, "access", return_value=False):
        save_sequence(path, ArrivalSequence([[0]]))
        assert os.fstat(old.fileno()).st_ino == path.stat().st_ino
    assert path.read_text() == "slot,port\n0,0\n"


class _OverflowPolicy:
    name = "broken"
    thresholds = None

    def reset(self, config):
        pass

    def on_arrival(self, port, index, state):
        return Decision(True)

    def on_departure(self, port, state):
        pass


class _BadPushout:
    name = "broken_pushout"
    thresholds = None

    def reset(self, config):
        pass

    def on_arrival(self, port, index, state):
        return Decision(True, pushout_victim=port)

    def on_departure(self, port, state):
        pass


def test_simulator_rejects_illegal_decisions():
    cfg = SwitchConfig(2, 1)
    with pytest.raises(PolicyError, match="overflow"):
        run_simulation(cfg, ArrivalSequence([[0, 1]]), _OverflowPolicy())
    with pytest.raises(PolicyError, match="push-out"):
        run_simulation(cfg, ArrivalSequence([[0]]), _BadPushout())


class _Undeclared:
    """A policy that declares no ``thresholds``; ``Simulation`` reads nothing else of it."""

    name = "undeclared"

    def reset(self, config):
        pass


def test_a_policy_must_declare_its_thresholds():
    with pytest.raises(AttributeError, match="thresholds"):
        Simulation(SwitchConfig(2, 2), _Undeclared())


@st.composite
def small_instances(draw):
    num_ports = draw(st.integers(1, 4))
    buffer_size = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, num_ports - 1), max_size=num_ports)
    slots = draw(st.lists(row, max_size=12))
    return SwitchConfig(num_ports, buffer_size), ArrivalSequence(slots)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_instances())
def test_every_run_records_one_verdict_per_arrival(instance):
    config, sequence = instance
    lqd = run_simulation(config, sequence, LongestQueueDrop())
    makers = {
        "complete_sharing": CompleteSharing,
        "dynamic_thresholds": DynamicThresholds,
        "lqd": LongestQueueDrop,
        "follow_lqd": FollowLqd,
        "credence": lambda: Credence(PerfectOracle.from_run(lqd)),
    }
    for name, make in makers.items():
        result = run_simulation(config, sequence, make())
        assert len(result.verdicts) == sequence.total_packets
        assert result.verdicts.count(Verdict.TRANSMITTED) == result.transmitted_count
        assert result.transmitted_count + result.dropped_count == sequence.total_packets
        if name != "lqd":
            assert Verdict.PUSHED_OUT not in result.verdicts
        assert throughput(config, sequence, make()) == result.transmitted_count
    assert find_threshold_divergence(config, sequence) is None


class _Spy:
    """Forwarding wrapper: forwards every call, and the wrapped policy's
    ``thresholds``, and records in ``departures`` each port ``on_departure`` sees."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.departures = []

    @property
    def thresholds(self):
        return self.policy.thresholds

    def reset(self, config):
        self.policy.reset(config)

    def on_arrival(self, port, index, state):
        return self.policy.on_arrival(port, index, state)

    def on_departure(self, port, state):
        self.departures.append(port)
        self.policy.on_departure(port, state)


def _depart_every_port(sim):
    """One departure phase by the per-port route: ``depart_port`` at every port."""
    for port in range(sim.config.num_ports):
        sim.depart_port(port)


def _visit_every_port(config, sequence, policy):
    """Reference schedule: ``depart_port`` for every port in every slot."""
    sim = Simulation(config, policy)
    for row in sequence.slots:
        for port in row:
            sim.arrive(port)
        _depart_every_port(sim)
    while sim.state.occupancy:
        _depart_every_port(sim)
    return sim


def _final_thresholds(policy):
    mirror = policy.thresholds
    return None if mirror is None else list(mirror.thresholds)


@st.composite
def gappy_instances(draw):
    # bursts of slots separated by long arrival-free gaps, so that thresholds
    # outlive their queues and whole runs of slots are idle
    num_ports = draw(st.integers(1, 6))
    buffer_size = draw(st.integers(1, 12))
    row = st.lists(st.integers(0, num_ports - 1), max_size=num_ports)
    slots = [[] for _ in range(draw(st.integers(0, 40)))]
    for rows, gap in draw(st.lists(st.tuples(st.lists(row, max_size=6), st.integers(0, 40)), max_size=5)):
        slots += rows + [[] for _ in range(gap)]
    return SwitchConfig(num_ports, buffer_size), ArrivalSequence(slots), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gappy_instances())
def test_skipping_idle_ports_and_slots_changes_no_output(instance):
    config, sequence, seed = instance
    lqd = run_simulation(config, sequence, LongestQueueDrop())
    oracle = FlipOracle(PerfectOracle.from_run(lqd), 0.3, seed, sequence)
    makers = {
        "complete_sharing": CompleteSharing,
        "dynamic_thresholds": DynamicThresholds,
        "lqd": LongestQueueDrop,
        "follow_lqd": FollowLqd,
        "credence": lambda: Credence(oracle),
        # its thresholds outlive its queues, so the final thresholds count the trailing slots drained
        "credence(always drop)": lambda: Credence(ConstantOracle(PredictionLabel.POSITIVE)),
        "sampler(credence)": lambda: FeatureSampler(Credence(oracle)),
        "spy(follow_lqd)": lambda: _Spy(FollowLqd()),
        "spy(credence)": lambda: _Spy(Credence(oracle)),
    }
    for name, make in makers.items():
        policy, reference_policy = make(), make()
        result = run_simulation(config, sequence, policy)
        reference = _visit_every_port(config, sequence, reference_policy)
        assert result.verdicts == reference.verdicts, name
        assert result.transmitted_count == reference.transmitted, name
        assert result.dropped_count == reference.dropped, name
        assert result.peak_occupancy == reference.peak_occupancy, name
        assert _final_thresholds(policy) == _final_thresholds(reference_policy), name
        if isinstance(policy, _Spy):
            # a run departs only through ``drain``; the per-port reference visits every port in every slot
            assert policy.departures == [], name
            assert len(reference_policy.departures) >= config.num_ports * sequence.num_slots, name


def test_the_last_drain_runs_until_the_buffer_is_empty_and_no_further():
    # a Credence whose oracle always says drop leaves thresholds above its
    # queues, so the final thresholds show how many departure-only slots ran
    rng = random.Random(5)
    outlived = 0
    for _ in range(100):
        num_ports = rng.randint(2, 4)
        config = SwitchConfig(num_ports, rng.randint(2, 12))
        slots = [[rng.randrange(num_ports) for _ in range(rng.randint(0, num_ports))] for _ in range(rng.randint(1, 12))]
        # trailing empty rows shorter than the backlog: the tail must not add them to it
        sequence = ArrivalSequence(slots + [[] for _ in range(rng.randint(0, 2))])
        for make in (FollowLqd, lambda: Credence(ConstantOracle(PredictionLabel.POSITIVE))):
            policy, reference_policy = make(), make()
            run_simulation(config, sequence, policy)
            _visit_every_port(config, sequence, reference_policy)
            assert policy.thresholds.thresholds == reference_policy.thresholds.thresholds, sequence.slots
            outlived += policy.thresholds.total > 0
    assert outlived


@st.composite
def drain_instances(draw):
    # a state reached by a random arrival prefix, and a number of slots to drain from it
    num_ports = draw(st.integers(1, 6))
    buffer_size = draw(st.integers(1, 12))
    row = st.lists(st.integers(0, num_ports - 1), max_size=num_ports)
    prefix = ArrivalSequence(draw(st.lists(row, max_size=12)))
    return SwitchConfig(num_ports, buffer_size), prefix, draw(st.integers(0, 16)), draw(st.integers(0, 2**32 - 1))


def _drain_state(sim):
    mirror = sim.policy.thresholds
    return (
        [list(queue) for queue in sim.state.queues],
        list(sim.state.queue_len),
        sim.state.occupancy,
        sim.transmitted,
        None if mirror is None else (list(mirror.thresholds), mirror.total),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(drain_instances())
def test_drain_equals_that_many_departure_phases(instance):
    config, prefix, slots, seed = instance
    lqd = run_simulation(config, prefix, LongestQueueDrop())
    oracle = FlipOracle(PerfectOracle.from_run(lqd), 0.3, seed, prefix)
    makers = {
        "complete_sharing": CompleteSharing,
        "dynamic_thresholds": DynamicThresholds,
        "lqd": LongestQueueDrop,
        "follow_lqd": FollowLqd,
        "credence": lambda: Credence(oracle),
        "sampler(credence)": lambda: FeatureSampler(Credence(oracle)),
        "spy(follow_lqd)": lambda: _Spy(FollowLqd()),
        "spy(credence)": lambda: _Spy(Credence(oracle)),
    }
    for name, make in makers.items():
        bulk, stepped = Simulation(config, make()), Simulation(config, make())
        for sim in (bulk, stepped):
            for row in prefix.slots:
                for port in row:
                    sim.arrive(port)
                _depart_every_port(sim)
        bulk.drain(slots)
        for _ in range(slots):
            _depart_every_port(stepped)
        assert _drain_state(bulk) == _drain_state(stepped), name
