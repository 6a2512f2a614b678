import copy
import dataclasses
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from collections import deque
from itertools import islice
from operator import lt
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
from shbuf import analysis, core
from shbuf.analysis import (
    brute_force_opt,
    compute_eta,
    find_threshold_divergence,
    simulate_with_prediction_log,
    throughput,
)
from shbuf.core import PolicyError, Simulation
from shbuf.learner import ConfusionCounts, collect_trace, load_examples, load_forest, train_forest
from shbuf.oracles import ConstantOracle, FeatureSampler, FlipOracle, PredictionLabel, ground_truth_from_run
from shbuf.policies import Decision
from shbuf.workloads import followlqd_adversary, multi_burst_then_shorts, poisson_bursts, single_burst, uniform_random

from conftest import LiveCredence, LiveFollowLqd, dense_slots, depart_every_port, random_sequence, visit_every_port


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
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        SwitchConfig(ports, buffer_size)


_EXAMPLES = collect_trace(SwitchConfig(4, 16), single_burst(SwitchConfig(4, 16), 40))
# every library entry that takes an int parameter: the parameter's name and a call passing it ``value``
INT_PARAMETERS = {
    "switch_ports": ("num_ports", lambda value: SwitchConfig(value, 8)),
    "switch_buffer": ("buffer_size", lambda value: SwitchConfig(5, value)),
    "single_burst": ("burst", lambda value: single_burst(SwitchConfig(5, 8), value)),
    "multi_burst_then_shorts": ("short_burst", lambda value: multi_burst_then_shorts(SwitchConfig(5, 8), value)),
    "followlqd_adversary": ("cycles", lambda value: followlqd_adversary(SwitchConfig(5, 8), value)),
    "poisson_bursts": ("horizon", lambda value: poisson_bursts(SwitchConfig(5, 8), 0.1, value, 1)),
    "uniform_random": ("horizon", lambda value: uniform_random(SwitchConfig(5, 8), 0.5, value, 1)),
    "eta_upper_bound": ("num_ports", lambda value: analysis.eta_upper_bound(ConfusionCounts(1, 1, 4, 1), value)),
    "train_forest_trees": ("trees", lambda value: train_forest(_EXAMPLES, trees=value)),
    "train_forest_max_depth": ("max_depth", lambda value: train_forest(_EXAMPLES, max_depth=value)),
}


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("entry", INT_PARAMETERS)
def test_an_int_parameter_refuses_anything_but_an_int(entry, value):
    name, call = INT_PARAMETERS[entry]
    call(2)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


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
        sequence.rows = ((0,),)
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
    before = copy.deepcopy(dense_slots(sequence))
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
        assert dense_slots(sequence) == before, name


def test_occupancy_bound_after_every_event(small_config):
    rng = random.Random(7)
    for policy in (CompleteSharing(), LongestQueueDrop(), FollowLqd(), DynamicThresholds()):
        seq = random_sequence(rng, small_config.num_ports, 80, 0.8)
        sim = Simulation(small_config, policy, seq)
        for row in dense_slots(seq):
            for port in row:
                sim.arrive((port,))
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
    sim = Simulation(small_config, LongestQueueDrop(), seq)
    for row in dense_slots(seq):
        sim.arrive(row)
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
    assert dense_slots(loaded) == dense_slots(seq)


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


@pytest.mark.parametrize("row", ["0,1_0", "0,\u0663", "+0,3", "0,1.0"])
def test_a_trace_field_outside_the_int_grammar_is_an_error_naming_its_line(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"slot,port\n0,0\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: non-integer field in {row!r}')}$"):
        load_sequence(path)


@pytest.mark.parametrize("text, kind", [
    *((text, int) for text in ["0", "-0", "007", "-12", "9" * 30]),
    *((text, float) for text in ["0.5", ".05", "+0.5", "-1", "1e-05", "1E3", "nan", "inf", "-Infinity"]),
])
def test_a_number_in_the_grammar_reads_as_its_kind_reads_it(text, kind):
    assert repr(core.read_number(text, kind)) == repr(kind(text))


@pytest.mark.parametrize("text, kind", [
    *((text, int) for text in ["", "-", "+3", "1_0", " 1", "1 ", "\u0663", "1.0", "1e3", "0x10", "--1"]),
    *((text, float) for text in ["", "1_0.5", " 0.1 ", "0.1\n", "\u0663.5", "0.\u0665", "1e", "abc", "0x10"]),
])
def test_any_other_text_is_not_a_number(text, kind):
    with pytest.raises(ValueError, match=f"^could not convert string to {kind.__name__}: {re.escape(repr(text))}$"):
        core.read_number(text, kind)


# a trace field, spaces around it aside: ASCII digits after an optional minus
_REFERENCE_FIELD = re.compile(r"-?[0-9]+")


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
                if not all(_REFERENCE_FIELD.fullmatch(part.strip()) for part in parts):
                    raise ValueError
                slot, port = int(parts[0]), int(parts[1])  # ValueError past int()'s digit limit
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
        return dense_slots(load(path))
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
    # every row is a tuple, so none can change
    assert type(loaded.rows) is tuple and all(type(row) is tuple for row in loaded.rows)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    head=st.sampled_from(["slot,port\n", "# c\nslot,port\n", ""]),
    body=st.lists(st.from_regex(r"[0-9]{1,3},[0-9]{1,2}", fullmatch=True)
                  | st.text(st.sampled_from("0123456789,\r\t -+_.#x\u0663\u00a0"), max_size=8), max_size=6).map("\n".join),
    block=st.sampled_from([1, 5, 1 << 16]),
)
def test_both_trace_parsers_agree_on_any_text_and_read_only_the_int_grammar(head, body, block):
    text = head + body
    with mock.patch.object(core, "_BLOCK_CHARS", block):
        canonical = core._parse_canonical(text)
    try:
        parsed = core._parse_lines("trace.csv", text)
    except ValueError:
        parsed = None
    assert canonical is None or canonical == parsed
    if parsed is not None:
        lines = [line.strip() for line in text.split("\n")]
        rows = [line for line in lines if line and not line.startswith("#") and line != "slot,port"]
        assert all(_REFERENCE_FIELD.fullmatch(field.strip()) for row in rows for field in row.split(","))


# a trace whose one packet is at ``slot``: the form save_sequence writes, and
# one with spaces around the fields, which only the line parser reads
_ONE_PACKET_TRACES = {
    "canonical": "slot,port\n{slot},0\n",
    "line_form": "slot,port\n {slot} , 0\n",
}


@pytest.mark.parametrize("form", _ONE_PACKET_TRACES)
@pytest.mark.parametrize("slot", [2**32, 2**64])
def test_a_slot_past_the_last_a_sequence_holds_is_an_error_naming_its_line(tmp_path, form, slot):
    path = tmp_path / "trace.csv"
    path.write_text(_ONE_PACKET_TRACES[form].format(slot=slot))
    with pytest.raises(ValueError) as caught:
        load_sequence(path)
    assert str(caught.value) == f"{path}:2: slot {slot} is past 4294967295, the last a sequence holds"


@pytest.mark.parametrize("form", _ONE_PACKET_TRACES)
def test_a_packet_at_the_last_slot_a_sequence_holds_loads_runs_and_saves(tmp_path, form):
    path = tmp_path / "trace.csv"
    path.write_text(_ONE_PACKET_TRACES[form].format(slot=2**32 - 1))
    sequence = load_sequence(path)
    assert (sequence.num_slots, list(sequence.arrival_slots), sequence.rows) == (2**32, [2**32 - 1], ((0,),))
    save_outcomes(tmp_path / "out.csv", run_simulation(SwitchConfig(1, 1), sequence, LongestQueueDrop()))
    assert (tmp_path / "out.csv").read_text().splitlines()[1] == "4294967295,0,0,transmitted"
    save_sequence(tmp_path / "again.csv", sequence)
    assert load_sequence(tmp_path / "again.csv") == sequence


@pytest.mark.parametrize("form", _ONE_PACKET_TRACES)
def test_a_late_packet_costs_no_memory_per_idle_slot(tmp_path, form):
    # a million idle slots before the packet: a list per slot would be tens of MB
    path = tmp_path / "trace.csv"
    path.write_text(_ONE_PACKET_TRACES[form].format(slot=10**6))
    config = SwitchConfig(2, 4)
    tracemalloc.start()
    try:
        sequence = load_sequence(path)
        result = run_simulation(config, sequence, LongestQueueDrop())
        credence = run_simulation(config, sequence, Credence(FlipOracle(PerfectOracle.from_run(result), 0.5, 1, sequence)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sequence.num_slots == 10**6 + 1 and credence.transmitted_count == 1
    assert peak < 1 << 20, peak


@st.composite
def dense_rows(draw):
    """One list of ports per slot, with runs of arrival-free slots anywhere."""
    row = st.one_of(st.just([]), st.lists(st.integers(0, 5), min_size=1, max_size=6))
    rows = draw(st.lists(row, max_size=40))
    return [[] for _ in range(draw(st.integers(0, 3)))] + rows + [[] for _ in range(draw(st.integers(0, 3)))]


def _assert_stores_only_its_slots_with_arrivals(sequence, others):
    slots = dense_slots(sequence)
    arrival_slots = sequence.arrival_slots
    assert arrival_slots.format == "I" and arrival_slots.itemsize == 4
    assert all(map(lt, arrival_slots, islice(arrival_slots, 1, None)))
    assert len(arrival_slots) == len(sequence.rows) and all(type(row) is tuple and row for row in sequence.rows)
    assert sequence.num_slots == len(slots) and all(slot < sequence.num_slots for slot in arrival_slots)
    assert ArrivalSequence(slots) == sequence
    for other in others:
        assert (sequence == other) == (slots == dense_slots(other))
    # the rows are a tuple of tuples, so no row can change and two slots may share one
    assert type(sequence.rows) is tuple


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    rows=dense_rows(),
    ports=st.integers(1, 6),
    buffer=st.integers(1, 12),
    rate=st.sampled_from([0.01, 0.1, 0.5, 2.0]),
    load=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    horizon=st.integers(1, 120),
    seed=st.integers(0, 2**32),
)
def test_every_way_to_make_a_sequence_stores_only_its_slots_with_arrivals(rows, ports, buffer, rate, load, horizon, seed):
    dense = ArrivalSequence(rows)
    assert dense_slots(dense) == rows
    text = "slot,port\n" + "".join(f"{slot},{port}\n" for slot, row in enumerate(rows) for port in row)
    canonical = core._parse_canonical(text)
    lines = core._parse_lines("trace.csv", text)
    # a trace cannot name the arrival-free slots after its last packet
    trimmed = ArrivalSequence(rows[:max(dense.arrival_slots, default=-1) + 1])
    assert canonical == lines == trimmed
    config = SwitchConfig(ports, buffer)
    rng = random.Random(seed)
    predictions = [rng.choice([PredictionLabel.POSITIVE, PredictionLabel.NEGATIVE]) for _ in range(dense.total_packets)]
    truth = [rng.random() < 0.5 for _ in range(dense.total_packets)]
    _, reduced = analysis._classify_and_reduce(dense, predictions, truth)
    labels = iter(predictions)
    assert dense_slots(reduced) == [[port for port in row if next(labels) is PredictionLabel.NEGATIVE] for row in rows]
    made = [dense, canonical, lines, reduced, poisson_bursts(config, rate, horizon, seed),
            uniform_random(config, load, horizon, seed), ArrivalSequence(rows + [[]])]
    for sequence in made:
        _assert_stores_only_its_slots_with_arrivals(sequence, made)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rows=dense_rows(), port=st.integers(0, 5))
def test_a_sequence_is_not_changed_through_the_lists_it_was_made_from_or_its_rows(rows, port):
    before = copy.deepcopy(rows)
    sequence = ArrivalSequence(rows)
    config = SwitchConfig(6, 4)
    sequence.validate(config)
    for row in rows:
        row.append(port)
    rows.append([port])
    assert type(sequence.rows) is tuple and all(type(row) is tuple for row in sequence.rows)
    assert dense_slots(sequence) == before and sequence == ArrivalSequence(before)
    if sequence.rows:
        # a validated sequence's summary is cached; a row that could grow
        # past it would pass validation and fail mid-run with an IndexError
        with pytest.raises(AttributeError):
            sequence.rows[0].append(7)
    result = run_simulation(config, sequence, LongestQueueDrop())
    assert result.transmitted_count + result.dropped_count == sum(map(len, before))


def test_a_sequences_arrival_slots_refuse_every_change_and_stay_read_only_through_a_copy():
    config = SwitchConfig(2, 4)
    text = "slot,port\n0,0\n0,0\n1,0\n2,1\n"
    made = [
        ArrivalSequence([[0, 0], [0], [1]]),
        core._parse_canonical(text),
        core._parse_lines("trace.csv", text),
        # arrival 3, port 1 of slot 1, is forecast to drop
        analysis._classify_and_reduce(ArrivalSequence([[0, 0], [0, 1], [1]]), [0, 0, 0, 1, 0], [0] * 5)[1],
    ]
    expected = run_simulation(config, made[0], LongestQueueDrop()).verdicts
    # a read-only view refuses every write; every other mutator is one it lacks
    writes = [
        lambda slots: slots.__setitem__(2, 0),
        lambda slots: slots.__setitem__(slice(0, 2), array("I", [1, 2])),
        lambda slots: slots.__delitem__(0),
        lambda slots: memoryview(slots).__setitem__(2, 0),
        lambda slots: memoryview(slots.obj).__setitem__(8, 0),
    ]
    mutators = [
        lambda slots: slots.__iadd__(array("I", [3])),
        lambda slots: slots.__imul__(2),
        lambda slots: slots.append(3),
        lambda slots: slots.extend([3]),
        lambda slots: slots.insert(0, 0),
        lambda slots: slots.pop(),
        lambda slots: slots.remove(0),
        lambda slots: slots.reverse(),
        lambda slots: slots.byteswap(),
        lambda slots: slots.frombytes(bytes(4)),
        lambda slots: slots.fromlist([3]),
        lambda slots: slots.clear(),
    ]
    for sequence in made:
        sequence.validate(config)
        assert sequence == made[0]
        for copied in (sequence, copy.deepcopy(sequence), pickle.loads(pickle.dumps(sequence))):
            slots = copied.arrival_slots
            assert copied == made[0] and slots.format == "I" and slots.itemsize == 4
            for change in writes:
                with pytest.raises(TypeError):
                    change(copied.arrival_slots)
            for change in mutators:
                with pytest.raises(AttributeError):
                    change(copied.arrival_slots)
            with pytest.raises(TypeError):
                copied.arrival_slots[2] = 0
            assert list(copied.arrival_slots) == [0, 1, 2]
            assert run_simulation(config, copied, LongestQueueDrop()).verdicts == expected


def _reference_save_sequence(path, sequence, comment=None) -> None:
    """The line-by-line trace writer that ``save_sequence`` must match byte for byte."""
    lines = []
    if comment is not None:
        lines.append(f"# {comment}")
    lines.append("slot,port")
    for slot_index, row in enumerate(dense_slots(sequence)):
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
    "print(locale.getpreferredencoding(False), list(map(list, load_sequence(sys.argv[1]).rows)))"
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
    for slot_index, row in enumerate(dense_slots(result.sequence)):
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

    def reset(self, config, sequence):
        pass

    def on_arrival(self, port, index, state):
        return Decision(True)

    def on_departure(self, port, state):
        pass


class _BadPushout:
    name = "broken_pushout"

    def reset(self, config, sequence):
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


class _SecondPacketDecides:
    """Accepts arrival 0 and answers every later one with ``decision``."""

    name = "second_packet_decides"

    def __init__(self, decision):
        self.decision = decision

    def reset(self, config, sequence):
        pass

    def on_arrival(self, port, index, state):
        return Decision(True) if index == 0 else self.decision


@pytest.mark.parametrize(
    "config, decision, message",
    [
        (SwitchConfig(2, 1), Decision(True), "accept would overflow the buffer"),
        (SwitchConfig(2, 2), Decision(True, 0), "push-out is only legal when the buffer is full"),
        (SwitchConfig(2, 1), Decision(True, 1), "push-out victim queue 1 is empty"),
        # -2 and -1 would index port 0's and port 1's queue, and 2 no queue
        (SwitchConfig(2, 1), Decision(True, -2), "push-out victim queue -2 is not a port"),
        (SwitchConfig(2, 1), Decision(True, -1), "push-out victim queue -1 is not a port"),
        (SwitchConfig(2, 1), Decision(True, 2), "push-out victim queue 2 is not a port"),
    ],
)
def test_an_illegal_decision_mid_row_raises_its_message_after_the_packets_before_it(config, decision, message):
    sim = Simulation(config, _SecondPacketDecides(decision), ArrivalSequence([[0, 1]]))
    with pytest.raises(PolicyError) as raised:
        sim.arrive((0, 1))
    assert str(raised.value) == message
    # the row's first packet was admitted before the second one's decision was refused
    assert sim.verdicts == [Verdict.TRANSMITTED]
    assert sim.state.queue_len == [1, 0] and sim.state.occupancy == 1


class _OnePacketRows:
    """A ``Simulation`` as ``run_slots`` drives it, but fed each row as one-packet rows."""

    def __init__(self, sim):
        self.sim = sim
        self.config = sim.config
        self.drain = sim.drain

    @property
    def backlog(self):
        return self.sim.backlog

    def arrive(self, row):
        for port in row:
            self.sim.arrive((port,))


@st.composite
def contended_instances(draw):
    # more ports than buffer slots and rows up to every port wide, so one row can fill the
    # buffer and the rest of it is dropped or pushes out
    buffer_size = draw(st.integers(1, 6))
    num_ports = draw(st.integers(buffer_size + 1, buffer_size + 4))
    row = st.lists(st.integers(0, num_ports - 1), min_size=buffer_size + 1, max_size=num_ports)
    slots = draw(st.lists(st.one_of(row, st.just([])), min_size=1, max_size=10))
    return SwitchConfig(num_ports, buffer_size), ArrivalSequence(slots), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(contended_instances())
def test_a_row_admits_as_its_packets_do_one_row_each(instance):
    config, sequence, seed = instance
    lqd = run_simulation(config, sequence, LongestQueueDrop())
    oracle = FlipOracle(PerfectOracle.from_run(lqd), 0.3, seed, sequence)
    makers = {
        "complete_sharing": CompleteSharing,
        "dynamic_thresholds": DynamicThresholds,
        "lqd": LongestQueueDrop,
        "follow_lqd": FollowLqd,
        "credence": lambda: Credence(oracle),
        "sampler(credence)": lambda: FeatureSampler(Credence(oracle)),
    }
    for name, make in makers.items():
        rows, packets = Simulation(config, make(), sequence), Simulation(config, make(), sequence)
        core.run_slots(rows, sequence)
        core.run_slots(_OnePacketRows(packets), sequence)
        assert rows.verdicts == packets.verdicts, name
        assert (rows.transmitted, rows.dropped, rows.peak_occupancy) == (
            packets.transmitted, packets.dropped, packets.peak_occupancy), name
        if name == "sampler(credence)":
            assert rows.policy.features == packets.policy.features, name


def test_no_policy_keeps_a_mirror_of_its_own():
    # FollowLqd and Credence replay a recorded column, so a run drains only its queues
    config, sequence = SwitchConfig(2, 4), ArrivalSequence([[0, 1], [0]])
    for policy in (CompleteSharing(), DynamicThresholds(), LongestQueueDrop(), FollowLqd(),
                   Credence(ConstantOracle(PredictionLabel.NEGATIVE))):
        run_simulation(config, sequence, policy)
        assert not hasattr(policy, "thresholds"), policy.name
    assert not hasattr(Simulation(config, FollowLqd(), sequence), "mirror")


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
    """Forwarding wrapper: forwards every call, and records in ``departures``
    each port ``on_departure`` sees."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.departures = []

    def reset(self, config, sequence):
        self.policy.reset(config, sequence)

    def on_arrival(self, port, index, state):
        return self.policy.on_arrival(port, index, state)

    def on_departure(self, port, state):
        self.departures.append(port)
        self.policy.on_departure(port, state)


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
    drop = ConstantOracle(PredictionLabel.POSITIVE)
    # each policy, and the reference it must match when every port departs in every slot;
    # FollowLqd and Credence replay recorded thresholds, their references step a live mirror
    makers = {
        "complete_sharing": (CompleteSharing, CompleteSharing),
        "dynamic_thresholds": (DynamicThresholds, DynamicThresholds),
        "lqd": (LongestQueueDrop, LongestQueueDrop),
        "follow_lqd": (FollowLqd, LiveFollowLqd),
        "credence": (lambda: Credence(oracle), lambda: LiveCredence(oracle)),
        "credence(always drop)": (lambda: Credence(drop), lambda: LiveCredence(drop)),
        "sampler(credence)": (lambda: FeatureSampler(Credence(oracle)), lambda: FeatureSampler(LiveCredence(oracle))),
        "spy(follow_lqd)": (lambda: _Spy(FollowLqd()), lambda: _Spy(LiveFollowLqd())),
        "spy(credence)": (lambda: _Spy(Credence(oracle)), lambda: _Spy(LiveCredence(oracle))),
    }
    for name, (make, make_reference) in makers.items():
        policy, reference_policy = make(), make_reference()
        result = run_simulation(config, sequence, policy)
        reference = visit_every_port(config, sequence, reference_policy)
        assert result.verdicts == reference.verdicts, name
        assert result.transmitted_count == reference.transmitted, name
        assert result.dropped_count == reference.dropped, name
        assert result.peak_occupancy == reference.peak_occupancy, name
        if isinstance(policy, _Spy):
            # a run departs only through ``drain``; the per-port reference visits every port in every slot
            assert policy.departures == [], name
            assert len(reference_policy.departures) >= config.num_ports * sequence.num_slots, name


class _DrainLog:
    """A ``Simulation`` driven by ``run_slots`` that logs each drain as (slots, backlog before it)."""

    def __init__(self, sim):
        self.sim = sim
        self.config = sim.config
        self.arrive = sim.arrive
        self.drains = []

    @property
    def backlog(self):
        return self.sim.backlog

    def drain(self, slots):
        self.drains.append((slots, self.sim.backlog))
        self.sim.drain(slots)


def test_the_last_drain_runs_until_the_buffer_is_empty_and_no_further():
    rng = random.Random(5)
    trailing = 0
    for _ in range(100):
        num_ports = rng.randint(2, 4)
        config = SwitchConfig(num_ports, rng.randint(2, 12))
        slots = [[rng.randrange(num_ports) for _ in range(rng.randint(1, num_ports))] for _ in range(rng.randint(1, 12))]
        # trailing empty rows, shorter or longer than the backlog, change nothing
        sequence = ArrivalSequence(slots + [[] for _ in range(rng.randint(0, 6))])
        for make in (LongestQueueDrop, FollowLqd, lambda: Credence(ConstantOracle(PredictionLabel.POSITIVE))):
            log = _DrainLog(Simulation(config, make(), sequence))
            core.run_slots(log, sequence)
            assert log.sim.state.occupancy == 0
            # every drain but the last ends at a slot with arrivals; the last is the longest queue
            assert sum(drained for drained, _ in log.drains[:-1]) == len(slots) - 1
            last, backlog = log.drains[-1]
            assert last == backlog
            # a drain to the end of the sequence would run more phases than this one
            trailing += sequence.num_slots - (len(slots) - 1) > last
    assert trailing


@st.composite
def drain_instances(draw):
    """A state reached by a random arrival prefix, and a number of slots to drain
    from it. The prefix's rows come from a drawn seed, as in ``hot_port_instances``:
    a packet goes to a hot port or, one time in three, to a random one. The
    prefix ends after its last arrivals, before their departure phase, and a
    drain is often short, so that a queue outlives it with more departed entries
    in its list than queued ones."""
    num_ports = draw(st.integers(1, 6))
    buffer_size = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    hot = rng.randrange(num_ports)
    rows = [
        [hot if rng.random() < 2 / 3 else rng.randrange(num_ports) for _ in range(rng.randint(1, num_ports))]
        for _ in range(rng.randint(0, 24))
    ]
    slots = st.one_of(st.integers(1, 4), st.integers(0, 16))
    return SwitchConfig(num_ports, buffer_size), ArrivalSequence(rows), draw(slots), draw(st.integers(0, 2**32 - 1))


def _drain_state(sim):
    # a list's departed entries may differ between the routes; its queued ones may not
    live = [tail[len(tail) - length:] for tail, length in zip(sim.state.tails, sim.state.queue_len)]
    return live, list(sim.state.queue_len), sim.state.occupancy, sim.transmitted


def test_drain_equals_that_many_departure_phases():
    trimmed = 0  # the examples in which a drain deletes a queue's departed entries
    loaded = 0  # the examples in which a drain starts with packets in the buffer

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(drain_instances())
    def check(instance):
        nonlocal trimmed, loaded
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
        trims = starts_loaded = False
        for name, make in makers.items():
            bulk, stepped = Simulation(config, make(), prefix), Simulation(config, make(), prefix)
            for sim in (bulk, stepped):
                for index, row in enumerate(dense_slots(prefix)):
                    if index:
                        depart_every_port(sim)
                    sim.arrive(row)
            before = list(map(len, bulk.state.tails))
            starts_loaded |= bulk.state.occupancy > 0
            bulk.drain(slots)
            for _ in range(slots):
                depart_every_port(stepped)
            assert _drain_state(bulk) == _drain_state(stepped), name
            state = bulk.state
            trims |= any(length and len(tail) != size for tail, length, size in zip(state.tails, state.queue_len, before))
        trimmed += trims
        loaded += starts_loaded

    check()
    assert trimmed >= 50, trimmed  # 77 of the 500
    assert loaded >= 400, loaded  # 485 of the 500


@st.composite
def hot_port_instances(draw):
    """N in 2..5, B in 2..16 and 1 to 60 slots of up to N packets each, which
    go to one hot port or, one time in three, to a random one: the hot queue
    outlives many departures, and LQD pushes its tail out. The rows come from
    a drawn seed, since drawing each port costs Hypothesis far more."""
    num_ports = draw(st.integers(2, 5))
    buffer_size = draw(st.integers(2, 16))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    hot = rng.randrange(num_ports)
    rows = [
        [hot if rng.random() < 2 / 3 else rng.randrange(num_ports) for _ in range(rng.randint(0, num_ports))]
        for _ in range(rng.randint(1, 60))
    ]
    return SwitchConfig(num_ports, buffer_size), ArrivalSequence(rows)


def _lqd_by_fifos(config, sequence):
    """LongestQueueDrop's verdicts by a FIFO of arrival indices per port: a push-out
    evicts the tail of the first longest queue, the arriving port's own longest
    queue means a drop, and each non-empty queue sends its head once per slot."""
    queues = [deque() for _ in range(config.num_ports)]
    verdicts = []
    for row in dense_slots(sequence):
        for port in row:
            lengths = list(map(len, queues))
            longest = lengths.index(max(lengths))
            if sum(lengths) < config.buffer_size or longest != port:
                if sum(lengths) == config.buffer_size:
                    verdicts[queues[longest].pop()] = Verdict.PUSHED_OUT
                queues[port].append(len(verdicts))
                verdicts.append(Verdict.TRANSMITTED)
            else:
                verdicts.append(Verdict.DROPPED_ON_ARRIVAL)
        for queue in queues:
            if queue:
                queue.popleft()
    return verdicts


def test_lqd_verdicts_equal_a_fifo_per_port():
    pushed = 0  # the examples in which a packet is pushed out

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(hot_port_instances())
    # a port whose list keeps one entry too few runs out of tails to push out in slot 4
    @example((SwitchConfig(4, 4), ArrivalSequence([[0, 0, 0, 0], [0], [0], [0], [2, 3, 1, 2]])))
    def check(instance):
        nonlocal pushed
        config, sequence = instance
        verdicts = run_simulation(config, sequence, LongestQueueDrop()).verdicts
        assert verdicts == _lqd_by_fifos(config, sequence)
        assert visit_every_port(config, sequence, LongestQueueDrop()).verdicts == verdicts
        pushed += Verdict.PUSHED_OUT in verdicts

    check()
    assert pushed >= 150, pushed  # 207 of the 401


class _BoundCheck:
    """A ``Simulation``, driven by ``run_slots`` or phase by phase, that checks
    after every arrival, every drain and every ``depart_port`` that each port's
    list holds its queue and at most ``buffer_size`` departed entries before it."""

    def __init__(self, sim):
        self.sim = sim
        self.config = sim.config

    @property
    def backlog(self):
        return self.sim.backlog

    def check(self):
        state, buffer = self.sim.state, self.config.buffer_size
        for tail, length in zip(state.tails, state.queue_len):
            assert length <= len(tail) <= length + buffer, (len(tail), length, buffer)

    def arrive(self, row):
        for port in row:
            self.sim.arrive((port,))
            self.check()

    def drain(self, slots):
        self.sim.drain(slots)
        self.check()

    def phase(self):
        for port in range(self.config.num_ports):
            self.sim.depart_port(port)
            self.check()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hot_port_instances())
def test_a_ports_list_holds_its_queue_and_at_most_a_buffer_of_departed_entries(instance):
    config, sequence = instance
    for make in (CompleteSharing, LongestQueueDrop, FollowLqd):
        bulk = _BoundCheck(Simulation(config, make(), sequence))
        core.run_slots(bulk, sequence)
        stepped = _BoundCheck(Simulation(config, make(), sequence))
        for row in dense_slots(sequence):
            stepped.arrive(row)
            stepped.phase()
        while stepped.sim.state.occupancy:
            stepped.phase()
        assert bulk.sim.verdicts == stepped.sim.verdicts
