"""Tests of the benchmark's own helpers (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench import inputs, spec, stats, tracing, yardstick
from perfbench.workloads import run_until

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- percentiles and the sample-count rule -------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile(list(reversed(values)), 50) == 50
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_p99_needs_a_thousand_samples():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.tail_supported(1000, 99)
    assert not stats.tail_supported(999, 99)
    assert stats.tail_supported(1500, 99)
    assert stats.tail_supported(20, 50)


def test_pbft_rubin_attempts_enough_ops_for_p99():
    assert stats.tail_supported(spec.workload("pbft-rubin").params["ops"], 99)


def test_relative_spread():
    assert stats.relative_spread([10.0] * 5) == 0.0
    q1, med, q3 = __import__("statistics").quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    assert stats.relative_spread(range(1, 11)) == pytest.approx((q3 - q1) / med)


def test_reference_scale_cancels_a_host_slowdown():
    nominal = yardstick.NOMINAL_S
    # A host twice as slow: the yardstick and the program both take twice as long.
    scale = yardstick.reference_scale([2 * nominal, 2.2 * nominal, 1.9 * nominal])
    assert scale == pytest.approx(0.5)
    assert 0.4 * scale == pytest.approx(0.2)  # 0.4 host s of set-up -> 0.2 reference s
    assert 100.0 / scale == pytest.approx(200.0)  # 100 ops per host s -> 200 per reference s


def test_yardstick_work_is_fixed():
    seconds, digest = yardstick.one_pass()
    assert seconds > 0
    # The yardstick is the benchmark's unit of host speed: its work must never change.
    assert digest == "a73fade9585766ad"


# -- seeded inputs ----------------------------------------------------------------


def test_closed_loop_inputs_repeat_per_seed():
    a = inputs.closed_loop_ops(7, 4, 40, 1024)
    assert a == inputs.closed_loop_ops(7, 4, 40, 1024)
    assert a != inputs.closed_loop_ops(8, 4, 40, 1024)
    assert [len(ops) for ops in a] == [10, 10, 10, 10]
    indices = sorted(i for ops in a for i, _ in ops)
    assert indices == list(range(40))
    for ops in a:
        for _, operation in ops:
            text = operation.decode("ascii")
            assert text.startswith("PUT user")
            assert len(text.partition("=")[2]) == 1024


def test_latency_runs_from_invoke_and_censors_at_the_end():
    outcomes = [(1.0, 1.5, b"OK"), None, (3.0, 3.25, b"OK")]
    assert stats.op_latencies(outcomes, 0.5, end=10.0) == [0.5, 9.5, 0.25]


# -- failure accounting --------------------------------------------------------


def test_failure_counts():
    outcomes = [(0.0, 1.0, b"OK"), None, (0.0, 2.0, b"NO"), (0.0, 1.0, b"OK")]
    counts = stats.failure_counts(outcomes, b"OK")
    assert counts == {"attempted": 4, "completed": 3, "wrong_replies": 1, "failed": 2}


def test_env_run_exceptions_are_recorded_and_strand_ops():
    """A process failing with nobody waiting escapes env.run; the run resumes."""
    from repro.sim import Environment

    env = Environment()
    outcomes = [None] * 4

    def worker(index, delay):
        yield env.timeout(delay)
        outcomes[index] = (0.0, env.now, b"OK")

    def crasher():
        yield env.timeout(1.5)
        raise RuntimeError("boom")

    for index, delay in enumerate((1.0, 2.0, 3.0)):
        env.process(worker(index, delay))
    env.process(crasher())  # op 3 is never served
    errors = []
    assert run_until(env, 10.0, errors)
    assert errors == ["RuntimeError: boom"]
    assert env.now == 10.0
    counts = stats.failure_counts(outcomes, b"OK")
    assert counts["failed"] == 1 and counts["completed"] == 3
    assert stats.op_latencies(outcomes, 0.0, env.now)[3] == 10.0


def test_run_until_gives_up_after_too_many_errors(monkeypatch):
    from perfbench import workloads
    from repro.sim import Environment

    monkeypatch.setattr(workloads, "MAX_ESCAPED_ERRORS", 3)
    env = Environment()

    def crasher(at):
        yield env.timeout(at)
        raise ValueError(at)

    for at in range(1, 6):
        env.process(crasher(at))
    errors = []
    assert not workloads.run_until(env, 10.0, errors)
    assert len(errors) == 3


# -- self-time arithmetic ------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    #      0 [0, 10]
    #      ├─ 1 [1, 3]
    #      └─ 2 [4, 8]
    #          └─ 3 [5, 6]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert tracing.self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0]


def _recorder_with(spans, functions):
    recorder = tracing.SpanRecorder()
    for layer, name in functions:
        recorder.function_id(layer, name)
    for fid, s, e, p in spans:
        recorder.func.append(fid)
        recorder.start.append(s)
        recorder.end.append(e)
        recorder.parent.append(p)
    return recorder


def test_attribution_sums_to_the_window():
    recorder = _recorder_with(
        [
            (0, 1.0, 9.0, -1),  # sim root
            (1, 2.0, 5.0, 0),  # rdma
            (2, 3.0, 4.0, 1),  # benchmark code inside rdma
            (3, 6.0, 7.0, 0),  # crypto
            (1, 9.5, 9.75, -1),  # a second root
        ],
        [("sim", "run"), ("rdma", "post"), ("perfbench", "loop"), ("crypto", "sign")],
    )
    result = tracing.attribute(recorder, window_s=10.0)
    assert result["layer_self_s"]["sim"] == 4.0
    assert result["layer_self_s"]["rdma"] == 2.0 + 0.25
    assert result["layer_self_s"]["crypto"] == 1.0
    assert result["layer_calls"]["rdma"] == 2
    # 1 s of benchmark self time plus 1.75 s outside every root span.
    assert result["unattributed_s"] == pytest.approx(2.75)
    total = sum(result["layer_self_s"].values()) + result["unattributed_s"]
    assert total == pytest.approx(10.0)
    assert result["min_self_s"] >= 0


def test_wrapped_calls_nest_and_record_only_while_recording():
    recorder = tracing.SpanRecorder()
    inner = recorder.wrap(lambda x: x + 1, recorder.function_id("rdma", "inner"))
    outer = recorder.wrap(lambda x: inner(x) * 2, recorder.function_id("rubin", "outer"))
    assert outer(1) == 4 and len(recorder) == 0
    assert tracing.run_recorded(recorder, lambda: outer(2)) == 6
    assert list(recorder.parent) == [-1, 0]
    assert [recorder.functions[f] for f in recorder.func] == [("rubin", "outer"), ("rdma", "inner")]
    assert recorder.start[0] <= recorder.start[1] <= recorder.end[1] <= recorder.end[0]
    assert not recorder.stack


def test_spans_round_trip(tmp_path):
    recorder = _recorder_with([(0, 1.0, 2.0, -1), (1, 1.25, 1.5, 0)], [("sim", "a"), ("net", "b")])
    path = str(tmp_path / "spans.bin")
    tracing.write_spans(path, recorder, {"workload": "x"})
    header, loaded = tracing.read_spans(path)
    assert header["workload"] == "x" and header["count"] == 2
    assert list(loaded.start) == [1.0, 1.25] and list(loaded.parent) == [-1, 0]
    assert loaded.functions == recorder.functions


def test_layer_of_file():
    sep = os.sep
    assert tracing.layer_of_file(sep.join(["", "x", "src", "repro", "rdma", "qp.py"])) == "rdma"
    assert tracing.layer_of_file(sep.join(["", "x", "src", "repro", "bft", "cop", "group.py"])) == "bft"
    assert tracing.layer_of_file(sep.join(["", "x", "perfbench", "workloads.py"])) == tracing.OUTSIDE


def test_instrumentation_finds_every_entry_point_and_undoes_itself():
    from repro.rdma.qp import QueuePair
    from repro.sim.core import Environment

    original = (QueuePair.__dict__["post_send"], Environment.__dict__["process"])
    recorder = tracing.SpanRecorder()
    with tracing.Instrumentation(recorder) as instrumentation:
        assert instrumentation.missing == []
        assert QueuePair.__dict__["post_send"] is not original[0]
    assert (QueuePair.__dict__["post_send"], Environment.__dict__["process"]) == original


def test_traced_processes_keep_their_schedule():
    """Wrapping generators changes no simulated outcome."""
    from repro.sim import Environment

    def scenario():
        env = Environment()
        log = []

        def ping(name, period):
            for _ in range(5):
                yield env.timeout(period)
                log.append((env.now, name))

        env.process(ping("a", 1.0))
        env.process(ping("b", 0.5))
        env.run()
        return log

    plain = scenario()
    recorder = tracing.SpanRecorder()
    with tracing.Instrumentation(recorder):
        traced = tracing.run_recorded(recorder, scenario)
    assert traced == plain
    assert tracing.function_calls(recorder, ["<resume> test_traced_processes_keep_their_schedule.<locals>.scenario.<locals>.ping"]) == 12


# -- the contract file -------------------------------------------------------------


def test_benchmark_json_matches_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_json()


def test_spec_respects_the_contract_limits():
    doc = spec.benchmark_json()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    assert names == ["pbft-rubin", "fig4-sweep"]
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    metrics = doc["end_to_end"] + doc["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    assert all(name_re.match(n) for n in all_names)
    assert all(unit_re.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in doc["end_to_end"])}
    assert 1 <= len(doc["per_layer"]) <= 128
    assert all(m.moves and m.on for m in spec.PER_LAYER)
    for layer in spec.LAYERS:
        for suffix in ("self_s", "self_share", "calls"):
            assert f"{layer}.{suffix}" in all_names
    assert 1 <= doc["run_seconds"] <= 60
    budget = (4 + 22 * len(names)) * (doc["run_seconds"] + 10)
    assert budget < 3420
