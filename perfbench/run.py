#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pbft-rubin --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --all            # every workload, traced and untraced
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

``--trace 0`` repeats the workload (a fresh system each time, each
repetition on its own input set derived from ``--seed``) for about
``--seconds`` host seconds, then repeats the first input set once more
to check that the modeled metrics repeat exactly.  Before and after each
repetition it times the fixed yardstick (``yardstick.py``) and reports
the host-time end-to-end metrics in reference-host seconds, scaled by
``NOMINAL_S / median(yardstick seconds)``, so that the shared host's own
speed drift cancels.  ``--trace 1`` makes
one untraced repetition for the layer counters and one traced
repetition for per-layer host self time, and checks that both produce
identical modeled metrics.  Every metric is printed as ``name value
unit``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, "perfbench", "out")

#: Upper bound on repetitions in one untraced run.
MAX_REPS = 12


class DeterminismError(RuntimeError):
    """Two runs of one seed disagreed on a modeled metric."""


def setup_probe(name: str) -> float:
    """Import the workload's ``repro`` modules and build its system, cold.

    Runs in a fresh interpreter (``--setup-probe``) and returns the host
    seconds of the imports plus the build; importing the benchmark's own
    modules in between is not timed.
    """
    import importlib

    from perfbench import spec

    t0 = time.perf_counter()
    for module in spec.workload(name).imports:
        importlib.import_module(module)
    imported = time.perf_counter() - t0
    from perfbench.workloads import SETUPS

    build = SETUPS.get(name)
    if build is None:
        return imported
    t1 = time.perf_counter()
    build(dict(spec.workload(name).params))
    return imported + time.perf_counter() - t1


def probe_seconds(*args: str) -> float:
    """Run a timing probe in a fresh interpreter; it prints its seconds last."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def setup_seconds(name: str) -> float:
    """``setup_probe`` in a fresh interpreter."""
    return probe_seconds(os.path.abspath(__file__), "--workload", name, "--setup-probe")


def yardstick_seconds() -> float:
    """One pass of the fixed yardstick, timed inside a fresh interpreter."""
    return probe_seconds(os.path.join(ROOT, "perfbench", "yardstick.py"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _same_model(a, b) -> list:
    """Names of the modeled quantities on which two repetitions differ."""
    diff = [k for k in sorted(set(a.modeled) | set(b.modeled)) if a.modeled.get(k) != b.modeled.get(k)]
    diff += [k for k in sorted(set(a.counters) | set(b.counters)) if a.counters.get(k) != b.counters.get(k)]
    for name in ("fingerprint", "events", "attempted", "completed", "failed"):
        if getattr(a, name) != getattr(b, name):
            diff.append(name)
    return diff


def _error_notes(errors) -> list:
    """One line for the exceptions that escaped ``env.run`` in a repetition."""
    if not errors:
        return []
    return [f"{len(errors)} exceptions escaped env.run; first: {errors[0]}"]


def _print_table(title: str, rows) -> None:
    print(f"# {title}")
    for name, value, unit in rows:
        if isinstance(value, float):
            text = f"{value:.6g}"
        else:
            text = str(value)
        print(f"{name:34s} {text:>16s} {unit}")


def rep_seed(seed: int, index: int) -> int:
    """Input seed of repetition ``index`` of a run with ``--seed seed``."""
    return seed * 1000 + index


def run_untraced(name: str, params: dict, seed: int, seconds: float) -> dict:
    from perfbench.workloads import RUNNERS
    from perfbench.yardstick import reference_scale

    runner = RUNNERS[name]
    reps, setups = [], []
    began = time.perf_counter()
    # Every repetition is preceded by one cold set-up and bracketed by
    # yardstick passes, so all three see the same host speed.
    yardstick = [yardstick_seconds()]
    while True:
        setups.append(setup_seconds(name))
        reps.append(runner(params, rep_seed(seed, len(reps))))
        gc.collect()
        yardstick.append(yardstick_seconds())
        elapsed = time.perf_counter() - began
        # Stop while there is still room for the closing repeat.
        if len(reps) + 1 >= MAX_REPS or elapsed * (len(reps) + 2) / len(reps) > seconds:
            break
    # Repeat the first input set: one seed must give identical modeled results.
    setups.append(setup_seconds(name))
    repeat = runner(params, rep_seed(seed, 0))
    diff = _same_model(reps[0], repeat)
    if diff:
        raise DeterminismError(f"{name} seed {seed}: a repeated repetition differs in {diff}")
    reps.append(repeat)
    gc.collect()
    yardstick.append(yardstick_seconds())

    scale = reference_scale(yardstick)
    ops_per_host_s = statistics.median(r.completed / r.host_s for r in reps)
    setup_host_s = statistics.median(setups)
    first = reps[0]
    metrics = {
        "setup_s": (setup_host_s * scale, "s"),
        "ops_per_ref_s": (ops_per_host_s / scale, "ops/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    rows = [(k, v, u) for k, (v, u) in metrics.items()]
    rows += [
        ("ops_per_host_s (unscaled)", ops_per_host_s, "ops/s"),
        ("setup host s (unscaled)", setup_host_s, "s"),
        ("host -> reference scale", scale, ""),
        ("yardstick", ", ".join(f"{x:.3f}" for x in yardstick), "s"),
        ("cold set-ups", ", ".join(f"{x:.3f}" for x in setups), "s"),
        ("warm build_start_s (median)", statistics.median(r.setup_s for r in reps), "s"),
        ("repetitions", len(reps), "count"),
        ("host_s per repetition", ", ".join(f"{r.host_s:.3f}" for r in reps), "s"),
    ]
    rows += [(k, v, "") for k, v in sorted(first.modeled.items())]
    rows += [(k, v, "") for k, v in sorted(first.counters.items())]
    _print_table(f"{name} seed {seed} untraced", rows)
    return {
        "correct": not any(r.problems for r in reps),
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": _error_notes(first.errors) + [p for r in reps for p in r.problems],
    }


def run_traced(name: str, params: dict, seed: int) -> dict:
    from repro.sim import COPYSTATS

    from perfbench import spec, tracing
    from perfbench.workloads import RUNNERS

    runner = RUNNERS[name]
    base = runner(params, rep_seed(seed, 0))
    gc.collect()

    recorder = tracing.SpanRecorder()
    COPYSTATS.reset()
    recorder.probes.append(COPYSTATS)
    instrumentation = tracing.Instrumentation(recorder)
    with instrumentation:
        traced = runner(params, rep_seed(seed, 0), recorder)
    copies = COPYSTATS.snapshot()
    COPYSTATS.reset()

    problems = list(base.problems) + list(traced.problems)
    diff = _same_model(base, traced)
    if diff:
        problems.append(f"traced run differs from the untraced run in {diff}")

    window = traced.host_s
    analysis = tracing.attribute(recorder, window)
    total = sum(analysis["layer_self_s"].values()) + analysis["unattributed_s"]
    tolerance = 1e-6 * window + 1e-9
    if abs(total - window) > tolerance:
        problems.append(f"layer self times sum to {total!r} s, traced run took {window!r} s")
    if analysis["min_self_s"] < -1e-9 or analysis["root_cover_s"] > window + tolerance:
        problems.append("span nesting broken (negative self time or spans outside the run)")

    ops = max(base.completed, 1)
    metrics = {}
    for layer in spec.LAYERS:
        self_s = analysis["layer_self_s"][layer]
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.self_share"] = self_s / window
        metrics[f"{layer}.calls"] = analysis["layer_calls"][layer]
    metrics["unattributed.self_share"] = analysis["unattributed_s"] / window
    metrics["trace.overhead_frac"] = traced.host_s / base.host_s - 1.0
    metrics["ops_per_host_s"] = base.completed / base.host_s
    metrics["sim.events"] = base.events
    metrics["sim.events_per_op"] = base.events / ops
    metrics["sim.events_per_host_s"] = base.events / base.host_s
    metrics["net.frames_per_op"] = copies["frames_delivered"] / ops
    metrics["net.wire_bytes_per_op"] = copies["frame_bytes"] / ops
    metrics["net.copied_bytes_per_frame"] = copies["copied_per_frame"]
    metrics["rdma.post_send_per_op"] = (
        tracing.function_calls(recorder, ["QueuePair.post_send_batch"]) / ops
    )
    metrics["rdma.registered_mb"] = recorder.registered_bytes / 2**20
    metrics["crypto.macs_per_op"] = (
        tracing.function_calls(recorder, ["HmacAuthenticator.sign", "HmacAuthenticator.sign_parts"])
        / ops
    )
    for metric in spec.PER_LAYER:
        if metric.name in metrics:
            continue
        source = base.counters if metric.name in base.counters else base.modeled
        metrics[metric.name] = source.get(metric.name, 0)

    tracing.write_spans(
        os.path.join(SPANS_DIR, f"spans-{name}.bin"),
        recorder,
        {"workload": name, "seed": seed, "window_s": window},
    )
    units = {m.name: m.unit for m in spec.PER_LAYER}
    rows = [(m.name, metrics[m.name], m.unit) for m in spec.PER_LAYER]
    rows += [("traced host_s", traced.host_s, "s"), ("untraced host_s", base.host_s, "s")]
    rows += [("spans", len(recorder), "count")]
    _print_table(f"{name} seed {seed} traced", rows)
    _print_table(
        "top functions by self time",
        [(fn, self_s, f"s in {calls} calls") for fn, self_s, calls in tracing.top_functions(analysis)],
    )
    return {
        "correct": not problems,
        "attempted": base.attempted + traced.attempted,
        "failed": base.failed + traced.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "notes": problems
        + _error_notes(base.errors)
        + [f"wrap target not found: {t}" for t in instrumentation.missing],
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from perfbench import spec

    status = 0
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", workload.name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                status = 1
    return status


def write_spec() -> None:
    from perfbench import spec

    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec.benchmark_json(), handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    from perfbench import spec

    if args.write_spec:
        write_spec()
        return 0
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    if args.all:
        return run_all(args.seed, seconds)
    if args.workload not in spec.WORKLOAD_NAMES:
        parser.error(f"--workload must be one of {', '.join(spec.WORKLOAD_NAMES)}")
    if args.setup_probe:
        print(repr(setup_probe(args.workload)))
        return 0
    params = dict(spec.workload(args.workload).params)
    try:
        if args.trace:
            result = run_traced(args.workload, params, args.seed)
        else:
            result = run_untraced(args.workload, params, args.seed, seconds)
    except DeterminismError as exc:
        print(f"perfbench: determinism bug: {exc}", file=sys.stderr)
        return 3
    for note in result.pop("notes"):
        print(f"# note: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
