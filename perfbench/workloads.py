"""The workloads, driven through the public ``repro`` API only.

Each ``run_*`` function performs one repetition: it builds the system,
runs the measured phase and returns a :class:`RepResult` holding the host
timings, the modeled (simulated-clock) metrics and the layer counters.
Simulated clients are kernel processes; nothing here starts a thread or
opens a socket.  An exception escaping ``env.run`` is caught, recorded
with its message, and every op it left incomplete counts as failed.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter as Tally
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.figures import (
    FIG4_PAYLOADS,
    check_fig4_shape,
    fig4_sweep,
    fig4a_latency,
    fig4b_throughput,
)
from repro.audit import release_audit
from repro.bft import BftCluster, BftConfig
from repro.errors import ReproError

from perfbench import inputs, stats
from perfbench.tracing import SpanRecorder, run_recorded

EXPECTED_REPLY = b"OK"

#: Simulated-time cut-off for the closed loop (its 1000 ops take ~65 ms).
CLOSED_LOOP_LIMIT_S = 5.0

#: Escaped exceptions after which a repetition is abandoned.
MAX_ESCAPED_ERRORS = 1000

Outcome = Optional[Tuple[float, float, bytes]]


@dataclass
class RepResult:
    """One repetition of a workload."""

    setup_s: float
    host_s: float
    attempted: int
    completed: int
    failed: int
    #: Exceptions that escaped ``env.run`` (the ops they stranded failed).
    errors: List[str] = field(default_factory=list)
    #: Output checks that did not hold (wrong replies, broken figure
    #: shape): the run's outputs are not correct.
    problems: List[str] = field(default_factory=list)
    #: Deterministic simulated-clock metrics (exact for a seed).
    modeled: Dict[str, float] = field(default_factory=dict)
    #: Deterministic layer counters from metrics_registry() and attributes.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Digest of every per-op outcome and replica state, for exact repeats.
    fingerprint: str = ""
    #: Simulated events retired during the measured phase.
    events: int = 0


def run_until(env, until, errors: List[str]) -> bool:
    """``env.run(until=...)``, surviving exceptions that escape it.

    An exception escaping ``env.run`` is a simulated process failing with
    nobody waiting on it; the kernel has already retired the event that
    raised, so the run resumes where it stopped.  Each exception is
    recorded with its message and the ops it strands count as failed.
    Returns False once ``MAX_ESCAPED_ERRORS`` have escaped (the run is
    then abandoned).
    """
    while True:
        try:
            env.run(until=until)
            return True
        except Exception as exc:  # the program's own failure, reported as data
            errors.append(f"{type(exc).__name__}: {exc}")
        if len(errors) >= MAX_ESCAPED_ERRORS:
            return False
        if isinstance(until, (int, float)) and env.now >= until:
            return True


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# -- cluster metrics ---------------------------------------------------------


def _sum(snapshot: Dict[str, object], suffix: str) -> float:
    total = 0.0
    for name, value in snapshot.items():
        if name.endswith(suffix) and isinstance(value, (int, float)):
            total += value
    return total


def _series_total(snapshot: Dict[str, object], suffix: str) -> float:
    """Sum of the samples of every TimeSeries probe ending in ``suffix``."""
    return sum(
        v["mean"] * v["count"]
        for name, v in snapshot.items()
        if name.endswith(suffix) and isinstance(v, dict) and v.get("count")
    )


def cluster_counters(cluster: BftCluster, completed: int, since: float) -> Dict[str, float]:
    """Layer counters of a finished run from ``metrics_registry()``."""
    snap = cluster.metrics_registry().snapshot()
    executed = max(cluster.executed_sequences().values(), default=0)
    leader_host = cluster.fabric.host(cluster.replica_ids[0])
    view_changes = [
        v for n, v in snap.items() if n.startswith("replica.") and n.endswith(".view_changes")
    ]
    return {
        "net.leader_cpu_util": leader_host.cpu.utilization(since),
        "rubin.credit_stalls": _sum(snap, ".credit_stalls"),
        "rubin.pool_stalls": _sum(snap, ".pool_stalls"),
        "bft.ops_per_batch": completed / executed if executed else 0.0,
        "reptor.backpressure_ms": _series_total(snap, ".backpressure_time") * 1e3,
        "reptor.watermark_crossings": _sum(snap, ".watermark_crossings"),
        "bft.view_changes": max(view_changes, default=0),
        "bft.state_transfers": _sum(snap, ".state_transfers"),
        "bft.client_retransmissions": _sum(snap, ".retransmissions"),
        "rubin.reconnects": _sum(snap, ".supervisor.reconnects"),
        "rdma.rnr_naks": _sum(snap, ".nic.rnr_naks"),
        "audit.events_recorded": snap.get("audit.events_recorded", 0),
        "audit.events_dropped": snap.get("audit.events_dropped", 0),
    }


def diverged_replicas(cluster: BftCluster) -> int:
    """Live replicas whose state digest differs from the most common one."""
    digests = cluster.state_digests()
    live = [rid for rid, replica in cluster.replicas.items() if replica.running]
    if not live:
        return 0
    tally = Tally(digests[rid] for rid in live)
    return len(live) - tally.most_common(1)[0][1]


def _pbft_modeled(
    cluster: BftCluster,
    outcomes: List[Outcome],
    start: float,
    end: float,
) -> Dict[str, float]:
    latencies = stats.op_latencies(outcomes, start, end)
    counts = stats.failure_counts(outcomes, EXPECTED_REPLY)
    last_accept = max((o[1] for o in outcomes if o is not None), default=end)
    span = last_accept - start
    return {
        "lat_p50_us": stats.percentile(latencies, 50) * 1e6,
        "lat_p99_us": stats.percentile(latencies, 99) * 1e6,
        "lat_samples": len(latencies),
        "modeled_ops_per_s": counts["completed"] / span if span > 0 else 0.0,
        "failed_frac": counts["failed"] / counts["attempted"],
        "audit_violations": len(cluster.audit.violations),
        "diverged_replicas": diverged_replicas(cluster),
    }


def _finish_pbft(
    cluster: BftCluster,
    outcomes: List[Outcome],
    start: float,
    end: float,
    setup_s: float,
    host_s: float,
    errors: List[str],
    events: int,
) -> RepResult:
    counts = stats.failure_counts(outcomes, EXPECTED_REPLY)
    modeled = _pbft_modeled(cluster, outcomes, start, end)
    modeled["escaped_errors"] = len(errors)
    counters = cluster_counters(cluster, counts["completed"], start)
    # The audit module keeps every installed manager (and through it the
    # whole cluster) alive until released; free it for the next repetition.
    release_audit(cluster.audit)
    problems = []
    if counts["wrong_replies"]:
        problems.append(f"{counts['wrong_replies']} accepted replies were not {EXPECTED_REPLY!r}")
    return RepResult(
        setup_s=setup_s,
        host_s=host_s,
        attempted=counts["attempted"],
        completed=counts["completed"],
        failed=counts["failed"],
        errors=errors,
        problems=problems,
        modeled=modeled,
        counters=counters,
        events=events,
        fingerprint=_fingerprint(
            outcomes, sorted(cluster.state_digests().items()), cluster.executed_sequences()
        ),
    )


# -- pbft-rubin ---------------------------------------------------------------


def build_pbft_rubin(params: dict) -> BftCluster:
    cluster = BftCluster(transport=params["transport"], num_clients=params["clients"])
    cluster.start()
    return cluster


def run_pbft_rubin(
    params: dict, seed: int, recorder: Optional[SpanRecorder] = None
) -> RepResult:
    """Closed loop: each client sends its next PUT once the last is accepted."""
    per_client = inputs.closed_loop_ops(
        seed, params["clients"], params["ops"], params["value_bytes"]
    )
    t0 = time.perf_counter()
    cluster = build_pbft_rubin(params)
    setup_s = time.perf_counter() - t0

    env = cluster.env
    outcomes: List[Outcome] = [None] * params["ops"]

    def client_loop(index: int, ops):
        client = cluster.client(index)
        for op_index, operation in ops:
            started = env.now
            reply = yield client.invoke(operation)
            outcomes[op_index] = (started, env.now, reply)

    start = env.now
    events0 = env._eid  # the kernel's event counter (EchoResult.sim_events)
    loops = [env.process(client_loop(i, ops)) for i, ops in enumerate(per_client)]
    stop = env.any_of([env.all_of(loops), env.timeout(CLOSED_LOOP_LIMIT_S)])
    errors: List[str] = []
    t1 = time.perf_counter()
    run_recorded(recorder, lambda: run_until(env, stop, errors))
    host_s = time.perf_counter() - t1
    events = env._eid - events0
    end = env.now
    # Let the slowest replicas execute the last batch before digests are
    # compared (the client accepts after f+1 replies).
    run_until(env, env.now + params["settle_s"], errors)
    return _finish_pbft(cluster, outcomes, start, end, setup_s, host_s, errors, events)


# -- fig4-sweep ----------------------------------------------------------------


def run_fig4_sweep(
    params: dict, seed: int, recorder: Optional[SpanRecorder] = None
) -> RepResult:
    """The Fig-4 Reptor echo sweep; each point builds its own testbed.

    The sweep takes no seed: its inputs are fixed payload sizes.
    """
    del seed
    messages = params["messages"]
    attempted = messages * 2 * len(FIG4_PAYLOADS)
    errors: List[str] = []
    problems: List[str] = []
    results: dict = {}

    def sweep():
        results.update(fig4_sweep(messages, FIG4_PAYLOADS))

    t1 = time.perf_counter()
    try:
        run_recorded(recorder, sweep)
    except Exception as exc:  # the sweep cannot resume; its points are lost
        errors.append(f"{type(exc).__name__}: {exc}")
    host_s = time.perf_counter() - t1

    completed = sum(r.messages for r in results.values())
    latencies = [lat for r in results.values() for lat in r.latencies_us]
    modeled: Dict[str, float] = {
        "lat_p50_us": stats.percentile(latencies, 50) if latencies else 0.0,
        "lat_p99_us": stats.percentile(latencies, 99) if latencies else 0.0,
        "lat_samples": len(latencies),
        "modeled_ops_per_s": (
            completed / sum(r.duration_s for r in results.values()) if completed else 0.0
        ),
        "failed_frac": (attempted - completed) / attempted,
        "audit_violations": 0,
        "diverged_replicas": 0,
        "escaped_errors": len(errors),
    }
    if len(results) == 2 * len(FIG4_PAYLOADS):
        try:
            facts = check_fig4_shape(
                fig4a_latency(results=results), fig4b_throughput(results=results)
            )
            modeled["shape_facts"] = len(facts)
        except ReproError as exc:
            problems.append(f"fig4 shape check: {exc}")
    points = sorted(
        (key, r.mean_latency_us, r.requests_per_second, r.sim_events, r.messages)
        for key, r in results.items()
    )
    return RepResult(
        setup_s=0.0,
        host_s=host_s,
        attempted=attempted,
        completed=completed,
        failed=attempted - completed,
        errors=errors,
        problems=problems,
        modeled=modeled,
        counters={},
        events=sum(r.sim_events for r in results.values()),
        fingerprint=_fingerprint(points),
    )


RUNNERS = {
    "pbft-rubin": run_pbft_rubin,
    "fig4-sweep": run_fig4_sweep,
}

#: What ``setup_s`` builds after the imports (fig4-sweep builds nothing:
#: each of its points builds its own testbed inside the sweep).
SETUPS = {
    "pbft-rubin": build_pbft_rubin,
}
