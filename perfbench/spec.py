"""The benchmark's contract: workloads, metrics and the BENCHMARK.json they form.

This module is the single source of truth.  ``BENCHMARK.json`` at the
repository root is generated from it (``python3 perfbench/run.py
--write-spec``) and a test checks the committed file still matches.

Two kinds of metric exist:

* *host-clock* metrics (``setup_s``, ``ops_per_ref_s``, ``peak_rss_mb``)
  vary between runs of one seed, so they carry a bound and are the
  ``end_to_end`` entries of BENCHMARK.json.  The two timed ones are in
  reference-host seconds: host seconds scaled by the yardstick
  (``yardstick.py``) timed between repetitions, because the shared host's
  speed drifts by a fifth from one minute to the next;
* *modeled* metrics (simulated-clock latency, throughput, time without
  service, failures, audit and divergence counts) are deterministic for a
  seed.  The benchmark itself checks that they repeat exactly; they are
  listed with the per-layer metrics because they have no bound and some
  are 0 or not applicable on some workloads.

Every per-layer metric names the end-to-end metric it should move and on
which workload (``moves``/``on``); workloads that lack a mechanism report
0 for its metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 60

#: The ten ``repro`` packages whose host self time the traced run reports.
LAYERS = (
    "sim",
    "net",
    "rdma",
    "rubin",
    "tcpstack",
    "nio",
    "reptor",
    "bft",
    "crypto",
    "audit",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: Dict[str, object] = field(default_factory=dict)
    #: ``repro`` modules the workload imports (timed as part of setup_s).
    imports: Tuple[str, ...] = ("repro.bft", "repro.rubin")


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "pbft-rubin",
        "PBFT n=4 over RUBIN, default BftConfig, audit on; closed loop of 4 "
        "clients, 1000 1 KB PUTs on seeded keys: normal-case agreement, "
        "tcpstack idle",
        {
            "transport": "rubin",
            "clients": 4,
            "ops": 1000,
            "value_bytes": 1024,
            "settle_s": 10e-3,
        },
    ),
    Workload(
        "fig4-sweep",
        "fig4_sweep(150, FIG4_PAYLOADS): Reptor echo over RUBIN and NIO, "
        "1-100 KB, 12 points, 1800 echoes; byte-heavy, tcpstack busy, no bft",
        {"messages": 150, "points": 12},
        imports=("repro.bench.figures",),
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload(name: str) -> Workload:
    for entry in WORKLOADS:
        if entry.name == name:
            return entry
    raise KeyError(name)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0
    moves: str = ""
    on: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_ref_s", "ops/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)


def _layer_time_metrics() -> List[Metric]:
    where = {
        "sim": "all, most on fig4-sweep",
        "net": "fig4-sweep",
        "rdma": "pbft-rubin",
        "rubin": "pbft-rubin",
        "tcpstack": "fig4-sweep",
        "nio": "fig4-sweep",
        "reptor": "pbft-rubin",
        "bft": "pbft-rubin",
        "crypto": "pbft-rubin",
        "audit": "pbft-rubin",
    }
    out = []
    for layer in LAYERS:
        on = where[layer]
        out += [
            Metric(f"{layer}.self_s", "s", "lower", moves="ops_per_ref_s", on=on),
            Metric(f"{layer}.self_share", "ratio", "lower", moves="ops_per_ref_s", on=on),
            Metric(f"{layer}.calls", "count", "lower", moves="ops_per_ref_s", on=on),
        ]
    return out


_SENTINEL = "pbft-rubin (stays 0)"
_E2E_MODELED = "modeled end-to-end metric"

PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer_time_metrics()
    + [
        Metric("unattributed.self_share", "ratio", "lower", moves="ops_per_ref_s", on="all"),
        Metric("trace.overhead_frac", "ratio", "lower", moves="(tracing cost only)", on="all"),
        # ops_per_ref_s before scaling, from the one untraced repetition
        Metric("ops_per_host_s", "ops/s", "higher", moves="ops_per_ref_s", on="all"),
        # sim
        Metric("sim.events", "count", "lower", moves="ops_per_ref_s", on="all"),
        Metric("sim.events_per_op", "events/op", "lower", moves="ops_per_ref_s", on="all"),
        Metric("sim.events_per_host_s", "events/s", "higher", moves="ops_per_ref_s", on="fig4-sweep"),
        # net / tcpstack
        Metric("net.frames_per_op", "frames/op", "lower", moves="ops_per_ref_s", on="fig4-sweep"),
        Metric("net.wire_bytes_per_op", "B/op", "lower", moves="ops_per_ref_s", on="fig4-sweep"),
        Metric("net.copied_bytes_per_frame", "B/frame", "lower", moves="ops_per_ref_s", on="fig4-sweep"),
        Metric("net.leader_cpu_util", "ratio", "lower", moves="lat_p99_us", on="pbft-rubin"),
        # rdma / rubin
        Metric("rdma.post_send_per_op", "calls/op", "lower", moves="ops_per_ref_s", on="pbft-rubin"),
        Metric("rdma.registered_mb", "MB", "lower", moves="setup_s, peak_rss_mb", on="pbft-rubin"),
        Metric("rubin.credit_stalls", "count", "lower", moves="lat_p99_us", on="pbft-rubin"),
        Metric("rubin.pool_stalls", "count", "lower", moves="lat_p99_us", on="pbft-rubin"),
        # bft / crypto / reptor
        Metric("bft.ops_per_batch", "ops/batch", "higher", moves="lat_p50_us, modeled_ops_per_s", on="pbft-rubin"),
        Metric("crypto.macs_per_op", "macs/op", "lower", moves="ops_per_ref_s, lat_p50_us", on="pbft-rubin"),
        Metric("reptor.backpressure_ms", "ms", "lower", moves="lat_p99_us", on="pbft-rubin"),
        Metric("reptor.watermark_crossings", "count", "lower", moves="lat_p99_us", on="pbft-rubin"),
        # recovery: none on the normal case, so any count here is a regression
        Metric("bft.view_changes", "count", "lower", moves="lat_p99_us", on=_SENTINEL),
        Metric("bft.state_transfers", "count", "lower", moves="lat_p99_us, failed_frac", on=_SENTINEL),
        Metric("bft.client_retransmissions", "count", "lower", moves="lat_p99_us, failed_frac", on=_SENTINEL),
        Metric("rubin.reconnects", "count", "lower", moves="lat_p99_us", on=_SENTINEL),
        Metric("rdma.rnr_naks", "count", "lower", moves="lat_p99_us", on=_SENTINEL),
        # audit
        Metric("audit.events_recorded", "count", "lower", moves="ops_per_ref_s", on="pbft-rubin"),
        Metric("audit.events_dropped", "count", "lower", moves="(audit coverage)", on="pbft-rubin"),
        # modeled end-to-end metrics: exact for a seed, so unbounded here
        Metric("lat_p50_us", "us", "lower", moves=_E2E_MODELED, on="all"),
        Metric("lat_p99_us", "us", "lower", moves=_E2E_MODELED, on="all"),
        Metric("lat_samples", "count", "higher", moves=_E2E_MODELED, on="all"),
        Metric("modeled_ops_per_s", "ops/s", "higher", moves=_E2E_MODELED, on="all"),
        Metric("failed_frac", "ratio", "lower", moves=_E2E_MODELED, on="all"),
        Metric("audit_violations", "count", "lower", moves=_E2E_MODELED, on="pbft-rubin"),
        Metric("diverged_replicas", "count", "lower", moves=_E2E_MODELED, on="pbft-rubin"),
        Metric("escaped_errors", "count", "lower", moves="failed_frac", on="all"),
    ]
)


def benchmark_json() -> dict:
    """The BENCHMARK.json document (exactly the keys the contract allows)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
