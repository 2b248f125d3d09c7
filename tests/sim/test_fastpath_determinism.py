"""Schedule fingerprints: the fast path must not move a single event.

Every optimization in the event kernel (state-machine loops, TimedHold,
Drive, direct Timeout construction, GC pause, zero-copy read_view) is
required to push exactly the same agenda entries in the same order as the
generator-based code it replaced.  These tests pin sha256 digests of
modeled results captured before any of those optimizations landed; a
mismatch means an optimization changed the schedule, not just host time.

The BFT runs (chaos, overload) go through ``CopReplica``/``CopClient`` at
``group_count=1`` — the classes ``BftCluster`` builds for every
deployment — so they also pin COP's exact degenerate case.
"""

import hashlib

from repro.bench.echo import run_echo
from repro.bench.overload import run_overload
from repro.bench.selector_echo import reptor_echo
from repro.bft import BftCluster, BftConfig
from repro.rubin import RubinConfig

# Digests of modeled outputs recorded on the pre-optimization tree
# (commit 095f88c).  Rounding below matches how they were captured.
FIG3_POINT_DIGEST = "10d0fae433e4d40e98aafcd836ec0fbbaaba21233e07ee5fda898f90fb8aa038"
FIG4_POINT_DIGEST = "fed6c3aa4d7af9de00ddb168bcf776f37c07d5497ef71abf665e79d79e02f3fd"
CHAOS_DIGEST = "c3c9596c5b5055e29269af1ffc897babdb9897fc5a9ebd589968f51cce5aceda"
# Recorded when the flow-control/overload model landed: pins the seeded
# Busy-backoff schedule, admission shedding and credit machinery.
OVERLOAD_DIGEST = "2f70af7d9b7d314dae9f3b4d548e492f9efd662d88f5c3e81db27fd6b6c9e061"


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _echo_fingerprint(result) -> str:
    return _digest(
        (
            [round(x, 6) for x in result.latencies_us],
            round(result.duration_s, 12),
        )
    )


def test_fig3_point_schedule_unchanged():
    """One Fig-3 point (RDMA channel echo) is bit-identical to the seed."""
    result = run_echo("rdma_channel", 10 * 1024, 20)
    assert _echo_fingerprint(result) == FIG3_POINT_DIGEST


def test_fig4_point_schedule_unchanged():
    """One Fig-4 point (RUBIN selector echo) is bit-identical to the seed."""
    result = reptor_echo("rubin", 20 * 1024, 30)
    assert _echo_fingerprint(result) == FIG4_POINT_DIGEST


def test_chaos_crash_recovery_schedule_unchanged():
    """A crash/restart BFT run replays the exact pre-optimization history.

    This is the adversarial case for the callback conversions: faulty
    fabric, RNR backoff, view timers, replica crash and rejoin all live on
    the same agenda, so any eid drift reorders the run.
    """
    cluster = BftCluster(
        transport="rubin",
        config=BftConfig(
            view_change_timeout=80e-3,
            batch_delay=0.0,
            batch_size=1,
            checkpoint_interval=4,
            log_window=16,
        ),
        rubin_config=RubinConfig(retry_timeout=1e-3, retry_count=3),
        faulty_fabric=True,
    )
    cluster.start()
    times = []
    for i in range(6):
        assert cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode()) == b"OK"
        times.append(round(cluster.env.now, 12))
    cluster.crash_replica("r2")
    cluster.run_for(30e-3)
    for i in range(6, 12):
        assert cluster.invoke_and_wait(f"PUT k{i}=v{i}".encode()) == b"OK"
        times.append(round(cluster.env.now, 12))
    cluster.restart_replica("r2")
    cluster.run_for(400e-3)
    cluster.invoke_and_wait(b"PUT after=rejoin")
    times.append(round(cluster.env.now, 12))
    cluster.run_for(100e-3)
    fingerprint = _digest(
        (
            times,
            sorted(cluster.executed_sequences().items()),
            sorted((k, v.hex()) for k, v in cluster.state_digests().items()),
        )
    )
    assert fingerprint == CHAOS_DIGEST


def test_overload_schedule_unchanged():
    """The overload scenario replays bit-identically.

    This pins the whole graceful-degradation machinery: admission
    shedding, Busy vote collection, the seeded per-client backoff RNG
    and the transport credit scheme all feed the same agenda — any
    nondeterminism in the overload path moves a latency sample or a
    shed count and changes the digest.
    """
    record = run_overload()
    fingerprint = _digest(
        (
            sorted(
                (k, round(v, 6)) for k, v in record["latency_us"].items()
            ),
            round(record["duration_s"], 12),
            record["shed_total"],
            record["busy_backoffs"],
            record["retransmissions"],
        )
    )
    assert fingerprint == OVERLOAD_DIGEST
