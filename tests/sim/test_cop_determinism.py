"""COP fingerprints: the echo figures stay put and G=4 is pinned.

``BftCluster`` builds ``CopReplica``/``CopClient`` for every deployment,
so the pinned G=1 schedules of ``test_fastpath_determinism`` (chaos,
overload) already run through the COP classes: a COP override that
created, delayed or reordered an event at ``group_count=1`` fails there.
This module keeps the echo figures' fingerprints with the COP subsystem
loaded and pins the G=4 multi-group chaos schedule itself, so COP
changes that reshuffle the parallel pipelines are caught the same way.
"""

from repro.bench.echo import run_echo
from repro.bench.selector_echo import reptor_echo
from repro.bft import BftCluster, BftConfig
from repro.rubin import RubinConfig

from tests.sim.test_fastpath_determinism import (
    FIG3_POINT_DIGEST,
    FIG4_POINT_DIGEST,
    _digest,
    _echo_fingerprint,
)

# The G=4 variant of the chaos run (crash + rejoin of r2 across four
# ordering groups on a faulty fabric), recorded when the COP subsystem
# landed.  Pins the group mux, the round-robin merge, merge-stall
# fillers and the coordinated multi-group state transfer.
COP_CHAOS_G4_DIGEST = (
    "4517060585bc6a014a6686bb3613317c398b984436177de806c8a5c981dd1f5e"
)


def _chaos_run(group_count: int, settle_s: float, tail_s: float) -> str:
    cluster = BftCluster(
        transport="rubin",
        config=BftConfig(
            group_count=group_count,
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
    cluster.run_for(settle_s)
    cluster.invoke_and_wait(b"PUT after=rejoin")
    times.append(round(cluster.env.now, 12))
    cluster.run_for(tail_s)
    return _digest(
        (
            times,
            sorted(cluster.merged_positions().items()),
            sorted((k, v.hex()) for k, v in cluster.state_digests().items()),
        )
    )


def test_fig3_point_unchanged_with_cop_loaded():
    """The Fig-3 echo schedule is untouched by the COP subsystem."""
    result = run_echo("rdma_channel", 10 * 1024, 20)
    assert _echo_fingerprint(result) == FIG3_POINT_DIGEST


def test_fig4_point_unchanged_with_cop_loaded():
    """The Fig-4 selector-echo schedule is untouched by the COP subsystem."""
    result = reptor_echo("rubin", 20 * 1024, 30)
    assert _echo_fingerprint(result) == FIG4_POINT_DIGEST


def test_chaos_schedule_pinned_at_group_count_four():
    """The G=4 multi-group chaos run replays its own pinned schedule."""
    assert _chaos_run(4, 600e-3, 300e-3) == COP_CHAOS_G4_DIGEST
