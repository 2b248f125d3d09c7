"""Faults compose with every replica configuration.

A fault is an object attached to a replica (or to one COP group
pipeline), not a ``Replica`` subclass, so the same fault works on a plain
G=1 cluster, a multi-group G=4 cluster and a one-sided cluster.  An
attached fault that is not armed must leave its replica fully honest:
it keeps its links, joins the fast path and executes every request.
Once armed, every frame the replica sends passes through the fault —
client replies and ``Busy`` sheds included.
"""

import pytest

from repro.bft import (
    BftCluster,
    BftConfig,
    EquivocatePrePrepare,
    FailSilent,
)

REQUESTS = 12

CONFIGS = {
    "g1": dict(),
    "g4": dict(group_count=4),
    "onesided": dict(onesided=True),
}


def make_cluster(**config):
    cluster = BftCluster(
        transport="rubin",
        config=BftConfig(
            view_change_timeout=80e-3,
            batch_delay=0.0,
            batch_size=1,
            checkpoint_interval=4,
            log_window=16,
            **config,
        ),
    )
    return cluster


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_unarmed_faults_leave_the_replica_honest(name):
    cluster = make_cluster(**CONFIGS[name])
    r1 = cluster.replica("r1")
    r1.add_fault(FailSilent())
    r1.add_fault(EquivocatePrePrepare())
    cluster.start()
    for i in range(REQUESTS):
        assert cluster.invoke_and_wait(b"PUT k%d=v%d" % (i, i)) == b"OK"
    cluster.run_for(50e-3)

    assert len(set(cluster.merged_positions().values())) == 1
    assert len(set(cluster.state_digests().values())) == 1
    for replica_id, app in cluster.apps.items():
        for i in range(REQUESTS):
            assert app.get(f"k{i}") == f"v{i}", (replica_id, i)
    for replica in cluster.replicas.values():
        for pipeline in replica.group_pipelines():
            conns = pipeline._replica_conns
            assert len(conns) == 3
            assert not any(c.closed for c in conns.values())
    if name == "onesided":
        names = set(cluster.metrics_registry().names())
        for replica in cluster.replicas.values():
            links = replica.onesided.links
            assert len(links) == 3 and not any(l.dead for l in links.values())
            assert replica.onesided.records.value > 0
            assert f"replica.{replica.replica_id}.onesided.writes" in names
    assert not cluster.audit.violations


def test_silent_replica_sends_no_busy():
    """A fail-silent replica over its admission budget sheds requests
    but must not answer them: its Busy would count toward the client's
    f+1 Busy quorum."""
    cluster = make_cluster(admission_budget=1)
    cluster.start()
    cluster.replica("r1").add_fault(FailSilent()).arm()
    client = cluster.client()
    busy_from = []
    on_busy = client._on_busy

    def spy(busy):
        busy_from.append(busy.replica_id)
        on_busy(busy)

    client._on_busy = spy
    for i in range(8):
        client.invoke(b"PUT k%d=v" % i)
    cluster.run_for(50e-3)
    assert cluster.replica("r1").shed_requests.value > 0
    assert "r1" not in busy_from
    assert busy_from  # the honest replicas did shed with Busy
