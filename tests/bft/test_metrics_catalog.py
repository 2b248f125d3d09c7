"""The metric catalog: every replica counter registered explicitly.

``BftCluster.metrics_registry()`` registers ``replica.<id>.onesided.*``
and ``bft.onesided.*`` from each replica's ``onesided`` component, with
no attribute probing, so every replica of a one-sided cluster is
covered — Byzantine members included.  perfbench and the samplers read
these names, so the key set is pinned.
"""

import hashlib

import pytest

from repro.bft import BftCluster, BftConfig, FailSilent


def _key_set(cluster):
    keys = sorted(cluster.metrics_registry().snapshot())
    return len(keys), hashlib.sha256("\n".join(keys).encode()).hexdigest()


#: Snapshot key sets (count, sha256 of the sorted names) of a started
#: 4-replica, 1-client RUBIN cluster after one request, recorded on the
#: replica-subclass design this one replaced: the metric catalog must
#: not move.
METRIC_KEY_SETS = {
    "default": (
        186,
        "578fcbfba133665d8a14e9119577e33ed8bff592097637326027e8828959d278",
    ),
    "g4": (
        195,
        "7006cbe5c339d79b2d5de75b9b7496404a615b342acf8d1f20599a77baf668d2",
    ),
    "onesided": (
        206,
        "4254d84d2c7eeb495e6f42523cd282922a998500f7ef5445ffc023d8baeb49ad",
    ),
}


@pytest.mark.parametrize(
    "name, config",
    [
        ("default", BftConfig()),
        ("g4", BftConfig(group_count=4)),
        ("onesided", BftConfig(onesided=True)),
    ],
)
def test_metric_catalog_unchanged(name, config):
    cluster = BftCluster(transport="rubin", config=config)
    cluster.start()
    cluster.invoke_and_wait(b"PUT a=1")
    assert _key_set(cluster) == METRIC_KEY_SETS[name]


def test_faulty_member_keeps_its_onesided_metrics():
    cluster = BftCluster(transport="rubin", config=BftConfig(onesided=True))
    cluster.replica("r1").add_fault(FailSilent())
    cluster.start()
    cluster.invoke_and_wait(b"PUT a=1")
    snapshot = cluster.metrics_registry().snapshot()
    for replica_id in cluster.replica_ids:
        assert snapshot[f"replica.{replica_id}.onesided.records"] > 0
    assert snapshot["bft.onesided.writes"] == sum(
        snapshot[f"replica.{replica_id}.onesided.writes"]
        for replica_id in cluster.replica_ids
    )
