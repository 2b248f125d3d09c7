"""Consensus-Oriented Parallelization (COP) for the BFT layer.

The source paper integrates RUBIN into Reptor, whose defining trait is
COP: many consensus instances pipelined in parallel across *consensus
groups* (PAPER.md §1.5).  This package shards the sequence space by
group, runs one independent PBFT ordering pipeline per group, and
deterministically merges the committed per-group entries back into a
single total execution order:

- :mod:`repro.bft.cop.merge` — the deterministic round-robin merge
  stage with gap-aware stalls;
- :mod:`repro.bft.cop.partition` — pluggable client-request
  partitioners (deterministic hash on the request id by default);
- :mod:`repro.bft.cop.batcher` — the adaptive per-group batcher fed by
  the PR 5 admission/queue-depth and outbox-watermark signals;
- :mod:`repro.bft.cop.group` — ``CopReplica`` / ``GroupPipeline`` /
  ``CopClient``, multiplexing per-group protocol traffic over the
  existing RUBIN channels.

``group_count=1`` is the exact degenerate case: a ``CopReplica`` with a
single group schedules bit-identically to the sequential pipeline (the
fingerprint tests pin this), which is why ``BftCluster`` builds
``CopReplica``/``CopClient`` for every deployment.  A Byzantine fault
(:mod:`repro.bft.byzantine`) attached to one ``GroupPipeline`` misbehaves
inside that consensus group only.
"""

from repro.bft.cop.batcher import AdaptiveBatcher
from repro.bft.cop.group import (
    CopClient,
    CopReplica,
    GroupConnection,
    GroupPipeline,
)
from repro.bft.cop.merge import MergeStage
from repro.bft.cop.partition import (
    PARTITIONERS,
    ClientAffinityPartitioner,
    HashPartitioner,
    make_partitioner,
)

__all__ = [
    "AdaptiveBatcher",
    "ClientAffinityPartitioner",
    "CopClient",
    "CopReplica",
    "GroupConnection",
    "GroupPipeline",
    "HashPartitioner",
    "MergeStage",
    "PARTITIONERS",
    "make_partitioner",
]
