"""PBFT protocol core (the Reptor algorithm) over the Reptor comm stack.

Agreement (pre-prepare / prepare / commit with batching, checkpoints and
view changes), execution of a pluggable deterministic state machine, a
quorum-checking client, composable Byzantine/crash faults for testing
(``replica.add_fault``), and a one-call cluster builder.  Runs over either
the NIO/TCP or the RUBIN/RDMA transport — the comparison at the heart of
the paper.  One replica class serves every deployment: multi-group COP
ordering, the one-sided fast path and faults all compose onto it.
"""

from repro.bft.byzantine import (
    CorruptVotes,
    EquivocateNewView,
    EquivocatePrePrepare,
    EquivocateViewChange,
    FailSilent,
    Fault,
    MemoryAttack,
    StallNewView,
    compromise_rkey,
    permission_race,
    rogue_overwrite,
)
from repro.bft.client import BftClient
from repro.bft.cluster import REPLICA_PORT, BftCluster
from repro.bft.config import BftConfig
from repro.bft.cop import (
    AdaptiveBatcher,
    CopClient,
    CopReplica,
    GroupPipeline,
    MergeStage,
    make_partitioner,
)
from repro.bft.log import MessageLog, Slot
from repro.bft.onesided import OneSidedLink, OneSidedPath, wire_onesided
from repro.bft.messages import (
    Checkpoint,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    StateTransferReply,
    StateTransferRequest,
    ViewChange,
    decode,
    encode,
)
from repro.bft.replica import Replica, batch_digest
from repro.bft.statemachine import CounterMachine, KeyValueStore, StateMachine

__all__ = [
    "AdaptiveBatcher",
    "BftCluster",
    "BftClient",
    "BftConfig",
    "CopClient",
    "CopReplica",
    "GroupPipeline",
    "MergeStage",
    "make_partitioner",
    "Replica",
    "OneSidedPath",
    "OneSidedLink",
    "wire_onesided",
    "batch_digest",
    "MessageLog",
    "Slot",
    "StateMachine",
    "KeyValueStore",
    "CounterMachine",
    "Fault",
    "FailSilent",
    "EquivocatePrePrepare",
    "CorruptVotes",
    "StallNewView",
    "EquivocateViewChange",
    "EquivocateNewView",
    "MemoryAttack",
    "compromise_rkey",
    "rogue_overwrite",
    "permission_race",
    "Request",
    "Reply",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Checkpoint",
    "ViewChange",
    "NewView",
    "StateTransferRequest",
    "StateTransferReply",
    "encode",
    "decode",
    "REPLICA_PORT",
]
