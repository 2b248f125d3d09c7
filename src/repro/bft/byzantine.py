"""Byzantine and crash faults for tests and demos, as composable objects.

A group of ``3f + 1`` replicas "can tolerate up to f faulty nodes" (paper,
Section I).  A fault here is a small object attached to an otherwise
honest replica with :meth:`~repro.bft.replica.Replica.add_fault` — to the
whole replica, or to a single COP group pipeline.  It acts through at
most two hooks:

* :meth:`Fault.outbound` sees every frame the replica sends (peer
  protocol messages, one-sided writes, client replies and ``Busy``
  sheds alike) and returns the bytes to send, or ``None`` to drop;
* :meth:`Fault.install_new_view` may swallow a NewView the replica is
  about to announce.

Everything else (quorums, timers, view changes, transports) runs
unmodified — exactly how a real faulty node looks to the rest of the
group — so any fault composes with any replica configuration: plain,
multi-group (COP) or one-sided.  Faults start inert; ``arm()`` turns
the misbehaviour on.  Attaching a fault whose ``byzantine`` flag is set
marks the cluster's audit manager ``expect_violations``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.bft.messages import (
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    Request,
    ViewChange,
    encode,
)
from repro.bft.onesided import pack_record
from repro.bft.replica import Replica, batch_digest

__all__ = [
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
]


class Fault:
    """An inert fault: sends everything faithfully, stalls nothing.

    Subclasses override one or both hooks.  ``replica`` is the replica
    (or group pipeline) the fault was attached to.
    """

    #: Whether this fault deliberately violates the protocol (and so is
    #: *supposed* to trip the auditors).
    byzantine = False

    def __init__(self) -> None:
        self.replica: Optional[Replica] = None
        self.armed = False

    def arm(self) -> None:
        """Start misbehaving from now on."""
        self.armed = True

    def outbound(self, message, raw: bytes, peer_id: str) -> Optional[bytes]:
        """Bytes to send to ``peer_id`` for ``message``, or None to drop."""
        return raw

    def install_new_view(
        self, new_view: int, votes: Dict[str, ViewChange]
    ) -> bool:
        """Return True to swallow the NewView the replica would announce."""
        return False


def _half_the_others(replica: Replica) -> Set[str]:
    """Default victims of the equivocation faults."""
    others = [p for p in replica.all_ids if p != replica.replica_id]
    return set(others[: len(others) // 2])


class _VictimFault(Fault):
    """A Byzantine fault that tells ``victims`` a different story."""

    byzantine = True

    def __init__(self) -> None:
        super().__init__()
        self.victims: Set[str] = set()

    def arm(self, victims: Optional[Set[str]] = None) -> None:
        """Misbehave towards ``victims`` (default: half the other
        replicas) from now on."""
        if victims is None:
            victims = _half_the_others(self.replica)
        self.victims = set(victims)
        self.armed = True


class FailSilent(Fault):
    """Crash-faulty: once armed, sends nothing at all — no protocol
    message, no client reply, no ``Busy``.

    Before that it behaves honestly, which lets tests crash the leader
    mid-run and watch the view change recover the service.
    """

    def outbound(self, message, raw, peer_id):
        return None if self.armed else raw


def _forged_pre_prepare(pre_prepare: PrePrepare) -> PrePrepare:
    """The same assignment with a different (self-consistent) batch."""
    forged_batch = tuple(
        Request(
            client_id=request.client_id,
            timestamp=request.timestamp,
            operation=b"FORGED:" + request.operation,
        )
        for request in pre_prepare.batch
    )
    return PrePrepare(
        view=pre_prepare.view,
        seq=pre_prepare.seq,
        digest=batch_digest(forged_batch),
        batch=forged_batch,
        replica_id=pre_prepare.replica_id,
    )


class EquivocatePrePrepare(_VictimFault):
    """Byzantine leader that proposes *different* batches to different
    backups for the same sequence number — the classic safety attack
    that the prepare quorum intersection defeats.  Attached to one COP
    group pipeline it equivocates inside that group only."""

    def outbound(self, message, raw, peer_id):
        if (
            self.armed
            and isinstance(message, PrePrepare)
            and peer_id in self.victims
        ):
            return encode(_forged_pre_prepare(message))
        return raw


class CorruptVotes(Fault):
    """Byzantine backup that lies in its votes: its pre-prepare, prepare
    and commit digests are zeroed, so honest replicas must never count
    them toward quorums."""

    byzantine = True

    def outbound(self, message, raw, peer_id):
        if self.armed and isinstance(message, (PrePrepare, Prepare, Commit)):
            corrupted = type(message)(
                **{**message.__dict__, "digest": bytes(32)}
            )
            return encode(corrupted)
        return raw


class StallNewView(Fault):
    """Faulty next-leader that collects a ViewChange quorum and then goes
    quiet instead of broadcasting NewView — the mid-view-change omission
    that forces honest replicas to escalate to the view after it.

    Armed with ``crash_on_new_view`` the replica additionally stops
    itself at that exact point, modeling a leader that crashes between
    gathering the quorum and announcing the new view.
    """

    byzantine = True

    def __init__(self) -> None:
        super().__init__()
        self.crash_on_new_view = False
        #: Views whose NewView this fault swallowed.
        self.stalled_views: list[int] = []

    def arm(self, crash_on_new_view: bool = False) -> None:
        self.crash_on_new_view = crash_on_new_view
        self.armed = True

    def install_new_view(self, new_view, votes):
        if not self.armed:
            return False
        self.stalled_views.append(new_view)
        if self.crash_on_new_view:
            self.replica.stop()
        return True


def _padded_view_change(message: ViewChange) -> ViewChange:
    """A semantically inert but byte-different copy of a ViewChange vote.

    The extra prepared entry sits at ``seq == stable_seq``, which every
    honest new leader discards (re-proposals only cover sequences above
    the highest stable checkpoint in the quorum), so the forgery can
    never change what gets re-proposed — it only makes the vote's
    encoding digest differ between recipients.
    """
    filler = (message.stable_seq, 0, batch_digest(()), ())
    return ViewChange(
        new_view=message.new_view,
        stable_seq=message.stable_seq,
        prepared=message.prepared + (filler,),
        replica_id=message.replica_id,
    )


class EquivocateViewChange(_VictimFault):
    """Byzantine replica whose ViewChange votes tell different peers
    different stories: victims receive a vote with tampered prepared
    evidence while everyone else gets the honest one.  The cross-replica
    vote-digest check (``bft.view-change-equivocation``) must flag it."""

    def outbound(self, message, raw, peer_id):
        if (
            self.armed
            and isinstance(message, ViewChange)
            and peer_id in self.victims
        ):
            return encode(_padded_view_change(message))
        return raw


class EquivocateNewView(_VictimFault):
    """Byzantine new leader that announces *different* NewView messages
    to different replicas: victims get re-proposals with forged batches.
    Honest replicas adopting conflicting assignments for the same
    ``(view, seq)`` trips ``bft.pre-prepare-equivocation``."""

    def outbound(self, message, raw, peer_id):
        if (
            self.armed
            and isinstance(message, NewView)
            and peer_id in self.victims
            and any(pp.batch for pp in message.pre_prepares)
        ):
            forged = NewView(
                new_view=message.new_view,
                view_change_senders=message.view_change_senders,
                pre_prepares=tuple(
                    _forged_pre_prepare(pp) if pp.batch else pp
                    for pp in message.pre_prepares
                ),
                replica_id=message.replica_id,
            )
            return encode(forged)
        return raw


# ----------------------------------------------------------------------
# memory-corruption attacks against the one-sided fast path
# ----------------------------------------------------------------------
#
# The paper's Section III-C observes that an rkey is a bearer capability:
# "anyone who learns it can reach the buffer".  In a one-sided agreement
# deployment every replica learns every region's rkey during setup, so a
# *Byzantine replica* is exactly the adversary that concern describes.
# These attacks hit consensus state through memory, not messages: each
# starts one process writing over ``replica.onesided.links``.  With
# dynamic permission guarding on, the NIC denies them (QP errors,
# ``rdma.unauthorized-write`` / ``rdma.stale-permission-access``); with
# it off, their writes land and only the audit layer's declared-writer
# table and the pollers' overwrite detection call them out.


class MemoryAttack(Fault):
    """The fault a memory attack attaches to its replica.

    It marks the replica Byzantine, counts the forged records the attack
    placed, and — for the permission race — mutes the message path.
    """

    byzantine = True

    def __init__(self) -> None:
        super().__init__()
        #: Forged records the attack attempted to place.
        self.forged_attempts = 0

    def outbound(self, message, raw, peer_id):
        return None if self.armed else raw


def _all_others(replica: Replica) -> Tuple[str, ...]:
    return tuple(p for p in replica.all_ids if p != replica.replica_id)


def _live_link(replica: Replica, peer_id: str):
    link = replica.onesided.links.get(peer_id)
    return link if link is not None and not link.dead else None


def compromise_rkey(
    replica: Replica,
    delay: float,
    victims: Optional[Tuple[str, ...]] = None,
    forgeries: int = 3,
    seq_offset: int = 16,
    spacing: float = 20e-6,
) -> MemoryAttack:
    """Forge ``forgeries`` leader proposals with stolen rkeys after ``delay``.

    While *not* the leader, ``replica`` writes well-formed, sealed
    pre-prepare records — claiming the current leader's identity — into
    its victims' proposal rings, ``seq_offset`` past its own executed
    position: far enough ahead that the real leader will not propose
    them during a short run (keeping the corruption in *uncommitted*
    slots), close enough to stay inside the ring.  Guarded regions deny
    the write (the attacker holds only its own lane grant, so the blast
    radius is zero and its own links die); unguarded regions accept it,
    and the forged proposal is consumed as if the leader sent it — the
    quantified corruption of ``python -m repro.bench --fig onesided``.
    """
    attack = replica.add_fault(MemoryAttack())
    victims = victims if victims is not None else _all_others(replica)

    def loop():
        yield replica.env.timeout(delay)
        for k in range(forgeries):
            seq = replica.executed_seq + seq_offset + k
            batch = (
                Request(
                    client_id="attacker",
                    timestamp=k,
                    operation=b"PUT stolen=rkey",
                ),
            )
            forged = PrePrepare(
                view=replica.view,
                seq=seq,
                digest=batch_digest(batch),
                batch=batch,
                replica_id=replica.leader_of(replica.view),
            )
            record = pack_record(seq, encode(forged))
            for victim in victims:
                link = _live_link(replica, victim)
                if link is not None:
                    link.write_proposal(seq, record)
                    attack.forged_attempts += 1
            yield replica.env.timeout(spacing)

    replica.env.process(loop(), name=f"{replica.replica_id}.compromise")
    return attack


def rogue_overwrite(
    replica: Replica,
    delay: float,
    victims: Optional[Tuple[str, ...]] = None,
    slots: Tuple[int, ...] = (0, 1),
    scribble: bytes = b"\xde\xad\xbe\xef" * 16,
) -> MemoryAttack:
    """Scribble garbage over ``slots`` of every victim's ring after ``delay``.

    Where :func:`compromise_rkey` forges protocol-shaped records, this
    simply destroys committed consensus state: raw bytes with an invalid
    record magic over the low proposal-ring slots a running workload has
    already consumed.  The poller's shadow copies make the detection
    unambiguous — ``bft.onesided-slot-overwrite`` — because a legitimate
    writer always lands a parsable header first.
    """
    attack = replica.add_fault(MemoryAttack())
    victims = victims if victims is not None else _all_others(replica)

    def loop():
        yield replica.env.timeout(delay)
        slot_bytes = replica.config.onesided_slot_bytes
        for slot in slots:
            for victim in victims:
                link = _live_link(replica, victim)
                if link is not None:
                    link.write_raw(
                        link.proposal_rkey, slot * slot_bytes, scribble
                    )
            yield replica.env.timeout(10e-6)

    replica.env.process(loop(), name=f"{replica.replica_id}.rogue")
    return attack


def permission_race(
    replica: Replica,
    delay: float,
    interval: float = 50e-6,
    duration: float = 0.2,
    payload_bytes: int = 1800,
) -> MemoryAttack:
    """A deposed leader that keeps writing through the revocation window.

    After ``delay`` the replica goes silent on the message path
    (provoking a view change) while it keeps streaming multi-chunk
    proposal writes at its peers' rings for ``duration`` seconds.  Until
    the backups vote, the writes are authorized (it *is* still the
    granted leader) — but they carry no seal, so pollers treat them as
    in-progress and ignore them.  The moment a backup starts the view
    change it revokes the grant, and the epoch bump fences the stream:
    writes in flight die with ``rdma.stale-permission-access``, later
    ones with ``rdma.unauthorized-write`` — the permission race the
    guard exists to win.
    """
    attack = replica.add_fault(MemoryAttack())

    def loop():
        yield replica.env.timeout(delay)
        attack.arm()
        deadline = replica.env.now + duration
        seq = replica.next_seq + 8
        while replica.env.now < deadline:
            # A sealed-off (never-completing) record: header is valid so
            # honest pollers wait forever; only the *denial* is visible.
            record = pack_record(seq, bytes(payload_bytes))[:-4] + bytes(4)
            for peer_id in _all_others(replica):
                link = _live_link(replica, peer_id)
                if link is not None:
                    link.write_proposal(seq, record)
            seq += 1
            yield replica.env.timeout(interval)

    replica.env.process(loop(), name=f"{replica.replica_id}.race")
    return attack
