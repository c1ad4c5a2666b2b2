"""Distributed Write-Once protocol (paper appendix, Figure 10).

Client copy states: ``INVALID`` (start), ``VALID``, ``RESERVED``, ``DIRTY``;
sequencer copy states: ``VALID`` (start), ``INVALID``.  The appendix fixes
the key property: "The write operation of kth client changes the state of
the sequencer's copy from VALID to INVALID only if kth client's copy is in
RESERVED or INVALID state" — i.e. the *first* write (from ``VALID``) is
written through and the sequencer stays current; later writes go local.

Reconstructed choreography (DESIGN.md).  Two bus mechanisms have no free
equivalent in a star topology and are replaced by explicit tokens:

* the bus's *snooped read* that downgrades a ``RESERVED`` copy to ``VALID``
  becomes a ``DGR`` token (cost 1) the sequencer sends to the reserved
  client whenever it serves a read while one exists;
* the bus's silent ``RESERVED -> DIRTY`` upgrade becomes a blocking
  two-token handshake ``D-NOT``/``D-GNT`` (cost 2) so the upgrade is
  serialized; if the reserved status was lost in flight the sequencer
  answers ``D-NACK`` and the writer re-executes the write from its actual
  state (no write is ever lost).

Cost table:

* write on ``VALID`` — write-through, ``P + N``, copy -> ``RESERVED``;
* write on ``RESERVED`` — ``D-NOT`` + ``D-GNT``, cost 2, copy -> ``DIRTY``,
  sequencer -> ``INVALID``;
* write on ``DIRTY`` — free;
* write on ``INVALID`` — read-with-intent-to-modify, ``S + N + 1`` from a
  VALID sequencer, ``2S + N + 3`` via recall;
* read on ``INVALID`` — ``S + 2`` from a VALID sequencer (+1 ``DGR`` when a
  reserved copy exists), ``2S + 4`` via recall (the dirty owner supplies
  the copy, writes back and stays ``VALID``).
"""

from __future__ import annotations

from typing import Optional

from ..machines.message import Message, MsgType, ParamPresence
from .base import Operation, ProcessContext, ProtocolSpec
from .home import DIRTY, INVALID, VALID, HomeOwnerClient, HomeOwnerSequencer

__all__ = ["WriteOnceClient", "WriteOnceSequencer", "SPEC"]

RESERVED = "RESERVED"


class WriteOnceClient(HomeOwnerClient):
    """Client-side Write-Once process.

    A RESERVED copy is current, so reads hit it; its content is already
    home (written through), but its eject must clear the sequencer's
    reserved-client entry (one ``EJ`` token).  A recalled owner supplies
    its copy and stays VALID (memory is updated by the write-back).
    """

    READ_HIT_STATES = (VALID, RESERVED, DIRTY)
    EJECT_NOTICE_STATES = (RESERVED,)

    def _write_not_dirty(self, op: Operation) -> None:
        if self.state == RESERVED:
            # serialized local upgrade: ask before going DIRTY.
            self._ask(MsgType.D_NOT, op)
        elif self.state == VALID:
            # first write: write through, keep the copy in RESERVED.
            self.value = op.params
            self.state = RESERVED
            self.ctx.send(
                self.ctx.sequencer_id,
                MsgType.W_PER,
                ParamPresence.WRITE,
                op.op_id,
                payload={"value": op.params},
            )
            self.ctx.complete(op)
        else:
            # INVALID: read-with-intent-to-modify.
            super()._write_not_dirty(op)

    def _on_other(self, msg: Message) -> None:
        mtype = msg.token.type
        if mtype is MsgType.D_GNT:
            # upgrade granted (no data): apply the write locally.
            self._become_owner(msg)
        elif mtype is MsgType.D_NACK:
            # reserved status lost in flight (an invalidation or downgrade
            # is ahead of this NACK on the FIFO channel, so our state is
            # already VALID or INVALID): redo the write from the real state.
            op, self._pending = self._pending, None
            self.ctx.enable_local_queue()
            self.on_request(op)
        elif mtype is MsgType.DGR:
            # another node read the object: a write is no longer "once".
            if self.state == RESERVED:
                self.state = VALID
        else:
            super()._on_other(msg)


class WriteOnceSequencer(HomeOwnerSequencer):
    """Sequencer-side Write-Once process with owner/reserved directory."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx)
        #: the client whose last write-through made it RESERVED, if still so
        self.reserved_client: Optional[int] = None

    def _on_other(self, msg: Message) -> None:
        mtype = msg.token.type
        if mtype is MsgType.W_PER:
            # if the writer was invalidated in flight, the dirty owner is
            # recalled first and the write-through applies on top.
            self._serve_or_recall(msg)
        elif mtype is MsgType.D_NOT:
            if msg.src == self.reserved_client and self.state == VALID:
                self.state = INVALID
                self.owner = msg.src
                self.reserved_client = None
                self.ctx.send(
                    msg.src, MsgType.D_GNT, ParamPresence.NONE, msg.op_id,
                    initiator=msg.token.operation_initiator,
                )
            else:
                # overtaken by another serialized operation.
                self.ctx.send(
                    msg.src, MsgType.D_NACK, ParamPresence.NONE, msg.op_id,
                    initiator=msg.token.operation_initiator,
                )
        elif mtype is MsgType.EJ:
            if self.reserved_client == msg.src:
                self.reserved_client = None
        else:
            super()._on_other(msg)

    def _serve(self, msg: Message) -> None:
        if msg.token.type is MsgType.W_PER:
            # write-through from a VALID client: apply, invalidate others.
            self.value = msg.payload["value"]
            self.reserved_client = msg.src
            self.ctx.broadcast_except(
                [msg.src], MsgType.W_INV, ParamPresence.NONE, msg.op_id,
                initiator=msg.token.operation_initiator,
            )
        else:
            super()._serve(msg)

    def _copies_invalidated(self) -> None:
        self.reserved_client = None

    def _read_home(self, op: Operation) -> None:
        self._downgrade_reserved(op.op_id)
        super()._read_home(op)

    def _grant_read(self, reader: int, op_id: int, initiator: int) -> None:
        self._downgrade_reserved(op_id)
        super()._grant_read(reader, op_id, initiator)

    def _downgrade_reserved(self, op_id: int) -> None:
        """Replace the bus's snooped-read downgrade with a DGR token."""
        if self.reserved_client is not None:
            self.ctx.send(
                self.reserved_client, MsgType.DGR, ParamPresence.NONE, op_id
            )
            self.reserved_client = None


SPEC = ProtocolSpec(
    name="write_once",
    display_name="Write-Once",
    client_states=(INVALID, VALID, RESERVED, DIRTY),
    sequencer_states=(VALID, INVALID),
    invalidation_based=True,
    migrating_owner=False,
    client_factory=WriteOnceClient,
    sequencer_factory=WriteOnceSequencer,
    notes=(
        "Reconstructed: first write is written through (P+N, -> RESERVED); "
        "second write is a 2-token serialized upgrade; DGR token replaces "
        "the bus's snooped-read downgrade; misses per DESIGN.md."
    ),
)
