"""Shared skeleton of the home-based ownership protocols.

Write-Once, Synapse and Illinois (paper appendix, Figures 7-8 and 10) run
one choreography around the sequencer's fixed home copy (DESIGN.md):

* a client read on a copy it cannot serve sends ``R-PER`` (1) and installs
  the ``R-GNT + ui`` answer (``S + 1``);
* a write that does not hit a ``DIRTY`` copy acquires exclusive ownership:
  ``O-PER`` (1), ``O-GNT`` to the writer and ``W-INV`` to the other
  ``N - 1`` clients; the home copy turns ``INVALID`` and the sequencer
  records the owner;
* a request that finds the home copy ``INVALID`` recalls the owner
  (``RCL``, 1), which writes back (``WB + ui``, ``S + 1``); the sequencer
  holds all other work until the write-back arrives;
* a ``DIRTY`` copy ejects with the same write-back; the home copy is
  pinned.

:class:`HomeOwnerClient` and :class:`HomeOwnerSequencer` hold that
choreography once.  Each protocol module states only its differences, as
class constants (the states a read hits in, the states whose eject sends
an ``EJ`` notice, the state a recalled owner keeps) and as overridden
hooks (other message types, a write on a copy that is not ``DIRTY``, the
directory a grant updates, how a recalled request resumes).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..machines.message import Message, MsgType, ParamPresence
from .base import EJECT, READ, HoldingMixin, Operation, ProcessContext, ProtocolProcess

__all__ = ["INVALID", "VALID", "DIRTY", "HomeOwnerClient", "HomeOwnerSequencer"]

INVALID = "INVALID"
VALID = "VALID"
DIRTY = "DIRTY"


class HomeOwnerClient(ProtocolProcess):
    """Client side of the home-based ownership family."""

    #: copy states a read is served from locally
    READ_HIT_STATES: Tuple[str, ...] = (VALID, DIRTY)
    #: copy states whose eject sends a one-token ``EJ`` notice home
    EJECT_NOTICE_STATES: Tuple[str, ...] = ()
    #: the state a recalled ``DIRTY`` owner keeps after its write-back
    RECALLED_STATE = VALID

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=INVALID)
        self._pending: Optional[Operation] = None

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            # a DIRTY copy is the only current one: flush it home first
            # (WB + ui, cost S+1).
            if self.state == DIRTY:
                self.ctx.send(
                    self.ctx.sequencer_id, MsgType.WB,
                    ParamPresence.USER_INFO, op.op_id,
                    payload={"value": self.value},
                )
            elif self.state in self.EJECT_NOTICE_STATES:
                self.ctx.send(self.ctx.sequencer_id, MsgType.EJ,
                              ParamPresence.NONE, op.op_id)
            self.state = INVALID
            self.ctx.complete(op)
        elif op.kind == READ:
            if self.state in self.READ_HIT_STATES:
                self.ctx.complete(op, self.value)
            else:
                self._ask(MsgType.R_PER, op)
        elif self.state == DIRTY:
            self.value = op.params
            self.ctx.complete(op)
        else:
            self._write_not_dirty(op)

    def _write_not_dirty(self, op: Operation) -> None:
        """Hook: a write on a copy that is not ``DIRTY``.

        The default acquires ownership with the data (``O-PER``).
        """
        self._ask(MsgType.O_PER, op)

    def _ask(self, mtype: MsgType, op: Operation) -> None:
        """Send a request for ``op`` home and wait for the answer."""
        self._pending = op
        self.ctx.disable_local_queue()
        self.ctx.send(self.ctx.sequencer_id, mtype, ParamPresence.NONE, op.op_id)

    def on_message(self, msg: Message) -> None:
        mtype = msg.token.type
        if mtype is MsgType.R_GNT:
            self.value = msg.payload["value"]
            self.state = VALID
            op, self._pending = self._pending, None
            self.ctx.enable_local_queue()
            self.ctx.complete(op, self.value)
        elif mtype is MsgType.O_GNT:
            self._become_owner(msg)
        elif mtype is MsgType.RCL:
            if self.state != DIRTY:
                # stale recall: a voluntary (eject) write-back already
                # satisfied the sequencer; nothing to supply.
                return
            self.state = self.RECALLED_STATE
            self.ctx.send(
                self.ctx.sequencer_id,
                MsgType.WB,
                ParamPresence.USER_INFO,
                msg.op_id,
                payload={"value": self.value},
            )
        elif mtype is MsgType.W_INV:
            self.state = INVALID
        else:
            self._on_other(msg)

    def _become_owner(self, msg: Message) -> None:
        """Install an ownership grant and apply the pending write.

        A grant without a payload (a data-less upgrade) keeps the copy's
        current content under the write.
        """
        op, self._pending = self._pending, None
        if msg.payload:
            self.value = msg.payload["value"]
        self.value = op.params
        self.state = DIRTY
        self.ctx.enable_local_queue()
        self.ctx.complete(op)

    def _on_other(self, msg: Message) -> None:
        """Hook: a message type beyond the shared choreography."""
        raise ValueError(  # pragma: no cover - specification error
            f"{type(self).__name__}: unexpected {msg.token.type}"
        )


class HomeOwnerSequencer(HoldingMixin, ProtocolProcess):
    """Sequencer side: the home copy, the owner's address and recall."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx, initial_state=VALID)
        self._init_holding()
        #: the client holding the DIRTY copy while the home copy is INVALID
        self.owner: Optional[int] = None
        #: the request (Message or Operation) the running recall serves
        self._recall_for: Optional[Any] = None

    # -- application requests at the sequencer node --------------------

    def on_request(self, op: Operation) -> None:
        if op.kind == EJECT:
            self.ctx.complete(op)  # the home copy is pinned
        elif self._busy:
            self._hold(op)
        elif self.state != VALID:
            self._start_recall(op, op.op_id)
        elif op.kind == READ:
            self._read_home(op)
        else:
            self._apply_own_write(op)

    def _read_home(self, op: Operation) -> None:
        """Hook: a sequencer read on the VALID home copy."""
        self.ctx.complete(op, self.value)

    def _apply_own_write(self, op: Operation) -> None:
        """Sequencer write with a VALID copy: invalidate all N clients."""
        self.value = op.params
        self._copies_invalidated()
        self.ctx.broadcast_except([], MsgType.W_INV, ParamPresence.NONE, op.op_id)
        self.ctx.complete(op)

    # -- protocol messages ---------------------------------------------

    def on_message(self, msg: Message) -> None:
        mtype = msg.token.type
        if self._busy and mtype is not MsgType.WB:
            self._hold(msg)
        elif mtype is MsgType.R_PER or mtype is MsgType.O_PER:
            self._serve_or_recall(msg)
        elif mtype is MsgType.WB:
            self._write_back(msg)
        else:
            self._on_other(msg)

    def _serve_or_recall(self, msg: Message) -> None:
        """Serve a client request from the home copy, recalling it first."""
        if self.state == VALID:
            self._serve(msg)
        else:
            self._start_recall(msg, msg.op_id)

    def _serve(self, msg: Message) -> None:
        """Answer a client request from the VALID home copy."""
        if msg.token.type is MsgType.R_PER:
            self._grant_read(msg.src, msg.op_id, msg.token.operation_initiator)
        else:
            self._grant_ownership(msg.src, msg.op_id,
                                  msg.token.operation_initiator)

    def _write_back(self, msg: Message) -> None:
        if self.owner != msg.src:
            # stale write-back (ownership already moved on): ignore.
            return
        self.value = msg.payload["value"]
        self.state = VALID
        trigger, self._recall_for = self._recall_for, None
        if trigger is not None:
            self._owner_recalled(self.owner)
        self.owner = None
        self._busy = False
        if isinstance(trigger, Operation):
            # our own operation triggered the recall: finish it locally.
            if trigger.kind == READ:
                self.ctx.complete(trigger, self.value)
            else:
                self._apply_own_write(trigger)
        elif trigger is not None:
            self._resume(trigger)
        # with no trigger this was a voluntary (eject) write-back
        self._release_held()

    def _resume(self, trigger: Message) -> None:
        """Hook: a client request the finished recall was for.

        The default serves it directly from the restored home copy.
        """
        self._serve(trigger)

    def _on_other(self, msg: Message) -> None:
        """Hook: a message type beyond the shared choreography."""
        raise ValueError(  # pragma: no cover - specification error
            f"{type(self).__name__}: unexpected {msg.token.type}"
        )

    # -- directory hooks -------------------------------------------------

    def _copies_invalidated(self) -> None:
        """Hook: every client copy other than a new owner's was invalidated."""

    def _owner_recalled(self, owner: int) -> None:
        """Hook: the recalled ``owner`` wrote back."""

    def _ownership_data(self, writer: int) -> Tuple[ParamPresence, Any]:
        """Hook: presence and payload of ``writer``'s ownership grant."""
        return ParamPresence.USER_INFO, {"value": self.value}

    # -- grants and recall -------------------------------------------------

    def _grant_read(self, reader: int, op_id: int, initiator: int) -> None:
        self.ctx.send(
            reader, MsgType.R_GNT, ParamPresence.USER_INFO, op_id,
            payload={"value": self.value}, initiator=initiator,
        )

    def _grant_ownership(self, writer: int, op_id: int, initiator: int) -> None:
        """Grant exclusivity; invalidate the other N-1 clients."""
        presence, payload = self._ownership_data(writer)
        self.ctx.send(writer, MsgType.O_GNT, presence, op_id,
                      payload=payload, initiator=initiator)
        self.ctx.broadcast_except(
            [writer], MsgType.W_INV, ParamPresence.NONE, op_id, initiator=initiator
        )
        self._copies_invalidated()
        self.state = INVALID
        self.owner = writer

    def _start_recall(self, trigger: Any, op_id: int) -> None:
        """Ask the dirty owner to write back; hold all other work."""
        self._busy = True
        self._recall_for = trigger
        self.ctx.send(self.owner, MsgType.RCL, ParamPresence.NONE, op_id)
