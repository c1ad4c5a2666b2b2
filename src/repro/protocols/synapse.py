"""Distributed Synapse protocol (paper appendix, Figures 7-8).

Client copy states: ``INVALID`` (start), ``VALID``, ``DIRTY``; sequencer copy
states: ``VALID`` (start), ``INVALID`` (a client holds the only up-to-date
copy).  Reconstruction notes (DESIGN.md):

* Writes that do not hit a ``DIRTY`` copy acquire exclusive ownership **with
  a data transfer** — bus Synapse treats write hits like misses — at cost
  ``S + N + 1``: ``O-PER`` (1), ``O-GNT + ui`` (``S + 1``), ``W-INV`` to the
  other ``N - 1`` clients.  The sequencer's copy becomes ``INVALID`` and it
  records the new owner.
* A request that finds the sequencer ``INVALID`` triggers a recall: ``RCL``
  (1) to the dirty owner, which writes back (``WB + ui``, ``S + 1``) and
  **self-invalidates** (the Synapse signature), after which the sequencer —
  faithful to the bus protocol's "memory write-back then retry" — sends a
  ``RETRY`` token (1) and the requester re-issues its request (1).  A
  remote-dirty read therefore costs ``2S + 6`` and a remote-dirty write
  ``2S + N + 5``.
* Reads and writes on a ``DIRTY`` copy, and reads on a ``VALID`` copy, are
  free.
"""

from __future__ import annotations

from ..machines.message import Message, MsgType, ParamPresence
from .base import READ, ProtocolSpec
from .home import DIRTY, INVALID, VALID, HomeOwnerClient, HomeOwnerSequencer

__all__ = ["SynapseClient", "SynapseSequencer", "SPEC"]


class SynapseClient(HomeOwnerClient):
    """Client-side Synapse process.

    Grants always carry the user information, so an eject needs no notice;
    a recalled owner self-invalidates, and a recalled request is re-issued
    on ``RETRY``.
    """

    RECALLED_STATE = INVALID

    def _on_other(self, msg: Message) -> None:
        if msg.token.type is not MsgType.RETRY:
            super()._on_other(msg)
            return
        # memory write-back finished; re-issue the pending request.
        op = self._pending
        retry_type = MsgType.R_PER if op.kind == READ else MsgType.O_PER
        self.ctx.send(
            self.ctx.sequencer_id, retry_type, ParamPresence.NONE, op.op_id
        )


class SynapseSequencer(HomeOwnerSequencer):
    """Sequencer-side Synapse process: a finished recall answers ``RETRY``."""

    def _resume(self, trigger: Message) -> None:
        # bus-Synapse semantics: tell the requester to retry.
        self.ctx.send(
            trigger.src, MsgType.RETRY, ParamPresence.NONE, trigger.op_id,
            initiator=trigger.token.operation_initiator,
        )


SPEC = ProtocolSpec(
    name="synapse",
    display_name="Synapse",
    client_states=(INVALID, VALID, DIRTY),
    sequencer_states=(VALID, INVALID),
    invalidation_based=True,
    migrating_owner=False,
    client_factory=SynapseClient,
    sequencer_factory=SynapseSequencer,
    notes=(
        "Reconstructed: ownership writes always transfer data (S+N+1); "
        "remote-dirty requests pay write-back plus retry (2S+6 read, "
        "2S+N+5 write); recalled owners self-invalidate."
    ),
)
