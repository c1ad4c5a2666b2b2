"""Distributed Illinois protocol (paper appendix; same diagrams as Synapse).

The paper: "The state transition diagram for the Illinois protocol is the
same as for the Synapse protocol.  The difference between these two
protocols is that the sequencer in the Illinois protocol updates all the
time the address of the client which has the copy in DIRTY state."

Reconstructed differences from Synapse (DESIGN.md):

* **Upgrade writes**: a write hit on a ``VALID`` copy acquires ownership
  without a data transfer — ``O-PER`` (1), ``O-GNT`` token (1), ``W-INV`` to
  the other ``N - 1`` clients — cost ``N + 1`` (Synapse pays ``S + N + 1``).
  The sequencer decides from its validity directory whether the grant must
  carry the user information, so the decision is made at the serialization
  point and is race-free.
* **Remote-dirty service is direct**: the recalled owner stays ``VALID``
  (cache-to-cache supply) and the sequencer answers the requester
  immediately after the write-back — no retry.  A remote-dirty read costs
  ``2S + 4`` and a remote-dirty write ``2S + N + 3``.
"""

from __future__ import annotations

from typing import Any, Set, Tuple

from ..machines.message import Message, MsgType, ParamPresence
from .base import ProcessContext, ProtocolSpec
from .home import DIRTY, INVALID, VALID, HomeOwnerClient, HomeOwnerSequencer

__all__ = ["IllinoisClient", "IllinoisSequencer", "SPEC"]


class IllinoisClient(HomeOwnerClient):
    """Client-side Illinois process.

    Ejecting a VALID copy sends one ``EJ`` token, keeping the sequencer's
    validity directory exact (it decides whether ownership grants need the
    user information); a recalled owner supplies its copy and stays VALID.
    """

    EJECT_NOTICE_STATES = (VALID,)


class IllinoisSequencer(HomeOwnerSequencer):
    """Sequencer-side Illinois process: owner address + validity directory."""

    def __init__(self, ctx: ProcessContext):
        super().__init__(ctx)
        #: clients the sequencer knows hold a valid copy
        self.valid_set: Set[int] = set()

    def _on_other(self, msg: Message) -> None:
        if msg.token.type is MsgType.EJ:
            self.valid_set.discard(msg.src)
        else:
            super()._on_other(msg)

    def _copies_invalidated(self) -> None:
        self.valid_set.clear()

    def _owner_recalled(self, owner: int) -> None:
        # the supplier stays VALID on a recall; on a voluntary (eject)
        # write-back it dropped its copy.
        self.valid_set.add(owner)

    def _ownership_data(self, writer: int) -> Tuple[ParamPresence, Any]:
        if writer in self.valid_set:
            return ParamPresence.NONE, {}  # upgrade: skip the data transfer
        return super()._ownership_data(writer)

    def _grant_read(self, reader: int, op_id: int, initiator: int) -> None:
        self.valid_set.add(reader)
        super()._grant_read(reader, op_id, initiator)


SPEC = ProtocolSpec(
    name="illinois",
    display_name="Illinois",
    client_states=(INVALID, VALID, DIRTY),
    sequencer_states=(VALID, INVALID),
    invalidation_based=True,
    migrating_owner=False,
    client_factory=IllinoisClient,
    sequencer_factory=IllinoisSequencer,
    notes=(
        "Reconstructed: data-less upgrade writes (N+1), direct remote-dirty "
        "service with the supplier staying VALID (2S+4 read, 2S+N+3 write)."
    ),
)
