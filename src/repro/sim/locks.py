"""Synchronization operations: per-object locks (paper Section 6 outlook).

The paper proposes extending the model "to include other types of
operations (... synchronization operation)".  This module adds the
canonical one: a FIFO mutual-exclusion lock per shared object, managed by
the sequencer node (the natural serialization point).

Costs, in the paper's units:

* ``acquire`` — ``LK-REQ`` token (1) plus ``LK-GNT`` token (1) = **2**,
  regardless of contention (waiting costs time, not messages);
* ``release`` — ``UNLK`` token (1) = **1** (the manager's grant to the
  next waiter is charged to *that waiter's* acquire).

Locks are orthogonal to the coherence protocols: they guard application
critical sections (e.g. read-modify-write sequences) while the protocol
keeps the data coherent; the examples demonstrate lost-update prevention.
A node acquiring or releasing at the manager's own node does it locally at
zero cost.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..machines.message import Message, MessageToken, MsgType, ParamPresence, QueueTag
from ..protocols.base import ACQUIRE, Operation, RELEASE

__all__ = ["LockClient", "LockManager"]


class LockClient:
    """Per-node lock stub: forwards acquire/release to the manager."""

    def __init__(self, node):
        self._node = node
        #: pending acquire per object
        self._waiting: Dict[int, Operation] = {}

    def on_request(self, op: Operation) -> None:
        """Handle an acquire/release issued by the local application."""
        if self._node.node_id == self._node.sequencer_id:
            # local fast path at the manager's node.
            self._node.lock_manager.local_request(op)
            return
        if op.kind == ACQUIRE:
            if op.obj in self._waiting:
                raise RuntimeError(
                    f"node {self._node.node_id} already waits for lock "
                    f"{op.obj}"
                )
            self._waiting[op.obj] = op
            self._send(MsgType.LK_REQ, op)
        elif op.kind == RELEASE:
            self._send(MsgType.UNLK, op)
            self._complete(op)
        else:  # pragma: no cover - routing error
            raise ValueError(f"lock client: unexpected kind {op.kind}")

    def on_message(self, msg: Message) -> None:
        """A grant arrived: the blocked acquire completes."""
        if msg.token.type is not MsgType.LK_GNT:  # pragma: no cover
            raise ValueError(f"lock client: unexpected {msg.token.type}")
        op = self._waiting.pop(msg.token.object_name)
        self._complete(op)

    def _send(self, mtype: MsgType, op: Operation) -> None:
        token = MessageToken(mtype, self._node.node_id, op.obj,
                             QueueTag.DISTRIBUTED, ParamPresence.NONE)
        self._node.network.send(
            Message(token, self._node.node_id, self._node.sequencer_id,
                    op_id=op.op_id),
            self._node.S, self._node.P,
        )

    def _complete(self, op: Operation) -> None:
        op.complete_time = self._node.scheduler.now
        self._node.metrics.record_complete(op.op_id, op.complete_time)
        if self._node.on_complete is not None:
            self._node.on_complete(op)
        if op.callback is not None:
            op.callback(op)


class LockManager:
    """FIFO lock manager at the sequencer node: one lock per object."""

    def __init__(self, node):
        self._node = node
        #: object -> current holder node (None = free)
        self.holder: Dict[int, Optional[int]] = {}
        #: object -> FIFO of (waiter node, op_id)
        self._queue: Dict[int, Deque[Tuple[int, int]]] = {}
        #: local acquires blocked at the manager's own node
        self._local_waiting: Dict[int, Operation] = {}

    def on_message(self, msg: Message) -> None:
        obj = msg.token.object_name
        if msg.token.type is MsgType.LK_REQ:
            self._acquire(obj, msg.src, msg.op_id)
        elif msg.token.type is MsgType.UNLK:
            self._release(obj, msg.src, msg.op_id)
        else:  # pragma: no cover - routing error
            raise ValueError(f"lock manager: unexpected {msg.token.type}")

    def local_request(self, op: Operation) -> None:
        """Acquire/release issued by the manager's own application."""
        if op.kind == ACQUIRE:
            if self.holder.get(op.obj) is None:
                self.holder[op.obj] = self._node.node_id
                self._complete_local(op)
            else:
                self._local_waiting[op.obj] = op
                self._queue.setdefault(op.obj, deque()).append(
                    (self._node.node_id, op.op_id)
                )
        else:
            self._release(op.obj, self._node.node_id, op.op_id)
            self._complete_local(op)

    # ------------------------------------------------------------------

    def _acquire(self, obj: int, waiter: int, op_id: int) -> None:
        if self.holder.get(obj) is None:
            self.holder[obj] = waiter
            self._grant(obj, waiter, op_id)
        else:
            self._queue.setdefault(obj, deque()).append((waiter, op_id))

    def _release(self, obj: int, releaser: int, op_id: int) -> None:
        if self.holder.get(obj) != releaser:
            raise RuntimeError(
                f"node {releaser} released lock {obj} held by "
                f"{self.holder.get(obj)}"
            )
        queue = self._queue.get(obj)
        if queue:
            waiter, waiter_op = queue.popleft()
            self.holder[obj] = waiter
            if waiter == self._node.node_id:
                op = self._local_waiting.pop(obj)
                self._complete_local(op)
            else:
                self._grant(obj, waiter, waiter_op)
        else:
            self.holder[obj] = None

    def _grant(self, obj: int, waiter: int, op_id: int) -> None:
        token = MessageToken(MsgType.LK_GNT, waiter, obj,
                             QueueTag.DISTRIBUTED, ParamPresence.NONE)
        self._node.network.send(
            Message(token, self._node.node_id, waiter, op_id=op_id),
            self._node.S, self._node.P,
        )

    def _complete_local(self, op: Operation) -> None:
        op.complete_time = self._node.scheduler.now
        self._node.metrics.record_complete(op.op_id, op.complete_time)
        if self._node.on_complete is not None:
            self._node.on_complete(op)
        if op.callback is not None:
            op.callback(op)
