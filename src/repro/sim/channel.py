"""FIFO message fabric (paper Section 2), optionally made faulty.

The paper assumes "fault free communication between nodes and the
implementation of the message passing mechanism through channels that
behave like first-in/first-out queues.  Thus, every message sent is
delivered and not corrupted."

:class:`Network` models one logical FIFO channel per ordered node pair with
a constant per-message latency.  Constant latency plus the scheduler's
schedule-order tie-breaking yields exact FIFO delivery per channel; a
per-channel sequence check enforces (and tests assert) the invariant.

With a :class:`~repro.sim.faults.FaultPlan` attached the fabric becomes the
*physical* layer of the fault model (docs/faults.md): transmissions may be
dropped, duplicated, or delayed by jitter, and nothing is sent by or
delivered to a crashed node.  Jitter can reorder deliveries, so the strict
FIFO invariant is waived in fault mode — the reliable-delivery layer
(:mod:`repro.sim.reliable`) restores exactly-once FIFO order above it.

Message costs (Section 4.1) are charged at send time through the attached
:class:`~repro.sim.metrics.Metrics` sink: 1 for a bare token, ``S + 1`` with
user information, ``P + 1`` with write parameters.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..machines.message import Message
from .engine import EventScheduler
from .faults import FaultPlan
from .partition import PartitionPlan

__all__ = ["Network"]


class Network:
    """Full-mesh FIFO fabric over an event scheduler.

    The star usage restriction (clients talk only to the sequencer/owner) is
    a property of the protocols, not of the fabric; modelling a full mesh
    lets the migrating-owner protocols (Berkeley, Dragon) address any node.

    Args:
        scheduler: the discrete-event engine.
        latency: constant per-hop delay (must be positive).
        on_cost: cost sink, called as ``on_cost(msg, cost)`` for every
            charged (inter-node) send.
        faults: optional fault plan; ``None`` or :meth:`FaultPlan.none`
            keeps the paper-faithful fault-free fabric.
        partitions: optional link-fault plan
            (:class:`~repro.sim.partition.PartitionPlan`); per-link
            drop/duplicate/jitter decisions are layered over the global
            plan's (a transmission is lost if *either* says so).
        on_fault: optional observer, called with ``"drop"``,
            ``"duplicate"``, ``"down_src"`` or ``"down_dst"`` for every
            injected fault event.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        latency: float = 1.0,
        on_cost: Optional[Callable[[Message, float], None]] = None,
        faults: Optional[FaultPlan] = None,
        partitions: Optional[PartitionPlan] = None,
        on_fault: Optional[Callable[[str], None]] = None,
    ):
        if latency <= 0:
            raise ValueError("latency must be positive for causal delivery")
        self.scheduler = scheduler
        self.latency = latency
        self.on_cost = on_cost
        self.on_fault = on_fault
        #: optional :class:`repro.obs.Tracer`.  On a plain fabric the
        #: deliver hook emits per-operation "deliver" events; under a
        #: :class:`~repro.sim.reliable.ReliableNetwork` the tracer is
        #: attached to the reliable layer instead (protocol-level
        #: deliveries), never to the physical fabric beneath it.
        self.tracer = None
        self._deliver_to: Dict[int, Callable[[Message], None]] = {}
        # FIFO bookkeeping: per-channel send / delivery counters of the
        # plain path.  True per-channel counters (not a shared global)
        # make the invariant check — and the reliable layer's duplicate
        # suppression, which reuses the same numbering idea — meaningful
        # per channel.
        self._sent_seq: Dict[Tuple[int, int], int] = {}
        self._delivered_seq: Dict[Tuple[int, int], int] = {}
        #: total messages sent (all cost classes)
        self.messages_sent = 0
        #: transmissions lost to the fault plan (drops + dead receivers)
        self.dropped = 0
        #: extra deliveries injected by the fault plan
        self.duplicated = 0
        #: sends swallowed because the source node was down
        self.suppressed = 0
        self._faults: Optional[FaultPlan] = None
        self._partitions: Optional[PartitionPlan] = None
        self.faults = faults
        self.partitions = partitions

    @property
    def faults(self) -> Optional[FaultPlan]:
        """The active fault plan (``None`` on a fault-free fabric).

        Assignment normalizes a no-fault plan to ``None`` — the plain,
        FIFO-checked paper fabric — and re-reads the decision inputs.
        """
        return self._faults

    @faults.setter
    def faults(self, plan: Optional[FaultPlan]) -> None:
        self._faults = plan if plan is not None and not plan.is_none else None
        self._rewire()

    @property
    def partitions(self) -> Optional[PartitionPlan]:
        """The active link-fault plan; assigned like :attr:`faults`."""
        return self._partitions

    @partitions.setter
    def partitions(self, plan: Optional[PartitionPlan]) -> None:
        self._partitions = (plan if plan is not None and not plan.is_none
                            else None)
        self._rewire()

    def _rewire(self) -> None:
        # read each plan's decision inputs once, not once per transmission;
        # a window lookup is only ever made when a window is scheduled
        plan, parts = self._faults, self._partitions
        self._faulty = plan is not None or parts is not None
        drop = dup = jitter = 0.0
        draw = slowed = link_rates = link_draw = None
        self._crashed: Optional[Callable[[int, float], bool]] = None
        if plan is not None:
            drop, dup, jitter, draw = plan.wire_inputs()
            if plan.crashes:
                self._crashed = plan.is_down
            if plan.slowdowns:
                slowed = plan.link_slowdown
        if parts is not None:
            link_rates, link_draw = parts.wire_inputs()
        self._wire = (drop, dup, jitter, draw, slowed, link_rates, link_draw)

    def is_down(self, node: int) -> bool:
        """Whether ``node``'s network interface is dead right now."""
        crashed = self._crashed
        return crashed is not None and crashed(node, self.scheduler.now)

    def attach(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Register the delivery handler for a node."""
        self._deliver_to[node_id] = handler

    def _fault_event(self, kind: str) -> None:
        if self.on_fault is not None:
            self.on_fault(kind)
        if self.tracer is not None:
            self.tracer.system_event("fault." + kind)

    def _unattached(self, item) -> RuntimeError:
        return RuntimeError(
            f"cannot send {type(item).__name__} from node {item.src}: "
            f"destination node {item.dst} is not attached to the network"
        )

    def _suppress(self) -> None:
        # the source's interface is dead: nothing leaves the node and
        # nothing is charged (the message was never emitted).
        self.suppressed += 1
        self._fault_event("down_src")

    def send(self, msg: Message, S: float, P: float) -> float:
        """Send ``msg``; charge its cost; schedule delivery.

        Returns the communication cost charged (0 for self-sends, which the
        paper counts as intra-node actions, and 0 for sends suppressed
        because the source node is crashed).

        Raises:
            RuntimeError: if ``msg.dst`` was never attached to the fabric.
        """
        src, dst = msg.src, msg.dst
        if dst not in self._deliver_to:
            raise self._unattached(msg)
        if self._faulty and src != dst:
            if self.is_down(src):
                self._suppress()
                return 0.0
            cost = msg.cost(S, P)
            if self.on_cost is not None and cost > 0.0:
                self.on_cost(msg, cost)
            self.transmit(msg)
            return cost
        cost = msg.cost(S, P)
        if self.on_cost is not None and cost > 0.0:
            self.on_cost(msg, cost)
        self.messages_sent += 1
        channel = (src, dst)
        seq = self._sent_seq[channel] = self._sent_seq.get(channel, 0) + 1
        self.scheduler.schedule(self.latency, self._deliver, (msg, seq))
        return cost

    def transmit(self, item) -> bool:
        """Put an already-priced transmission on the wire; compute no cost.

        The reliable layer's entry point for its frames (it prices each
        frame once itself; this fabric's ``on_cost`` is unused beneath
        it) and the tail of every faulty :meth:`send`.  This is the one
        place a transmission's fault decisions compose, in one pass:

        * nothing leaves a crashed source (no draws; returns ``False``);
        * RNG draws follow a fixed order — drop, jitter, duplicate,
          jitter — and at each step the global plan rolls first: a loss
          (or duplication) there skips the link roll, a full cut needs no
          draw, and a zero rate or jitter draws nothing (docs/faults.md);
        * a straggler endpoint stretches each delay multiplicatively.

        Copies go straight to the receiver's handler unless a crash
        window or tracer must see them on arrival (:meth:`_arrive`).

        Raises:
            RuntimeError: if ``item.dst`` was never attached.
        """
        src, dst = item.src, item.dst
        if dst not in self._deliver_to:
            raise self._unattached(item)
        scheduler = self.scheduler
        if not self._faulty or src == dst:
            self.messages_sent += 1
            channel = (src, dst)
            seq = self._sent_seq[channel] = self._sent_seq.get(channel, 0) + 1
            scheduler.schedule(self.latency, self._deliver, (item, seq))
            return True
        now = scheduler.now
        crashed = self._crashed
        if crashed is not None and crashed(src, now):
            self._suppress()
            return False
        self.messages_sent += 1
        drop, dup, jitter, draw, slowed, link_rates, link_draw = self._wire
        if link_rates is None:
            link_drop = link_dup = link_jitter = 0.0
        else:
            link_drop, link_dup, link_jitter = link_rates(src, dst, now)
        deliver = (self._arrive
                   if crashed is not None or self.tracer is not None
                   else self._deliver_to[dst])
        dropped = drop != 0.0 and draw() < drop
        if not dropped and link_drop > 0.0:
            dropped = link_drop >= 1.0 or link_draw() < link_drop
        if dropped:
            self.dropped += 1
            self._fault_event("drop")
        else:
            delay = self.latency
            if jitter != 0.0:
                delay += jitter * draw()
            if link_jitter > 0.0:
                delay += link_jitter * link_draw()
            if slowed is not None:
                # gray failure: a straggler endpoint stretches the whole
                # delivery multiplicatively (deterministic, no RNG).
                delay *= slowed(src, dst, now)
            scheduler.schedule(delay, deliver, item)
        duplicated = dup != 0.0 and draw() < dup
        if not duplicated and link_dup > 0.0:
            duplicated = link_draw() < link_dup
        if duplicated:
            self.duplicated += 1
            self._fault_event("duplicate")
            delay = self.latency
            if jitter != 0.0:
                delay += jitter * draw()
            if link_jitter > 0.0:
                delay += link_jitter * link_draw()
            if slowed is not None:
                delay *= slowed(src, dst, now)
            scheduler.schedule(delay, deliver, item)
        return True

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def _deliver(self, item: Tuple[Message, int]) -> None:
        msg, seq = item
        channel = (msg.src, msg.dst)
        # FIFO invariant: per channel, delivery follows send order (a
        # violation would be an engine bug).
        if seq < self._delivered_seq.get(channel, 0):  # pragma: no cover
            raise RuntimeError(f"FIFO violation on channel {channel}")
        self._delivered_seq[channel] = seq
        tracer = self.tracer
        if tracer is not None:
            tracer.op_event("deliver", msg.op_id, src=msg.src,
                            dst=msg.dst, detail=msg.token.type.value)
        self._deliver_to[msg.dst](msg)

    def _arrive(self, item) -> None:
        """A faulty delivery checked on arrival (jitter reorders
        deliveries, so there is no FIFO check on this path)."""
        dst = item.dst
        if self.is_down(dst):
            # the receiver is crashed: the transmission is lost.
            self.dropped += 1
            self._fault_event("down_dst")
            return
        tracer = self.tracer
        if tracer is not None:
            token = getattr(item, "token", None)
            tracer.op_event(
                "deliver", item.op_id, src=item.src, dst=dst,
                detail=(token.type.value if token is not None
                        else getattr(item, "kind", None)),
            )
        self._deliver_to[dst](item)
