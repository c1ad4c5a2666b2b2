"""Bounded replica caches: partial replication with pluggable eviction.

The paper assumes *full replication*: every client holds a copy of every
object, so ``acc`` never pays a capacity miss.  This module relaxes that
(ROADMAP item 4): a :class:`CacheConfig` bounds each client to at most
``capacity`` resident object copies, managed by a seed-deterministic
eviction policy:

``lru``
    evict the least-recently-used unpinned copy (ties — e.g. copies
    never touched since install — broken by a seeded hash rank).
``clock``
    the classic second-chance ring: a reference bit per copy, a hand
    that sweeps the ring clearing bits and evicts the first copy found
    with its bit already clear.
``cost_aware``
    GreedyDual: each touch sets the copy's retention credit to the
    current inflation level ``L`` plus its estimated refetch cost (a
    dirty copy is worth its write-back *and* its refetch); eviction
    takes the cheapest copy and inflates ``L`` to its credit, so
    recently-touched *and* expensive-to-restore copies survive.

Eviction goes through the protocol's own ``EJECT`` operation, so each
family pays its true price: write-through drops clean copies for free,
directory protocols send a one-token departure notice, and the
write-back family (Write-Once / Synapse / Illinois ``DIRTY`` copies)
flushes the dirty value home with a ``WB`` + user-information message.
Owner copies (:attr:`~repro.protocols.base.ProtocolSpec.owner_states`
— e.g. a Berkeley owner) are pinned: never selected.  A later access to
an evicted object is a *capacity miss*: the protocol re-fetches the copy
(sequencer snapshot for the star family, a majority read round for
SC-ABD) and the refetch is charged to a dedicated ``cache`` share of
:meth:`~repro.sim.metrics.Metrics.average_cost_breakdown`.

SC-ABD runs the cache in *overlay* mode: quorum replicas are
load-bearing (the protocol refuses ejects), so the cache tracks its own
resident-set bookkeeping, evictions are free, and capacity-missed reads
are reclassified — total acc stays flat in ``capacity``, which is
exactly the cache-coherent-vs-DSM separation studied by Golab
(PAPERS.md).

Interaction with faults: evicted is **not** invalidated.  Crash
recovery, partition rejoin and epoch resets must not resurrect an
evicted copy — the recovery manager consults :meth:`ReplicaCache.
is_evicted` and skips those objects when warm-installing and when
pricing resync snapshots, so a bounded cache also bounds what a
rejoining node pays to warm up.

Pay-for-what-you-use: ``CacheConfig`` rides on
:class:`~repro.sim.config.RunConfig` under a key only serialized when
caching is configured, so every pre-existing cell id, cache key and
committed baseline stays byte-identical.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, List, Sequence, Set

from ..protocols.base import EJECT, READ, WRITE, Operation, ProtocolSpec
from ..util import did_you_mean, reject_unknown_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import SimNode

__all__ = ["CACHE_POLICIES", "DIRTY_STATES", "CacheConfig", "ReplicaCache"]

#: recognized eviction policy names, in documentation order
CACHE_POLICIES = ("lru", "clock", "cost_aware")

#: client states whose eviction must flush the copy home (``WB`` + user
#: information): the write-back family's dirty bit.  Berkeley's and
#: Dragon's dirty states are the object's backing copy — pinned via
#: :attr:`~repro.protocols.base.ProtocolSpec.owner_states`, never
#: evicted, never flushed.
DIRTY_STATES = {
    "write_once": frozenset({"DIRTY"}),
    "synapse": frozenset({"DIRTY"}),
    "illinois": frozenset({"DIRTY"}),
}

#: the one client state every star protocol uses for "no copy resident"
_NON_RESIDENT = frozenset({"INVALID"})


def _tie_rank(seed: int, obj: int) -> int:
    """Seeded deterministic total order over objects for tie-breaking."""
    digest = hashlib.sha256(f"{seed}:{obj}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class CacheConfig:
    """Configuration of bounded per-client replica caches.

    Args:
        capacity: most object copies one client may hold resident; the
            paper's full replication is the ``capacity >= M`` limit.
        policy: eviction policy name, one of :data:`CACHE_POLICIES`.
        seed: seed for deterministic tie-breaking inside the policy,
            part of the configuration identity like every plan seed.
    """

    def __init__(self, capacity: int = 4, policy: str = "lru",
                 seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(
                f"cache capacity must be at least 1, got {capacity}"
            )
        if policy not in CACHE_POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}"
                f"{did_you_mean(str(policy), CACHE_POLICIES)}; "
                f"choose from: {', '.join(CACHE_POLICIES)}"
            )
        self.capacity = int(capacity)
        self.policy = str(policy)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    # configuration identity and serialization
    # ------------------------------------------------------------------

    def config_key(self) -> tuple:
        return (self.capacity, self.policy, self.seed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheConfig):
            return NotImplemented
        return self.config_key() == other.config_key()

    def __hash__(self) -> int:
        return hash(self.config_key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheConfig({self.describe()})"

    def to_dict(self) -> dict:
        return {
            "capacity": int(self.capacity),
            "policy": str(self.policy),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheConfig":
        reject_unknown_keys(data, ("capacity", "policy", "seed"),
                            "CacheConfig")
        return cls(
            capacity=int(data.get("capacity", 4)),
            policy=str(data.get("policy", "lru")),
            seed=int(data.get("seed", 0)),
        )

    def describe(self) -> str:
        """One-line human-readable summary (used by the CLI)."""
        return (f"capacity={self.capacity}, policy={self.policy}, "
                f"seed={self.seed}")


# ----------------------------------------------------------------------
# eviction policies
# ----------------------------------------------------------------------


class _LRUPolicy:
    """Least-recently-used with a monotone touch counter."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._clock = 0
        self._last_use: Dict[int, int] = {}

    def on_touch(self, obj: int, refetch_hint: float) -> None:
        self._clock += 1
        self._last_use[obj] = self._clock

    def pick_victim(self, candidates: Sequence[int]) -> int:
        return min(candidates, key=lambda o: (self._last_use.get(o, 0),
                                              _tie_rank(self._seed, o)))


class _ClockPolicy:
    """Second-chance ring: one reference bit per copy, a sweeping hand."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._ring: List[int] = []
        self._known: Set[int] = set()
        self._ref: Set[int] = set()
        self._hand = 0

    def _admit(self, obj: int) -> None:
        if obj not in self._known:
            self._known.add(obj)
            self._ring.append(obj)

    def on_touch(self, obj: int, refetch_hint: float) -> None:
        self._admit(obj)
        self._ref.add(obj)

    def pick_victim(self, candidates: Sequence[int]) -> int:
        live = set(candidates)
        # copies can be resident without ever having been touched (the
        # warm initial replicas): admit them in seeded-rank order.
        for obj in sorted(live, key=lambda o: _tie_rank(self._seed, o)):
            self._admit(obj)
        while True:
            obj = self._ring[self._hand % len(self._ring)]
            self._hand = (self._hand + 1) % len(self._ring)
            if obj not in live:
                continue
            if obj in self._ref:
                self._ref.discard(obj)
                continue
            return obj


class _CostAwarePolicy:
    """GreedyDual: retention credit = inflation level + refetch cost."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._level = 0.0
        self._credit: Dict[int, float] = {}

    def on_touch(self, obj: int, refetch_hint: float) -> None:
        self._credit[obj] = self._level + refetch_hint

    def pick_victim(self, candidates: Sequence[int]) -> int:
        victim = min(
            candidates,
            key=lambda o: (self._credit.get(o, self._level),
                           _tie_rank(self._seed, o)),
        )
        self._level = self._credit.get(victim, self._level)
        return victim


def _make_policy(config: CacheConfig):
    if config.policy == "lru":
        return _LRUPolicy(config.seed)
    if config.policy == "clock":
        return _ClockPolicy(config.seed)
    return _CostAwarePolicy(config.seed)


# ----------------------------------------------------------------------
# the per-node cache
# ----------------------------------------------------------------------


class ReplicaCache:
    """One client's bounded replica cache.

    Star protocols run in *residency* mode: the resident set is read off
    the protocol states (any state but ``INVALID`` is a copy), eviction
    issues the protocol's real ``EJECT`` operation (redirect-charged to
    the data operation whose completion forced it), and the recovery
    manager consults :meth:`is_evicted` so resync never resurrects an
    evicted copy.  Quorum protocols (SC-ABD) run in *overlay* mode: the
    replica set is load-bearing, so the cache keeps its own resident-set
    bookkeeping, evicts for free, and only reclassifies capacity-missed
    reads into the ``cache`` acc share.

    Enforcement is lazy — it runs when a data operation completes on the
    node — and skipped while the node is the current sequencer (home
    copies are the memory of record) or quarantined (its replicas are
    already stale and gated).

    Counter semantics (shared :class:`~repro.sim.metrics.
    ReplicaCacheStats`): a *hit* is a data operation dispatched with the
    copy resident; a *miss* is one dispatched without it; a *capacity
    miss* is the subset of misses on objects this cache evicted and has
    not re-accessed since.  Only the first access after an eviction is a
    capacity miss — later misses are protocol dynamics (e.g. a remote
    write invalidating everyone) that full replication would pay too.
    Capacity-missed *reads* are reclassified into the ``cache`` share;
    a write's distributed round is protocol-mandated for every protocol
    in the family, so its cost stays in the ``protocol`` share even when
    the reply re-installs the copy.
    """

    def __init__(self, config: CacheConfig, spec: ProtocolSpec,
                 node: "SimNode", S: float, P: float,
                 overlay: bool = False) -> None:
        self.config = config
        self.node = node
        self.S = float(S)
        self.P = float(P)
        self.overlay = bool(overlay)
        self.pinned = spec.owner_states
        self.dirty_states = DIRTY_STATES.get(spec.name, frozenset())
        self.policy = _make_policy(config)
        #: objects this cache evicted and has not re-accessed since
        self.evicted: Set[int] = set()
        #: eject operations issued but not yet completed
        self._evicting: Set[int] = set()
        #: overlay mode only: the bookkept resident set
        self._resident: Set[int] = set()
        #: test-only mutation hook: dirty evictions flush a stale value
        self.sabotage_writeback = False

    # ------------------------------------------------------------------
    # hooks called by the node / port
    # ------------------------------------------------------------------

    def on_dispatch(self, op: Operation, state: str) -> None:
        """Classify a data operation as it leaves the local queue."""
        if op.kind not in (READ, WRITE):
            return
        stats = self.node.metrics.cache
        if self._is_resident(op.obj, state):
            stats.hits += 1
            return
        stats.misses += 1
        if op.obj in self.evicted:
            stats.capacity_misses += 1
            if op.kind == READ:
                self.node.metrics.mark_capacity_miss(op.op_id)

    def after_op(self, op: Operation) -> None:
        """Account a completed local operation and enforce capacity."""
        if op.kind == EJECT:
            self._evicting.discard(op.obj)
            self.evicted.add(op.obj)
            return
        if op.kind not in (READ, WRITE):
            return
        self.policy.on_touch(op.obj, self._refetch_hint(op.obj))
        # the eviction has been paid for (or absorbed by the protocol's
        # own dynamics): later misses on this object are not capacity.
        self.evicted.discard(op.obj)
        if self.overlay:
            self._resident.add(op.obj)
            self._enforce_overlay()
            return
        node = self.node
        if node.node_id == node.cluster.sequencer_id:
            return  # home copies are the memory of record: never evict
        if node.node_id in node.cluster.quarantined:
            return  # stale gated replicas: nothing worth evicting
        self._enforce(op.op_id)

    def is_evicted(self, obj: int) -> bool:
        """Recovery-side query: must resync skip this object?

        Only meaningful in residency (star) mode — overlay caches never
        remove load-bearing quorum replicas — and never for the current
        sequencer, whose copies are home copies regardless of history.
        """
        if self.overlay:
            return False
        if self.node.node_id == self.node.cluster.sequencer_id:
            return False
        return obj in self.evicted

    def resident_count(self) -> int:
        """Resident copies right now (for banners and tests)."""
        if self.overlay:
            return len(self._resident)
        return sum(
            1 for port in self.node.ports.values()
            if port.process.state not in _NON_RESIDENT
        )

    # ------------------------------------------------------------------
    # enforcement
    # ------------------------------------------------------------------

    def _is_resident(self, obj: int, state: str) -> bool:
        if self.overlay:
            return obj in self._resident
        return state not in _NON_RESIDENT

    def _refetch_hint(self, obj: int) -> float:
        """Estimated cost to restore this copy if evicted now."""
        cost = self.S + 2.0  # snapshot / majority-read refetch
        if not self.overlay:
            state = self.node.ports[obj].process.state
            if state in self.dirty_states:
                cost += self.S + 1.0  # plus the write-back to get out
        return cost

    def _enforce(self, trigger_id: int) -> None:
        node = self.node
        states = {obj: port.process.state for obj, port in node.ports.items()}
        resident = [obj for obj in sorted(states)
                    if states[obj] not in _NON_RESIDENT]
        pending = sum(1 for obj in resident if obj in self._evicting)
        excess = len(resident) - pending - self.config.capacity
        if excess <= 0:
            return
        candidates = [obj for obj in resident
                      if states[obj] not in self.pinned
                      and obj not in self._evicting]
        while excess > 0 and candidates:
            victim = self.policy.pick_victim(candidates)
            candidates.remove(victim)
            self._evict(victim, states[victim], trigger_id)
            excess -= 1

    def _evict(self, victim: int, state: str, trigger_id: int) -> None:
        stats = self.node.metrics.cache
        stats.evictions += 1
        dirty = state in self.dirty_states
        if dirty:
            stats.writebacks += 1
        if self.sabotage_writeback and dirty:
            # mutation hook: the eviction's write-back flushes a stale
            # garbage value, losing the dirty copy's writes.  The
            # consistency monitor must catch the resulting reads as
            # structured violations (the protocol itself stays live).
            self.node.ports[victim].process.value = -1
        self._evicting.add(victim)
        self.node.request_cache_eject(victim, trigger_id)

    def _enforce_overlay(self) -> None:
        stats = self.node.metrics.cache
        while len(self._resident) > self.config.capacity:
            victim = self.policy.pick_victim(sorted(self._resident))
            self._resident.discard(victim)
            self.evicted.add(victim)
            stats.evictions += 1
