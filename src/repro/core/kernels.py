"""Atomic-operation semantics of the eight protocols on reduced global state.

The analytic model (Section 4.3) treats every operation as an atomic trial.
For each protocol this module defines exactly what one atomic read or write
by a given actor does to the *reduced* global state and what it costs.  The
reduction exploits the symmetry of the paper's workloads: actors fall into
groups of exchangeable members (the activity center; the ``a`` disturbing
clients; the ``beta`` activity centers), so the global state is

``state = (per-group member-state count vectors, home component)``

where the home component is the fixed sequencer's copy state for the
home-based protocols (``"V"``/``"I"``) or an "is the initial owner still the
owner" flag for the migrating-owner protocols.  Clients that never act
(``N - 1 - a`` of them) carry no state: every protocol's broadcast costs are
fixed-width (``N - 1`` or ``N``), so their copy states never influence cost.

Every kernel mirrors, constant for constant, the operational protocol in
:mod:`repro.protocols`; the integration tests enforce the equivalence by
comparing Markov-chain ``acc`` with simulated ``acc``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = [
    "Env",
    "StateView",
    "ProtocolKernel",
    "KERNELS",
    "get_kernel",
]


@dataclass(frozen=True)
class Env:
    """Cost/system parameters of a chain evaluation."""

    S: float
    P: float
    N: int


State = Tuple[Tuple[Tuple[int, ...], ...], Hashable]


class StateView:
    """Mutable working copy of a reduced state with bulk-update helpers."""

    def __init__(self, state: State, member_states: Tuple[str, ...]):
        self.groups: List[List[int]] = [list(c) for c in state[0]]
        self.home: Hashable = state[1]
        self._order: Dict[str, int] = {s: i for i, s in enumerate(member_states)}

    def freeze(self) -> State:
        """Back to the hashable representation."""
        return tuple(tuple(c) for c in self.groups), self.home

    # -- primitive updates ------------------------------------------------

    def move(self, g: int, frm: str, to: str, n: int = 1) -> None:
        """Move ``n`` members of group ``g`` from state ``frm`` to ``to``."""
        if frm == to or n == 0:
            return
        fi, ti = self._order[frm], self._order[to]
        if self.groups[g][fi] < n:
            raise ValueError(
                f"group {g} has {self.groups[g][fi]} members in {frm}, "
                f"cannot move {n}"
            )
        self.groups[g][fi] -= n
        self.groups[g][ti] += n

    def count(self, state: str, group: Optional[int] = None) -> int:
        """Members in ``state`` (in one group or across all groups)."""
        i = self._order[state]
        if group is not None:
            return self.groups[group][i]
        return sum(c[i] for c in self.groups)

    def set_all(self, to: str) -> None:
        """Collapse every member of every group into state ``to``.

        Used for "invalidate everybody" broadcasts; the actor's own state
        is re-established by the caller afterwards.
        """
        ti = self._order[to]
        for counts in self.groups:
            total = sum(counts)
            for i in range(len(counts)):
                counts[i] = 0
            counts[ti] = total

    def relabel_all(self, frm: str, to: str) -> None:
        """Move every member in ``frm`` (any group) to ``to``."""
        fi, ti = self._order[frm], self._order[to]
        for counts in self.groups:
            counts[ti] += counts[fi]
            counts[fi] = 0


class ProtocolKernel(abc.ABC):
    """Atomic semantics of one protocol for the analytic chains."""

    #: registry name, matching :mod:`repro.protocols.registry`
    name: str
    #: ordering of the member-state count vectors
    member_states: Tuple[str, ...]
    #: state a client copy starts in
    initial_member: str
    #: initial home component
    initial_home: Hashable = None

    def initial_state(self, group_sizes: Tuple[int, ...]) -> State:
        """All members in the protocol's start state."""
        start = self.member_states.index(self.initial_member)
        groups = []
        for n in group_sizes:
            counts = [0] * len(self.member_states)
            counts[start] = n
            groups.append(tuple(counts))
        return tuple(groups), self.initial_home

    def op(self, state: State, g: int, s: str, kind: str, env: Env
           ) -> Tuple[float, State]:
        """Execute one atomic ``kind`` by a member of group ``g`` in state
        ``s``; return ``(communication cost, next state)``."""
        view = StateView(state, self.member_states)
        if kind == "read":
            cost = self._read(view, g, s, env)
        elif kind == "write":
            cost = self._write(view, g, s, env)
        elif kind == "eject":
            cost = self._eject(view, g, s, env)
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        return cost, view.freeze()

    def home_op(self, state: State, kind: str, env: Env
                ) -> Tuple[float, State]:
        """Execute one atomic operation by the *home node* (node ``N+1``).

        These are the paper's sequencer-initiated traces (tr5/tr6 for
        Write-Through) — needed when the activity center is placed at the
        home node (the placement study) rather than at a client.
        """
        view = StateView(state, self.member_states)
        if kind == "read":
            cost = self._home_read(view, env)
        elif kind == "write":
            cost = self._home_write(view, env)
        else:
            raise ValueError(f"unknown home operation kind {kind!r}")
        return cost, view.freeze()

    @abc.abstractmethod
    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        """Apply a read by a ``(g, s)`` member; mutate ``v``; return cost."""

    @abc.abstractmethod
    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        """Apply a write by a ``(g, s)`` member; mutate ``v``; return cost."""

    def _eject(self, v: StateView, g: int, s: str, env: Env) -> float:
        """Apply an eject (Section 6 extension).

        The default covers protocols with no directories to maintain: a
        resident copy is dropped silently; owner copies are pinned.
        Protocol kernels with directories/write-back override this.
        """
        if s in ("V", "SC", "S"):
            v.move(g, s, "I")
        return 0.0

    def _home_read(self, v: StateView, env: Env) -> float:
        """Home-node read; default: the home copy is always current."""
        return 0.0

    def _home_write(self, v: StateView, env: Env) -> float:
        """Home-node write; protocols must override."""
        raise NotImplementedError(
            f"{self.name}: home writes not modeled"
        )


# ---------------------------------------------------------------------------
# Write-Through family
# ---------------------------------------------------------------------------


class WriteThroughKernel(ProtocolKernel):
    """Write-Through (paper Section 4.1): writer self-invalidates."""

    name = "write_through"
    member_states = ("I", "V")
    initial_member = "I"

    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "V":
            return 0.0  # tr1
        v.move(g, "I", "V")
        return env.S + 2.0  # tr2

    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        v.set_all("I")  # W-INV to the other N-1 clients; writer drops too
        return env.P + env.N  # tr3 / tr4

    def _home_write(self, v: StateView, env: Env) -> float:
        v.set_all("I")  # trace tr6: W-INV to all N clients
        return float(env.N)


class WriteThroughVKernel(ProtocolKernel):
    """Write-Through-V: two-phase write keeps the writer's copy valid."""

    name = "write_through_v"
    member_states = ("I", "V")
    initial_member = "I"

    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "V":
            return 0.0
        v.move(g, "I", "V")
        return env.S + 2.0

    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        cost = env.P + env.N + 2.0 if s == "V" else env.P + env.S + env.N + 2.0
        v.set_all("I")
        v.move(g, "I", "V")  # the writer keeps a valid copy
        return cost

    def _eject(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "V":
            v.move(g, "V", "I")
            return 1.0  # announce: the sequencer's directory must be exact
        return 0.0

    def _home_write(self, v: StateView, env: Env) -> float:
        v.set_all("I")  # the sequencer applies locally, invalidates all N
        return float(env.N)


# ---------------------------------------------------------------------------
# Home-based ownership protocols
# ---------------------------------------------------------------------------


class _HomeOwnerKernel(ProtocolKernel):
    """Shared semantics of Write-Once, Synapse and Illinois.

    The ``home`` component is the sequencer's copy state, ``"V"`` or
    ``"I"`` (a member holds the only ``"D"`` copy).  Mirrors
    :mod:`repro.protocols.home`.
    """

    initial_member = "I"
    initial_home = "V"
    #: the state a recalled owner keeps (the handler's ``RECALLED_STATE``)
    recalled: str = "V"
    #: member states whose eject sends an ``EJ`` notice (cost 1)
    eject_notice: Tuple[str, ...] = ()

    def _recall(self, v: StateView) -> None:
        """The dirty owner writes back; the home copy is current again."""
        v.relabel_all("D", self.recalled)
        v.home = "V"

    def _take_ownership(self, v: StateView, g: int) -> None:
        """The ``(g, "I")`` writer becomes the only (DIRTY) copy."""
        v.set_all("I")
        v.move(g, "I", "D")
        v.home = "I"

    def _eject(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "D":
            v.move(g, "D", "I")
            v.home = "V"
            return env.S + 1.0  # write the only current copy back home
        if s == "I":
            return 0.0
        v.move(g, s, "I")
        return 1.0 if s in self.eject_notice else 0.0

    def _home_read(self, v: StateView, env: Env) -> float:
        if v.home == "V":
            return 0.0
        self._recall(v)
        return env.S + 2.0

    def _home_write(self, v: StateView, env: Env) -> float:
        cost = 0.0
        if v.home == "I":
            cost += env.S + 2.0  # recall first
            v.home = "V"
        v.set_all("I")
        return cost + env.N


class WriteOnceKernel(_HomeOwnerKernel):
    """Write-Once: write-through once, then local DIRTY writes."""

    name = "write_once"
    member_states = ("I", "V", "R", "D")
    eject_notice = ("R",)  # clear the reserved-client entry

    @staticmethod
    def _downgrade(v: StateView) -> float:
        """A served read downgrades a RESERVED copy (+1 DGR token)."""
        dgr = 1.0 if v.count("R") else 0.0
        v.relabel_all("R", "V")
        return dgr

    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s != "I":
            return 0.0
        if v.home == "V":
            dgr = self._downgrade(v)
            v.move(g, "I", "V")
            return env.S + 2.0 + dgr
        # recall from the dirty owner, who supplies and stays VALID.
        self._recall(v)
        v.move(g, "I", "V")
        return 2.0 * env.S + 4.0

    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "D":
            return 0.0
        if s == "R":
            v.move(g, "R", "D")
            v.home = "I"
            return 2.0  # D-NOT / D-GNT handshake
        if s == "V":
            # write-through; the sequencer stays current.
            v.set_all("I")
            v.move(g, "I", "R")
            return env.P + env.N
        # INVALID: read-with-intent-to-modify.
        cost = env.S + env.N + 1.0 if v.home == "V" else 2.0 * env.S + env.N + 3.0
        self._take_ownership(v, g)
        return cost

    def _home_read(self, v: StateView, env: Env) -> float:
        if v.home == "V":
            return self._downgrade(v)
        return super()._home_read(v, env)


class SynapseKernel(_HomeOwnerKernel):
    """Synapse: data-carrying ownership writes; write-back + retry misses."""

    name = "synapse"
    member_states = ("I", "V", "D")
    recalled = "I"  # the recalled owner SELF-INVALIDATES

    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s != "I":
            return 0.0
        if v.home == "V":
            v.move(g, "I", "V")
            return env.S + 2.0
        # recall: the owner writes back and self-invalidates, then retry.
        self._recall(v)
        v.move(g, "I", "V")
        return 2.0 * env.S + 6.0

    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "D":
            return 0.0
        cost = (
            env.S + env.N + 1.0 if v.home == "V" else 2.0 * env.S + env.N + 5.0
        )
        self._take_ownership(v, g)
        return cost


class IllinoisKernel(_HomeOwnerKernel):
    """Illinois: data-less upgrades; direct remote-dirty service."""

    name = "illinois"
    member_states = ("I", "V", "D")
    eject_notice = ("V",)  # keep the validity directory exact

    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s != "I":
            return 0.0
        if v.home == "V":
            v.move(g, "I", "V")
            return env.S + 2.0
        # the owner supplies the copy and stays VALID; no retry.
        self._recall(v)
        v.move(g, "I", "V")
        return 2.0 * env.S + 4.0

    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "D":
            return 0.0
        if s == "V":
            cost = env.N + 1.0  # upgrade without data (home is VALID here)
        elif v.home == "V":
            cost = env.S + env.N + 1.0
        else:
            cost = 2.0 * env.S + env.N + 3.0
        self._take_ownership(v, g)
        return cost


# ---------------------------------------------------------------------------
# Migrating-owner protocols
# ---------------------------------------------------------------------------


class BerkeleyKernel(ProtocolKernel):
    """Berkeley: ownership migrates to every writer.

    The ``home`` component is the home node's own copy state: ``"D"`` or
    ``"SD"`` while node ``N + 1`` owns the object (it starts as the
    ``DIRTY`` owner), ``"V"``/``"I"`` once ownership moved to a client (the
    transfer broadcast invalidates the home like everyone else).
    """

    name = "berkeley"
    member_states = ("I", "V", "D", "SD")
    initial_member = "I"
    initial_home = "D"

    @staticmethod
    def _home_is_owner(v: StateView) -> bool:
        return v.home in ("D", "SD")

    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s != "I":
            return 0.0
        if self._home_is_owner(v):
            v.home = "SD"  # the serving home owner downgrades
        else:
            v.relabel_all("D", "SD")  # the serving member owner downgrades
        v.move(g, "I", "V")
        return env.S + 2.0

    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "D":
            return 0.0
        if s == "SD":
            v.set_all("I")
            v.move(g, "I", "D")
            v.home = "I"  # the broadcast invalidates the home copy too
            return float(env.N)
        cost = env.N + 1.0 if s == "V" else env.S + env.N + 1.0
        v.set_all("I")
        v.move(g, "I", "D")
        v.home = "I"  # old owner (possibly the home) ends INVALID
        return cost

    def _eject(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s in ("D", "SD"):
            return 0.0  # the owner copy is the backing store: pinned
        if s == "V":
            v.move(g, "V", "I")
            return 1.0  # announce departure to the owner's directory
        return 0.0

    def _home_read(self, v: StateView, env: Env) -> float:
        if v.home != "I":
            return 0.0
        v.relabel_all("D", "SD")  # fetched from the member owner
        v.home = "V"
        return env.S + 2.0

    def _home_write(self, v: StateView, env: Env) -> float:
        if v.home == "D":
            return 0.0
        if v.home == "SD":
            v.set_all("I")
            v.home = "D"
            return float(env.N)
        # a client owns the object: take ownership back
        cost = env.N + 1.0 if v.home == "V" else env.S + env.N + 1.0
        v.set_all("I")
        v.home = "D"
        return cost


class DragonKernel(ProtocolKernel):
    """Dragon: update protocol, broadcast duty migrates to the writer.

    The ``I`` member state exists only for the eject extension; the
    paper's Dragon has permanently resident copies.
    """

    name = "dragon"
    member_states = ("SC", "SD", "I")
    initial_member = "SC"
    initial_home = True

    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "I":
            v.move(g, "I", "SC")
            return env.S + 2.0  # re-fetch from the owner
        return 0.0

    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        cost = env.N * (env.P + 1.0)
        if s == "I":
            # re-fetch first, then the usual broadcast.
            cost += env.S + 2.0
            v.move(g, "I", "SC")
            s = "SC"
        v.relabel_all("SD", "SC")
        v.move(g, "SC", "SD")
        v.home = False
        return cost

    def _eject(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "SC":
            v.move(g, "SC", "I")
        return 0.0  # SHARED-DIRTY is the backing store: pinned

    def _home_write(self, v: StateView, env: Env) -> float:
        v.relabel_all("SD", "SC")
        v.home = True  # the home takes the SHARED-DIRTY role back
        return env.N * (env.P + 1.0)


class FireflyKernel(ProtocolKernel):
    """Firefly: update protocol through the fixed sequencer.

    The ``I`` member state exists only for the eject extension: an
    ejected copy announces its departure (one token) and the sequencer
    drops it from the update fan-out until it re-fetches or writes, so
    the broadcast width is state-dependent — ``N - 1`` minus the tracked
    departed copies (idle untracked clients never eject and always stay
    in the fan-out).
    """

    name = "firefly"
    member_states = ("S", "I")
    initial_member = "S"

    def _fanout_savings(self, v: StateView, s: str, env: Env) -> float:
        departed_others = v.count("I") - (1 if s == "I" else 0)
        return departed_others * (env.P + 1.0)

    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "I":
            v.move(g, "I", "S")
            return env.S + 2.0  # re-fetch from the sequencer
        return 0.0

    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        savings = self._fanout_savings(v, s, env)
        if s == "I":
            # the ACK carries the whole copy back (S+1 instead of 1).
            v.move(g, "I", "S")
            return env.N * (env.P + 1.0) + env.S + 1.0 - savings
        return env.N * (env.P + 1.0) + 1.0 - savings

    def _eject(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "S":
            v.move(g, "S", "I")
            return 1.0  # EJ departure notice keeps the fan-out exact
        return 0.0

    def _home_write(self, v: StateView, env: Env) -> float:
        # broadcast to all N clients minus the departed tracked ones
        return env.N * (env.P + 1.0) - v.count("I") * (env.P + 1.0)


class DirectoryWriteThroughKernel(ProtocolKernel):
    """Extension: Write-Through with exact-copyset multicast invalidation.

    Identical to Write-Through except the write's invalidation fan-out is
    the number of *valid* copies other than the writer's — a
    state-dependent cost.  Idle clients never acquire copies, so the
    reduced state already carries the exact copyset size.
    """

    name = "write_through_dir"
    member_states = ("I", "V")
    initial_member = "I"

    def _read(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "V":
            return 0.0
        v.move(g, "I", "V")
        return env.S + 2.0

    def _write(self, v: StateView, g: int, s: str, env: Env) -> float:
        copyset_others = v.count("V") - (1 if s == "V" else 0)
        v.set_all("I")
        return env.P + 1.0 + copyset_others

    def _eject(self, v: StateView, g: int, s: str, env: Env) -> float:
        if s == "V":
            v.move(g, "V", "I")
            return 1.0  # keep the copyset exact
        return 0.0

    def _home_write(self, v: StateView, env: Env) -> float:
        copyset = v.count("V")
        v.set_all("I")
        return float(copyset)  # multicast to the exact copyset


#: kernels for the paper's eight protocols, in the paper's order.
KERNELS: Dict[str, ProtocolKernel] = {
    k.name: k
    for k in (
        WriteThroughKernel(),
        WriteThroughVKernel(),
        WriteOnceKernel(),
        SynapseKernel(),
        IllinoisKernel(),
        BerkeleyKernel(),
        DragonKernel(),
        FireflyKernel(),
    )
}

#: kernels for the extension protocols beyond the paper's eight.
EXTENSION_KERNELS: Dict[str, ProtocolKernel] = {
    k.name: k for k in (DirectoryWriteThroughKernel(),)
}


def get_kernel(name: str) -> ProtocolKernel:
    """Kernel lookup by registry name (paper protocols, then extensions).

    Raises:
        KeyError: listing the known kernels.
    """
    if name in KERNELS:
        return KERNELS[name]
    if name in EXTENSION_KERNELS:
        return EXTENSION_KERNELS[name]
    known = list(KERNELS) + list(EXTENSION_KERNELS)
    raise KeyError(f"unknown kernel {name!r}; known: {', '.join(known)}")
