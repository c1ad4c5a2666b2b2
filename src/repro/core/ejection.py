"""Eject operations in the analytic model (paper Section 6 outlook).

The paper's conclusion proposes extending the model with "other types of
operations (eject operation ...) and the influence of some distributed
system parameters, such as the size of the free memory pool".  This module
adds the eject operation to the steady-state analysis: every acting client
ejects its replica with a per-slot probability (the stationary eviction
pressure a bounded replica cache induces), and the chain evaluation yields
the exact cost including the extra misses and write-backs ejects cause.

The sample space of the *ejecting read disturbance* workload is

* activity center: read ``1 - p - e_ac - a (sigma + e_d)``, write ``p``,
  eject ``e_ac``;
* each of the ``a`` disturbers: read ``sigma``, eject ``e_d``;

and analogously for the write-disturbance deviation with ``xi``.  A
Write-Through closed form is derived for validation (the same
last-relevant-event argument as the paper's Section 4.3, with ejects
acting as self-invalidations).
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from .chains import GroupSpec
from .kernels import Env, get_kernel
from .markov import solve_chain
from .parameters import Deviation, WorkloadParams

__all__ = ["ejecting_markov_acc", "acc_write_through_rd_eject"]


def ejecting_markov_acc(
    protocol: str,
    params: WorkloadParams,
    deviation: Deviation = Deviation.READ,
    eject_ac: float = 0.0,
    eject_dist: float = 0.0,
) -> float:
    """Exact ``acc`` with eject events mixed into the trial process.

    Args:
        protocol: registry name (paper protocols and extensions).
        params: workload parameters; ``params.p`` is the write probability
            and ``params.sigma``/``params.xi`` the disturbance rates.
        deviation: READ or WRITE disturbance (MULTIPLE_ACTIVITY_CENTERS is
            supported with ``eject_ac`` applying to every center).
        eject_ac: per-slot eject probability of the activity center(s).
        eject_dist: per-slot eject probability of each disturber.

    Note the feasibility constraint
    ``p + e_ac + a (disturb + e_d) <= 1``; the activity-center read rate
    absorbs the remainder.
    """
    kernel = get_kernel(protocol)
    env = Env(S=params.S, P=params.P, N=params.N)
    if deviation is Deviation.MULTIPLE_ACTIVITY_CENTERS:
        beta = params.beta
        read = (1.0 - params.p) / beta - eject_ac
        if read < -1e-12:
            raise ValueError("eject rate exceeds the centers' read budget")
        groups = [GroupSpec("centers", beta, max(read, 0.0),
                            params.p / beta, eject_ac)]
    else:
        disturb = params.sigma if deviation is Deviation.READ else params.xi
        r = 1.0 - params.p - eject_ac - params.a * (disturb + eject_dist)
        if r < -1e-12:
            raise ValueError(
                "infeasible ejecting workload: rates exceed the simplex"
            )
        groups = [GroupSpec("ac", 1, max(r, 0.0), params.p, eject_ac)]
        if params.a:
            if deviation is Deviation.READ:
                groups.append(
                    GroupSpec("dist", params.a, disturb, 0.0, eject_dist)
                )
            else:
                groups.append(
                    GroupSpec("dist", params.a, 0.0, disturb, eject_dist)
                )
    initial = kernel.initial_state(tuple(g.size for g in groups))
    member_states = kernel.member_states

    def transitions(state: Hashable) -> List[Tuple[float, float, Hashable]]:
        out: List[Tuple[float, float, Hashable]] = []
        for g, spec in enumerate(groups):
            counts = state[0][g]
            for si, s in enumerate(member_states):
                if not counts[si]:
                    continue
                for kind, rate in (("read", spec.read_rate),
                                   ("write", spec.write_rate),
                                   ("eject", spec.eject_rate)):
                    if rate <= 0.0:
                        continue
                    cost, nxt = kernel.op(state, g, s, kind, env)
                    out.append((counts[si] * rate, cost, nxt))
        return out

    return solve_chain(initial, transitions)


def acc_write_through_rd_eject(
    p: float, sigma: float, a: int, e_ac: float, e_d: float,
    S: float, P: float, N: int,
) -> float:
    """Write-Through closed form with ejects, read disturbance.

    An eject acts exactly like the center's self-invalidating write minus
    the write-through traffic, so the last-relevant-event argument gives:

    * the center's copy is valid iff the last of {Ar, Aw, E_ac} was Ar;
    * disturber ``i``'s copy is valid iff the last of {Or_i, Aw, E_i} was
      its own read (other centers' ejects do not touch it);
    * ejects themselves cost nothing in Write-Through.
    """
    r = 1.0 - p - e_ac - a * (sigma + e_d)
    if r < -1e-12:
        raise ValueError("infeasible ejecting workload")
    r = max(r, 0.0)
    acc = 0.0
    denom_ac = r + p + e_ac
    if denom_ac > 0:
        acc += r * ((p + e_ac) / denom_ac) * (S + 2.0)
    denom_d = sigma + p + e_d
    if denom_d > 0:
        acc += a * sigma * ((p + e_d) / denom_d) * (S + 2.0)
    acc += p * (P + N)
    return acc
