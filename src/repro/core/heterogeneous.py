"""Heterogeneous (non-homogeneous) disturbance — generalizing Section 4.2.

The paper introduces per-client probabilities ``sigma_k`` / ``xi_k`` but
immediately specializes "to simplify the presentation" to the homogeneous
case ``sigma_k = sigma``.  The chain framework does not need that
simplification: giving every disturbing client its own singleton actor
group evaluates the **exact** steady-state cost for arbitrary per-client
rates.

This module provides that generalization, plus the heterogeneous form of
the paper's eqn. (3) for Write-Through (the product-form argument of
Section 4.3 goes through per client):

``acc = (p r / (1 - A) + sum_k sigma_k p / (p + sigma_k)) (S+2) + p (P+N)``

with ``A = sum_k sigma_k`` and ``r = 1 - p - A``.
"""

from __future__ import annotations

from typing import Sequence

from .chains import GroupSpec, group_chain
from .kernels import Env, get_kernel
from .markov import solve_chain

__all__ = [
    "heterogeneous_markov_acc",
    "acc_write_through_rd_hetero",
    "validate_rates",
]


def validate_rates(p: float, rates: Sequence[float], kind: str) -> None:
    """Check the heterogeneous probability simplex ``p + sum(rates) <= 1``."""
    rates = list(rates)
    if any(r < 0 for r in rates):
        raise ValueError(f"negative {kind} rate in {rates}")
    total = p + sum(rates)
    if total > 1.0 + 1e-12:
        raise ValueError(
            f"infeasible heterogeneous workload: p + sum({kind}) = "
            f"{total:.6f} > 1"
        )


def heterogeneous_markov_acc(
    protocol: str,
    N: int,
    p: float,
    S: float,
    P: float,
    read_rates: Sequence[float] = (),
    write_rates: Sequence[float] = (),
) -> float:
    """Exact ``acc`` with per-client disturbance rates.

    Args:
        protocol: registry name.
        N: number of clients.
        p: activity-center write probability (the center reads with the
            remaining probability).
        S, P: cost parameters.
        read_rates: per-disturbing-client read probabilities (``sigma_k``).
        write_rates: per-disturbing-client write probabilities (``xi_k``).
            A client may both read and write by appearing in both lists
            (aligned by index; pad with zeros).

    Returns:
        the steady-state average communication cost per operation.
    """
    reads = list(read_rates)
    writes = list(write_rates)
    n_dist = max(len(reads), len(writes))
    reads += [0.0] * (n_dist - len(reads))
    writes += [0.0] * (n_dist - len(writes))
    if n_dist > N - 1:
        raise ValueError(f"{n_dist} disturbers but only {N - 1} other clients")
    validate_rates(p, [r + w for r, w in zip(reads, writes)], "disturbance")

    r_ac = 1.0 - p - sum(reads) - sum(writes)
    kernel = get_kernel(protocol)
    env = Env(S=S, P=P, N=N)
    groups = [GroupSpec("ac", 1, max(r_ac, 0.0), p)] + [
        GroupSpec(f"d{k}", 1, reads[k], writes[k]) for k in range(n_dist)
    ]
    return solve_chain(*group_chain(kernel, groups, env))


def acc_write_through_rd_hetero(
    p: float, sigmas: Sequence[float], S: float, P: float, N: int
) -> float:
    """Heterogeneous read-disturbance closed form for Write-Through.

    Reduces to the paper's eqn. (3) when all ``sigma_k`` are equal; equals
    :func:`heterogeneous_markov_acc` in general (property-tested).
    """
    sigmas = [float(s) for s in sigmas]
    validate_rates(p, sigmas, "sigma")
    A = sum(sigmas)
    r = 1.0 - p - A
    if 1.0 - A > 0:
        term = p * r / (1.0 - A)
    else:
        term = 0.0
    for s in sigmas:
        if p + s > 0:
            term += s * p / (p + s)
    return term * (S + 2.0) + p * (P + N)
