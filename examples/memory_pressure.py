#!/usr/bin/env python3
"""Memory pressure: the "size of the free memory pool" (paper Section 6).

Each client gets a bounded LRU replica cache.  As the cache shrinks below
the working set (M shared objects), evictions force write-backs and
re-fetch misses — the capacity-miss curve familiar from caches, here
measured in the paper's communication-cost units (``acc``: eviction
traffic is charged to the data operation that forced it) and compared
across protocols.

The analytic counterpart sweeps the stationary eviction pressure through
the eject-extended Markov chains.

Run:  python examples/memory_pressure.py
"""

from repro.core import Deviation, WorkloadParams
from repro.core.ejection import ejecting_markov_acc
from repro.sim import CacheConfig, DSMSystem, RunConfig
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=4, p=0.25, a=3, sigma=0.1, S=200.0, P=30.0)
M = 8
PROTOCOLS = ("write_through", "synapse", "berkeley")


def capacity_curve() -> None:
    print(f"Capacity sweep: M = {M} objects, cost per data operation")
    print(f"{'capacity':>9}" + "".join(f"{p:>16}" for p in PROTOCOLS))
    for capacity in (1, 2, 3, 4, 6, 8):
        row = f"{capacity:9d}"
        for proto in PROTOCOLS:
            system = DSMSystem(proto, N=PARAMS.N, M=M, S=PARAMS.S,
                               P=PARAMS.P, cache=CacheConfig(capacity, "lru"))
            workload = read_disturbance_workload(PARAMS, M=M)
            result = system.run_workload(workload, RunConfig(
                ops=3000, warmup=600, seed=11, mean_gap=10.0))
            system.check_coherence()
            row += f"{result.acc:16.2f}"
        print(row)
    print("\n(capacity >= M: no evictions; capacity 1: every object access")
    print(" evicts the previous replica — thrashing)")


def pressure_curve() -> None:
    print("\nAnalytic eviction-pressure sweep (exact Markov chains):")
    print(f"{'eject rate':>11}" + "".join(f"{p:>16}" for p in PROTOCOLS))
    for e in (0.0, 0.02, 0.05, 0.08):
        row = f"{e:11.2f}"
        for proto in PROTOCOLS:
            acc = ejecting_markov_acc(proto, PARAMS, Deviation.READ,
                                      eject_ac=e, eject_dist=e)
            per_data_op = acc / (1.0 - e - PARAMS.a * e)
            row += f"{per_data_op:16.2f}"
        print(row)
    print("\nSynapse pays S+1 write-backs for evicted DIRTY copies, so its")
    print("curve climbs faster than Write-Through's (whose ejects are free).")


def main() -> None:
    capacity_curve()
    pressure_curve()


if __name__ == "__main__":
    main()
