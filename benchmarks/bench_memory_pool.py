"""Free-memory-pool benchmark: capacity vs cost (paper Section 6 outlook).

"We consider its modifications in order to include other types of
operations (eject operation ...) and the influence of some distributed
system parameters, such as the size of the free memory pool."

Two views of the question:

* **simulation** — clients with a bounded LRU replica cache (the finite
  pool) run a multi-object workload; as the cache shrinks below the working
  set, evictions force write-backs and re-fetch misses and ``acc`` — the
  cost per data operation, since eviction traffic is charged to the data
  operation that forced it — climbs (the classic capacity-miss curve);
* **analysis** — the eject-extended Markov chains sweep the stationary
  eviction pressure; the analytic Write-Through closed form with ejects is
  cross-checked against the chain.
"""


from repro.core.ejection import ejecting_markov_acc
from repro.core.parameters import Deviation, WorkloadParams
from repro.sim import CacheConfig, DSMSystem, RunConfig
from repro.workloads import read_disturbance_workload

from .conftest import emit

PARAMS = WorkloadParams(N=4, p=0.25, a=3, sigma=0.1, S=100.0, P=30.0)
M = 8


def run_capacity_sweep():
    rows = []
    for capacity in (1, 2, 4, 6, 8):
        system = DSMSystem("write_through", N=PARAMS.N, M=M, S=PARAMS.S,
                           P=PARAMS.P, cache=CacheConfig(capacity, "lru"))
        workload = read_disturbance_workload(PARAMS, M=M)
        result = system.run_workload(
            workload, RunConfig(ops=4000, warmup=800, seed=3,
                                mean_gap=10.0))
        system.check_coherence()
        rows.append((capacity, result.acc, result.metrics.cache.evictions))
    return rows


def test_capacity_miss_curve(benchmark, results_dir):
    rows = benchmark.pedantic(run_capacity_sweep, rounds=1, iterations=1)
    lines = ["replica-cache capacity sweep (write_through, M=8 objects, lru)",
             f"{'capacity':>9} {'cost/data-op':>14} {'evictions':>10}"]
    for cap, rate, ev in rows:
        lines.append(f"{cap:9d} {rate:14.3f} {ev:10d}")
    emit(results_dir, "memory_pool_capacity.txt", "\n".join(lines))
    # the capacity-miss curve: shrinking the cache can only cost more
    rates = [rate for _c, rate, _e in rows]
    assert rates[0] >= rates[-1]
    assert rates[0] > rates[-1] * 1.05  # thrashing is actually visible
    # a cache covering the whole working set evicts nothing
    assert rows[-1][2] == 0


def run_pressure_sweep():
    rows = []
    for e in (0.0, 0.02, 0.04, 0.06, 0.08):
        per_proto = {}
        for proto in ("write_through", "synapse", "berkeley", "dragon"):
            acc = ejecting_markov_acc(proto, PARAMS, Deviation.READ,
                                      eject_ac=e, eject_dist=e)
            per_proto[proto] = acc / (1.0 - e - PARAMS.a * e)
        rows.append((e, per_proto))
    return rows


def test_analytic_eviction_pressure(benchmark, results_dir):
    rows = benchmark.pedantic(run_pressure_sweep, rounds=1, iterations=1)
    protos = list(rows[0][1])
    lines = ["analytic eviction-pressure sweep (cost per data op)",
             f"{'e':>6} " + "".join(f"{p:>16}" for p in protos)]
    for e, accs in rows:
        lines.append(f"{e:6.2f} "
                     + "".join(f"{accs[p]:16.2f}" for p in protos))
    emit(results_dir, "memory_pool_pressure.txt", "\n".join(lines))
    for proto in protos:
        series = [accs[proto] for _e, accs in rows]
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:])), proto
    # dirty-copy protocols pay write-backs on eviction: under pressure
    # Synapse's eject bill exceeds Write-Through's (whose ejects are free)
    base_gap = rows[0][1]["synapse"] - rows[0][1]["write_through"]
    hi_gap = rows[-1][1]["synapse"] - rows[-1][1]["write_through"]
    assert hi_gap > base_gap
