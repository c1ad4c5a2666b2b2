"""Capacity-miss tests for the paper's finite "free memory pool" (Section 6).

The pool is modelled by bounded replica caches (``repro.sim.cache``):
each client holds at most ``capacity`` resident copies, evictions go
through the protocol's own eject operation, and their traffic is charged
to the data operation that forced them, so ``acc`` is the cost per data
operation.
"""

import pytest

from repro.core.parameters import WorkloadParams
from repro.protocols.registry import get_protocol
from repro.sim import CacheConfig, DSMSystem, RunConfig
from repro.workloads import read_disturbance_workload


class TestPooledSystem:
    def _working_set_walk(self, protocol, capacity, M=6):
        """Client 1 walks over M objects with a cache of `capacity`."""
        system = DSMSystem(protocol, N=2, M=M, S=100, P=30,
                           cache=CacheConfig(capacity, "lru"))
        for sweep in range(3):
            for obj in range(1, M + 1):
                system.submit(1, "read", obj=obj)
                system.settle()
        return system

    def test_capacity_enforced(self):
        system = self._working_set_walk("write_through", capacity=3)
        resident = sum(
            1 for obj in range(1, 7)
            if system.copy_state(1, obj) != "INVALID"
        )
        assert resident <= 3
        assert system.metrics.cache.evictions > 0
        system.check_coherence()

    def test_large_capacity_no_evictions(self):
        system = self._working_set_walk("write_through", capacity=6)
        assert system.metrics.cache.evictions == 0

    def test_thrashing_costs_more(self):
        """A cache smaller than the working set forces re-fetch misses."""
        tight = self._working_set_walk("write_through", capacity=2)
        roomy = self._working_set_walk("write_through", capacity=6)
        assert tight.metrics.average_cost() > roomy.metrics.average_cost()
        assert tight.metrics.cache.capacity_misses > 0
        assert roomy.metrics.cache.capacity_misses == 0

    @pytest.mark.parametrize("protocol", ["synapse", "berkeley", "dragon"])
    def test_pooled_workload_stays_coherent(self, protocol):
        params = WorkloadParams(N=3, p=0.3, a=2, sigma=0.15, S=50, P=10)
        wl = read_disturbance_workload(params, M=5)
        system = DSMSystem(protocol, N=3, M=5, S=50, P=10,
                           cache=CacheConfig(2, "lru"))
        system.run_workload(
            wl, RunConfig(ops=600, warmup=100, seed=9, mean_gap=10.0))
        system.check_coherence()
        pinned = get_protocol(protocol).owner_states
        for node in (1, 2, 3):
            unpinned_resident = sum(
                1 for obj in range(1, 6)
                if system.copy_state(node, obj) != "INVALID"
                and system.copy_state(node, obj) not in pinned
            )
            # pinned owner copies legitimately exceed the capacity (they
            # are the objects' backing store); the evictable residency
            # obeys it up to one in-flight install.
            assert unpinned_resident <= 3, (protocol, node)

    def test_sequencer_has_no_pool(self):
        """The sequencer is the objects' home: it never evicts a copy."""
        system = self._working_set_walk("write_through", capacity=1, M=4)
        assert system.metrics.cache.evictions > 0
        assert all(system.copy_state(3, obj) == "VALID"
                   for obj in range(1, 5))

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            DSMSystem("write_through", N=2, M=4, cache=CacheConfig(0))
