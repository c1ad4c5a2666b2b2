"""Tests for SC-ABD, the sequencer-less majority-quorum extension.

SC-ABD has no analytic kernel (it is not a star protocol), so instead of
``assert_equivalent`` the scripted runs are checked against the protocol's
deterministic fault-free closed forms — read ``q * (S + 2)``, write
``q * (P + 4)`` with ``q = m - 1`` inside the core quorum and ``m``
outside — and the stochastic runs against
:func:`repro.core.acc.analytical_acc`.
"""

import pytest

from repro.core import Deviation, WorkloadParams, analytical_acc
from repro.core.closed_forms import _quorum_fanout
from repro.protocols.sc_abd import (
    QUORUM_MAX_ATTEMPTS,
    core_quorum,
    majority,
    quorum_fanout,
)
from repro.sim import CrashWindow, DSMSystem, FaultPlan, RunConfig
from repro.sim.partition import PartitionPlan, isolate
from repro.validation import compare_cell

from .util import P_DEFAULT, S_DEFAULT, run_scripted

READ_COST = S_DEFAULT + 2.0   # q legs: Q-RD (1) + Q-RR (S+1)
WRITE_COST = P_DEFAULT + 4.0  # q legs: Q-TS + Q-TR (2) + Q-UPD (P+1) + Q-ACK


def fanout(node, N):
    return quorum_fanout(node, N + 1)


class TestQuorumGeometry:
    def test_majority_sizes(self):
        assert majority(5) == 3
        assert majority(6) == 4
        assert majority(3) == 2

    def test_core_is_lowest_numbered_majority(self):
        assert core_quorum((1, 2, 3, 4, 5)) == (1, 2, 3)
        assert core_quorum((1, 2, 3, 4, 5, 6)) == (1, 2, 3, 4)

    def test_closed_form_fanout_pins_protocol_fanout(self):
        """``repro.core`` duplicates the fan-out to stay import-cycle
        free; this test pins the two definitions together."""
        for N in range(2, 10):
            for node in range(1, N + 2):
                assert _quorum_fanout(node, N) == quorum_fanout(node, N + 1)


class TestScriptedCosts:
    def test_costs_match_closed_form_n4(self):
        # n = 5 nodes, m = 3, core {1, 2, 3}: q = 2 inside, 3 outside.
        ops = [(1, "write"), (1, "read"), (4, "read"),
               (5, "write"), (2, "read"), (3, "write")]
        _system, costs = run_scripted("sc_abd", 4, ops)
        assert costs == [
            2 * WRITE_COST, 2 * READ_COST, 3 * READ_COST,
            3 * WRITE_COST, 2 * READ_COST, 2 * WRITE_COST,
        ]

    def test_costs_match_closed_form_n5(self):
        # n = 6 nodes, m = 4, core {1..4}: q = 3 inside, 4 outside.
        ops = [(1, "write"), (5, "read"), (6, "write"), (4, "read")]
        _system, costs = run_scripted("sc_abd", 5, ops)
        assert costs == [
            3 * WRITE_COST, 4 * READ_COST, 4 * WRITE_COST, 3 * READ_COST,
        ]

    def test_every_node_pays_its_fanout(self):
        for N in (2, 3, 4, 7):
            ops = [(node, "read") for node in range(1, N + 2)]
            _system, costs = run_scripted("sc_abd", N, ops)
            assert costs == [fanout(node, N) * READ_COST
                             for node in range(1, N + 2)]

    def test_coherent_after_settling(self):
        system, _ = run_scripted(
            "sc_abd", 4, [(1, "write"), (5, "read"), (2, "write")])
        system.check_coherence()


class TestTimestamps:
    def test_write_installs_at_core_with_minted_timestamp(self):
        system = DSMSystem("sc_abd", N=4)
        system.submit(1, "write", params=7)
        system.settle()
        for node in (1, 2, 3):
            proc = system.nodes[node].process_for(1)
            assert proc.ts == (1, 1) and proc.value == 7
        for node in (4, 5):
            assert system.nodes[node].process_for(1).ts == (0, 0)
        assert system.authoritative_value(1) == 7

    def test_later_write_dominates(self):
        system = DSMSystem("sc_abd", N=4)
        system.submit(1, "write", params=7)
        system.settle()
        system.submit(4, "write", params=9)
        system.settle()
        assert system.nodes[2].process_for(1).ts == (2, 4)
        assert system.authoritative_value(1) == 9

    def test_reads_see_the_latest_completed_write(self):
        system = DSMSystem("sc_abd", N=4)
        system.submit(3, "write", params=11)
        system.settle()
        op = system.submit(5, "read")
        system.settle()
        assert op.result == 11

    def test_eject_is_refused_for_free(self):
        # a quorum replica is load-bearing: ejects complete as no-ops.
        system = DSMSystem("sc_abd", N=4)
        system.submit(1, "write", params=3)
        system.settle()
        op = system.submit(2, "eject")
        system.settle()
        assert system.metrics.op(op.op_id).cost == 0.0
        assert system.nodes[2].process_for(1).value == 3


class TestReadRepair:
    def test_stale_core_member_is_repaired(self):
        system = DSMSystem("sc_abd", N=4)
        system.submit(1, "write", params=42)
        system.settle()
        # simulate a member whose installs were lost (as a partition
        # would leave it): roll node 2 back to the initial state.
        stale = system.nodes[2].process_for(1)
        stale.ts, stale.value = (0, 0), 0
        op = system.submit(5, "read")
        system.settle()
        # phase 1 (q = 3 legs) + write-back to the one stale member:
        # Q-WB carries write params (P+1) and is acked (1).
        assert (system.metrics.op(op.op_id).cost
                == 3 * READ_COST + (P_DEFAULT + 2.0))
        assert op.result == 42
        assert stale.ts == (1, 1) and stale.value == 42

    def test_unanimous_quorum_skips_repair(self):
        system = DSMSystem("sc_abd", N=4)
        system.submit(1, "write", params=42)
        system.settle()
        op = system.submit(5, "read")
        system.settle()
        assert system.metrics.op(op.op_id).cost == 3 * READ_COST


class TestGuards:
    def test_failover_rejected(self):
        with pytest.raises(ValueError, match="no sequencer"):
            DSMSystem("sc_abd", N=4, failover=True)

    def test_amnesia_crashes_rejected(self):
        plan = FaultPlan(crashes=[CrashWindow(2, 0.0, 50.0, "amnesia")])
        with pytest.raises(ValueError, match="durable replicas"):
            DSMSystem("sc_abd", N=4, faults=plan)

    def test_durable_crashes_accepted(self):
        plan = FaultPlan(crashes=[CrashWindow(2, 0.0, 50.0, "durable")])
        DSMSystem("sc_abd", N=4, faults=plan)


class TestWorkloadValidation:
    """Stochastic runs track the closed-form model (paper's ±8% bound)."""

    CONFIG = RunConfig(ops=2000, warmup=500, seed=0, monitor=True)

    @pytest.mark.parametrize("deviation,params", [
        (Deviation.READ,
         WorkloadParams(N=4, p=0.3, a=2, sigma=0.1, S=100.0, P=30.0)),
        (Deviation.WRITE,
         WorkloadParams(N=4, p=0.3, a=2, xi=0.1, S=100.0, P=30.0)),
        (Deviation.MULTIPLE_ACTIVITY_CENTERS,
         WorkloadParams(N=4, p=0.3, beta=3, S=100.0, P=30.0)),
    ])
    def test_simulation_tracks_closed_form(self, deviation, params):
        cell = compare_cell("sc_abd", params, deviation, M=5,
                            config=self.CONFIG)
        assert cell.acc_analytic == analytical_acc("sc_abd", params,
                                                   deviation)
        assert abs(cell.discrepancy_pct) < 8.0

    def test_monitored_run_is_sequentially_consistent(self):
        params = WorkloadParams(N=4, p=0.3, a=2, sigma=0.1,
                                S=100.0, P=30.0)
        system = DSMSystem("sc_abd", N=4, M=2, monitor=True)
        from repro.workloads import read_disturbance_workload
        result = system.run_workload(read_disturbance_workload(params, M=2),
                                     self.CONFIG.with_(ops=800, warmup=200))
        assert not result.violations
        breakdown = system.metrics.average_cost_breakdown(skip=200)
        assert breakdown["quorum"] == 0.0  # fault-free: no re-selection


class TestMinorityPartitionParking:
    def test_initiator_cut_off_from_every_majority_parks(self):
        """A never-healing partition that denies the initiator any
        majority parks the operation: stalled and visible, never lost,
        never a violation."""
        links = (isolate(1, [3, 4, 5]) + isolate(2, [3, 4, 5]))
        system = DSMSystem("sc_abd", N=4,
                           partitions=PartitionPlan(links=links))
        op = system.submit(1, "write", params=5)
        system.settle()
        proc = system.nodes[1].process_for(1)
        assert proc.parked_ops == 1
        assert proc._attempts == QUORUM_MAX_ATTEMPTS
        assert not system.metrics.op(op.op_id).completed
        # the transport degraded silently: no delivery violations.
        assert system.network.violations == []
        assert system.metrics.reliability.delivery_failures == 0
        assert system.metrics.reliability.dgram_abandoned > 0
