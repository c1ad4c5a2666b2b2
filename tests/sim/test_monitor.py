"""Unit tests for the runtime consistency monitor (SC witness search)."""

import sys

import pytest

from repro.cli import main
from repro.protocols.base import Operation
from repro.sim import ConsistencyMonitor, ConsistencyViolation


def op(op_id, node, kind, value, obj=1):
    o = Operation(op_id, node, kind, obj)
    if kind == "write":
        o.params = value
    else:
        o.result = value
    return o


def record(monitor, *ops, submit_only=()):
    for o in ops:
        monitor.on_submit(o)
        if o.op_id not in submit_only:
            monitor.on_complete(o)


class TestWitnessSearch:
    def test_empty_history_is_legal(self):
        assert ConsistencyMonitor().check_object(1) is None

    def test_single_node_program_order_is_legal(self):
        m = ConsistencyMonitor()
        record(m,
               op(1, 1, "read", 0),   # initial value
               op(2, 1, "write", 5),
               op(3, 1, "read", 5))
        assert m.check_object(1) is None

    def test_interleaving_found_across_nodes(self):
        # node 1 writes 5 then 6; node 2 reads 5 then 6: legal.
        m = ConsistencyMonitor()
        record(m,
               op(1, 1, "write", 5),
               op(2, 1, "write", 6),
               op(3, 2, "read", 5),
               op(4, 2, "read", 6))
        assert m.check_object(1) is None

    def test_antichronological_reads_violate(self):
        # node 2 reads 6 then 5, but program order writes 5 before 6:
        # no interleaving can serve 5 after 6 was the latest value.
        m = ConsistencyMonitor()
        record(m,
               op(1, 1, "write", 5),
               op(2, 1, "write", 6),
               op(3, 2, "read", 6),
               op(4, 2, "read", 5))
        v = m.check_object(1)
        assert isinstance(v, ConsistencyViolation)
        assert v.kind == "sequential_consistency"
        assert v.obj == 1
        assert (2, "read", 5) in v.history

    def test_unwritten_value_violates(self):
        m = ConsistencyMonitor()
        record(m, op(1, 1, "write", 5), op(2, 2, "read", 7))
        v = m.check_object(1)
        assert v is not None and v.kind == "sequential_consistency"

    def test_phantom_write_explains_orphan_read(self):
        # an issued-but-incomplete write (lost in a crash) may have been
        # observed; the checker materializes it rather than crying wolf.
        m = ConsistencyMonitor()
        record(m,
               op(1, 1, "write", 7),   # issued, never completed
               op(2, 2, "read", 7),
               submit_only={1})
        assert m.check_object(1) is None

    def test_phantom_materializes_at_most_once(self):
        # one lost write cannot explain re-reading its value after an
        # intervening completed write was read.
        m = ConsistencyMonitor()
        record(m,
               op(1, 1, "write", 7),   # phantom
               op(2, 1, "write", 8),
               op(3, 2, "read", 7),
               op(4, 2, "read", 8),
               op(5, 2, "read", 7),
               submit_only={1})
        assert m.check_object(1) is not None

    def test_objects_are_independent(self):
        m = ConsistencyMonitor()
        record(m,
               op(1, 1, "write", 5, obj=1),
               op(2, 2, "read", 5, obj=2))  # never written on obj 2
        assert m.check_object(1) is None
        assert m.check_object(2) is not None

    def test_budget_exhaustion_is_inconclusive_not_violation(self):
        m = ConsistencyMonitor(step_budget=1)
        record(m,
               op(1, 1, "write", 5),
               op(2, 2, "read", 6))  # would be a violation with budget
        assert m.check_object(1) is None
        assert m.inconclusive == 1

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            ConsistencyMonitor(step_budget=0)

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        """The search goes one level deeper per write; the explicit stack
        lets it go past the interpreter's recursion limit."""
        writes = sys.getrecursionlimit() + 500
        m = ConsistencyMonitor()
        record(m, *(op(i, 1 + i % 2, "write", i) for i in range(1, writes)),
               op(writes, 3, "read", writes - 1))
        assert m.check_object(1) is None
        assert m.inconclusive == 0


class TestLongMonitoredRun:
    def test_cli_default_ops_monitored_run_is_clean(self, capsys):
        """The CLI's default 4,000-op run: about 1,000 writes to one
        object, which overflowed a recursive witness search."""
        code = main(["simulate", "firefly", "--N", "10", "--a", "5",
                     "--p", "0.3", "--sigma", "0.1", "--deviation", "read",
                     "--ops", "4000", "--monitor"])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistency     = ok" in out


class TestDegradedReadExemption:
    """The monitor must distinguish policy-exempt staleness (a
    ``serve_local_reads`` read flagged via ``on_degraded_read``) from a
    genuine sequential-consistency violation in the same history."""

    def _interleaved_history(self, m, flag_stale):
        # node 1 completes two quorum writes (5 then 6); node 2 performs
        # a quorum read observing 6, then a degraded local read serving
        # the stale 5 — antichronological, so not SC on its face.
        w1, w2 = op(1, 1, "write", 5), op(2, 1, "write", 6)
        quorum_read, stale_read = op(3, 2, "read", 6), op(4, 2, "read", 5)
        record(m, w1, w2, quorum_read)
        m.on_submit(stale_read)
        if flag_stale:
            m.on_degraded_read(stale_read)
        m.on_complete(stale_read)

    def test_unflagged_stale_read_is_a_real_violation(self):
        m = ConsistencyMonitor()
        self._interleaved_history(m, flag_stale=False)
        v = m.check_object(1)
        assert v is not None and v.kind == "sequential_consistency"

    def test_flagged_stale_read_is_counted_but_exempt(self):
        m = ConsistencyMonitor()
        self._interleaved_history(m, flag_stale=True)
        assert m.check_object(1) is None
        assert m.stale_reads == 1

    def test_exemption_is_per_operation_not_per_node(self):
        # a *second*, unflagged stale read by the same node still trips
        # the witness search: the exemption covers exactly the reads the
        # policy served degraded.
        m = ConsistencyMonitor()
        self._interleaved_history(m, flag_stale=True)
        late = op(5, 2, "read", 5)
        record(m, late)
        v = m.check_object(1)
        assert v is not None and v.kind == "sequential_consistency"


class TestConvergence:
    def test_readable_mismatch_is_divergence(self):
        m = ConsistencyMonitor()
        violations = m.check_convergence(
            1, truth=9,
            replicas=[(1, "VALID", 9, True),
                      (2, "VALID", 4, True),
                      (3, "INVALID", 4, False)],
        )
        assert len(violations) == 1
        v = violations[0]
        assert v.kind == "divergence" and "node 2" in v.detail

    def test_stale_unreadable_copy_is_fine(self):
        m = ConsistencyMonitor()
        assert m.check_convergence(
            1, truth=9, replicas=[(2, "INVALID", 4, False)]
        ) == []

    def test_version_vector_counts_installs(self):
        m = ConsistencyMonitor()
        m.on_install(1, 1, 5, 0.0)
        m.on_install(1, 1, 6, 1.0)
        m.on_install(2, 1, 6, 2.0)
        m.on_install(2, 7, 6, 2.0)  # different object
        assert m.version_vector(1) == {1: 2, 2: 1}

    def test_check_combines_both_directions(self):
        m = ConsistencyMonitor()
        record(m, op(1, 1, "write", 5), op(2, 2, "read", 6))
        violations = m.check(
            authoritative={1: 5},
            replicas={1: [(2, "VALID", 6, True)]},
        )
        kinds = sorted(v.kind for v in violations)
        assert kinds == ["divergence", "sequential_consistency"]
