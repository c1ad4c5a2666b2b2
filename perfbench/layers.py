"""The metric catalogue, counters read from public state, and the layer split.

Counters are read from each system's public state after its run (never
from inside the timed region).  Per-layer metrics are reported per *unit
of work*: one pass over the nine star protocols, or one catalog sweep, so
counts do not depend on how many units fitted in ``--seconds``.  Times per
call divide a layer's self time by that layer's call count over all traced
units.  A ratio whose base is empty is reported as 0; its base is always
reported beside it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from common import quantile, ratio
from tracing import LAYERS, SpanRecorder

#: end-to-end metrics (untraced runs): name -> unit
END_TO_END = {
    "ops_per_s": "1/s",
    "sweep_s": "s",
    "sim_cell_s_p50": "s",
    "sim_cell_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs): name -> unit
PER_LAYER = {
    "workloads.sample_s": "s",
    "workloads.ops": "count",
    "sim.engine.events": "count",
    "sim.engine.events_per_op": "count/op",
    "sim.engine.self_us_per_event": "us",
    "sim.engine.cancelled": "count",
    "sim.engine.useful_ratio": "ratio",
    "sim.node.calls": "count",
    "sim.node.self_us_per_call": "us",
    "protocols.transitions": "count",
    "protocols.self_us_per_transition": "us",
    "machines.message.cost_calls": "count",
    "machines.message.self_s": "s",
    "sim.channel.sends": "count",
    "sim.channel.self_us_per_send": "us",
    "sim.channel.dropped": "count",
    "sim.channel.duplicated": "count",
    "sim.reliable.frames": "count",
    "sim.reliable.acks": "count",
    "sim.reliable.retransmits": "count",
    "sim.reliable.self_us_per_frame": "us",
    "sim.reliable.useful_ratio": "ratio",
    "sim.metrics.calls": "count",
    "sim.metrics.self_us_per_call": "us",
    "sim.cache.hits": "count",
    "sim.cache.misses": "count",
    "sim.cache.evictions": "count",
    "sim.cache.write_backs": "count",
    "sim.cache.hit_ratio": "ratio",
    "sim.cache.self_s": "s",
    "core.points": "count",
    "core.self_ms_per_point": "ms",
    "exp.cells": "count",
    "exp.pool_start_s": "s",
    "exp.worker_busy_ratio": "ratio",
    "exp.payload_bytes": "bytes",
    "sim.node.op_latency_sim_p50": "hops",
    "sim.node.op_latency_sim_p99": "hops",
    "acc_gap_pct": "%",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.spans": "count",
    **{f"{layer}.self_pct": "%" for layer in LAYERS},
}

COUNTER_KEYS = (
    "ops", "completed", "events", "pending", "sends", "dropped",
    "duplicated", "data_frames", "acks", "retransmits",
    "delivery_failures", "dgram_abandoned", "cache_hits", "cache_misses",
    "cache_evictions", "cache_writebacks",
)

#: recorder span names whose calls are first transmissions of a reliable
#: data frame or datagram (one cost record per first attempt)
FIRST_ATTEMPT_SPANS = ("Metrics.record_message", "Metrics.record_quorum_cost",
                       "Metrics.record_hedge_cost")


def first_attempts(recorder: Optional[SpanRecorder]) -> int:
    """Cost records so far that mark a first transmission (0 untraced)."""
    if recorder is None:
        return 0
    counts = recorder.counts_by_name()
    return sum(counts.get(name, 0) for name in FIRST_ATTEMPT_SPANS)


def read_counters(system, ops: int, first_sends: int) -> Dict[str, int]:
    """Counters from one finished system's public state.

    ``first_sends`` is the number of first transmissions the traced run
    saw for this system; it counts as reliable data frames only when the
    system runs the reliable transport.
    """
    network = system.network
    physical = getattr(network, "physical", network)
    rel = system.metrics.reliability
    cache = system.metrics.cache
    reliable = system.reliability is not None
    return {
        "ops": ops,
        "completed": system.metrics.completed_count,
        "events": system.scheduler.executed,
        "pending": len(system.scheduler),
        "sends": physical.messages_sent,
        "dropped": physical.dropped,
        "duplicated": physical.duplicated,
        "data_frames": first_sends if reliable else 0,
        "acks": rel.acks,
        "retransmits": rel.retransmissions,
        "delivery_failures": rel.delivery_failures,
        "dgram_abandoned": rel.dgram_abandoned,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "cache_writebacks": cache.writebacks,
    }


def add_counters(total: Dict[str, int], part: Dict[str, int]) -> None:
    for key in COUNTER_KEYS:
        total[key] = total.get(key, 0) + part[key]


def measured_latencies(system, warmup: int) -> List[float]:
    """Simulated completion latencies of the measured window."""
    return [r.complete_time - r.issue_time
            for r in system.metrics.records(skip=warmup)]


def layer_metrics(
    recorder: SpanRecorder,
    counters: Dict[str, int],
    units: int,
    traced_wall_s: float,
    overhead_pct: float,
    latencies: Iterable[float],
    acc_gap_pct: float,
    exp: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric from one run's traced units.

    Args:
        recorder: spans of ``units`` traced units of work.
        counters: public-state counters summed over those units.
        traced_wall_s: wall time of the traced units (the span roots).
        overhead_pct: traced vs untraced wall, from the same run.
        latencies: simulated op latencies of one unit's measured windows.
        exp: the sweep's pool numbers (catalog only).
    """
    c = {key: counters.get(key, 0) / units for key in COUNTER_KEYS}
    calls = {layer: recorder.layer_calls(layer) for layer in LAYERS}
    self_s = {layer: recorder.layer_self_s(layer) for layer in LAYERS}
    by_name = recorder.counts_by_name()
    pushes = (by_name.get("EventScheduler.schedule", 0)
              + by_name.get("EventScheduler.schedule_at", 0)) / units
    cancelled = max(0.0, pushes - c["events"] - c["pending"])
    frames = c["data_frames"] + c["retransmits"] + c["acks"]
    delivered = c["data_frames"] - c["delivery_failures"] - c["dgram_abandoned"]
    lat = list(latencies)
    exp = exp or {}
    out = {
        "workloads.sample_s": self_s["workloads"] / units,
        "workloads.ops": c["ops"],
        "sim.engine.events": c["events"],
        "sim.engine.events_per_op": ratio(c["events"], c["completed"]),
        "sim.engine.self_us_per_event": 1e6 * ratio(
            self_s["sim.engine"], c["events"] * units),
        "sim.engine.cancelled": cancelled,
        "sim.engine.useful_ratio": ratio(c["events"], c["events"] + cancelled),
        "sim.node.calls": calls["sim.node"] / units,
        "sim.node.self_us_per_call": 1e6 * ratio(
            self_s["sim.node"], calls["sim.node"]),
        "protocols.transitions": calls["protocols"] / units,
        "protocols.self_us_per_transition": 1e6 * ratio(
            self_s["protocols"], calls["protocols"]),
        "machines.message.cost_calls": calls["machines.message"] / units,
        "machines.message.self_s": self_s["machines.message"] / units,
        "sim.channel.sends": c["sends"],
        "sim.channel.self_us_per_send": 1e6 * ratio(
            self_s["sim.channel"], calls["sim.channel"]),
        "sim.channel.dropped": c["dropped"],
        "sim.channel.duplicated": c["duplicated"],
        "sim.reliable.frames": frames,
        "sim.reliable.acks": c["acks"],
        "sim.reliable.retransmits": c["retransmits"],
        "sim.reliable.self_us_per_frame": 1e6 * ratio(
            self_s["sim.reliable"], frames * units),
        "sim.reliable.useful_ratio": ratio(delivered, frames),
        "sim.metrics.calls": calls["sim.metrics"] / units,
        "sim.metrics.self_us_per_call": 1e6 * ratio(
            self_s["sim.metrics"], calls["sim.metrics"]),
        "sim.cache.hits": c["cache_hits"],
        "sim.cache.misses": c["cache_misses"],
        "sim.cache.evictions": c["cache_evictions"],
        "sim.cache.write_backs": c["cache_writebacks"],
        "sim.cache.hit_ratio": ratio(c["cache_hits"],
                                     c["cache_hits"] + c["cache_misses"]),
        "sim.cache.self_s": self_s["sim.cache"] / units,
        "core.points": calls["core"] / units,
        "core.self_ms_per_point": 1e3 * ratio(self_s["core"], calls["core"]),
        "exp.cells": exp.get("cells", 0),
        "exp.pool_start_s": exp.get("pool_start_s", 0.0),
        "exp.worker_busy_ratio": exp.get("worker_busy_ratio", 0.0),
        "exp.payload_bytes": exp.get("payload_bytes", 0),
        "sim.node.op_latency_sim_p50": quantile(lat, 0.50) if lat else 0.0,
        "sim.node.op_latency_sim_p99": quantile(lat, 0.99) if lat else 0.0,
        "acc_gap_pct": acc_gap_pct,
        "trace.overhead_pct": overhead_pct,
        "trace.unattributed_pct": 100.0 * ratio(
            traced_wall_s - recorder.total_self_s(), traced_wall_s),
        "trace.spans": sum(recorder.count) / units,
    }
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * ratio(self_s[layer], traced_wall_s)
    return out
