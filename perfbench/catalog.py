"""The catalog-sweep workload: the committed scenarios through the sweep engine.

The scenarios below are what a user runs to reproduce the paper, about 612
cells: sub-millisecond analytic points (``table6``, ``fig5*``), the Table 7
analytic-vs-simulation compare cells, the fault grid, the SC-ABD quorum
campaign with hedging, and bounded replica caches.  It is the only workload
that exercises the sweep engine and its process pool, the analytic
``core``, the quorum family and ``sim.cache``.

Inputs come from ``--seed``: at the default seed the cells are exactly the
committed ones; at any other seed every simulating cell gets a workload
seed derived from ``--seed`` and its committed seed, while the analytic
cells (and so ``table6``) do not change.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Dict, List, Tuple

from repro.exp import SweepSpec, derive_cell_seed, row_line, run_sweep
from repro.scenarios import load_scenario

from common import DEFAULT_SEED, ROOT
from layers import add_counters, first_attempts, measured_latencies, read_counters

SCENARIOS = ("table6", "fig5a", "fig5b", "fig5c", "table7", "faults",
             "quorum", "cache")
#: worker processes (the 2-core reference host's ``nproc``)
WORKERS = 2
#: cells taken from each scenario by the ``tiny`` size
TINY_CELLS = 2
BASELINE = ROOT / "scenarios" / "baselines" / "table6.jsonl"


def build_spec(seed: int, size: str) -> Tuple[SweepSpec, List[str]]:
    """The sweep and, per cell, the scenario it came from."""
    catalog = ROOT / "scenarios"
    cells, origin = [], []
    for name in SCENARIOS:
        scenario_cells = list(load_scenario(name, catalog=catalog).to_spec())
        if size == "tiny":
            scenario_cells = scenario_cells[:TINY_CELLS]
        for cell in scenario_cells:
            if seed != DEFAULT_SEED and cell.simulates:
                cell = cell.with_(config=cell.config.with_(
                    seed=derive_cell_seed(seed, cell.config.seed)))
            cells.append(cell)
            origin.append(name)
    return SweepSpec.explicit(cells), origin


def row_digest(row: dict) -> str:
    """A short hash of a row's canonical JSONL line."""
    return hashlib.sha256(row_line(row).encode("utf-8")).hexdigest()[:16]


def _ready() -> int:
    return 1


def start_pool() -> float:
    """Start a worker pool like the sweep's; when every worker had run.

    Returns the ``time.monotonic()`` reading taken once each worker has
    answered (before the pool shuts down).
    """
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        for future in [pool.submit(_ready) for _ in range(WORKERS)]:
            future.result()
        return monotonic()


@dataclass
class Sweep:
    """One timed catalog sweep through the worker pool."""

    seconds: float
    rows: List[dict]
    timings: Dict[str, float]
    failed: int
    pool_start_s: float
    payload_bytes: int = 0


def run_pool_sweep(spec: SweepSpec) -> Sweep:
    """Run the sweep with ``WORKERS`` processes and no result cache."""
    first_done: List[Tuple[float, str]] = []

    def progress(done: int, total: int, row: dict) -> None:
        if not first_done:
            first_done.append((perf_counter(), row["id"]))

    start = perf_counter()
    result = run_sweep(spec, workers=WORKERS, cache=None, progress=progress)
    seconds = perf_counter() - start
    # pool start: until the first row came back, less that cell's compute
    pool_start = 0.0
    if first_done:
        done_at, cell_id = first_done[0]
        pool_start = max(0.0, done_at - start
                         - result.timings.get(cell_id, 0.0))
    payload = sum(len(pickle.dumps(cell.to_payload())) for cell in spec)
    payload += sum(len(pickle.dumps(row)) for row in result.rows)
    return Sweep(seconds, result.rows, dict(result.timings), result.failed,
                 pool_start, payload)


@dataclass
class TracedSweep:
    """One in-process sweep under the span recorder."""

    seconds: float
    rows: List[dict]
    counters: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)


def traced_hooks(recorder, traced: TracedSweep) -> Dict[str, object]:
    """The ``run_cell`` hook reading each cell's system after its run."""

    def hook(original):
        def run_cell(cell, on_system=None):
            before = first_attempts(recorder)

            def collect(system):
                if on_system is not None:
                    on_system(system)
                add_counters(traced.counters, read_counters(
                    system, cell.config.ops, first_attempts(recorder) - before))
                traced.latencies.extend(measured_latencies(
                    system, cell.config.resolved_warmup))

            return original(cell, on_system=collect)
        return run_cell

    return {"run_cell": hook}


def run_traced_sweep(spec: SweepSpec, recorder) -> TracedSweep:
    """Run every cell in this process so all spans land in one recorder."""
    from tracing import Instrumentation

    traced = TracedSweep(0.0, [])
    with Instrumentation(recorder, extra=traced_hooks(recorder, traced)):
        start = perf_counter()
        result = run_sweep(spec, workers=1, cache=None)
        traced.seconds = perf_counter() - start
    traced.rows = result.rows
    return traced


def baseline_mismatches(rows: List[dict], origin: List[str],
                        size: str) -> int:
    """``table6`` rows not matching the committed baseline byte for byte."""
    lines = [row_line(row) for row, name in zip(rows, origin)
             if name == "table6"]
    baseline = [line.strip() for line in
                BASELINE.read_text(encoding="utf-8").splitlines()
                if line.strip()]
    remaining = list(baseline)
    bad = 0
    for line in lines:
        if line in remaining:
            remaining.remove(line)
        else:
            bad += 1
    if size == "full":
        bad += len(remaining)  # every baseline row must be reproduced
    return bad


def sim_cell_ids(spec: SweepSpec) -> List[str]:
    return [cell.cell_id() for cell in spec if cell.simulates]


def completed_ops(rows: List[dict]) -> int:
    """Simulated operations completed across the simulating rows."""
    return sum(row["ops"] - row.get("incomplete_ops", 0) for row in rows
               if row.get("status") == "ok" and "ops" in row)


def acc_gap_pct(rows: List[dict]) -> float:
    """Largest |acc_sim - acc_analytic| / acc_analytic over compare cells."""
    gaps = [abs(row["discrepancy_pct"]) for row in rows
            if row.get("kind") == "compare"
            and row.get("discrepancy_pct") is not None]
    return max(gaps) if gaps else 0.0


def digests(rows: List[dict]) -> Dict[str, str]:
    return {row["id"]: row_digest(row) for row in rows}

