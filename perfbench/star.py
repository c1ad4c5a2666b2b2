"""The two star workloads: all nine star protocols, plain or lossy fabric.

``star-plain`` is the paper's own model: read disturbance on the fault-free
FIFO fabric, no cache, monitor or tracer, so nearly all host time is in the
hot path (engine, node, protocols, message, channel, metrics).
``star-lossy`` runs the same protocols and shape under write disturbance
over the reliable transport with a fixed-seed fault plan, so about half of
all events are reliable frames, acks and cancellable retransmit timers.

One *pass* runs every protocol once; one protocol run is a *cell* (build
the system, run the workload, check coherence), timed like a sweep cell.
The workload seed is the benchmark's ``--seed``; every pass of a run
repeats the same inputs, so every pass must reproduce the first one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.core.acc import analytical_acc
from repro.core.parameters import Deviation, WorkloadParams
from repro.sim import DSMSystem, FaultPlan, RunConfig
from repro.workloads import SyntheticWorkload

from layers import add_counters, first_attempts, measured_latencies, read_counters

PROTOCOLS = (
    "write_through", "write_through_v", "write_once", "synapse", "illinois",
    "berkeley", "dragon", "firefly", "write_through_dir",
)
N, M = 16, 8
MEAN_GAP = 10.0
#: operations per protocol run, per benchmark size
OPS = {"full": 1000, "tiny": 80}
FAULT_SEED = 11


@dataclass(frozen=True)
class StarWorkload:
    """One star workload: shape, deviation and fabric."""

    name: str
    deviation: Deviation
    lossy: bool

    @property
    def params(self) -> WorkloadParams:
        xi = 0.05 if self.deviation is Deviation.WRITE else 0.0
        return WorkloadParams(N=N, p=0.3, a=6, sigma=0.1, xi=xi,
                              S=100.0, P=30.0)

    def faults(self) -> Optional[FaultPlan]:
        """A fresh fault plan (its RNG stream starts over every run)."""
        if not self.lossy:
            return None
        return FaultPlan(seed=FAULT_SEED, drop_rate=0.01,
                         duplicate_rate=0.005, jitter=0.5)

    def source(self) -> SyntheticWorkload:
        return SyntheticWorkload(self.params, self.deviation, M=M)

    def build(self, protocol: str) -> DSMSystem:
        params = self.params
        return DSMSystem(protocol, N=N, M=M, S=params.S, P=params.P,
                         faults=self.faults())

    def analytic_acc(self, protocol: str) -> float:
        return analytical_acc(protocol, self.params, self.deviation)


WORKLOADS = {
    "star-plain": StarWorkload("star-plain", Deviation.READ, lossy=False),
    "star-lossy": StarWorkload("star-lossy", Deviation.WRITE, lossy=True),
}


@dataclass
class Cell:
    """The outcome of one protocol run."""

    protocol: str
    ops: int
    seconds: float = 0.0
    completed: int = 0
    error: Optional[str] = None
    #: (acc, messages, events executed, completed ops, latency p50, p99)
    digest: Optional[list] = None
    #: acc of the protocol share (the part the analytic model predicts)
    acc_protocol: float = float("nan")
    counters: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)

    @property
    def incomplete(self) -> int:
        return self.ops - self.completed


def run_cell(wl: StarWorkload, protocol: str, source: SyntheticWorkload,
             ops: int, seed: int, recorder=None) -> Cell:
    """Build, run and coherence-check one protocol; time exactly that."""
    cell = Cell(protocol, ops)
    config = RunConfig(ops=ops, seed=seed, mean_gap=MEAN_GAP)
    sends_before = first_attempts(recorder)
    start = perf_counter()
    try:
        system = wl.build(protocol)
        result = system.run_workload(source, config)
        system.check_coherence()
    except Exception as exc:  # reported as failed work, never fatal
        cell.seconds = perf_counter() - start
        cell.error = f"{type(exc).__name__}: {exc}"
        return cell
    cell.seconds = perf_counter() - start
    metrics = system.metrics
    cell.completed = metrics.completed_count
    lat = metrics.latency_stats(skip=result.warmup)
    cell.digest = [result.acc, result.messages, system.scheduler.executed,
                   cell.completed, lat["p50"], lat["p99"]]
    cell.acc_protocol = (
        metrics.average_cost_breakdown(skip=result.warmup)["protocol"]
        if wl.lossy else result.acc
    )
    if recorder is not None:
        cell.counters = read_counters(
            system, ops, first_attempts(recorder) - sends_before)
        cell.latencies = measured_latencies(system, result.warmup)
    return cell


def run_pass(wl: StarWorkload, source: SyntheticWorkload, ops: int,
             seed: int, recorder=None) -> List[Cell]:
    return [run_cell(wl, protocol, source, ops, seed, recorder)
            for protocol in PROTOCOLS]


def pass_counters(cells: List[Cell]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for cell in cells:
        if cell.counters:
            add_counters(total, cell.counters)
    return total


def acc_gap_pct(wl: StarWorkload, cells: List[Cell]) -> float:
    """Largest |acc_sim - acc_analytic| / acc_analytic over the protocols."""
    gaps = [abs(cell.acc_protocol - a) / a * 100.0
            for cell in cells
            if cell.error is None
            for a in (wl.analytic_acc(cell.protocol),) if a > 0]
    return max(gaps) if gaps else 0.0


def digests(cells: List[Cell]) -> Dict[str, Optional[list]]:
    return {cell.protocol: cell.digest for cell in cells}
