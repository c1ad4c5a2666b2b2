"""Repository benchmark: end-to-end and per-layer numbers for the simulator.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload star-plain --seed 0 --seconds 25 --trace 0

Workloads: ``star-plain``, ``star-lossy`` (see ``star.py``) and
``catalog-sweep`` (see ``catalog.py``).  ``--trace 0`` measures the
end-to-end metrics with nothing instrumented; ``--trace 1`` alternates
untraced and traced units of work and reports the per-layer split.  Both
modes run the correctness gate: simulated outputs at the default seed must
equal ``digests.json``, every repeated unit must reproduce the first, the
traced units must reproduce the untraced ones, star runs must end coherent
and complete, and the catalog's ``table6`` rows must match the committed
baseline byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when the gate passed.  Lines before it give every metric by name and
unit and the host context (calibration loop, nproc, Python, git sha).  A
run record, and for traced runs the span dump, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from statistics import mean, median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    DEFAULT_SEED, DIGESTS, OUT_DIR, ROOT, MissingProgram, SpeedTracker,
    host_context, peak_rss_mb, quantile, use_checkout,
)

WORKLOAD_NAMES = ("star-plain", "star-lossy", "catalog-sweep")
#: set-ups measured per run (the median is reported)
SETUP_REPEATS = 9
#: timed simulating cells a full catalog run needs, so that the p90 has
#: ten samples beyond it
MIN_CELLS = 100


class Gate:
    """The correctness gate: attempted and failed work, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, amount: int, problem: str) -> None:
        self.failed += amount
        if len(self.problems) < 50:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure_setup(workload: str, size: str, seed: int) -> float:
    """Median host seconds from starting a fresh interpreter to ready-to-run."""
    values = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, size,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        seconds = float(proc.stdout.split()[-1]) - start
        values.append(seconds)
    return median(values)


def load_digests(workload: str, size: str, seed: int) -> Optional[dict]:
    """Recorded outputs for this workload and size (default seed only)."""
    if seed != DEFAULT_SEED:
        return None
    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if data.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{DIGESTS} was not recorded at seed {DEFAULT_SEED}")
    entry = data[workload]
    return entry if workload == "catalog-sweep" else entry[size]


# ----------------------------------------------------------------------
# star workloads
# ----------------------------------------------------------------------


def check_star(gate: Gate, cells, expected: Optional[dict], label: str):
    for cell in cells:
        gate.attempted += cell.ops
        where = f"{label} {cell.protocol}"
        if cell.error is not None:
            gate.fail(cell.ops, f"{where}: {cell.error}")
        elif expected is not None and expected.get(cell.protocol) != cell.digest:
            gate.fail(cell.ops, f"{where}: outputs {cell.digest} differ from "
                                f"{expected.get(cell.protocol)}")
        elif cell.incomplete:
            gate.fail(cell.incomplete,
                      f"{where}: {cell.incomplete} ops incomplete")


def run_star(args, gate: Gate, recorded: Optional[dict]) -> Dict[str, float]:
    import star
    from layers import layer_metrics
    from tracing import Instrumentation, SpanRecorder

    wl = star.WORKLOADS[args.workload]
    ops = star.OPS[args.size]
    source = wl.source()
    if not args.trace:
        setup = measure_setup(args.workload, args.size, args.seed)
    # warm the interpreter on every code path, untimed and unchecked
    star.run_pass(wl, source, max(20, ops // 5), args.seed)

    reference = recorded
    untraced = []  # (cells, speed factor) of each untraced pass
    traced = []  # the cells of each traced pass
    recorder = SpanRecorder() if args.trace else None
    speed = SpeedTracker()
    deadline = perf_counter() + args.seconds
    while True:
        gc.collect()
        cells = star.run_pass(wl, source, ops, args.seed)
        untraced.append((cells, speed.factor()))
        check_star(gate, cells, reference, f"pass {len(untraced)}")
        if reference is None:
            reference = star.digests(cells)
        if recorder is not None:
            gc.collect()
            with Instrumentation(recorder):
                cells = star.run_pass(wl, source, ops, args.seed, recorder)
            traced.append(cells)
            check_star(gate, cells, reference, f"traced pass {len(traced)}")
        if perf_counter() >= deadline:
            break

    def pass_s(cells):
        return sum(cell.seconds for cell in cells)

    if recorder is not None:
        counters: Dict[str, int] = {}
        for cells in traced:
            for key, value in star.pass_counters(cells).items():
                counters[key] = counters.get(key, 0) + value
        traced_s = [pass_s(cells) for cells in traced]
        args.spans_path = recorder.dump(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin")
        return layer_metrics(
            recorder, counters, units=len(traced),
            traced_wall_s=sum(traced_s),
            overhead_pct=100.0 * (median(traced_s) / median(
                [pass_s(cells) for cells, _ in untraced]) - 1.0),
            latencies=[x for cell in traced[0] for x in cell.latencies],
            acc_gap_pct=star.acc_gap_pct(wl, untraced[0][0]),
        )
    # pass and cell times on the reference clock (see SpeedTracker)
    unit_s = [pass_s(cells) * f for cells, f in untraced]
    cell_s = [cell.seconds * f for cells, f in untraced for cell in cells]
    completed = sum(cell.completed for cells, _ in untraced for cell in cells)
    args.samples = {"host_unit_s": [pass_s(cells) for cells, _ in untraced],
                    "speed_factor": [f for _, f in untraced]}
    return {
        "ops_per_s": completed / sum(cell_s),
        "sweep_s": mean(unit_s),
        "sim_cell_s_p50": quantile(cell_s, 0.50),
        "sim_cell_s_p90": quantile(cell_s, 0.90),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(children=False),
    }


# ----------------------------------------------------------------------
# catalog sweep
# ----------------------------------------------------------------------


def check_rows(gate: Gate, rows, origin, expected: Optional[dict],
               size: str, label: str) -> None:
    """Every cell ok, recorded rows reproduced, table6 equal to baseline."""
    import catalog

    for row, name in zip(rows, origin):
        gate.attempted += 1
        where = f"{label} {name} cell {row['id']}"
        if row.get("status") != "ok":
            gate.fail(1, f"{where}: {row.get('error')}")
        elif (expected is not None
              and expected.get(row["id"]) != catalog.row_digest(row)):
            gate.fail(1, f"{where}: row differs from the recorded one")
    unmatched = catalog.baseline_mismatches(rows, origin, size)
    if unmatched:
        gate.fail(unmatched, f"{label}: {unmatched} table6 rows do not "
                             f"match {catalog.BASELINE.name}")


def run_catalog(args, gate: Gate, recorded: Optional[dict]
                ) -> Dict[str, float]:
    import catalog
    from layers import layer_metrics
    from tracing import SpanRecorder

    spec, origin = catalog.build_spec(args.seed, args.size)
    min_cells = MIN_CELLS if args.size == "full" else 0
    sim_ids = catalog.sim_cell_ids(spec)
    if not args.trace:
        setup = measure_setup(args.workload, args.size, args.seed)

    def check(rows, expected, label):
        check_rows(gate, rows, origin, expected, args.size, label)

    # Each sweep is gated as it ends; only the first keeps its rows, so
    # the heap the next sweep's workers inherit does not grow with time.
    first = None
    unit_s: List[float] = []
    cell_s: List[float] = []
    completed = 0
    reference = recorded
    deadline = perf_counter() + args.seconds
    while True:
        gc.collect()
        sweep = catalog.run_pool_sweep(spec)
        check(sweep.rows, reference, f"sweep {len(unit_s) + 1}")
        unit_s.append(sweep.seconds)
        cell_s.extend(sweep.timings[cid] for cid in sim_ids
                      if cid in sweep.timings)
        completed += catalog.completed_ops(sweep.rows)
        if first is None:
            first = sweep
            if reference is None:
                reference = catalog.digests(sweep.rows)
        del sweep
        if args.trace or (perf_counter() >= deadline
                          and len(cell_s) >= min_cells):
            break

    if args.trace:
        recorder = SpanRecorder()
        gc.collect()
        traced = catalog.run_traced_sweep(spec, recorder)
        check(traced.rows, reference, "traced sweep")
        args.spans_path = recorder.dump(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.bin")
        busy = sum(first.timings.values())
        return layer_metrics(
            recorder, traced.counters, units=1,
            traced_wall_s=traced.seconds,
            overhead_pct=100.0 * (traced.seconds / busy - 1.0),
            latencies=traced.latencies,
            acc_gap_pct=catalog.acc_gap_pct(first.rows),
            exp={
                "cells": len(spec),
                "pool_start_s": first.pool_start_s,
                "worker_busy_ratio": busy / (first.seconds * catalog.WORKERS),
                "payload_bytes": first.payload_bytes,
            },
        )
    args.samples = {"unit_s": unit_s, "cell_s": cell_s}
    return {
        "ops_per_s": completed / sum(args.samples["unit_s"]),
        "sweep_s": mean(args.samples["unit_s"]),
        "sim_cell_s_p50": quantile(cell_s, 0.50),
        "sim_cell_s_p90": quantile(cell_s, 0.90),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(children=True),
    }


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few ops or cells, for self-tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from layers import END_TO_END, PER_LAYER

    args.spans_path = None
    args.samples = None
    host = host_context()
    gate = Gate()
    recorded = load_digests(args.workload, args.size, args.seed)
    runner = run_catalog if args.workload == "catalog-sweep" else run_star
    values = runner(args, gate, recorded)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}

    for problem in gate.problems:
        print(f"gate: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print("host: " + json.dumps(host, sort_keys=True))
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "correct": gate.correct, "attempted": gate.attempted,
        "failed": gate.failed, "problems": gate.problems,
        "metrics": metrics, "samples": args.samples,
        "spans": None if args.spans_path is None else str(args.spans_path),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                  encoding="utf-8")
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
