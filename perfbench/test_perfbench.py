"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They run the benchmark at its ``tiny`` size, so they take about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import DEFAULT_SEED, ROOT, SpeedTracker, use_checkout  # noqa: E402

use_checkout()

import catalog  # noqa: E402
import run  # noqa: E402
import star  # noqa: E402
from repro.exp import run_sweep  # noqa: E402
from repro.protocols.base import ProtocolProcess  # noqa: E402
from tracing import Instrumentation, SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def tiny(workload, trace):
    return run_bench("--workload", workload, "--seed", str(DEFAULT_SEED),
                     "--seconds", "0.1", "--trace", str(trace),
                     "--size", "tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert f"{name} = " in proc.stdout


def gate_failures(check, recorded):
    gate = run.Gate()
    check(gate, recorded)
    return gate.failed


def test_perturbed_star_digest_fails_the_gate():
    wl = star.WORKLOADS["star-plain"]
    cells = star.run_pass(wl, wl.source(), star.OPS["tiny"], DEFAULT_SEED)
    recorded = run.load_digests("star-plain", "tiny", DEFAULT_SEED)

    def check(gate, expected):
        run.check_star(gate, cells, expected, "pass")

    assert gate_failures(check, recorded) == 0
    perturbed = copy.deepcopy(recorded)
    perturbed["berkeley"][0] += 1e-9  # acc
    assert gate_failures(check, perturbed) > 0


def test_perturbed_row_digest_fails_the_gate():
    spec, origin = catalog.build_spec(DEFAULT_SEED, "tiny")
    rows = run_sweep(spec, workers=1, cache=None).rows
    recorded = run.load_digests("catalog-sweep", "tiny", DEFAULT_SEED)

    def check(gate, expected):
        run.check_rows(gate, rows, origin, expected, "tiny", "sweep")

    assert gate_failures(check, recorded) == 0
    perturbed = dict(recorded)
    perturbed[spec.cells[-1].cell_id()] = "0" * 16
    assert gate_failures(check, perturbed) > 0


def test_traced_and_untraced_star_outputs_are_identical():
    wl = star.WORKLOADS["star-lossy"]
    source = wl.source()
    ops = star.OPS["tiny"]
    plain = star.run_pass(wl, source, ops, DEFAULT_SEED)
    recorder = SpanRecorder()
    with Instrumentation(recorder):
        traced = star.run_pass(wl, source, ops, DEFAULT_SEED, recorder)
    assert star.digests(traced) == star.digests(plain)
    assert recorder.layer_calls("sim.reliable") > 0
    assert recorder.layer_calls("protocols") > 0


def test_traced_and_untraced_sweep_rows_are_identical():
    spec, _ = catalog.build_spec(DEFAULT_SEED, "tiny")
    pooled = catalog.run_pool_sweep(spec)
    traced = catalog.run_traced_sweep(spec, SpanRecorder())
    assert catalog.digests(traced.rows) == catalog.digests(pooled.rows)
    assert traced.counters["events"] > 0


def test_protocol_transitions_count_dispatches_not_super_calls():
    """One span per on_request/on_message dispatch to a protocol object.

    The directory write-through client's ``on_request`` calls its parent
    class's through ``super()``; that call is part of the same transition.
    The dispatches are counted independently with a profiler hook on an
    untraced run of the same simulation.
    """
    wl = star.WORKLOADS["star-plain"]
    names = ("on_request", "on_message")
    seen = {"dispatches": 0, "super_calls": 0}

    def profile(frame, event, arg):
        if event != "call" or frame.f_code.co_name not in names:
            return
        obj = frame.f_locals.get("self")
        if not isinstance(obj, ProtocolProcess):
            return
        caller = frame.f_back
        if (caller is not None and caller.f_code.co_name == frame.f_code.co_name
                and caller.f_locals.get("self") is obj):
            seen["super_calls"] += 1
        else:
            seen["dispatches"] += 1

    sys.setprofile(profile)
    try:
        star.run_cell(wl, "write_through_dir", wl.source(), 80, DEFAULT_SEED)
    finally:
        sys.setprofile(None)
    recorder = SpanRecorder()
    with Instrumentation(recorder):
        star.run_cell(wl, "write_through_dir", wl.source(), 80, DEFAULT_SEED,
                      recorder)
    assert seen["super_calls"] > 0
    assert recorder.layer_calls("protocols") == seen["dispatches"]


def test_speed_probe_refuses_to_run_beside_other_work():
    speed = SpeedTracker()
    release = threading.Event()
    worker = threading.Thread(target=release.wait)
    worker.start()
    try:
        with pytest.raises(RuntimeError):
            speed.factor()
    finally:
        release.set()
        worker.join()
    assert speed.factor() > 0


def test_span_groups_follow_steps():
    recorder = SpanRecorder()
    wl = star.WORKLOADS["star-plain"]
    with Instrumentation(recorder):
        star.run_cell(wl, "berkeley", wl.source(), 40, DEFAULT_SEED, recorder)
    step = recorder.names.index("EventScheduler.step")
    ids, parents = recorder._ids, recorder._parents
    groups, names = recorder._groups, recorder._name_ids
    group_of = dict(zip(ids, groups))
    for sid, pid, gid, name in zip(ids, parents, groups, names):
        if name == step:
            assert gid == sid
        elif pid:
            assert gid == group_of[pid]
    # self time never exceeds total time
    for self_s, total_s in zip(recorder.self_s, recorder.total_s):
        assert self_s <= total_s + 1e-9


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("--workload", "star-plain", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
