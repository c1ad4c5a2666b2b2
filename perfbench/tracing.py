"""Span recorder for the traced run, wrapped around each layer's entry points.

The benchmark never edits ``src/``.  For a traced pass it replaces the
public entry points of every layer (class attributes and module globals)
with thin wrappers that record one span per call, and puts the originals
back afterwards.  Systems must be *built* inside the traced pass: several
entry points (``Network.attach`` handlers, the metrics cost sink) are bound
methods captured at construction time.

A span is ``(name, start, end, parent span id)`` plus a group id: spans
under one ``EventScheduler.step`` (or one sweep cell) share the group id of
that step or cell.  Spans stay in memory, in compact arrays, and are
written out at exit (:meth:`SpanRecorder.dump`).  Self time is computed as
each span closes: its duration minus the durations of its direct children,
which nest inside it, so the covered time is exactly their sum.
"""

from __future__ import annotations

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: layer name -> public entry points ``(module, class or None, attribute)``
LAYER_ENTRY_POINTS: Dict[str, Tuple[Tuple[str, Optional[str], str], ...]] = {
    "workloads": (
        ("repro.workloads.base", "TableWorkload", "sample"),
    ),
    "sim.system": (
        ("repro.sim.system", "DSMSystem", "__init__"),
        ("repro.sim.system", "DSMSystem", "run_workload"),
        ("repro.sim.system", "DSMSystem", "check_coherence"),
    ),
    "sim.engine": (
        ("repro.sim.engine", "EventScheduler", "run"),
        ("repro.sim.engine", "EventScheduler", "step"),
        ("repro.sim.engine", "EventScheduler", "schedule"),
        ("repro.sim.engine", "EventScheduler", "schedule_at"),
        ("repro.sim.engine", "TimerHandle", "cancel"),
    ),
    "sim.node": (
        ("repro.sim.node", "SimNode", "submit"),
        ("repro.sim.node", "ObjectPort", "deliver"),
        ("repro.sim.node", "ObjectPort", "send"),
        ("repro.sim.node", "ObjectPort", "send_unordered"),
        ("repro.sim.node", "ObjectPort", "complete"),
    ),
    # protocols: every on_request / on_message, found by class walk
    "machines.message": (
        ("repro.machines.message", "Message", "cost"),
    ),
    "sim.channel": (
        ("repro.sim.channel", "Network", "send"),
    ),
    # the reliable layer is entered by the protocol side (send,
    # send_unordered, cancel_dgrams) and by the engine (frame arrival and
    # the two retransmit timers)
    "sim.reliable": (
        ("repro.sim.reliable", "ReliableNetwork", "send"),
        ("repro.sim.reliable", "ReliableNetwork", "send_unordered"),
        ("repro.sim.reliable", "ReliableNetwork", "cancel_dgrams"),
        ("repro.sim.reliable", "ReliableNetwork", "_on_frame"),
        ("repro.sim.reliable", "ReliableNetwork", "_on_timeout"),
        ("repro.sim.reliable", "ReliableNetwork", "_on_dgram_timeout"),
    ),
    "sim.metrics": tuple(
        ("repro.sim.metrics", "Metrics", name) for name in (
            "register_op", "redirect_op", "mark_capacity_miss",
            "record_message", "record_reliability_cost",
            "record_quorum_cost", "record_hedge_cost",
            "record_recovery_cost", "record_reconfig_cost",
            "record_detector_cost", "record_complete",
        )
    ),
    "sim.cache": (
        ("repro.sim.cache", "ReplicaCache", "on_dispatch"),
        ("repro.sim.cache", "ReplicaCache", "after_op"),
    ),
    # the sweep engine calls these through its module globals
    "core": (
        ("repro.exp.runner", None, "analytical_acc"),
    ),
    "exp": (
        ("repro.exp.runner", None, "run_cell"),
    ),
}

#: report order of the layers (protocols included)
LAYERS: Tuple[str, ...] = (
    "workloads", "sim.system", "sim.engine", "sim.node", "protocols",
    "machines.message", "sim.channel", "sim.reliable", "sim.metrics",
    "sim.cache", "core", "exp",
)

#: spans that open a new group (one event, or one sweep cell)
GROUP_OPENERS = ("EventScheduler.step", "run_cell")

#: spans kept for the dump; beyond this only the aggregates grow
DEFAULT_MAX_SPANS = 500_000


def _protocol_entry_points() -> List[Tuple[type, str]]:
    """``(class, method)`` for every ``on_request``/``on_message`` defined."""
    from repro.protocols import registry  # noqa: F401  (defines them all)
    from repro.protocols.base import ProtocolProcess

    found, todo = [], list(ProtocolProcess.__subclasses__())
    seen = set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for method in ("on_request", "on_message"):
            if method in cls.__dict__:
                found.append((cls, method))
    found.sort(key=lambda item: (item[0].__module__, item[0].__qualname__,
                                 item[1]))
    return found


class SpanRecorder:
    """In-memory spans plus per-name call counts and self/total time."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.layer_of: List[str] = []
        self.count: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self.max_spans = max_spans
        self.dropped = 0
        self._ids = array("q")
        self._parents = array("q")
        self._groups = array("q")
        self._name_ids = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: List[list] = []  # [span id, group id, child time]
        self._next_id = 1
        self._epoch = perf_counter()

    def name_id(self, name: str, layer: str) -> int:
        """The index of ``name``, registering it on first use."""
        if name in self._index:
            return self._index[name]
        self._index[name] = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.count.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, fn: Callable, name: str, layer: str,
             dispatch: Optional[str] = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        With ``dispatch`` (the method's name), ``fn`` is a method and only
        calls that dispatched to it are recorded: a ``super()`` call from
        an override runs unrecorded, as part of the override's span, so one
        protocol transition is one span however deep its call chain.
        """
        idx = self.name_id(name, layer)
        opens_group = name in GROUP_OPENERS
        stack = self._stack
        count, self_s, total_s = self.count, self.self_s, self.total_s
        rec = self

        def traced(*args, **kwargs):
            if (dispatch is not None
                    and getattr(type(args[0]), dispatch) is not traced):
                return fn(*args, **kwargs)
            sid = rec._next_id
            rec._next_id = sid + 1
            if stack:
                parent = stack[-1]
                pid = parent[0]
                gid = sid if opens_group else parent[1]
            else:
                pid, gid = 0, sid
            frame = [sid, gid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                count[idx] += 1
                total_s[idx] += dur
                self_s[idx] += dur - frame[2]
                rec._keep(idx, sid, pid, gid, t0, t1)

        traced.__wrapped__ = fn
        return traced

    def _keep(self, idx, sid, pid, gid, t0, t1) -> None:
        if len(self._ids) >= self.max_spans:
            self.dropped += 1
            return
        self._ids.append(sid)
        self._parents.append(pid)
        self._groups.append(gid)
        self._name_ids.append(idx)
        self._starts.append(t0 - self._epoch)
        self._ends.append(t1 - self._epoch)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    @property
    def kept(self) -> int:
        return len(self._ids)

    def counts_by_name(self) -> Dict[str, int]:
        return dict(zip(self.names, self.count))

    def layer_calls(self, layer: str) -> int:
        return sum(n for lay, n in zip(self.layer_of, self.count)
                   if lay == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(s for lay, s in zip(self.layer_of, self.self_s)
                   if lay == layer)

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def dump(self, path: Path) -> Path:
        """Write the kept spans as one JSON header line plus six arrays.

        Layout: a UTF-8 JSON line ``{"names": [...], "layers": [...],
        "spans": n, "dropped": d, "arrays": [[field, typecode], ...]}``
        followed by the raw arrays in that order (machine byte order).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (("id", self._ids), ("parent", self._parents),
                  ("group", self._groups), ("name", self._name_ids),
                  ("start_s", self._starts), ("end_s", self._ends))
        header = {
            "names": self.names, "layers": self.layer_of,
            "spans": self.kept, "dropped": self.dropped,
            "arrays": [[field, arr.typecode] for field, arr in arrays],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _field, arr in arrays:
                arr.tofile(fh)
        return path


class Instrumentation:
    """Installs span wrappers on every layer entry point, then removes them.

    Use as a context manager around a traced pass::

        with Instrumentation(recorder, extra={...}):
            ...build and run systems...

    ``extra`` maps a layer entry name (``"run_cell"``) to a function
    ``(original) -> replacement`` applied before wrapping, for callers
    that need to hook an entry point (the sweep's ``on_system``).
    """

    def __init__(self, recorder: SpanRecorder,
                 extra: Optional[Dict[str, Callable]] = None) -> None:
        self.recorder = recorder
        self.extra = extra or {}
        self._saved: List[Tuple[object, str, object]] = []

    def _targets(self
                 ) -> Sequence[Tuple[object, str, str, str, Optional[str]]]:
        """``(owner, attribute, span name, layer, dispatch)`` per entry point.

        ``dispatch`` is set for the protocol methods (see
        :meth:`SpanRecorder.wrap`).
        """
        out = []
        for layer, points in LAYER_ENTRY_POINTS.items():
            for module_name, class_name, attr in points:
                module = importlib.import_module(module_name)
                if class_name is None:
                    out.append((module, attr, attr, layer, None))
                else:
                    owner = getattr(module, class_name)
                    out.append((owner, attr, f"{class_name}.{attr}", layer,
                                None))
        for cls, method in _protocol_entry_points():
            out.append((cls, method, f"{cls.__name__}.{method}", "protocols",
                        method))
        return out

    def __enter__(self) -> "Instrumentation":
        for owner, attr, name, layer, dispatch in self._targets():
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            fn = original
            hook = self.extra.get(name)
            if hook is not None:
                fn = hook(fn)
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self.recorder.wrap(fn, name, layer, dispatch))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
