"""The fault fabric's per-transmission decision contract, pinned draw by draw.

Each case drives a few thousand transmissions through
:class:`~repro.sim.channel.Network` and checks every one of them — was
it suppressed at a crashed source, dropped, duplicated, and when did each
copy arrive (or die at a crashed receiver) — against a reference model
built here from fresh ``random.Random(seed)`` streams that follow the
documented order (docs/faults.md, "Determinism"):

* a transmission from a crashed source draws nothing;
* otherwise the draws are drop, jitter, duplicate, jitter, where the
  jitter draws belong to the copies actually scheduled;
* at each step the global plan rolls first, and a loss (or duplication)
  there skips the link plan's roll; a full cut needs no draw, and a zero
  rate or jitter draws nothing;
* a delivery's delay is ``(latency + plan jitter + link jitter)`` times
  the slowest endpoint's slowdown factor at send time;
* a copy arriving at a crashed receiver is lost.

The model never calls the plans' own decision methods, so the test pins
the contract rather than one implementation of it.  Both plans' RNG
states must match the model's at the end.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.machines.message import (
    Message,
    MessageToken,
    MsgType,
    ParamPresence,
    QueueTag,
)
from repro.sim.channel import Network
from repro.sim.engine import EventScheduler
from repro.sim.faults import CrashWindow, FaultPlan, SlowWindow
from repro.sim.partition import LinkFault, PartitionPlan, cut

LATENCY = 1.0
NODES = (1, 2, 3, 4)
TRANSMISSIONS = 3000
#: simulated time between two sends
SPACING = 0.2

BASE = {"seed": 21, "drop_rate": 0.1, "duplicate_rate": 0.08, "jitter": 0.6}
CRASHES = [CrashWindow(2, 100.0, 250.0), CrashWindow(3, 400.0, 420.0)]
SLOWDOWNS = [SlowWindow(1, 50.0, 300.0, 4.0), SlowWindow(4, 200.0, 500.0)]
LINKS = [LinkFault(1, 2, 0.0, 600.0, drop_rate=0.3, duplicate_rate=0.2,
                   jitter=0.7)] + cut(3, 4, 100.0, 300.0)

CASES = {
    "drop-dup-jitter": (BASE, None),
    "with-crashes": ({**BASE, "crashes": CRASHES}, None),
    "with-slowdowns": ({**BASE, "slowdowns": SLOWDOWNS}, None),
    "with-links": (BASE, {"seed": 8, "links": LINKS}),
}


def _schedule(seed: int = 99) -> List[Tuple[float, int, int]]:
    """``(send time, src, dst)`` of every transmission, src != dst."""
    picker = random.Random(seed)
    sends = []
    for i in range(TRANSMISSIONS):
        src, dst = picker.sample(NODES, 2)
        sends.append((i * SPACING, src, dst))
    return sends


def _message(i: int, src: int, dst: int) -> Message:
    token = MessageToken(MsgType.R_PER, src, 1, QueueTag.DISTRIBUTED,
                         ParamPresence.NONE)
    return Message(token, src, dst, payload=i, op_id=i)


def _in(windows: Sequence, node: int, time: float) -> list:
    return [w for w in windows if w.node == node and w.start <= time < w.end]


def _model(sends, plan: dict, links: Optional[dict]):
    """The contract: per transmission ``(outcome, arrivals, lost)``.

    ``outcome`` is ``"suppressed"`` or a ``(dropped, duplicated)`` pair;
    ``arrivals`` the sorted arrival times of the copies delivered;
    ``lost`` how many copies died at a crashed receiver.
    """
    global_rng = random.Random(plan["seed"])
    link_rng = random.Random(links["seed"] if links else 0)
    crashes = plan.get("crashes", [])
    slowdowns = plan.get("slowdowns", [])
    expected = []
    for time, src, dst in sends:
        if _in(crashes, src, time):
            expected.append(("suppressed", [], 0))
            continue
        active = [f for f in (links["links"] if links else [])
                  if f.src == src and f.dst == dst and f.start <= time < f.end]
        link_drop = max([f.drop_rate for f in active], default=0.0)
        link_dup = max([f.duplicate_rate for f in active], default=0.0)
        link_jitter = max([f.jitter for f in active], default=0.0)
        factor = max([w.factor for w in _in(slowdowns, src, time)]
                     + [w.factor for w in _in(slowdowns, dst, time)],
                     default=1.0)

        def delay() -> float:
            d = LATENCY
            if plan["jitter"] > 0.0:
                d += global_rng.uniform(0.0, plan["jitter"])
            if link_jitter > 0.0:
                d += link_rng.uniform(0.0, link_jitter)
            return d * factor

        copies = []
        dropped = (plan["drop_rate"] > 0.0
                   and global_rng.random() < plan["drop_rate"])
        if not dropped and link_drop >= 1.0:
            dropped = True
        elif not dropped and link_drop > 0.0:
            dropped = link_rng.random() < link_drop
        if not dropped:
            copies.append(time + delay())
        duplicated = (plan["duplicate_rate"] > 0.0
                      and global_rng.random() < plan["duplicate_rate"])
        if not duplicated and link_dup > 0.0:
            duplicated = link_rng.random() < link_dup
        if duplicated:
            copies.append(time + delay())
        arrivals = sorted(t for t in copies if not _in(crashes, dst, t))
        expected.append(((dropped, duplicated), arrivals,
                         len(copies) - len(arrivals)))
    return expected, global_rng.getstate(), link_rng.getstate()


def _drive(sends, plan: dict, links: Optional[dict]):
    """Run ``sends`` through a faulty :class:`Network`; same shape as
    :func:`_model`, plus the network and both plans."""
    fault_plan = FaultPlan(**plan)
    link_plan = PartitionPlan(**links) if links else None
    scheduler = EventScheduler()
    events = defaultdict(list)
    sending = [None]

    def on_fault(kind):
        # send-time events belong to the transmission being sent; a
        # copy lost at a crashed receiver is counted from its arrivals
        if kind != "down_dst":
            events[sending[0]].append(kind)

    network = Network(scheduler, latency=LATENCY, faults=fault_plan,
                      partitions=link_plan, on_fault=on_fault)
    arrivals = defaultdict(list)
    for node in NODES:
        network.attach(node, lambda msg: arrivals[msg.payload].append(
            scheduler.now))

    def send(i):
        sending[0] = i
        _time, src, dst = sends[i]
        network.send(_message(i, src, dst), 100.0, 30.0)

    for i, (time, _src, _dst) in enumerate(sends):
        scheduler.schedule_at(time, send, i)
    scheduler.run()
    observed = []
    for i in range(len(sends)):
        kinds = events[i]
        got = sorted(arrivals[i])
        if "down_src" in kinds:
            observed.append(("suppressed", got, 0))
            continue
        dropped, duplicated = "drop" in kinds, "duplicate" in kinds
        copies = (not dropped) + duplicated
        observed.append(((dropped, duplicated), got, copies - len(got)))
    return observed, network, fault_plan, link_plan


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_transmission_follows_the_documented_draw_order(case):
    plan, links = CASES[case]
    sends = _schedule()
    expected, global_state, link_state = _model(sends, plan, links)
    observed, network, fault_plan, link_plan = _drive(sends, plan, links)
    for i, (want, got) in enumerate(zip(expected, observed)):
        assert got == want, f"transmission {i} {sends[i]}"
    lost = sum(want[2] for want in expected)
    drops = sum(1 for want in expected
                if want[0] != "suppressed" and want[0][0])
    assert network.dropped == drops + lost
    assert fault_plan._rng.getstate() == global_state
    if link_plan is not None:
        assert link_plan._rng.getstate() == link_state
    # the case exercises what it names
    outcomes = [want[0] for want in expected]
    assert any(o != "suppressed" and o[0] for o in outcomes)
    assert any(o != "suppressed" and o[1] for o in outcomes)
    if "crashes" in plan:
        assert "suppressed" in outcomes
        assert any(want[2] for want in expected)
