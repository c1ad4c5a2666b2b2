"""Pinned SHA-256 digests of the Chrome and JSONL trace exports.

Six small runs through :func:`repro.api.simulate` cover every fabric the
simulator composes: the plain FIFO fabric, the reliable transport over a
lossy wire, the same with a gray-failure window, the quorum family under
a crash, an amnesia sequencer crash with failover, and a partition cut.
Two more runs pin the home-based ownership family beside Illinois:
Synapse and Write-Once under write disturbance over the lossy wire.
A hot-path change that alters any traced event — its order, time, cost
or detail — changes a digest, so "trace exports stay byte-identical" is
checked rather than diffed by hand.

When a change is *meant* to alter traces, regenerate the table with::

    PYTHONPATH=src python tests/obs/test_trace_digests.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro import api
from repro.obs import TraceConfig
from repro.obs.export import events_jsonl, trace_json
from repro.sim import (
    CrashWindow,
    FaultPlan,
    PartitionPlan,
    RunConfig,
    SlowWindow,
)
from repro.sim.partition import cut

PARAMS = {"N": 4, "p": 0.3, "a": 2, "sigma": 0.1, "S": 100.0, "P": 30.0}

#: the sequencer of an N=4 system
SEQUENCER = 5


def _lossy(**extra) -> FaultPlan:
    return FaultPlan(seed=11, drop_rate=0.01, duplicate_rate=0.005,
                     jitter=0.5, **extra)


#: name -> (protocol, deviation, RunConfig keyword arguments)
RUNS = {
    "plain": ("berkeley", "read", {}),
    "lossy": ("berkeley", "read", {"faults": _lossy()}),
    "lossy-slow": ("berkeley", "read", {
        "faults": _lossy(slowdowns=[SlowWindow(2, 100.0, 600.0, 10.0)]),
    }),
    "sc_abd-crash": ("sc_abd", "write", {
        "faults": FaultPlan(seed=3, crashes=[CrashWindow(2, 100.0, 500.0)]),
    }),
    "amnesia-failover": ("firefly", "write", {
        "faults": FaultPlan(seed=5, crashes=[
            CrashWindow(SEQUENCER, 150.0, 600.0, "amnesia")]),
        "failover": True,
    }),
    "cut": ("illinois", "read", {
        "partitions": PartitionPlan(seed=2,
                                    links=cut(1, SEQUENCER, 100.0, 700.0)),
    }),
    "synapse": ("synapse", "write", {"faults": _lossy()}),
    "write_once": ("write_once", "write", {"faults": _lossy()}),
}

#: name -> (Chrome trace SHA-256, JSONL stream SHA-256)
DIGESTS = {
    'amnesia-failover': ('cfa5859d5aa4d8e0cabfa28e1dc400569d287f329d517449603a3bc73131bfa0',
        'c7c85e42272d619ac81c3dde17a9868edb157adc69e811ba88f8dddeccddf968'),
    'cut': ('b179acbd449af6b66e71379fc7cd894c7f615de14de5b28def62e399fd0d8b6d',
        '903317cfafc10a445b0d5425623983f64ded75592a395aba21868a0df55d0691'),
    'lossy': ('f954361d73e4851d3108a0716a0d439df95f81a7e4abcfbe89158af4ea90ee77',
        'f0ac518386bdb65288c07a2824ac6e37c6661cb0dd80e6a4332ba037200b9584'),
    'lossy-slow': ('24e0f12946337885c64c18b0cbd31e44aba37905cd7cba48f61c496a3dd83239',
        'e8a2e73904d86cc05b957b74069b47215205739da7dcca988dd86eb4913f0d3f'),
    'plain': ('4316ca64dc220244f746f5c225ebd39f35217db361032ae0fa7770b191cb8261',
        '3c2d251fafdd653193d93bbec5b30e5b9af037b5df5668840e15d8d2560edb76'),
    'sc_abd-crash': ('c464e0479416f7a5f021d96c93003f9030c33b990ba5511abb7f3c67227ae569',
        '0c36248309eded8e323214e70495b12569550f230a97489828deb78efbe226fe'),
    'synapse': ('25a33e0fb79321de81a74c147d41bdc94e1624f1b21c40f23e6745a2d5d6a52e',
        'a59845156be311293734e7c3deb6a0a5ddc8c05045493a6e9b7900c80003a8e1'),
    'write_once': ('8c4aaa3a7e37acf50c574b3ca1eccb3bd1acb35888e2a5250711ea84da24d5e4',
        'dfc11b58143cdab1742269878a76b91dc1b5df25b39205319b24a84f4fd799b6'),
}


def _exports(name: str):
    protocol, deviation, extra = RUNS[name]
    # plans are single-use: every run draws from a rewound copy
    plans = {key: value.replay() for key, value in extra.items()
             if hasattr(value, "replay")}
    run = RunConfig(ops=500, warmup=50, seed=7, mean_gap=10.0,
                    tracing=TraceConfig(), **{**extra, **plans})
    result = api.simulate(protocol, PARAMS, deviation, run=run, M=2)
    return trace_json(result.tracer, label=name), events_jsonl(result.tracer)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_exports_are_pinned(name):
    chrome, jsonl = _exports(name)
    assert (_sha256(chrome), _sha256(jsonl)) == DIGESTS[name]


if __name__ == "__main__":  # pragma: no cover - regenerates DIGESTS
    for run_name in sorted(RUNS):
        chrome_text, jsonl_text = _exports(run_name)
        print(f"    {run_name!r}: ({_sha256(chrome_text)!r},\n"
              f"        {_sha256(jsonl_text)!r}),")
