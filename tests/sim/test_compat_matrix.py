"""Exhaustive protocol x fabric-setting compatibility matrix.

For every registered protocol and every fabric setting (one
representative non-default value each, plus amnesia crashes and slow
windows as the two crash/straggler flavours of a fault plan), a
:class:`DSMSystem` must either refuse the combination with the family's
error or build exactly the subsystems the setting implies: the network
type, the recovery manager and the failure detector.  The expectations
are spelled out here independently of ``repro.sim.system``, and the
system's own compatibility table is checked against them.
"""

import pytest

from repro.obs.trace import TraceConfig
from repro.protocols.registry import all_protocol_names, get_protocol
from repro.sim import (
    CacheConfig,
    CrashWindow,
    DSMSystem,
    FaultPlan,
    HedgeConfig,
    LinkFault,
    MembershipChange,
    Network,
    PartitionPlan,
    ReconfigPlan,
    RecoveryManager,
    ReliabilityConfig,
    ReliableNetwork,
    SlowWindow,
)
from repro.sim.system import COMPATIBILITY

N = 3

#: one representative non-default value per fabric setting
SETTINGS = {
    "none": lambda: {},
    "faults": lambda: {"faults": FaultPlan(seed=1, drop_rate=0.1)},
    "amnesia": lambda: {"faults": FaultPlan(
        crashes=[CrashWindow(2, 10.0, 50.0, "amnesia")])},
    "slow_windows": lambda: {"faults": FaultPlan(
        slowdowns=[SlowWindow(2, 10.0, 50.0, 4.0)])},
    "partitions": lambda: {"partitions": PartitionPlan(
        links=[LinkFault(1, N + 1, 10.0, 50.0)])},
    "reliability": lambda: {"reliability": ReliabilityConfig()},
    "failover": lambda: {"failover": True},
    "monitor": lambda: {"monitor": True},
    "tracing": lambda: {"tracing": TraceConfig()},
    "reconfig": lambda: {"reconfig": ReconfigPlan(changes=(
        MembershipChange(at=100.0, joins=(N + 2,)),))},
    "quorum_weights": lambda: {"quorum_weights": {1: 2.0}},
    "hedge": lambda: {"hedge": HedgeConfig()},
    "cache": lambda: {"cache": CacheConfig(2, "lru")},
}

#: settings one family refuses -> (refusing family is quorum?, message)
REFUSED = {
    "failover": (True, "no sequencer"),
    "amnesia": (True, "durable replicas"),
    "reconfig": (False, "quorum"),
    "quorum_weights": (False, "quorum"),
    "hedge": (False, "quorum"),
}

#: settings that put the reliable transport under the protocol
RELIABLE = {"faults", "amnesia", "slow_windows", "partitions",
            "reliability", "reconfig", "hedge"}


def expected(setting, quorum):
    """``(network type, recovery?, detector?)`` a setting implies."""
    reliable = ReliableNetwork if setting in RELIABLE else Network
    if quorum:
        # no sequencer: never a recovery manager; a demote-only detector
        # only where latency scoring matters (stragglers, hedging)
        return reliable, False, setting in ("slow_windows", "hedge")
    recovery = setting in ("amnesia", "partitions")
    return reliable, recovery, setting == "partitions"


CELLS = [(protocol, setting) for protocol in all_protocol_names()
         for setting in SETTINGS]


@pytest.mark.parametrize("protocol,setting", CELLS)
def test_construct_or_raise(protocol, setting):
    quorum = get_protocol(protocol).quorum_based
    kwargs = SETTINGS[setting]()
    refused = REFUSED.get(setting)
    if refused is not None and refused[0] == quorum:
        with pytest.raises(ValueError, match=refused[1]):
            DSMSystem(protocol, N=N, M=2, **kwargs)
        return
    system = DSMSystem(protocol, N=N, M=2, **kwargs)
    network, recovery, detector = expected(setting, quorum)
    assert type(system.network) is network
    assert (system.recovery is not None) == recovery
    if recovery:
        assert isinstance(system.recovery, RecoveryManager)
    assert (system.detector is not None) == detector
    if detector and quorum:
        assert system.detector.recovery is None


def test_table_matches_the_matrix():
    """The system's compatibility table states exactly these rules."""
    table = {setting: (quorum, message)
             for setting, quorum, message in COMPATIBILITY}
    assert set(table) == set(REFUSED)
    for setting, (quorum, fragment) in REFUSED.items():
        assert table[setting][0] == quorum
        assert fragment in table[setting][1]
