"""Seeded chaos property suite: recovery never changes a byte.

Twenty seeded cases crossing injected failure mode (worker SIGKILL /
hang), chaos seed and tenancy (plain / QoS-fronted), each asserting the supervision oracle: a chaos
run with sufficient retry budget reports exactly the fleet fingerprint
of the undisturbed run, with the injected failures visible in the
health record.  Chaos plans come from :func:`repro.fleet.chaos
.random_plan`, so each seed drills a different (shard, turn, kind)
coordinate without losing reproducibility.
"""

import pytest

from repro.fleet import (
    FleetSpec,
    SupervisionPolicy,
    fleet_config,
    random_plan,
    run_fleet,
)

DEVICES = 4
OPS = 60
QUANTUM = 16
SHARDS = 2

#: Tuned for latency: hang injections sleep forever and are killed
#: after ~1.5s of heartbeat silence (device build takes milliseconds,
#: so a healthy worker can never miss the window).
POLICY = SupervisionPolicy(heartbeat_interval=0.05,
                           heartbeat_timeout=1.5,
                           backoff_base=0.02, backoff_cap=0.1)

_ORACLES = {}


def fleet_for(tenants, seed):
    return FleetSpec(devices=DEVICES, ops_per_device=OPS,
                     tenants=tenants, seed=seed, config=fleet_config())


def oracle_fingerprint(tenants, seed):
    key = (tenants, seed)
    if key not in _ORACLES:
        result = run_fleet(fleet_for(tenants, seed), jobs=1)
        _ORACLES[key] = result.report.fingerprint()
    return _ORACLES[key]


@pytest.mark.parametrize("tenants", [0, 2])
@pytest.mark.parametrize("chaos_seed", range(10))
def test_chaos_recovers_to_oracle(tmp_path, chaos_seed, tenants):
    fleet_seed = 9 + chaos_seed
    plan = random_plan(chaos_seed, shards=SHARDS,
                       max_turn=(DEVICES // SHARDS) * 2, events=1)
    assert len(plan.events) == 1  # one injection per case

    result = run_fleet(
        fleet_for(tenants, fleet_seed),
        jobs=SHARDS,
        supervise=POLICY,
        chaos=plan,
        checkpoint_dir=str(tmp_path),
        checkpoint_every=30,
        quantum=QUANTUM,
    )

    assert result.report.fingerprint() \
        == oracle_fingerprint(tenants, fleet_seed)
    health = result.report.health
    # Exactly the injected failure fired, on the planned shard, and
    # was recovered by exactly one retry.
    event = plan.events[0]
    expected = {"kill": "worker_died", "hang": "hung"}[event.kind]
    assert health["kills_total"] == 1
    assert health["shards"][event.shard]["kills"] == [expected]
    assert health["retries_total"] == 1
    assert not result.report.degraded
    assert result.report.devices == DEVICES
