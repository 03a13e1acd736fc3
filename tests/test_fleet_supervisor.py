"""Fleet supervisor: recovery, retries, quarantine, durability.

The supervision contract has two halves.  *Robustness*: killed, hung
and crashing workers are detected, retried with deterministic backoff
and — for poison devices — quarantined, so the fleet degrades instead
of dying.  *Determinism*: none of that machinery may change a single
simulated byte — every recovered run reports the fingerprint of the
undisturbed run, and a degraded run reports exactly the fingerprint of
its surviving devices.
"""

import json
import os

import pytest

from repro.execpolicy import (
    Deadline,
    DeadlineExceeded,
    backoff_delay,
    stable_seed,
)
from repro.fleet import (
    ChaosEvent,
    ChaosPlan,
    CircuitOpenError,
    FleetReport,
    FleetSpec,
    ShardFailedError,
    SupervisionPolicy,
    poison_device,
    random_plan,
    run_fleet,
)
from repro.fleet.chaos import CHAOS_KINDS, ChaosRuntime
from repro.fleet.device import DeviceRun
from repro.fleet.snapshot import SnapshotMismatchError, write_snapshot
from repro.fleet.worker import checkpoint_path
from repro.fleet import snapshot as snapshot_module


def small_fleet(devices=6, seed=9, **kw):
    return FleetSpec(devices=devices, ops_per_device=80, seed=seed,
                     **kw)


def fast_policy(**kw):
    """A supervision policy tuned for test latency."""
    defaults = dict(heartbeat_interval=0.05, heartbeat_timeout=15.0,
                    backoff_base=0.02, backoff_cap=0.1)
    defaults.update(kw)
    return SupervisionPolicy(**defaults)


# ---------------------------------------------------------------------------
# policy and backoff


class TestSupervisionPolicy:
    def test_roundtrip(self):
        policy = SupervisionPolicy(shard_deadline=12.0,
                                   max_fleet_failures=5)
        assert SupervisionPolicy.from_dict(policy.to_dict()) == policy

    @pytest.mark.parametrize("bad", [
        {"heartbeat_interval": 0},
        {"heartbeat_timeout": -1},
        {"shard_deadline": 0},
        {"max_retries": -1},
        {"device_retry_budget": 0},
        {"max_fleet_failures": 0},
        {"poll_interval": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SupervisionPolicy(**bad)


class TestBackoff:
    def test_deterministic(self):
        a = backoff_delay(0.25, 5.0, 2, 9, "supervise", 0, 3)
        b = backoff_delay(0.25, 5.0, 2, 9, "supervise", 0, 3)
        assert a == b

    def test_coordinates_matter(self):
        delays = {backoff_delay(0.25, 5.0, 2, 9, "supervise", s, 3)
                  for s in range(8)}
        assert len(delays) > 1  # jitter varies by coordinate

    def test_caps_and_grows(self):
        base, cap = 0.25, 5.0
        delays = [backoff_delay(base, cap, n, 1, "x") for n in
                  range(1, 12)]
        assert all(d <= cap for d in delays)
        # Equal-jitter keeps every delay at >= half its exponential
        # envelope, so the schedule trends upward until the cap.
        assert delays[0] >= base * 0.5
        assert delays[5] > delays[0]

    def test_stable_seed_is_stable(self):
        assert stable_seed(9, "a", 1) == stable_seed(9, "a", 1)
        assert stable_seed(9, "a", 1) != stable_seed(9, "a", 2)


class TestDeadlineHelper:
    def test_unbounded(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired()

    def test_expires(self):
        deadline = Deadline(1e-9)
        import time
        time.sleep(0.01)
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        assert issubclass(DeadlineExceeded, Exception)
        with pytest.raises(ValueError, match="positive"):
            Deadline(0.0)


# ---------------------------------------------------------------------------
# chaos plans


class TestChaosPlan:
    def test_roundtrip(self):
        plan = ChaosPlan(seed=7, events=(
            ChaosEvent(kind="kill", shard=0, at=3),
            ChaosEvent(kind="device_crash", shard=1, device=5,
                       attempt=1),
        ))
        assert ChaosPlan.from_dict(plan.to_dict()) == plan

    def test_from_spec_inline_and_file(self, tmp_path):
        data = {"seed": 3, "events": [{"kind": "hang", "shard": 1,
                                       "at": 2}]}
        inline = ChaosPlan.from_spec(json.dumps(data))
        file_path = tmp_path / "plan.json"
        file_path.write_text(json.dumps(data))
        assert ChaosPlan.from_spec(str(file_path)) == inline
        assert inline.events[0].kind == "hang"

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ChaosEvent(kind="meteor", shard=0)
        with pytest.raises(ValueError, match="device"):
            ChaosEvent(kind="device_crash", shard=0)
        with pytest.raises(ValueError, match="JSON"):
            ChaosPlan.from_spec("{not json")

    def test_attempt_selection(self):
        plan = ChaosPlan(events=(
            ChaosEvent(kind="kill", shard=0, attempt=0),
            ChaosEvent(kind="submit_error", shard=0, attempt=1),
        ))
        assert [e.kind for e in plan.for_attempt(0, 0)] == ["kill"]
        assert plan.submit_error(0, 1)
        assert not plan.submit_error(0, 0)
        assert not plan.for_attempt(1, 0)

    def test_poison_device_helper(self):
        events = poison_device(4, 1, attempts=3)
        assert len(events) == 3
        assert {e.attempt for e in events} == {0, 1, 2}
        assert all(e.device == 4 and e.shard == 1 for e in events)

    def test_random_plan_deterministic(self):
        a = random_plan(5, shards=4, max_turn=10, events=2)
        assert a == random_plan(5, shards=4, max_turn=10, events=2)
        assert a.enabled
        assert all(e.attempt == 0 and e.kind in CHAOS_KINDS
                   for e in a.events)

    def test_runtime_noop_without_events(self):
        runtime = ChaosRuntime(ChaosPlan(), shard=0, attempt=0)
        runtime.install()
        for turn in range(10):
            runtime.on_advance(device_id=turn)
        assert snapshot_module._before_rename_hook is None


# ---------------------------------------------------------------------------
# supervised serving


class TestSupervisedFleet:
    def test_supervised_matches_unsupervised(self):
        fleet = small_fleet()
        oracle = run_fleet(fleet, jobs=1)
        supervised = run_fleet(fleet, jobs=2,
                               supervise=fast_policy())
        assert supervised.report.fingerprint() \
            == oracle.report.fingerprint()
        assert supervised.supervised
        health = supervised.report.health
        assert health["retries_total"] == 0
        assert health["kills_total"] == 0
        assert health["attempts_total"] == 2
        assert all(s["heartbeats"] >= 1 for s in health["shards"])
        assert not supervised.report.degraded

    def test_chaos_requires_supervision(self):
        plan = ChaosPlan(events=(ChaosEvent(kind="kill", shard=0),))
        with pytest.raises(ValueError, match="supervise"):
            run_fleet(small_fleet(), jobs=2, chaos=plan)

    def test_kill_recovers_to_oracle(self, tmp_path):
        fleet = small_fleet()
        oracle = run_fleet(fleet, jobs=1)
        plan = ChaosPlan(seed=1, events=(
            ChaosEvent(kind="kill", shard=0, at=3),))
        result = run_fleet(fleet, jobs=2, supervise=fast_policy(),
                           chaos=plan,
                           checkpoint_dir=str(tmp_path),
                           checkpoint_every=30, quantum=16)
        assert result.report.fingerprint() \
            == oracle.report.fingerprint()
        health = result.report.health
        assert health["kills_total"] == 1
        assert health["shards"][0]["kills"] == ["worker_died"]
        assert health["retries_total"] == 1
        assert health["wall_lost"] > 0

    def test_hang_detected_and_killed(self, tmp_path):
        fleet = small_fleet(devices=4)
        oracle = run_fleet(fleet, jobs=1)
        plan = ChaosPlan(seed=2, events=(
            ChaosEvent(kind="hang", shard=1, at=2,
                       hang_seconds=3600.0),))
        policy = fast_policy(heartbeat_timeout=1.5)
        result = run_fleet(fleet, jobs=2, supervise=policy,
                           chaos=plan,
                           checkpoint_dir=str(tmp_path),
                           checkpoint_every=30, quantum=16)
        assert result.report.fingerprint() \
            == oracle.report.fingerprint()
        assert result.report.health["shards"][1]["kills"] == ["hung"]

    def test_checkpoint_crash_recovers(self, tmp_path):
        """SIGKILL between a checkpoint's tmp-write and its rename
        leaves the previous snapshot intact; the retry resumes and
        still lands on the oracle fingerprint."""
        fleet = small_fleet(devices=4)
        oracle = run_fleet(fleet, jobs=1)
        plan = ChaosPlan(seed=3, events=(
            ChaosEvent(kind="checkpoint_crash", shard=0, at=1),))
        result = run_fleet(fleet, jobs=2, supervise=fast_policy(),
                           chaos=plan,
                           checkpoint_dir=str(tmp_path),
                           checkpoint_every=20, quantum=16)
        assert result.report.fingerprint() \
            == oracle.report.fingerprint()
        assert result.report.health["shards"][0]["kills"] \
            == ["worker_died"]

    def test_submit_error_retried(self):
        fleet = small_fleet(devices=4)
        oracle = run_fleet(fleet, jobs=1)
        plan = ChaosPlan(seed=4, events=(
            ChaosEvent(kind="submit_error", shard=0),))
        result = run_fleet(fleet, jobs=2, supervise=fast_policy(),
                           chaos=plan)
        assert result.report.fingerprint() \
            == oracle.report.fingerprint()
        assert result.report.health["shards"][0]["kills"] \
            == ["submit_error"]

    def test_retry_budget_exhaustion(self):
        # Quarantine off: a device that crashes on every attempt must
        # eventually fail its shard with the typed error.
        fleet = small_fleet(devices=4)
        plan = ChaosPlan(seed=5,
                         events=poison_device(1, 0, attempts=5))
        policy = fast_policy(max_retries=2, quarantine=False)
        with pytest.raises(ShardFailedError) as excinfo:
            run_fleet(fleet, jobs=2, supervise=policy, chaos=plan)
        assert excinfo.value.shard == 0
        assert "device_failure" in excinfo.value.reasons

    def test_circuit_breaker(self):
        fleet = small_fleet(devices=4)
        plan = ChaosPlan(seed=6,
                         events=poison_device(1, 0, attempts=5))
        policy = fast_policy(max_fleet_failures=1, quarantine=False)
        with pytest.raises(CircuitOpenError) as excinfo:
            run_fleet(fleet, jobs=2, supervise=policy, chaos=plan)
        assert excinfo.value.budget == 1

    def test_quarantine_degrades_gracefully(self, tmp_path):
        fleet = small_fleet(devices=6)
        oracle = run_fleet(fleet, jobs=1)
        poison = 2
        plan = ChaosPlan(seed=7,
                         events=poison_device(poison, 0, attempts=4,
                                              at=1))
        policy = fast_policy(device_retry_budget=2)
        result = run_fleet(fleet, jobs=2, supervise=policy,
                           chaos=plan,
                           checkpoint_dir=str(tmp_path),
                           checkpoint_every=30, quantum=16)
        report = result.report
        assert report.degraded
        assert [q["device_id"] for q in report.quarantined] == [poison]
        assert report.devices == fleet.devices - 1
        assert all(r["device_id"] != poison
                   for r in report.device_results)
        # Partial-fingerprint semantics: the degraded run reports
        # exactly the fingerprint of its surviving devices.
        survivors = [r for r in oracle.report.device_results
                     if r["device_id"] != poison]
        assert report.fingerprint() \
            == FleetReport(survivors).fingerprint()
        # The quarantined device's checkpoint must not linger.
        assert not checkpoint_path(tmp_path, poison).exists()
        totals = report.totals()
        assert totals["quarantined_devices"] == 1
        assert totals["degraded"] is True

    def test_health_surfaces(self):
        fleet = small_fleet(devices=4)
        plan = ChaosPlan(seed=8, events=(
            ChaosEvent(kind="kill", shard=0, at=2),))
        result = run_fleet(fleet, jobs=2, supervise=fast_policy(),
                           chaos=plan, quantum=16)
        payload = result.to_dict()
        assert payload["health"]["kills_total"] == 1
        assert payload["health"]["policy"]["max_retries"] == 3
        assert payload["health"]["chaos"]["events"][0]["kind"] \
            == "kill"
        assert payload["service"]["supervised"] is True
        registry = result.report.to_metrics()
        assert registry.counter_total("fleet.supervisor.kills") == 1
        assert registry.counter_total("fleet.supervisor.attempts") \
            == 3
        assert "supervision" in result.render()


class TestServeCliSupervised:
    def test_serve_supervised_chaos_drill(self, tmp_path, capsys):
        from repro.cli import main

        spec = json.dumps({"events": [
            {"kind": "kill", "shard": 0, "at": 2}]})
        args = ["serve", "--devices", "4", "--ops", "60",
                "--no-cache", "--jobs", "2", "--quantum", "16",
                "--supervise", "--heartbeat-interval", "0.05",
                "--backoff-base", "0.02", "--backoff-cap", "0.1",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--checkpoint-every", "30",
                "--chaos", spec, "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["health"]["kills_total"] == 1
        assert payload["health"]["shards"][0]["kills"] \
            == ["worker_died"]
        assert payload["service"]["supervised"] is True

        # Oracle: the same fleet, unsupervised and undisturbed.
        assert main(["serve", "--devices", "4", "--ops", "60",
                     "--no-cache", "--json"]) == 0
        oracle = json.loads(capsys.readouterr().out)
        assert payload["totals"]["fingerprint"] \
            == oracle["totals"]["fingerprint"]

    def test_serve_chaos_requires_supervise(self):
        from repro.cli import main
        assert main(["serve", "--chaos", "{}"]) != 0

    def test_serve_rejects_bad_chaos_spec(self):
        from repro.cli import main
        assert main(["serve", "--supervise",
                     "--chaos", "{broken"]) != 0

    def test_serve_rejects_bad_policy(self):
        from repro.cli import main
        assert main(["serve", "--supervise",
                     "--heartbeat-timeout", "-1"]) != 0


# ---------------------------------------------------------------------------
# satellite 1: crash-safe snapshot writes


class TestSnapshotDurability:
    def test_write_fsyncs_file_and_directory(self, tmp_path,
                                             monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd),
                                        real_fsync(fd))[1])
        write_snapshot(tmp_path / "x.snap", {"v": 1}, {})
        # At least the payload fd plus the directory fd (twice: once
        # before the rename makes it visible, once after).
        assert len(synced) >= 3

    def test_truncated_snapshot_rebuilds_to_oracle(self, tmp_path):
        """A device snapshot torn mid-write (host crash before the
        fsync completed, disk damage) must not poison the resume: the
        device is rebuilt from scratch, and because rebuilding is
        deterministic the resumed fleet still reports the oracle
        fingerprint."""
        fleet = small_fleet(devices=4)
        oracle = run_fleet(fleet, jobs=1)

        run_fleet(fleet, jobs=1, checkpoint_dir=str(tmp_path),
                  stop_after_events=150)
        victim = checkpoint_path(tmp_path, 1)
        blob = victim.read_bytes()
        victim.write_bytes(blob[:len(blob) // 2])

        resumed = run_fleet(fleet, jobs=1,
                            checkpoint_dir=str(tmp_path),
                            resume=True)
        assert resumed.report.fingerprint() \
            == oracle.report.fingerprint()
        assert resumed.rebuilt == 1
        assert resumed.resumed == 3
        assert resumed.to_dict()["service"]["rebuilt_devices"] == 1


# ---------------------------------------------------------------------------
# satellite 2: stale-checkpoint refusal


class TestStaleCheckpointRefusal:
    def test_foreign_fleet_checkpoints_refused(self, tmp_path):
        fleet_a = small_fleet(seed=9)
        fleet_b = small_fleet(seed=10)
        assert fleet_a.content_hash() != fleet_b.content_hash()

        run_fleet(fleet_a, jobs=1, checkpoint_dir=str(tmp_path),
                  stop_after_events=150)
        with pytest.raises(SnapshotMismatchError, match="fleet"):
            run_fleet(fleet_b, jobs=1, checkpoint_dir=str(tmp_path),
                      resume=True)

    def test_same_fleet_checkpoints_accepted(self, tmp_path):
        fleet = small_fleet()
        oracle = run_fleet(fleet, jobs=1)
        run_fleet(fleet, jobs=1, checkpoint_dir=str(tmp_path),
                  stop_after_events=150)
        resumed = run_fleet(fleet, jobs=1,
                            checkpoint_dir=str(tmp_path),
                            resume=True)
        assert resumed.report.fingerprint() \
            == oracle.report.fingerprint()

    def test_legacy_snapshot_without_hash_accepted(self, tmp_path):
        """Snapshots predating the fleet-hash header (or written via
        DeviceRun.save directly) still resume."""
        from tests.test_fleet_snapshot import spec_for

        spec = spec_for()
        run = DeviceRun.build(spec)
        run.advance(300)
        path = tmp_path / "dev.snap"
        run.save(path)  # no fleet hash in the header
        resumed = DeviceRun.load(path, expect_fleet_hash="deadbeef")
        assert resumed.sim.processed == run.sim.processed
