"""Checkpoint/resume determinism: snapshot → resume == uninterrupted.

The fleet's backbone claim is byte-identity: a run checkpointed at an
arbitrary event boundary and resumed produces exactly the same
SimStats, FTL counters and clock as the run that never stopped.  These
tests assert it per FTL (pageFTL and flexFTL), for a QoS-fronted
device, and for a
snapshot taken *between* the multi-cut power losses of the PR-4
machinery.
"""

import json

import pytest

from repro.experiments.runner import ExperimentConfig, scenario_host
from repro.faults.recovery import recover_after_power_loss
from repro.fleet.device import DeviceRun, DeviceSpec
from repro.fleet.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotFormatError,
    read_snapshot,
    read_snapshot_header,
    write_snapshot,
)
from repro.nand.geometry import NandGeometry
from repro.qos.host import MultiTenantHost, TenantSpec
from repro.scenarios.base import TenantBinding
from repro.scenarios.presets import make_preset
from repro.sim.host import ClosedLoopHost, TraceReplayHost
from repro.sim.powerloss import ScheduledPowerLoss

GEOMETRY = NandGeometry(channels=2, chips_per_channel=1,
                        blocks_per_chip=16, pages_per_block=16,
                        page_size=4096)


CONFIG = ExperimentConfig(geometry=GEOMETRY, track_history=False)


def spec_for(ftl="flexFTL",
             tenants=0, device_id=0, ops=240, seed=11):
    scenario = make_preset("oltp", footprint=96, total_ops=ops,
                           seed=seed)
    spec = scenario.spec()
    if tenants:
        streams = int(spec["streams"])
        base, extra = divmod(streams, tenants)
        spec["tenants"] = [
            TenantBinding(name=f"t{i}",
                          streams=base + (1 if i < extra else 0)
                          ).to_dict()
            for i in range(tenants)
        ]
    return DeviceSpec(
        device_id=device_id,
        ftl_name=ftl,
        scenario=spec,
        config=CONFIG,
        arbiter="wrr" if tenants else None,
    )


def surface(run):
    """The full byte-comparable trace surface of a device run."""
    return json.dumps(
        {"stats": run.controller.stats.to_dict(),
         "counters": dict(run.ftl.counters()),
         "now": repr(run.sim.now),
         "events": run.sim.processed,
         "erases": run.array.total_erases},
        sort_keys=True)


def rewrite_header(path, **fields):
    """Overwrite header fields of a snapshot file in place."""
    import struct
    blob = path.read_bytes()
    magic_len = 8
    (hlen,) = struct.unpack(">I", blob[magic_len:magic_len + 4])
    header = json.loads(blob[magic_len + 4:magic_len + 4 + hlen])
    header.update(fields)
    hbytes = json.dumps(header, sort_keys=True,
                        separators=(",", ":")).encode()
    path.write_bytes(blob[:magic_len]
                     + struct.pack(">I", len(hbytes)) + hbytes
                     + blob[magic_len + 4 + hlen:])


class TestDeviceRoundTrip:
    @pytest.mark.parametrize("ftl", ["pageFTL", "flexFTL"])
    def test_resume_equals_uninterrupted(self, tmp_path, ftl):
        spec = spec_for(ftl=ftl)

        oracle = DeviceRun.build(spec)
        oracle.run_to_completion()

        run = DeviceRun.build(spec)
        run.advance(700)
        assert not run.done  # mid-run: the checkpoint is non-trivial
        path = tmp_path / "dev.snap"
        header = run.save(path)
        assert "kernel" not in header
        assert header["format_version"] == SNAPSHOT_FORMAT_VERSION

        resumed = DeviceRun.load(path)
        resumed.run_to_completion()

        assert surface(resumed) == surface(oracle)
        assert resumed.fingerprint() == oracle.fingerprint()

    def test_interrupted_continues_like_original(self, tmp_path):
        """The snapshot does not perturb the run it was taken from."""
        spec = spec_for()
        run = DeviceRun.build(spec)
        run.advance(500)
        path = tmp_path / "dev.snap"
        run.save(path)
        run.run_to_completion()

        resumed = DeviceRun.load(path)
        resumed.run_to_completion()
        assert surface(resumed) == surface(run)

    def test_qos_device_roundtrip(self, tmp_path):
        spec = spec_for(tenants=2, ops=200)
        oracle = DeviceRun.build(spec)
        oracle.run_to_completion()

        run = DeviceRun.build(spec)
        run.advance(400)
        path = tmp_path / "dev.snap"
        run.save(path)
        resumed = DeviceRun.load(path)
        resumed.run_to_completion()

        assert surface(resumed) == surface(oracle)
        assert (resumed.host.accountant.summary()
                == oracle.host.accountant.summary())
        assert resumed.result() == oracle.result()

    def test_qos_device_snapshot_is_bounded(self):
        """A tenant device snapshots its scenario spec and stream
        positions, not its op list: ten times the ops, same size."""
        import pickle

        sizes = []
        for ops in (2000, 20000):
            run = DeviceRun.build(spec_for(tenants=2, ops=ops))
            run.advance(500)
            assert not run.done
            sizes.append(len(pickle.dumps(run)))
        assert sizes[1] <= sizes[0] * 1.1, sizes

    def test_qos_device_snapshot_stays_bounded_as_it_runs(self):
        """Queue-depth statistics are running sums, not one sample per
        push and pop: 50,000 events in, a 2-tenant device pickles in
        under 400,000 B (a per-sample list made it 826,117 B)."""
        import pickle

        run = DeviceRun.build(spec_for(tenants=2, ops=20000))
        run.advance(50000)
        assert not run.done
        size = len(pickle.dumps(run))
        assert size <= 400_000, size


class TestHeaderValidation:
    def test_header_readable_without_payload(self, tmp_path):
        run = DeviceRun.build(spec_for())
        run.advance(300)
        path = tmp_path / "dev.snap"
        run.save(path)
        header = read_snapshot_header(path)
        assert header["kind"] == "device_run"
        assert header["events"] == run.sim.processed
        assert header["device_id"] == 0

    def test_corrupt_payload_detected(self, tmp_path):
        run = DeviceRun.build(spec_for())
        run.advance(200)
        path = tmp_path / "dev.snap"
        run.save(path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="integrity"):
            DeviceRun.load(path)

    def test_truncation_detected(self, tmp_path):
        run = DeviceRun.build(spec_for())
        run.advance(200)
        path = tmp_path / "dev.snap"
        run.save(path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            DeviceRun.load(path)

    def test_not_a_snapshot_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"definitely not a snapshot file")
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot_header(path)

    @pytest.mark.parametrize("old_format", [1, 2, 3, 4, 5])
    def test_old_format_refused_before_unpickling(self, tmp_path,
                                                  old_format):
        """Older payloads reference classes or state that no longer
        exist (format 1: controller internals; format 2: the separate
        streaming hosts and their op record; format 3: the multi-tenant
        host's own completion callback; format 4: the submission
        queues' depth-sample lists; format 5: the bucket-queue
        kernel); the header check refuses them with the typed format
        error, before the unpickler runs."""
        run = DeviceRun.build(spec_for())
        run.advance(200)
        path = tmp_path / "dev.snap"
        run.save(path)
        rewrite_header(path, format_version=old_format, stepping="event",
                       kernel="calendar")
        with pytest.raises(SnapshotFormatError,
                           match=f"uses snapshot format {old_format}; "
                                 f"this build reads format "
                                 f"{SNAPSHOT_FORMAT_VERSION}"):
            DeviceRun.load(path)
        with pytest.raises(SnapshotFormatError,
                           match=f"format {old_format}"):
            read_snapshot_header(path)

    def test_header_needs_no_caller_fields(self, tmp_path):
        path = tmp_path / "bare.snap"
        header = write_snapshot(path, {"x": 1}, {})
        assert "stepping" not in header and "kernel" not in header
        assert header["format_version"] == SNAPSHOT_FORMAT_VERSION
        assert read_snapshot(path) == (header, {"x": 1})

    def test_version_skew_warns(self, tmp_path):
        path = tmp_path / "skew.snap"
        write_snapshot(path, {"x": 1}, {})
        rewrite_header(path, package_version="0.0.0-elsewhere")
        with pytest.warns(UserWarning, match="0.0.0-elsewhere"):
            read_snapshot(path)


class TestSnapshotBetweenPowerCuts:
    def test_between_cuts_resume_matches(self, tmp_path):
        """A checkpoint taken after the first power-loss recovery and
        before the second cut resumes into an identical end state —
        the PR-4 multi-cut machinery (armed cut event, recovery state,
        resumed host) all rides in the snapshot."""
        from repro.experiments.runner import (
            begin_measured_phase,
            build_system,
            warmup_device,
        )
        from repro.scenarios.base import scenario_from_spec

        def build():
            config = CONFIG
            scenario = scenario_from_spec(
                make_preset("oltp", footprint=96, total_ops=300,
                            seed=4).spec())
            sim, array, buffer, ftl, controller = build_system(
                "flexFTL", config)
            warmup_device(sim, controller, ftl, config,
                          footprint=scenario.footprint)
            begin_measured_phase(controller, ftl, config)
            host = scenario_host(sim, controller, scenario)
            power = ScheduledPowerLoss(
                sim, controller,
                at_times=[sim.now + 0.004, sim.now + 0.012])
            host.start()
            return sim, array, ftl, controller, host, power

        def run_through_cuts(state, recovered):
            sim, array, ftl, controller, host, power = state
            while True:
                sim.run()
                if len(power.reports) <= recovered:
                    break
                report = power.reports[recovered]
                recover_after_power_loss(controller, report)
                recovered += 1
                host.resume()
                power.arm_next()
                controller._pump()
            return recovered

        # Oracle: straight through both cuts.
        oracle = build()
        cuts = run_through_cuts(oracle, 0)
        assert cuts == 2  # both cuts fired

        # Interrupted: run to the first cut, recover, checkpoint.
        state = build()
        sim, array, ftl, controller, host, power = state
        sim.run()
        assert len(power.reports) == 1
        recover_after_power_loss(controller, power.reports[0])
        host.resume()
        power.arm_next()
        controller._pump()
        path = tmp_path / "mid.snap"
        write_snapshot(
            path,
            {"state": state, "recovered": 1}, {})

        _header, payload = read_snapshot(path)
        resumed = payload["state"]
        run_through_cuts(resumed, payload["recovered"])

        def end_state(s):
            sim, array, ftl, controller, host, power = s
            return json.dumps(
                {"stats": controller.stats.to_dict(),
                 "counters": dict(ftl.counters()),
                 "now": repr(sim.now),
                 "erases": array.total_erases,
                 "cuts": len(power.reports)},
                sort_keys=True)

        assert end_state(resumed) == end_state(oracle)


class TestHostPicklability:
    def _system(self):
        from repro.experiments.runner import build_system

        sim, _a, _b, _f, controller = build_system("pageFTL",
                                                   CONFIG)
        scenario = make_preset("oltp", footprint=64, total_ops=50,
                               seed=1)
        return sim, controller, scenario

    def test_streaming_host_without_scenario_refuses(self):
        import pickle

        sim, controller, scenario = self._system()
        host = ClosedLoopHost(sim, controller, scenario.op_streams())
        host.start()
        with pytest.raises(TypeError, match="scenario"):
            pickle.dumps(host)

    def test_list_fed_host_refuses(self):
        """Lists pickle, but the host holds iterators over them; only
        a scenario spec can rebuild those."""
        import pickle

        sim, controller, scenario = self._system()
        streams = [list(stream) for stream in scenario.op_streams()]
        host = ClosedLoopHost(sim, controller, streams)
        host.start()
        with pytest.raises(TypeError, match="scenario="):
            pickle.dumps(host)
        trace = TraceReplayHost(sim, controller, [])
        with pytest.raises(TypeError, match="scenario="):
            pickle.dumps(trace)

    def test_list_fed_tenant_host_refuses(self):
        import pickle

        sim, controller, scenario = self._system()
        streams = [list(stream) for stream in scenario.op_streams()]
        host = MultiTenantHost(sim, controller, [
            TenantSpec.make("a", streams[:1]),
            TenantSpec.make("b", streams[1:])])
        host.start()
        sim.run(max_events=40)
        with pytest.raises(TypeError, match="MultiTenantHost.*scenario="):
            pickle.dumps(host)

    def test_scenario_fed_host_round_trips(self):
        """Fed a scenario, the same class pickles mid-run and resumes
        with its lookahead ops and progress intact."""
        import pickle

        sim, controller, scenario = self._system()
        host = ClosedLoopHost(sim, controller, scenario.op_streams(),
                              scenario=scenario)
        host.start()
        sim.run(max_events=40)
        assert 0 < host.issued < scenario.total_ops
        restored = pickle.loads(pickle.dumps(host))
        assert restored.issued == host.issued
        assert restored._current == host._current
        assert [list(it) for it in restored._iters] == \
            [list(it) for it in host._iters]

    def test_tracer_blocks_snapshot(self, tmp_path):
        from repro.fleet.snapshot import SnapshotError
        from repro.observability.tracer import Tracer

        run = DeviceRun.build(spec_for())
        tracer = Tracer()
        tracer.install(run.controller)
        try:
            with pytest.raises(SnapshotError, match="tracer"):
                run.save(tmp_path / "dev.snap")
        finally:
            tracer.detach()
        # Detached again, the device snapshots fine.
        run.save(tmp_path / "dev.snap")
