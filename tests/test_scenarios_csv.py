"""Tests for scenario CSV export, metadata and streaming parse.

The round-trip contract is field-for-field losslessness: a scenario
exported with :func:`write_scenario_csv` and read back through
:class:`TraceScenario` yields the *same* tagged ops, globally and per
stream.  Malformed files must fail with ``file:line`` context, and a
trace spec must pin the file content by hash.
"""

import csv
import json

import pytest

from repro.qos.host import tenant_specs_from_scenario
from repro.scenarios import (
    ScenarioCsvError,
    TraceScenario,
    iter_scenario_csv,
    make_preset,
    read_scenario_meta,
    scenario_from_spec,
    write_scenario_csv,
)
from repro.scenarios.base import OPEN, TenantBinding
from repro.scenarios.generator import Phase, WorkloadScenario
from repro.sim.queues import RequestKind


def _export(tmp_path, scenario, name="trace.csv"):
    path = tmp_path / name
    rows = write_scenario_csv(scenario, path)
    return path, rows


class TestRoundTrip:
    def test_ops_are_lossless(self, tmp_path):
        scenario = make_preset("varmail", 512, 200, seed=5)
        path, rows = _export(tmp_path, scenario)
        original = list(scenario.ops())
        replayed = list(TraceScenario(path).ops())
        assert rows == len(original)
        assert replayed == original

    def test_per_stream_recovery(self, tmp_path):
        scenario = make_preset("fileserver", 512, 200, seed=5)
        path, _ = _export(tmp_path, scenario)
        trace = TraceScenario(path)
        assert trace.stream_count == scenario.stream_count
        for mine, theirs in zip(trace.op_streams(),
                                scenario.op_streams()):
            assert list(mine) == list(theirs)

    def test_fingerprints_agree(self, tmp_path):
        scenario = make_preset("oltp", 512, 150, seed=2)
        path, _ = _export(tmp_path, scenario)
        assert TraceScenario(path).fingerprint() == \
            scenario.fingerprint()

    def test_tenants_survive(self, tmp_path):
        phases = (Phase(name="s", ops=40, read_fraction=0.5),)
        scenario = WorkloadScenario(
            "qos", 128, 2, phases, seed=1,
            tenants=(TenantBinding("victim", 1, weight=2.0),
                     TenantBinding("noisy", 1,
                                   rate_pages_per_sec=100.0)))
        path, _ = _export(tmp_path, scenario)
        trace = TraceScenario(path)
        assert trace.tenant_bindings() == scenario.tenant_bindings()
        assert {op.tenant for op in trace.ops()} == {"victim", "noisy"}


class TestMeta:
    def test_meta_row_contents(self, tmp_path):
        scenario = make_preset("webserver", 256, 100, seed=1)
        path, _ = _export(tmp_path, scenario)
        meta = read_scenario_meta(path)
        assert meta["schema"] == 1
        assert meta["name"] == "webserver"
        assert meta["mode"] == "closed"
        assert meta["footprint"] == 256
        assert meta["streams"] == 8

    def test_file_without_meta_needs_stream_override(self, tmp_path):
        path = tmp_path / "foreign.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["seq", "time", "op", "phase", "payload"])
            writer.writerow([0, "", "W", "", '{"lpn":1,"npages":1}'])
        assert read_scenario_meta(path) == {}
        with pytest.raises(ValueError, match="stream count unknown"):
            TraceScenario(path).op_streams()
        streams = TraceScenario(path, streams=1).op_streams()
        assert [op.lpn for it in streams for op in it] == [1]

    def test_malformed_meta_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('#meta,"{not json"\n')
        with pytest.raises(ScenarioCsvError, match=":1:"):
            read_scenario_meta(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceScenario(tmp_path / "nope.csv")


def _edit_meta(path, **changes):
    """Rewrite the #meta row of a CSV in place (None deletes a key)."""
    meta = read_scenario_meta(path)
    for key, value in changes.items():
        if value is None:
            meta.pop(key, None)
        else:
            meta[key] = value
    lines = path.read_text().splitlines(keepends=True)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow(["#meta", json.dumps(meta)])
        handle.writelines(lines[1:])


class TestTenantCoverage:
    """Bindings must cover a trace's streams exactly."""

    def _tenanted(self, tmp_path):
        phases = (Phase(name="s", ops=30, read_fraction=0.5),)
        scenario = WorkloadScenario(
            "qos", 128, 3, phases, seed=1,
            tenants=(TenantBinding("victim", 1),
                     TenantBinding("noisy", 2)))
        path, _ = _export(tmp_path, scenario)
        return path

    def test_meta_bindings_must_sum_to_streams(self, tmp_path):
        path = self._tenanted(tmp_path)
        _edit_meta(path, tenants=[{"name": "victim", "streams": 1},
                                  {"name": "noisy", "streams": 1}])
        with pytest.raises(ValueError, match=f"{path}.*declare 2 "
                                             f"streams.*has 3"):
            TraceScenario(path)

    def test_tenant_specs_need_exact_cover(self, tmp_path):
        path = self._tenanted(tmp_path)
        # Without a stream count in the meta row, the caller's override
        # decides; bindings for 3 streams cannot cover 4.
        _edit_meta(path, streams=None)
        with pytest.raises(ValueError, match="declare 3 streams, "
                                             "scenario has 4"):
            tenant_specs_from_scenario(TraceScenario(path, streams=4))
        specs = tenant_specs_from_scenario(TraceScenario(path, streams=3))
        assert [len(spec.streams) for spec in specs] == [1, 2]
        assert sum(1 for spec in specs for stream in spec.streams
                   for _op in stream) == 30


class TestMalformedRows:
    def _write(self, tmp_path, *rows):
        path = tmp_path / "bad.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["seq", "time", "op", "phase", "payload"])
            for row in rows:
                writer.writerow(row)
        return path

    def test_wrong_field_count(self, tmp_path):
        path = self._write(tmp_path, [0, "", "W", ""])
        with pytest.raises(ScenarioCsvError, match=r"bad\.csv:2"):
            list(iter_scenario_csv(path))

    def test_unknown_op(self, tmp_path):
        path = self._write(tmp_path,
                           [0, "", "X", "", '{"lpn":1,"npages":1}'])
        with pytest.raises(ScenarioCsvError, match="unknown op"):
            list(iter_scenario_csv(path))

    def test_bad_time(self, tmp_path):
        path = self._write(tmp_path,
                           [0, "soon", "W", "", '{"lpn":1,"npages":1}'])
        with pytest.raises(ScenarioCsvError, match="malformed time"):
            list(iter_scenario_csv(path))

    def test_bad_payload_json(self, tmp_path):
        path = self._write(tmp_path, [0, "", "W", "", "{oops"])
        with pytest.raises(ScenarioCsvError, match="payload JSON"):
            list(iter_scenario_csv(path))

    def test_payload_missing_lpn(self, tmp_path):
        path = self._write(tmp_path, [0, "", "W", "", '{"npages":1}'])
        with pytest.raises(ScenarioCsvError, match="lpn"):
            list(iter_scenario_csv(path))

    def test_non_numeric_payload(self, tmp_path):
        path = self._write(
            tmp_path, [0, "", "W", "", '{"lpn":"a","npages":1}'])
        with pytest.raises(ScenarioCsvError, match="non-numeric"):
            list(iter_scenario_csv(path))

    def test_negative_lpn(self, tmp_path):
        path = self._write(
            tmp_path, [0, "", "W", "", '{"lpn":-1,"npages":1}'])
        with pytest.raises(ScenarioCsvError, match="lpn must be"):
            list(iter_scenario_csv(path))

    def test_error_names_the_right_line(self, tmp_path):
        path = self._write(
            tmp_path,
            [0, "", "W", "", '{"lpn":1,"npages":1}'],
            [1, "", "W", "", '{"lpn":2,"npages":0}'])
        with pytest.raises(ScenarioCsvError, match=r"bad\.csv:3"):
            list(iter_scenario_csv(path))


class TestModes:
    def _open_trace(self, tmp_path, times):
        path = tmp_path / "open.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["#meta", json.dumps({"mode": "open", "name": "t"})])
            writer.writerow(["seq", "time", "op", "phase", "payload"])
            for seq, time in enumerate(times):
                writer.writerow([seq, repr(time), "W", "",
                                 '{"lpn":%d,"npages":1}' % seq])
        return path

    def test_open_trace_replays_as_requests(self, tmp_path):
        path = self._open_trace(tmp_path, [0.0, 0.5, 1.25])
        trace = TraceScenario(path)
        assert trace.mode == OPEN
        requests = list(trace.requests())
        assert [r.time for r in requests] == [0.0, 0.5, 1.25]
        assert all(r.kind is RequestKind.WRITE for r in requests)

    def test_mode_mismatch_rejected(self, tmp_path):
        open_path = self._open_trace(tmp_path, [0.0])
        with pytest.raises(ValueError, match="open-mode"):
            TraceScenario(open_path).op_streams()
        scenario = make_preset("oltp", 128, 50, seed=1)
        closed_path, _ = _export(tmp_path, scenario)
        with pytest.raises(ValueError, match="closed-mode"):
            list(TraceScenario(closed_path).requests())

    def test_bogus_mode_rejected(self, tmp_path):
        scenario = make_preset("oltp", 128, 50, seed=1)
        path, _ = _export(tmp_path, scenario)
        with pytest.raises(ValueError, match="mode"):
            TraceScenario(path, mode="sideways")


class TestTraceSpec:
    def test_spec_round_trip(self, tmp_path):
        scenario = make_preset("varmail", 256, 100, seed=1)
        path, _ = _export(tmp_path, scenario)
        trace = TraceScenario(path)
        clone = scenario_from_spec(
            json.loads(json.dumps(trace.spec())))
        assert clone.fingerprint() == trace.fingerprint()

    def test_spec_detects_content_change(self, tmp_path):
        scenario = make_preset("varmail", 256, 100, seed=1)
        path, _ = _export(tmp_path, scenario)
        spec = TraceScenario(path).spec()
        with path.open("a", newline="") as handle:
            handle.write('999,,W,,"{""lpn"":1,""npages"":1}"\n')
        with pytest.raises(ValueError, match="content changed"):
            scenario_from_spec(spec)

    def test_stream_scenario_exports_too(self, tmp_path):
        from repro.workloads.benchmarks import ProfileScenario
        scenario = ProfileScenario("OLTP", 256, total_ops=60, seed=1)
        path, rows = _export(tmp_path, scenario)
        assert rows == scenario.total_ops
        assert TraceScenario(path).fingerprint() == \
            scenario.fingerprint()
