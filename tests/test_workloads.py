"""Tests for the workloads package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.scenarios.base import scenario_from_spec
from repro.sim.queues import Request, RequestKind
from repro.workloads.benchmarks import (
    PROFILES,
    ProfileScenario,
    WorkloadProfile,
    format_rw_ratio,
    workload_table,
)
from repro.workloads.synthetic import (
    burst_stream,
    mixed_stream,
    sequential_fill,
    uniform_random_writes,
)
from repro.workloads.trace import load_trace, save_trace
from repro.workloads.zipf import ZipfSampler
from tests.helpers import profile_streams


class TestZipf:
    def test_samples_in_range(self):
        sampler = ZipfSampler(100, 1.0, np.random.default_rng(0))
        samples = sampler.sample_many(1000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_skew_concentrates_mass(self):
        rng = np.random.default_rng(1)
        skewed = ZipfSampler(1000, 1.2, rng, shuffle=False)
        samples = skewed.sample_many(5000)
        top_share = np.mean(samples < 10)
        assert top_share > 0.3  # top-10 ranks get a large share

    def test_zero_skew_is_roughly_uniform(self):
        rng = np.random.default_rng(2)
        uniform = ZipfSampler(100, 0.0, rng, shuffle=False)
        samples = uniform.sample_many(10000)
        top_share = np.mean(samples < 10)
        assert 0.05 < top_share < 0.2

    def test_shuffle_spreads_hot_items(self):
        rng = np.random.default_rng(3)
        sampler = ZipfSampler(1000, 1.2, rng, shuffle=True)
        samples = sampler.sample_many(5000)
        # the hottest item is no longer item 0
        values, counts = np.unique(samples, return_counts=True)
        assert values[np.argmax(counts)] != 0 or counts.max() < 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, s=-1.0)
        sampler = ZipfSampler(10)
        with pytest.raises(ValueError):
            sampler.sample_many(-1)


class TestSyntheticPrimitives:
    def test_sequential_fill_covers_space_exactly_once(self):
        ops = sequential_fill(100, npages_per_request=8)
        covered = []
        for op in ops:
            assert op.kind is RequestKind.WRITE
            covered.extend(range(op.lpn, op.lpn + op.npages))
        assert covered == list(range(100))

    def test_uniform_random_writes_bounds(self):
        rng = np.random.default_rng(0)
        ops = uniform_random_writes(50, 200, npages=4, rng=rng)
        assert len(ops) == 200
        assert all(op.lpn + op.npages <= 50 for op in ops)

    def test_mixed_stream_ratio(self):
        rng = np.random.default_rng(0)
        ops = mixed_stream(1000, 2000, read_fraction=0.7, rng=rng)
        reads = sum(op.kind is RequestKind.READ for op in ops)
        assert 0.65 < reads / len(ops) < 0.75

    def test_burst_stream_think_structure(self):
        rng = np.random.default_rng(0)
        ops = burst_stream(1000, bursts=3, burst_len=10, idle=0.5,
                           rng=rng)
        assert len(ops) == 30
        idles = [i for i, op in enumerate(ops) if op.think_after > 0]
        assert idles == [9, 19, 29]

    def test_grouped_burst_puts_writes_first(self):
        rng = np.random.default_rng(0)
        ops = burst_stream(1000, bursts=1, burst_len=20, idle=0.0,
                           read_fraction=0.5, grouped=True, rng=rng)
        kinds = [op.kind for op in ops]
        first_read = kinds.index(RequestKind.READ)
        assert all(k is RequestKind.READ for k in kinds[first_read:])

    def test_reads_follow_writes(self):
        rng = np.random.default_rng(0)
        ops = burst_stream(10_000, bursts=2, burst_len=30, idle=0.0,
                           read_fraction=0.5, grouped=True,
                           reads_follow_writes=True, rng=rng)
        for i in range(0, len(ops), 30):
            burst = ops[i:i + 30]
            written = {op.lpn for op in burst
                       if op.kind is RequestKind.WRITE}
            for op in burst:
                if op.kind is RequestKind.READ:
                    assert op.lpn in written

    def test_validation(self):
        with pytest.raises(ValueError):
            sequential_fill(0)
        with pytest.raises(ValueError):
            burst_stream(10, bursts=0, burst_len=5, idle=0.1)
        with pytest.raises(ValueError):
            burst_stream(10, bursts=1, burst_len=5, idle=-0.1)
        with pytest.raises(ValueError):
            mixed_stream(10, 5, read_fraction=1.5)


class TestBenchmarkProfiles:
    def test_all_five_workloads_exist(self):
        assert set(PROFILES) == {"OLTP", "NTRX", "Webserver", "Varmail",
                                 "Fileserver"}

    def test_table1_ratios(self):
        assert PROFILES["OLTP"].read_write_ratio == "7:3"
        assert PROFILES["NTRX"].read_write_ratio == "3:7"
        assert PROFILES["Webserver"].read_write_ratio == "4:1"
        assert PROFILES["Varmail"].read_write_ratio == "1:1"
        assert PROFILES["Fileserver"].read_write_ratio == "1:2"

    def test_table1_intensities(self):
        assert PROFILES["OLTP"].intensiveness == "very high"
        assert PROFILES["NTRX"].intensiveness == "very high"
        assert PROFILES["Webserver"].intensiveness == "moderate"
        assert PROFILES["Varmail"].intensiveness == "high"
        assert PROFILES["Fileserver"].intensiveness == "high"

    def test_format_rw_ratio(self):
        assert format_rw_ratio(0.5) == "1:1"
        assert format_rw_ratio(0.33) == "1:2"
        assert format_rw_ratio(0.0) == "0:1"
        assert format_rw_ratio(1.0) == "1:0"

    def test_build_workload_stream_count(self):
        for name, profile in PROFILES.items():
            scenario = ProfileScenario(name, 4096, total_ops=800, seed=1)
            assert scenario.stream_count == profile.streams
            assert len(scenario.op_streams()) == profile.streams

    def test_build_workload_deterministic(self):
        a = profile_streams("Varmail", 4096, 400, seed=9)
        b = profile_streams("Varmail", 4096, 400, seed=9)
        assert a == b

    def test_build_workload_seed_sensitivity(self):
        a = profile_streams("Varmail", 4096, 400, seed=1)
        b = profile_streams("Varmail", 4096, 400, seed=2)
        assert a != b

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            ProfileScenario("bogus", 4096, 100)
        with pytest.raises(ValueError):
            ProfileScenario("OLTP", 4096, 0)

    def test_workload_table_mentions_all(self):
        table = workload_table()
        for name in PROFILES:
            assert name in table


class TestProfileScenario:
    CUSTOM = WorkloadProfile(
        name="custom", read_fraction=0.4, intensiveness="high",
        streams=3, npages=2, burst_len=20, burst_idle=0.01, zipf_s=0.8,
        reads_recent=True)

    def test_spec_size_does_not_grow_with_ops(self):
        small = json.dumps(ProfileScenario("Varmail", 19046, 200).spec())
        large = json.dumps(ProfileScenario("Varmail", 19046, 24000).spec())
        # only the op count's own digits differ
        assert len(large) - len(small) == len("24000") - len("200")
        assert len(large) < 2048

    def test_custom_profile_spec_round_trip(self):
        scenario = ProfileScenario(self.CUSTOM, 777, 300, seeds=(5, 6, 7))
        wire = json.loads(json.dumps(scenario.spec()))
        clone = scenario_from_spec(wire)
        assert clone.profile == self.CUSTOM
        assert clone.seeds == (5, 6, 7)
        assert clone.fingerprint() == scenario.fingerprint()
        assert clone.footprint == scenario.footprint

    def test_spec_resolves_in_a_fresh_interpreter(self):
        # A pool worker may resolve a spec before anything imported
        # the workloads package.
        scenario = ProfileScenario(self.CUSTOM, 777, 300, seed=4)
        code = (
            "import json, sys\n"
            "from repro.scenarios.base import scenario_from_spec\n"
            "spec = json.loads(sys.stdin.read())\n"
            "print(scenario_from_spec(spec).fingerprint())\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], input=json.dumps(scenario.spec()),
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == scenario.fingerprint()

    def test_ops_carry_their_stream_index(self):
        scenario = ProfileScenario("OLTP", 4096, 160, seed=1)
        for index, stream in enumerate(scenario.op_streams()):
            ops = list(stream)
            assert ops and all(op.stream == index for op in ops)
            assert all(op.tenant is None and op.phase == "" for op in ops)
        streams = profile_streams("OLTP", 4096, 160, seed=1)
        assert [op.stream for op in scenario.ops()][:16] == list(range(16))
        assert sum(len(s) for s in streams) == scenario.total_ops

    def test_footprint_is_the_touched_span(self):
        scenario = ProfileScenario(self.CUSTOM, 777, 300, seed=2)
        touched = max(op.lpn + op.npages for op in scenario.ops())
        assert scenario.footprint == touched <= 777
        assert "footprint" not in scenario.spec()

    def test_seed_count_must_match_streams(self):
        with pytest.raises(ValueError, match="seeds"):
            ProfileScenario("OLTP", 4096, 100, seeds=(1, 2))


class TestTraceIo:
    def test_roundtrip(self, tmp_path):
        requests = [
            Request(0.0, RequestKind.WRITE, 10, 4),
            Request(0.25, RequestKind.READ, 2, 1),
        ]
        path = tmp_path / "trace.txt"
        save_trace(path, requests)
        loaded = load_trace(path)
        assert len(loaded) == 2
        assert loaded[0].kind is RequestKind.WRITE
        assert loaded[0].lpn == 10
        assert loaded[0].npages == 4
        assert loaded[1].time == pytest.approx(0.25)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n0.5 R 3 1\n")
        loaded = load_trace(path)
        assert len(loaded) == 1

    def test_malformed_lines_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0.5 R 3\n")
        with pytest.raises(ValueError):
            load_trace(path)
        path.write_text("0.5 X 3 1\n")
        with pytest.raises(ValueError):
            load_trace(path)
        path.write_text("0.5 R 3 1 victim extra\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_untagged_trace_stays_four_column(self, tmp_path):
        requests = [Request(0.0, RequestKind.WRITE, 10, 4)]
        path = tmp_path / "trace.txt"
        save_trace(path, requests)
        text = path.read_text()
        assert text.splitlines()[0] == "# time op lpn npages"
        assert all(len(line.split()) == 4
                   for line in text.splitlines()[1:])
        assert load_trace(path)[0].tenant is None

    def test_tenant_roundtrip(self, tmp_path):
        requests = [
            Request(0.0, RequestKind.WRITE, 10, 4, tenant="victim"),
            Request(0.25, RequestKind.READ, 2, 1),
        ]
        path = tmp_path / "trace.txt"
        save_trace(path, requests)
        text = path.read_text()
        assert text.splitlines()[0] == "# time op lpn npages tenant"
        assert text.splitlines()[2].endswith(" -")
        loaded = load_trace(path)
        assert loaded[0].tenant == "victim"
        assert loaded[1].tenant is None

    def test_mixed_width_lines_accepted(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0.0 W 1 1\n0.5 R 3 1 noisy\n")
        loaded = load_trace(path)
        assert loaded[0].tenant is None
        assert loaded[1].tenant == "noisy"

    def test_unstorable_tenant_names_rejected(self, tmp_path):
        path = tmp_path / "trace.txt"
        for bad in ("-", "two words", ""):
            requests = [Request(0.0, RequestKind.WRITE, 1, 1,
                                tenant=bad)]
            with pytest.raises(ValueError):
                save_trace(path, requests)
