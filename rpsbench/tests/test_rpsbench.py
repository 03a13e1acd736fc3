"""Tests of the benchmark's own code, at a tiny size.

Run from the repository root with ``python -m pytest rpsbench/tests``.
"""

import dataclasses
import importlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from rpsbench import bench, layers
from rpsbench.workloads import ENTRY_POINTS, WORKLOADS, GateError

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Work per repetition as a share of the full benchmark's.
SCALE = 0.05


@pytest.fixture(scope="module")
def untraced():
    return {name: bench.measure(name, seed=3, seconds=0.0, scale=SCALE)
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: bench.measure_layers(name, seed=3, scale=SCALE)
            for name in WORKLOADS}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench.PER_LAYER


@pytest.mark.parametrize("dotted", list(ENTRY_POINTS)
                         + layers.entry_points())
def test_recorded_entry_points_exist(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
            break
        except ImportError:
            continue
    for attr in parts[split:]:
        target = getattr(target, attr)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_end_to_end_metric_with_its_unit(untraced, name):
    line = untraced[name].line()
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} \
        == bench.END_TO_END
    # (at this size a device may finish before its first erase)
    for metric, entry in line["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] >= 0, metric
    for metric in ("host_ops_per_ref", "devices_per_ref", "setup_s",
                   "peak_rss_mb", "sim_iops", "waf"):
        assert line["metrics"][metric]["value"] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_per_layer_metric_with_its_unit(traced, name):
    line = traced[name].line()
    assert line["correct"] is True
    assert {k: v["unit"] for k, v in line["metrics"].items()} \
        == bench.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_and_unattributed_sum_to_traced_wall(traced, name):
    metrics = traced[name].metrics
    total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    total += metrics["bench.unattributed_s"]
    assert total == pytest.approx(traced[name].meta["traced_wall_s"],
                                  rel=1e-9)
    assert metrics["bench.unattributed_s"] >= 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_fingerprints_are_equal(untraced, traced,
                                                    name):
    assert traced[name].meta["fingerprint"] \
        == untraced[name].meta["fingerprint"]


def test_layers_work_where_predicted(traced):
    def nonzero(name, prefix):
        return any(value for metric, value in traced[name].metrics.items()
                   if metric.startswith(prefix))

    for name in WORKLOADS:
        assert nonzero(name, "reliability.") == (name == "worn_read_physics")
        assert nonzero(name, "qos.") == (name == "tenant_traced")
        assert nonzero(name, "observability.") == (name == "tenant_traced")
        assert nonzero(name, "fleet.") == (name == "fleet_serve")
    assert traced["worn_read_physics"].metrics[
        "reliability.shift_retries"] > 0


def test_wrappers_are_removed_after_the_traced_run(traced):
    from repro.experiments import runner
    from repro.nand.array import NandArray

    assert not hasattr(NandArray.program, "__wrapped__")
    assert not hasattr(runner.build_system, "__wrapped__")


class _SecondRepPerturbed:
    """A workload whose second repetition reports another fingerprint."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def run(self, seed, scale=1.0, **kwargs):
        rep = self.inner.run(seed, scale, **kwargs)
        self.calls += 1
        if self.calls == 2:
            rep = dataclasses.replace(rep, fingerprint="0" * 64)
        return rep


def test_perturbed_fingerprint_trips_the_gate(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "ntrx_write",
                        _SecondRepPerturbed(WORKLOADS["ntrx_write"]))
    with pytest.raises(GateError, match="fingerprints differ"):
        bench.measure("ntrx_write", seed=1, seconds=0.0, scale=SCALE)


def test_command_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "rpsbench"), tmp_path / "rpsbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "rpsbench/run.py", "--workload", "ntrx_write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
