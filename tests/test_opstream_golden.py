"""Golden op streams: the generators' output pinned byte for byte.

The digests below were taken before the generators moved to bulk draws
(:mod:`repro.workloads.draws`), from the per-op numpy-scalar
formulation.  Any change to what a preset emits — a draw taken in a
different order, a Zipf rank searched differently, a think time
computed another way — changes a digest here.  Golden fig8 pins the
``PROFILES`` side (:mod:`repro.workloads.synthetic`) the same way.

Each stream is a preset at footprint 6000 with 4000 measured ops;
the digest is the first 16 hex digits of :meth:`Scenario.fingerprint`.

The Table-1 profile digests further down pin the benchmark workloads
(:class:`~repro.workloads.benchmarks.ProfileScenario`) from the time
they were still materialised op lists, one list per stream.  They were
taken over those lists with each op tagged with the index of the list
it came from.  (The list adapter of that time tagged every op with the
*last* stream index, a late-binding slip in its generator expressions;
the op contents and order were the same.)
"""

import hashlib

import pytest

from repro.experiments.fault_campaign import build_campaign_scenario
from repro.experiments.fig8 import DEFAULT_OPS
from repro.fleet.service import FleetSpec, run_fleet
from repro.perfbench.harness import WORKLOADS
from repro.scenarios.base import TenantBinding
from repro.scenarios.generator import Phase, WorkloadScenario
from repro.scenarios.presets import PRESETS, make_preset
from repro.workloads.benchmarks import PROFILES, ProfileScenario

FOOTPRINT = 6000
OPS = 4000

GOLDEN_STREAMS = {
    ("cold_aging", 1, False): "1f41f600bc7a8db3",
    ("cold_aging", 1, True): "4cb7e7fb18f7648d",
    ("cold_aging", 2, False): "f107c708c5b4dba6",
    ("cold_aging", 2, True): "56686b1502c59f28",
    ("fileserver", 1, False): "66181a704c13db52",
    ("fileserver", 1, True): "4dbf75b2a941a6da",
    ("fileserver", 2, False): "ae9b4eaa886441b0",
    ("fileserver", 2, True): "4b4ecfa91a9f69eb",
    ("hot_rewrite", 1, False): "c3a23f1c4c75eb65",
    ("hot_rewrite", 1, True): "2f3e5f96efe7b602",
    ("hot_rewrite", 2, False): "c4a15c229a0729c4",
    ("hot_rewrite", 2, True): "87af9aa425dc0fce",
    ("ntrx", 1, False): "d8038c8e9917ee3b",
    ("ntrx", 1, True): "8c61bee6f510340c",
    ("ntrx", 2, False): "8e88ddd2d2ac47f6",
    ("ntrx", 2, True): "b19081ddf7f11e12",
    ("oltp", 1, False): "650e50c39b30d17d",
    ("oltp", 1, True): "08d155308e476fbc",
    ("oltp", 2, False): "1d00f763a05e3cb5",
    ("oltp", 2, True): "05781a9389d17d37",
    ("varmail", 1, False): "008fdd1f0beeecd9",
    ("varmail", 1, True): "f940e13a23fb8731",
    ("varmail", 2, False): "64f8ee490d4d03d1",
    ("varmail", 2, True): "79de94d3014a3ca7",
    ("webserver", 1, False): "118a6f8474711950",
    ("webserver", 1, True): "568bb80f97cf010c",
    ("webserver", 2, False): "a88c3088798002e5",
    ("webserver", 2, True): "713673033c9e72c9",
}


def test_every_preset_is_pinned():
    assert {name for name, _, _ in GOLDEN_STREAMS} == set(PRESETS)


@pytest.mark.parametrize("name,seed,fill", sorted(GOLDEN_STREAMS))
def test_preset_stream_is_golden(name, seed, fill):
    scenario = make_preset(name, FOOTPRINT, OPS, seed=seed, fill=fill)
    assert scenario.fingerprint()[:16] == GOLDEN_STREAMS[(name, seed, fill)]


def _kitchen_sink(seed):
    """Every generator feature no preset uses: weighted and mixed
    request sizes, a multi-size fill, sequential runs, re-reads and
    hot draws in one phase, uniform cold draws, and a phase name
    reused later (which reuses its Zipf ranks)."""
    phases = (
        Phase(name="fill", kind="fill", npages=(3, 8)),
        Phase(name="mixed", kind="steady", ops=900, read_fraction=0.45,
              npages=(1, 2, 4, 16), npages_weights=(4.0, 2.0, 1.0, 0.5),
              seq=0.2, hot=0.4, zipf_s=1.05, read_recent=0.3, think=1e-4),
        Phase(name="pause", kind="idle", idle=0.03),
        Phase(name="storm", kind="burst", ops=700, read_fraction=0.6,
              npages=(1, 3), burst_len=37, burst_idle=0.07,
              read_recent=0.5, hot=0.2, zipf_s=0.0),
        Phase(name="mixed", kind="steady", ops=500, read_fraction=0.3,
              npages=(2,), hot=0.5, zipf_s=1.3, seq=0.1),
    )
    return WorkloadScenario("kitchen", footprint=2999, streams=3,
                            phases=phases, seed=seed, hot_fraction=0.3,
                            tenants=(TenantBinding("a", 2),
                                     TenantBinding("b", 1)))


@pytest.mark.parametrize("seed,digest", [(1, "1b829416a0722613"),
                                         (2, "08dd87b568af3e31")])
def test_every_generator_feature_is_golden(seed, digest):
    assert _kitchen_sink(seed).fingerprint()[:16] == digest


def test_fleet_fingerprint_is_golden():
    # ``repro serve --devices 64 --tenants 2 --ops 200``
    served = run_fleet(FleetSpec(devices=64, tenants=2, ops_per_device=200),
                       jobs=1)
    assert served.report.fingerprint().startswith("f80804b3d069c3ad")


def test_small_bursty_fleet_fingerprint_is_golden():
    served = run_fleet(FleetSpec(devices=4, preset="varmail",
                                 ops_per_device=300, tenants=2, seed=3),
                       jobs=1)
    assert served.report.fingerprint() == (
        "2d97dd5047d430c225f9cdbdc3b3451c877dfb01b32ff846ebeb83b740df9a3b")


#: The default fig8 span (utilisation 0.75 of the default device).
SPAN = 19046

#: (profile, seed) -> digest of the default fig8 cell's workload.
GOLDEN_PROFILES = {
    ("OLTP", 1): "fc8c8acb8a8ade00",
    ("OLTP", 2): "04eed69b5a8b7cc8",
    ("NTRX", 1): "8809c03a3d91afdf",
    ("NTRX", 2): "9cd636812bea53c3",
    ("Webserver", 1): "bf299e5c705cffd9",
    ("Webserver", 2): "1846446b5102120d",
    ("Varmail", 1): "1b2fc61734b867b2",
    ("Varmail", 2): "65e005d838e76639",
    ("Fileserver", 1): "b7c91ca2adf284f0",
    ("Fileserver", 2): "10d9c3cf56d2472a",
}

#: (profile, seed) -> footprint (highest page touched, plus one); the
#: warm-up fills exactly this span, so golden fig8 depends on it.
GOLDEN_FOOTPRINTS = {
    ("OLTP", 1): 19043, ("OLTP", 2): 19041,
    ("NTRX", 1): 19043, ("NTRX", 2): 19041,
    ("Webserver", 1): 19046, ("Webserver", 2): 19043,
    ("Varmail", 1): 19045, ("Varmail", 2): 19046,
    ("Fileserver", 1): 19041, ("Fileserver", 2): 19046,
}


def test_every_profile_is_pinned():
    assert {name for name, _ in GOLDEN_PROFILES} == set(PROFILES)


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_PROFILES))
def test_profile_stream_is_golden(name, seed):
    scenario = ProfileScenario(name, SPAN, DEFAULT_OPS[name], seed=seed)
    assert scenario.fingerprint()[:16] == GOLDEN_PROFILES[(name, seed)]
    assert scenario.footprint == GOLDEN_FOOTPRINTS[(name, seed)]
    assert scenario.total_ops == sum(1 for _ in scenario.ops())


@pytest.mark.parametrize("seed,digest", [(1, "8c600ef59ea686c2"),
                                         (2, "54056515a05d47f4")])
def test_fault_campaign_stream_is_golden(seed, digest):
    scenario = build_campaign_scenario(SPAN, 3000, seed)
    assert scenario.fingerprint()[:16] == digest
    assert scenario.footprint == 19039


@pytest.mark.parametrize("workload,digest", [
    ("fig8_write", "e0d88b8ebb384ccb"),
    ("zipf_mix", "f4978eb309ae789e"),
])
def test_perfbench_stream_is_golden(workload, digest):
    # ``perfbench --quick``: scale 0.1 at the benchmark span
    scenario = WORKLOADS[workload](SPAN, 0.1, 1)
    assert scenario.fingerprint()[:16] == digest


@pytest.mark.parametrize("scale,ops,digest", [
    (0.1, 2381, "748af8347e588e79"),
    (1.0, 7143, "b3b8dbb28c744b7f"),
])
def test_endurance_loop_matches_sequential_fill_passes(scale, ops, digest):
    """The loop was ``passes`` concatenated sequential fills; it now
    carries a ``fill`` phase tag, so only the op fields are pinned."""
    scenario = WORKLOADS["endurance_loop"](SPAN, scale, 1)
    (stream,) = scenario.op_streams()
    digest_of = hashlib.sha256()
    count = 0
    for op in stream:
        count += 1
        digest_of.update(f"{op.kind.value},{op.lpn},{op.npages},"
                         f"{op.think_after!r};".encode("utf-8"))
    assert count == ops == scenario.total_ops
    assert digest_of.hexdigest()[:16] == digest
    assert scenario.footprint == SPAN
