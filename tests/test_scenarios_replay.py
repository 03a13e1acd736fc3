"""Streaming-replay tests: bounded memory, host semantics, perfbench.

The headline assertion is the PR's acceptance criterion: a >= 1M-op
on-disk trace replays through the trace host without materializing
the request list — a periodic census of live ``Request`` objects
during the replay stays orders of magnitude below the trace length
(a materialized replay would hold all million at once).

Also covers: the trace host's single-op lookahead and
out-of-order detection, end-to-end equivalence of replay-from-CSV with
direct generation, the streaming ``iter_trace`` loader, and the
``scenario_replay`` perfbench case.
"""

import csv
import gc
import json

import pytest

from repro.experiments.runner import (
    ExperimentConfig,
    experiment_span,
    run_workload,
)
from repro.nand.geometry import NandGeometry
from repro.scenarios import (
    TraceScenario,
    iter_scenario_csv,
    make_preset,
    write_scenario_csv,
)
from repro.sim.host import TraceReplayHost
from repro.sim.kernel import Simulator
from repro.sim.queues import Request, RequestKind
from repro.workloads.trace import iter_trace, load_trace

TEST_CONFIG = ExperimentConfig(
    geometry=NandGeometry(channels=2, chips_per_channel=2,
                          blocks_per_chip=16, pages_per_block=16,
                          page_size=2048),
    buffer_pages=64,
)

#: The acceptance threshold's op count.
MILLION = 1_000_000

#: Live-Request ceiling during the streaming replay.  The streaming
#: path holds one look-ahead request plus whatever transiently awaits
#: garbage collection between census points; a materialized replay
#: would hold all :data:`MILLION`.
BOUNDED_LIVE_REQUESTS = 1_000


class _CountingController:
    """Submit sink: completes nothing, just counts arrivals."""

    def __init__(self) -> None:
        self.submitted = 0

    def submit(self, request: Request) -> None:
        self.submitted += 1


def _write_million_op_csv(path, ops=MILLION):
    """Hand-write an open-mode trace CSV of ``ops`` rows."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["#meta", json.dumps(
            {"schema": 1, "name": "million", "mode": "open"})])
        writer.writerow(["seq", "time", "op", "phase", "payload"])
        for seq in range(ops):
            writer.writerow([
                seq, repr(seq * 1e-6), "W" if seq % 3 else "R", "",
                '{"lpn":%d,"npages":1}' % (seq % 4096),
            ])
    return path


def _live_requests() -> int:
    """Count Request instances currently alive on the heap."""
    gc.collect()
    return sum(isinstance(obj, Request) for obj in gc.get_objects())


@pytest.mark.slow
class TestBoundedMemoryReplay:
    def test_million_op_trace_replays_in_bounded_memory(self, tmp_path):
        path = _write_million_op_csv(tmp_path / "million.csv")
        trace = TraceScenario(path)
        sim = Simulator()
        controller = _CountingController()

        census = []

        def sampling(requests):
            for index, request in enumerate(requests):
                if index % 250_000 == 0:
                    census.append(_live_requests())
                yield request

        host = TraceReplayHost(sim, controller,
                               sampling(trace.requests()))
        host.start()
        sim.run()
        assert host.issued == MILLION
        assert controller.submitted == MILLION
        # Four mid-replay censuses: had the replay materialized the
        # trace, the later ones would count hundreds of thousands of
        # live Requests instead of a handful.
        assert len(census) == 4
        assert max(census) < BOUNDED_LIVE_REQUESTS


class TestTraceReplayLookahead:
    def _requests(self, times):
        return iter(Request(t, RequestKind.WRITE, i, 1)
                    for i, t in enumerate(times))

    def test_arrivals_fire_at_trace_times(self):
        sim = Simulator()
        controller = _CountingController()
        arrivals = []
        controller.submit = \
            lambda req: arrivals.append((sim.now, req.lpn))
        host = TraceReplayHost(
            sim, controller, self._requests([0.0, 0.5, 0.5, 2.0]))
        host.start()
        sim.run()
        assert arrivals == [(0.0, 0), (0.5, 1), (0.5, 2), (2.0, 3)]

    @pytest.mark.parametrize("feed", [iter, list],
                             ids=["iterator", "list"])
    def test_out_of_order_trace_rejected(self, feed):
        """A lazy and a materialized trace fail alike: at the
        offending arrival, naming its position."""
        sim = Simulator()
        host = TraceReplayHost(
            sim, _CountingController(),
            feed(self._requests([0.0, 1.0, 0.5])))
        host.start()
        with pytest.raises(ValueError, match="request 2"):
            sim.run()

    def test_empty_trace_is_a_noop(self):
        sim = Simulator()
        host = TraceReplayHost(sim, _CountingController(), iter(()))
        host.start()
        sim.run()
        assert host.issued == 0


class TestReplayEquivalence:
    def test_csv_replay_equals_direct_generation(self, tmp_path):
        span = experiment_span(TEST_CONFIG, utilization=0.5)
        scenario = make_preset("varmail", span, 300, seed=3)
        path = tmp_path / "varmail.csv"
        write_scenario_csv(scenario, path)
        direct = run_workload(ftl_name="flexFTL", scenario=scenario,
                              config=TEST_CONFIG)
        replayed = run_workload(ftl_name="flexFTL",
                                scenario=TraceScenario(path),
                                config=TEST_CONFIG)
        assert json.dumps(direct.to_dict(), sort_keys=True) == \
            json.dumps(replayed.to_dict(), sort_keys=True)

    def test_streaming_parse_never_materializes(self, tmp_path):
        # iter_scenario_csv is a generator: pulling three ops of a
        # large file must not read the rest.
        scenario = make_preset("oltp", 2048, 2000, seed=1)
        path = tmp_path / "oltp.csv"
        write_scenario_csv(scenario, path)
        iterator = iter_scenario_csv(path)
        first = [next(iterator) for _ in range(3)]
        assert len(first) == 3
        iterator.close()  # no full parse happened


class TestIterTrace:
    def test_iter_trace_streams_lazily(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# time op lpn npages\n"
                        "0.0 W 1 4\n0.5 R 2 1\n1.0 W 3 2\n")
        iterator = iter_trace(path)
        first = next(iterator)
        assert first.lpn == 1 and first.kind is RequestKind.WRITE
        assert [r.lpn for r in iterator] == [2, 3]

    def test_load_trace_materializes_iter_trace(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0.0 W 1 4 victim\n0.5 R 2 1 -\n")
        assert load_trace(path) == list(iter_trace(path))

    def test_conversion_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0.0 W 1 1\nnope W 2 1\n")
        with pytest.raises(ValueError, match=r"trace\.txt:2"):
            list(iter_trace(path))
        path.write_text("0.0 W many 1\n")
        with pytest.raises(ValueError, match=r"trace\.txt:1"):
            list(iter_trace(path))


class TestPerfbenchScenarioReplay:
    def test_scenario_replay_case_runs(self):
        from repro.perfbench.harness import run_perfbench

        result = run_perfbench(workloads=["scenario_replay"],
                               scale=0.05)
        timing = result.timings["scenario_replay"]
        assert timing.events > 0
        assert timing.host_ops > 0
        assert timing.events_per_sec > 0

    def test_unknown_workload_still_rejected(self):
        from repro.perfbench.harness import run_perfbench

        with pytest.raises(KeyError):
            run_perfbench(workloads=["scenario_warp"])
