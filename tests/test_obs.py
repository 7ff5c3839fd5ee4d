"""repro.obs: ring recorder, payload/merge schema, metric parity, export.

The contract under test is the PR's core claim: a *real* traced run and
a *simulated* timeline are the same kind of object — one
:class:`~repro.sim.trace.Trace` schema, one ``computation_stall()``
implementation, one Chrome exporter.
"""

import json
import time

import numpy as np
import pytest

from repro.comm import open_group
from repro.engine.trainer_sim import make_context
from repro.obs import (
    NULL_RECORDER,
    SpanRecorder,
    TraceBundle,
    TraceConfig,
    as_trace_config,
    entries_from_payload,
    merge_payloads,
    rank_resource,
)
from repro.sim import execute
from repro.sim.multirank import expand_to_ranks
from repro.sim.trace import Trace, TraceEntry
from repro.sim.trace_export import to_chrome_trace
from repro.models import GNMT8
from repro.strategies import EmbRace


class FakeClock:
    """Deterministic clock: set ``.t`` then read it."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


def _recorder(rank=0, capacity=16) -> tuple[SpanRecorder, FakeClock]:
    clk = FakeClock()
    return SpanRecorder(rank=rank, capacity=capacity, clock=clk), clk


class TestSpanRecorder:
    def test_records_relative_spans(self):
        rec, clk = _recorder()
        clk.t = 1.0
        t0 = rec.t()
        clk.t = 3.5
        rec.rec("fwd", "compute", "compute", t0)
        payload = rec.payload()
        assert len(rec) == 1
        assert payload["start"][0] == pytest.approx(1.0)  # relative to t=0 origin
        assert payload["end"][0] == pytest.approx(3.5)
        assert payload["names"][payload["key"][0]] == ("fwd", "compute", "compute")

    def test_ring_wrap_drops_oldest(self):
        rec, clk = _recorder(capacity=4)
        for i in range(6):
            clk.t = float(i)
            rec.rec(f"s{i}", "compute", "compute", clk.t)
        assert len(rec) == 4
        assert rec.dropped == 2
        payload = rec.payload()
        names = [payload["names"][k][0] for k in payload["key"]]
        assert names == ["s2", "s3", "s4", "s5"]  # oldest-first unroll
        assert payload["dropped"] == 2

    def test_rebase_zeroes_clock_and_forgets(self):
        rec, clk = _recorder()
        rec.rec("early", "compute", "compute", 0.0)
        clk.t = 10.0
        rec.rebase()
        clk.t = 10.25
        rec.rec("late", "compute", "compute", 10.1)
        payload = rec.payload()
        assert len(rec) == 1
        assert payload["start"][0] == pytest.approx(0.1)
        assert payload["end"][0] == pytest.approx(0.25)

    def test_nested_collectives_record_only_outermost(self):
        rec, clk = _recorder()
        t_outer = rec.coll_begin()  # two_level_allreduce ...
        t_inner = rec.coll_begin()  # ... delegating to allreduce
        clk.t = 1.0
        rec.coll_end("allreduce", t_inner)
        clk.t = 2.0
        rec.coll_end("two_level_allreduce", t_outer)
        payload = rec.payload()
        assert len(rec) == 1
        assert payload["names"][payload["key"][0]][0] == "two_level_allreduce"

    def test_phase_lane_toggle(self):
        rec, clk = _recorder()
        rec.rec_phase("send", 0.0)
        assert rec.payload()["names"][0] == ("send", "comm.phase", "comm")
        quiet = SpanRecorder(capacity=8, clock=FakeClock(), phases=False)
        quiet.rec_phase("send", 0.0)
        assert len(quiet) == 0

    def test_counters_and_wire_bytes(self):
        rec, _ = _recorder()
        rec.count("retries")
        rec.count("retries", 2.0)
        rec.count_bytes(np.zeros(8, dtype=np.float32))
        rec.count_bytes(np.zeros(3, dtype=np.int64))
        assert rec.counters["retries"] == 3.0
        assert rec.counters["wire_bytes.float32"] == 32
        assert rec.counters["wire_bytes.int64"] == 24

    def test_as_trace_config(self):
        assert as_trace_config(None) is None
        assert as_trace_config(False) is None
        assert as_trace_config(True) == TraceConfig()
        cfg = TraceConfig(capacity=8, phases=False)
        assert as_trace_config(cfg) is cfg
        with pytest.raises(TypeError):
            as_trace_config("yes")

    def test_null_recorder_is_inert(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.coll_begin() == 0.0
        NULL_RECORDER.rec("x", "compute", "compute", 0.0)
        NULL_RECORDER.rec_phase("send", 0.0)
        NULL_RECORDER.count_bytes(np.zeros(4))
        with NULL_RECORDER.span("step"):
            pass  # no state anywhere to assert on -- that's the point


class TestMergeSchema:
    def _two_rank_bundle(self) -> TraceBundle:
        payloads = []
        for rank in (0, 1):
            rec, clk = _recorder(rank=rank)
            clk.t = 0.1
            rec.rec("fwd_bwd", "compute", "compute", 0.0)
            clk.t = 0.3
            rec.rec("allreduce", "comm", "comm", 0.1)
            rec.count("wire_bytes.float32", 64.0)
            payloads.append(rec.payload())
        return merge_payloads(payloads)

    def test_payload_roundtrip(self):
        rec, clk = _recorder(rank=3)
        clk.t = 2.0
        rec.rec("opt", "compute", "compute", 1.0)
        [entry] = entries_from_payload(rec.payload())
        assert entry == TraceEntry("opt", "compute:3", "compute", 1.0, 2.0)

    def test_merged_lanes_follow_multirank_schema(self):
        bundle = self._two_rank_bundle()
        assert bundle.trace.resources() == [
            "comm:0", "comm:1", "compute:0", "compute:1",
        ]
        assert bundle.ranks == [0, 1]
        assert bundle.total_counters() == {"wire_bytes.float32": 128.0}

    def test_stall_is_the_simulator_code_path(self):
        bundle = self._two_rank_bundle()
        # makespan 0.3, useful compute 0.1 -> stall 0.2 on either rank.
        assert bundle.computation_stall() == pytest.approx(0.2)
        assert bundle.per_rank_stall() == {
            0: pytest.approx(0.2), 1: pytest.approx(0.2),
        }
        # Same function, called directly on the underlying Trace.
        assert bundle.trace.computation_stall("compute:1") == pytest.approx(0.2)

    def test_unknown_lane_raises_instead_of_lying(self):
        bundle = self._two_rank_bundle()
        with pytest.raises(ValueError, match="compute:7"):
            bundle.computation_stall(rank=7)
        with pytest.raises(ValueError, match="lanes"):
            bundle.trace.computation_stall()  # bare "compute" isn't a lane
        assert Trace([]).computation_stall() == 0.0  # empty stays 0, not an error

    def test_sim_multirank_trace_wraps_identically(self):
        """A simulator-expanded trace drops into TraceBundle unchanged."""
        ctx = make_context(GNMT8, "rtx3090", 4)
        expanded = expand_to_ranks(EmbRace().build_step(ctx), world_size=2)
        trace = execute(expanded)
        bundle = TraceBundle(trace, counters={0: {}, 1: {}})
        assert bundle.computation_stall(0) == pytest.approx(
            trace.computation_stall(rank_resource("compute", 0))
        )

    def test_chrome_export_groups_ranks_into_processes(self):
        bundle = self._two_rank_bundle()
        blob = json.dumps(
            to_chrome_trace(bundle.trace, counters=bundle.total_counters())
        )
        doc = json.loads(blob)
        events = doc["traceEvents"]
        assert {e["pid"] for e in events} == {0, 1}
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 4
        assert doc["otherData"] == {"wire_bytes.float32": 128.0}


def _sleepy_step(comm, compute_s: float, reps: int):
    """A controlled real workload: known compute, tiny comm."""
    obs = comm.obs
    for _ in range(reps):
        with obs.span("fwd_bwd"):
            time.sleep(compute_s)
        comm.allreduce(np.ones(4, dtype=np.float32))
    return comm.rank


class TestTracedRuns:
    def test_thread_traced_run_measures_known_compute(self):
        """Real-run stall parity: makespan minus the sleeps we injected."""
        compute_s, reps = 0.02, 3
        with open_group(2, trace=True) as group:
            group.run(_sleepy_step, compute_s, reps)
            bundle = group.last_trace
        assert bundle is not None
        useful = bundle.busy_time("compute")
        assert useful >= compute_s * reps  # sleeps are a lower bound
        expected_stall = bundle.trace.makespan - useful
        assert bundle.computation_stall() == pytest.approx(expected_stall)
        # Collective spans landed on each rank's comm lane.
        assert bundle.busy_time("comm", rank=1) > 0.0
        counters = bundle.total_counters()
        assert counters.get("wire_bytes.float32", 0.0) > 0.0

    def test_untraced_run_records_nothing(self):
        with open_group(2) as group:
            results = group.run(_sleepy_step, 0.0, 1)
            assert group.last_trace is None
        assert results == [0, 1]

    def test_tracing_does_not_change_results(self):
        def fn(comm):
            return comm.allreduce(np.arange(4.0) * (comm.rank + 1))

        with open_group(2) as group:
            plain = group.run(fn)
        with open_group(2, trace=True) as group:
            traced = group.run(fn)
        for a, b in zip(plain, traced):
            np.testing.assert_array_equal(a, b)

    def test_phase_lane_off_by_config(self):
        with open_group(2, trace=TraceConfig(phases=False)) as group:
            group.run(_sleepy_step, 0.0, 1)
            lanes = group.last_trace.trace.resources()
        assert not [lane for lane in lanes if lane.startswith("comm.phase")]

    def test_ring_capacity_respected_under_pressure(self):
        with open_group(2, trace=TraceConfig(capacity=8)) as group:
            group.run(_sleepy_step, 0.0, 10)
            bundle = group.last_trace
        assert all(d > 0 for d in bundle.dropped.values())
        per_rank = {r: 0 for r in bundle.ranks}
        for e in bundle.trace.entries:
            per_rank[int(e.resource.rsplit(":", 1)[1])] += 1
        assert all(n == 8 for n in per_rank.values())


@pytest.mark.slow
class TestProcessTracedRun:
    def test_four_rank_shm_traced_run_exports_chrome_json(self, tmp_path):
        """The acceptance scenario: 4 shm workers, merged Perfetto trace."""
        from repro.sim.trace_export import write_chrome_trace

        with open_group(4, backend="process", trace=True) as group:
            group.run(_sleepy_step, 0.005, 2)
            bundle = group.last_trace
        assert bundle is not None and bundle.ranks == [0, 1, 2, 3]
        assert bundle.computation_stall() > 0.0
        assert bundle.total_counters().get("segpool.hits", 0.0) >= 0.0
        out = tmp_path / "trace.json"
        write_chrome_trace(bundle.trace, str(out), counters=bundle.total_counters())
        doc = json.loads(out.read_text())
        assert {e["pid"] for e in doc["traceEvents"]} == {0, 1, 2, 3}


class TestRecorderThreadSafety:
    def test_concurrent_recording_from_two_threads(self):
        """The comm scheduler records collective spans from its comm
        thread while the training thread records compute spans: no span
        lost, no counter torn, per-thread collective nesting."""
        import threading

        from repro.obs.recorder import SpanRecorder

        rec = SpanRecorder(rank=0, capacity=8192)
        per_thread = 500

        def hammer(lane):
            for _ in range(per_thread):
                t0 = rec.coll_begin()
                rec.coll_end(f"coll.{lane}", t0)
                rec.rec(f"span.{lane}", lane, "compute", rec.t())
                rec.count("n", 1.0)

        threads = [
            threading.Thread(target=hammer, args=(lane,))
            for lane in ("compute", "comm")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(rec) == 4 * per_thread
        assert rec.counters["n"] == 2 * per_thread
        assert rec.dropped == 0
        names = {n for n, _, _ in rec.payload()["names"]}
        assert names == {"coll.compute", "coll.comm", "span.compute",
                         "span.comm"}


class TestRowAccessCounters:
    def test_count_rows_accumulates_and_ranks(self):
        from repro.obs.recorder import SpanRecorder

        rec = SpanRecorder(rank=0)
        rec.count_rows("emb", [0, 0, 3, 7])
        rec.count_rows("emb", np.array([[3, 3], [0, 9]]))  # any shape raveled
        hot = rec.hot_rows("emb")
        assert hot[0] == (0, 3) and hot[1] == (3, 3)  # count desc, row asc
        assert dict(hot)[7] == 1 and dict(hot)[9] == 1
        assert rec.hot_rows("emb", k=1) == [(0, 3)]
        assert rec.hot_rows("missing") == []
        rec.count_rows("emb", [])  # no-op
        assert dict(rec.hot_rows("emb"))[0] == 3

    def test_count_rows_grows_on_demand(self):
        from repro.obs.recorder import SpanRecorder

        rec = SpanRecorder(rank=0)
        rec.count_rows("emb", [2])
        rec.count_rows("emb", [100_000])  # forces a regrow
        assert dict(rec.hot_rows("emb")) == {2: 1, 100_000: 1}

    def test_payload_ships_topk_and_bundle_merges(self):
        from repro.obs.recorder import SpanRecorder

        payloads = []
        for rank in range(2):
            rec = SpanRecorder(rank=rank, row_topk=2)
            rec.count_rows("emb", [0] * (5 - rank) + [1] * 2 + [2 + rank])
            payloads.append(rec.payload())
        summary = payloads[0]["row_counts"]["emb"]
        assert list(summary["ids"]) == [0, 1]  # top-2 only
        assert summary["total"] == 8 and summary["rows_seen"] == 3
        bundle = merge_payloads(payloads)
        assert bundle.row_tables() == ["emb"]
        assert bundle.hot_rows("emb", 2) == [(0, 9), (1, 4)]
        assert bundle.row_access_total("emb") == 15  # exact despite top-k

    def test_row_topk_config_round_trip(self):
        from repro.obs.recorder import SpanRecorder

        cfg = TraceConfig(row_topk=3)
        rec = SpanRecorder.from_config(0, cfg)
        rec.count_rows("emb", list(range(10)))
        assert len(rec.hot_rows("emb")) == 3
        with pytest.raises(ValueError):
            TraceConfig(row_topk=0)

    def test_null_recorder_accepts_row_counts(self):
        NULL_RECORDER.count_rows("emb", [1, 2, 3])  # must not raise

    def test_traced_training_records_embedding_row_counts(self):
        """The trainer's id stream feeds the hot-row counters (satellite:
        training-side recording; the serve-side twin lives in
        tests/test_serve.py)."""
        from repro.engine.run import RunConfig, run
        from repro.models import get_config

        result = run(RunConfig(
            model=get_config("GNMT-8").tiny(),
            mode="real",
            strategy="embrace",
            world_size=2,
            steps=2,
            backend="thread",
            trace=True,
        ))
        bundle = result.raw.trace
        assert bundle.row_tables(), "no row counters recorded"
        for table in bundle.row_tables():
            assert bundle.row_access_total(table) > 0
            assert bundle.hot_rows(table, 5)
