"""repro.serve: admission batching, version fences, and the online service.

The headline contracts under test:

* **bit-identity** — losses and final tables of the concurrent
  serve+train loop equal :func:`repro.serve.offline_reference` exactly,
  on both backends, at any serve load;
* **snapshot consistency** — every served batch carries exactly one
  table version, and its bytes equal the offline snapshot at that
  version (the torn-read hammer does the same at the seqlock level,
  with real racing threads);
* **graceful shutdown** — a ``KeyboardInterrupt`` mid-serve drains
  in-flight batches, cancels the queue, and exits every rank cleanly
  (process backend: without leaking ``/dev/shm`` segments).
"""

import glob
import threading
import time

import numpy as np
import pytest

from repro.comm import open_group
from repro.nn.embedding import Embedding
from repro.optim import EmbraceAdam
from repro.serve import (
    AdmissionQueue,
    LookupRequest,
    ServeConfig,
    ShardedEmbeddingService,
    SparseEmbeddingTask,
    VersionedShardStore,
    ZipfRequestLoad,
    build_tables,
    offline_reference,
)
from repro.tensors import SparseRows


def _req(table="t", n=4, vocab=64):
    return LookupRequest(table, np.arange(n, dtype=np.int64) % vocab)


# --------------------------------------------------------------------- #
# admission batching
# --------------------------------------------------------------------- #
class TestAdmissionQueue:
    def test_releases_at_max_batch(self):
        q = AdmissionQueue(max_batch=3, max_delay_s=60.0)
        reqs = [_req() for _ in range(4)]
        for r in reqs:
            assert q.submit(r)
        table, batch = q.next_batch(0.0)
        assert table == "t" and batch == reqs[:3]
        assert len(q) == 1
        # The leftover is below max_batch and young: not ripe yet.
        assert q.next_batch(0.0) is None

    def test_releases_at_max_delay(self):
        q = AdmissionQueue(max_batch=100, max_delay_s=0.01)
        r = _req()
        q.submit(r)
        assert q.next_batch(0.0) is None  # young head, poll returns nothing
        t0 = time.perf_counter()
        got = q.next_batch(1.0)
        assert got == ("t", [r])
        assert time.perf_counter() - t0 < 0.5  # waited ~max_delay, not timeout

    def test_batches_never_mix_tables(self):
        q = AdmissionQueue(max_batch=2, max_delay_s=60.0)
        a1, b1, a2 = _req("a"), _req("b"), _req("a")
        for r in (a1, b1, a2):
            q.submit(r)
        table, batch = q.next_batch(0.0)
        assert table == "a" and batch == [a1, a2]

    def test_timeout_poll_returns_none_when_empty(self):
        q = AdmissionQueue(max_batch=2, max_delay_s=0.001)
        t0 = time.perf_counter()
        assert q.next_batch(0.05) is None
        assert time.perf_counter() - t0 >= 0.04

    def test_close_cancels_new_and_ripens_queued(self):
        q = AdmissionQueue(max_batch=100, max_delay_s=60.0)
        queued = _req()
        q.submit(queued)
        q.close()
        late = _req()
        assert not q.submit(late)
        assert late.cancelled and late.done()
        # Closed queue: the young, undersized head is released at once.
        assert q.next_batch(0.0) == ("t", [queued])

    def test_cancel_pending_counts_and_cancels(self):
        q = AdmissionQueue(max_batch=100, max_delay_s=60.0)
        reqs = [_req() for _ in range(3)]
        for r in reqs:
            q.submit(r)
        assert q.cancel_pending() == 3
        assert all(r.cancelled for r in reqs)
        assert len(q) == 0


# --------------------------------------------------------------------- #
# request load
# --------------------------------------------------------------------- #
class TestZipfRequestLoad:
    def test_deterministic_per_client(self):
        load = ZipfRequestLoad(512, ("a", "b"), ids_per_request=8, seed=3)
        runs = []
        for _ in range(2):
            rng = load.client_rng(1)
            runs.append(
                [load.make_request(rng, 1, i) for i in range(5)]
            )
        for r1, r2 in zip(*runs):
            assert r1.table == r2.table
            assert np.array_equal(r1.ids, r2.ids)
        # A different client draws a different stream.
        other = load.make_request(load.client_rng(2), 2, 0)
        assert not np.array_equal(other.ids, runs[0][0].ids)

    def test_round_robins_tables_with_client_phase(self):
        load = ZipfRequestLoad(64, ("a", "b"), ids_per_request=2, seed=0)
        rng = load.client_rng(0)
        tables = [load.make_request(rng, 0, i).table for i in range(4)]
        assert tables == ["a", "b", "a", "b"]
        rng = load.client_rng(1)
        assert load.make_request(rng, 1, 0).table == "b"  # phase offset

    def test_zipfian_skew(self):
        load = ZipfRequestLoad(1024, ("t",), ids_per_request=64, seed=0)
        rng = load.client_rng(0)
        ids = np.concatenate(
            [load.make_request(rng, 0, i).ids for i in range(64)]
        )
        counts = np.bincount(ids, minlength=1024)
        assert counts[0] > counts[10] > counts[500]


# --------------------------------------------------------------------- #
# seqlock torn-read hammer
# --------------------------------------------------------------------- #
class _FakeRuntime:
    """Single-rank runtime stand-in: full table is 'this rank's shard'."""

    def __init__(self, table, lr=5e-2):
        self.weight = table.weight
        self.my_columns = slice(0, table.embedding_dim)
        self._opt = EmbraceAdam([table.weight], lr=lr)

    def hot_mask(self, ids):
        return np.zeros(len(ids), dtype=bool)

    def apply_part(self, shard_grad, final):
        self._opt.apply_sparse_part(self.weight, shard_grad, final=final)


class TestVersionFenceHammer:
    def test_no_torn_reads_under_concurrent_adam_updates(self):
        vocab, dim, steps = 64, 16, 60
        rng = np.random.default_rng(0)
        table = Embedding(vocab, dim, rng=rng, name="t")
        store = VersionedShardStore(_FakeRuntime(table))
        snapshots = {0: table.weight.data.copy()}
        ids = np.arange(vocab, dtype=np.int64)
        stop = threading.Event()
        failures: list[str] = []

        def reader():
            while not stop.is_set():
                version, _, block, _ = store.read_rows_placed(ids)
                expect = snapshots.get(version)
                if expect is None:
                    failures.append(f"unknown version {version}")
                    return
                if not np.array_equal(block, expect):
                    failures.append(f"torn read at version {version}")
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        grad_rng = np.random.default_rng(1)
        for step in range(steps):
            grad = SparseRows(
                ids.copy(),
                grad_rng.standard_normal((vocab, dim)),
                num_rows=vocab,
                coalesced=True,
            )
            # Snapshot *before* publishing the new version: a reader
            # must never observe version v+1 rows before snapshots[v+1]
            # exists, so compute the post-state on a copy first.
            store.fence.begin_write()
            try:
                store.runtime.apply_part(grad, final=True)
                snapshots[step + 1] = table.weight.data.copy()
            finally:
                store.fence.end_write()
            time.sleep(0)  # let readers interleave
        stop.set()
        for t in readers:
            t.join(timeout=30)
        assert not failures, failures
        assert store.version == steps


# --------------------------------------------------------------------- #
# the service
# --------------------------------------------------------------------- #
def _assert_bit_identical_and_consistent(cfg, report):
    losses, final, snaps = offline_reference(cfg, snapshots=True)
    assert report.losses == losses  # bit-identical, not approx
    for name in cfg.tables:
        assert np.array_equal(report.final_tables[name], final[name])
    assert report.torn_batches == 0
    assert all(v >= 0 for v in report.batch_versions)
    # Every served byte equals the offline snapshot at the batch version.
    assert report.serve_results, "record_serve_results produced nothing"
    for table, ids, version, values in report.serve_results:
        assert np.array_equal(values, snaps[version][table][ids])


class TestShardedEmbeddingService:
    def test_thread_backend_serves_during_training(self):
        cfg = ServeConfig(
            world_size=2,
            backend="thread",
            clients=2,
            requests_per_client=15,
            train_steps=6,
            record_serve_results=True,
            trace=True,
        )
        with ShardedEmbeddingService(cfg) as service:
            report = service.run()
        assert report.requests_served == cfg.total_requests
        assert report.steps_done == cfg.train_steps
        assert report.batches > 0 and report.p99_ms > 0
        _assert_bit_identical_and_consistent(cfg, report)
        # Interference is observable: the serve lane recorded spans and
        # both id streams fed the hot-row counters.
        assert report.trace.busy_time("serve", 0) > 0
        assert report.trace.row_tables() == ["embedding"]
        hot = report.trace.hot_rows("embedding", 3)
        assert hot and hot[0][0] == 0  # Zipf head row dominates

    def test_multi_table_and_serve_load_does_not_perturb_training(self):
        quiet = ServeConfig(
            world_size=2,
            backend="thread",
            tables=("emb_a", "emb_b"),
            clients=1,
            requests_per_client=2,
            train_steps=5,
        )
        busy = ServeConfig(
            world_size=2,
            backend="thread",
            tables=("emb_a", "emb_b"),
            clients=3,
            requests_per_client=25,
            train_steps=5,
        )
        with ShardedEmbeddingService(quiet) as service:
            quiet_report = service.run()
        with ShardedEmbeddingService(busy) as service:
            busy_report = service.run()
        # Same training arithmetic regardless of serve pressure.
        assert quiet_report.losses == busy_report.losses
        _, final, _ = offline_reference(busy)
        for name in busy.tables:
            assert np.array_equal(busy_report.final_tables[name], final[name])

    def test_sync_mode_matches_overlapped(self):
        base = dict(
            world_size=2, backend="thread", clients=2,
            requests_per_client=8, train_steps=4,
        )
        with ShardedEmbeddingService(ServeConfig(**base, overlap=True)) as s:
            overlapped = s.run()
        with ShardedEmbeddingService(ServeConfig(**base, overlap=False)) as s:
            synchronous = s.run()
        assert overlapped.losses == synchronous.losses

    def test_world_size_one(self):
        cfg = ServeConfig(
            world_size=1, backend="thread", clients=1,
            requests_per_client=5, train_steps=3, record_serve_results=True,
        )
        with ShardedEmbeddingService(cfg) as service:
            report = service.run()
        assert report.requests_served == 5
        _assert_bit_identical_and_consistent(cfg, report)

    def test_close_gathers_no_table(self, monkeypatch):
        """Each rank returns its own columns and run() joins them; world 3
        cuts dim 32 into uneven shards."""
        from repro.engine.embrace_runtime import TableGroupRuntime

        def gather(*args, **kwargs):
            raise AssertionError("table gather at service close")

        monkeypatch.setattr(TableGroupRuntime, "gather_tables", gather)
        monkeypatch.setattr(TableGroupRuntime, "_gather_columns", gather)
        cfg = ServeConfig(
            world_size=3, backend="thread", tables=("emb_a", "emb_b"), clients=1,
            requests_per_client=5, train_steps=3, record_serve_results=True,
        )
        with ShardedEmbeddingService(cfg) as service:
            report = service.run()
        assert list(report.final_tables) == list(cfg.tables)
        _assert_bit_identical_and_consistent(cfg, report)

    def test_process_backend_fast(self):
        cfg = ServeConfig(
            world_size=2,
            backend="process",
            clients=2,
            requests_per_client=8,
            train_steps=4,
            record_serve_results=True,
        )
        with ShardedEmbeddingService(cfg) as service:
            report = service.run()
        assert report.requests_served == cfg.total_requests
        _assert_bit_identical_and_consistent(cfg, report)

    @pytest.mark.parametrize("world, backend", [(3, "thread"), (2, "process")])
    def test_three_tables_hot_rows_and_repartition(self, world, backend):
        cfg = ServeConfig(
            vocab=256,
            dim=16,
            tables=("a", "b", "c"),
            world_size=world,
            backend=backend,
            placement={"a": range(8), "c": [0, 3, 17]},
            hot_fraction=0.05,
            repartition_interval=2,
            zipf_exponent=1.2,
            clients=2,
            requests_per_client=10,
            train_steps=6,
            record_serve_results=True,
        )
        with ShardedEmbeddingService(cfg) as service:
            report = service.run()
        assert report.requests_served == cfg.total_requests
        assert report.repartitions >= 1
        _assert_bit_identical_and_consistent(cfg, report)

    @pytest.mark.parametrize("interval", [0, 2])
    def test_rejects_out_of_range_hot_rows(self, interval):
        cfg = ServeConfig(
            vocab=64, dim=8, world_size=2, backend="thread",
            placement={"embedding": [0, 1, 500]},
            repartition_interval=interval, clients=1,
            requests_per_client=2, train_steps=4,
        )
        with ShardedEmbeddingService(cfg) as service:
            with pytest.raises(
                RuntimeError, match=r"ValueError\('embedding: hot row 500 outside"
            ):
                service.run()

    @pytest.mark.slow
    def test_process_backend_four_ranks(self):
        cfg = ServeConfig(
            world_size=4,
            backend="process",
            clients=3,
            requests_per_client=10,
            train_steps=5,
            record_serve_results=True,
        )
        with ShardedEmbeddingService(cfg) as service:
            report = service.run()
        assert report.requests_served == cfg.total_requests
        _assert_bit_identical_and_consistent(cfg, report)
        assert glob.glob("/dev/shm/repro-*") == []


class TestCollectiveCount:
    """Comm-lane collectives per committed step of a traced 2-rank
    service (one lookup, six steps).  A function of the op script, not
    of timing, so the bounds cannot flake."""

    @pytest.mark.parametrize(
        "tables, hot, bound",
        [
            # 14.0 with one exchange per table; one group now.
            (("a", "b", "c"), True, 8.0),
            (("a",), True, 7.67),
            (("a",), False, 6.67),
        ],
    )
    def test_one_exchange_per_step_for_all_tables(self, tables, hot, bound):
        cfg = ServeConfig(
            vocab=64, dim=8, world_size=2, tables=tables,
            placement={name: range(4) for name in tables} if hot else None,
            clients=1, requests_per_client=1, train_steps=6,
        )
        with open_group(2, backend="thread", trace=True) as g:
            report = ShardedEmbeddingService(cfg, group=g).run()
        per_step = len(report.trace.trace.by_resource("comm:0")) / cfg.train_steps
        assert per_step <= bound


# --------------------------------------------------------------------- #
# graceful shutdown
# --------------------------------------------------------------------- #
class TestGracefulShutdown:
    def test_interrupt_drains_and_exits_cleanly(self):
        cfg = ServeConfig(
            world_size=2,
            backend="thread",
            clients=2,
            requests_per_client=10_000,  # far more than the interrupt allows
            train_steps=10_000,
            interrupt_after=12,
        )
        t0 = time.perf_counter()
        with ShardedEmbeddingService(cfg) as service:
            report = service.run()
        assert time.perf_counter() - t0 < 60
        assert report.interrupted
        assert report.torn_batches == 0
        assert report.requests_served < cfg.total_requests
        # Every request a client submitted was resolved one way or the
        # other — nobody is left blocked on a dead service.
        assert report.requests_served + report.requests_cancelled > 0
        # The group survives: a fresh run on the same service world works.
        follow_up = ServeConfig(
            world_size=2, backend="thread", clients=1,
            requests_per_client=3, train_steps=2,
        )
        with ShardedEmbeddingService(follow_up) as service:
            assert service.run().requests_served == 3

    def test_interrupt_before_any_op(self):
        cfg = ServeConfig(
            world_size=2, backend="thread", clients=1,
            requests_per_client=100, train_steps=100, interrupt_after=0,
        )
        with ShardedEmbeddingService(cfg) as service:
            report = service.run()
        assert report.interrupted
        assert report.steps_done <= 1  # at most the drain's commit

    @pytest.mark.slow
    def test_process_backend_interrupt_leaves_no_shm(self):
        cfg = ServeConfig(
            world_size=2,
            backend="process",
            clients=2,
            requests_per_client=10_000,
            train_steps=10_000,
            interrupt_after=20,
        )
        with ShardedEmbeddingService(cfg) as service:
            report = service.run()
            assert report.interrupted
            assert report.torn_batches == 0
            # Pool still healthy after the drain: run again on it.
            rerun = ShardedEmbeddingService(
                ServeConfig(
                    world_size=2, backend="process", clients=1,
                    requests_per_client=3, train_steps=2,
                ),
                group=service.group,
            ).run()
            assert rerun.requests_served == 3
        assert glob.glob("/dev/shm/repro-*") == []


# --------------------------------------------------------------------- #
# config and online-reference plumbing
# --------------------------------------------------------------------- #
class TestOnlineReference:
    def test_build_tables_deterministic(self):
        cfg = ServeConfig(tables=("a", "b"))
        t1, t2 = build_tables(cfg), build_tables(cfg)
        for name in cfg.tables:
            assert np.array_equal(t1[name].weight.data, t2[name].weight.data)
        assert not np.array_equal(t1["a"].weight.data, t1["b"].weight.data)

    def test_snapshots_chain_to_final(self):
        cfg = ServeConfig(train_steps=4, world_size=2)
        losses, final, snaps = offline_reference(cfg, snapshots=True)
        assert len(losses) == 4 and sorted(snaps) == [0, 1, 2, 3, 4]
        assert np.array_equal(snaps[4]["embedding"], final["embedding"])
        assert not np.array_equal(snaps[0]["embedding"], final["embedding"])

    def test_task_gradient_is_row_sparse_and_correct(self):
        task = SparseEmbeddingTask(vocab=32, dim=4, seed=0)
        weight = np.zeros((32, 4))
        ids = np.array([1, 1, 5], dtype=np.int64)
        loss, grad = task.loss_and_grad(weight, ids)
        assert grad.num_rows == 32 and grad.nnz_rows == 3
        expect = 0.5 * float(np.mean(task.targets[ids] ** 2))
        assert loss == pytest.approx(expect)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(tables=())
        with pytest.raises(ValueError):
            ServeConfig(tables=("a", "a"))
        with pytest.raises(ValueError):
            ServeConfig(backend="mpi")
        with pytest.raises(ValueError):  # the second wire is gone
            ServeConfig(backend="process", transport="queue")
        assert ServeConfig(backend="process", transport="shm").transport == "shm"
        with pytest.raises(ValueError):
            ServeConfig(interrupt_after=-1)
