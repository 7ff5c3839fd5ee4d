"""Real-execution training tests: the strongest Fig. 11 evidence.

EmbRace's full real pipeline (column-partitioned AlltoAll, Algorithm 1
split, modified Adam, lookup redistribution) trains **bit-identically**
to the Horovod-AllGather baseline for every model family.
"""

import numpy as np
import pytest

from repro.comm import open_group, run_threaded
from repro.engine.trainer_real import RealTrainer
from repro.eval import bleu, perplexity, perplexity_curve, teacher_forced_argmax
from repro.models import BERT_BASE, GNMT8, LM, TRANSFORMER, build_model
from repro.models.config import DLRM


def run_pair(config, steps=3, world=2, seed=5, **kw):
    ag = RealTrainer(config, strategy="allgather", world_size=world, steps=steps,
                     seed=seed, **kw).train()
    em = RealTrainer(config, strategy="embrace", world_size=world, steps=steps,
                     seed=seed, **kw).train()
    return ag, em


class TestBitEquivalence:
    @pytest.mark.parametrize(
        "paper_cfg", [LM, GNMT8, TRANSFORMER, BERT_BASE, DLRM],
        ids=["LM", "GNMT-8", "Transformer", "BERT-base", "DLRM"],
    )
    def test_embrace_equals_allgather(self, paper_cfg):
        ag, em = run_pair(paper_cfg.tiny())
        assert ag.losses == em.losses
        assert sorted(ag.state) == sorted(em.state)
        for key in ag.state:
            np.testing.assert_array_equal(ag.state[key], em.state[key], err_msg=key)

    @pytest.mark.parametrize("world", [2, 3])
    @pytest.mark.parametrize("paper_cfg", [DLRM, GNMT8], ids=["DLRM", "GNMT-8"])
    def test_table_groups_equal_allgather(self, paper_cfg, world):
        """Both models' tables share a width, so embrace exchanges them
        as one table group; the per-table allgather baseline is the
        reference (odd worlds: uneven column shards)."""
        ag, em = run_pair(paper_cfg.tiny(), world=world, steps=2)
        assert ag.losses == em.losses
        for key in ag.state:
            np.testing.assert_array_equal(ag.state[key], em.state[key], err_msg=key)

    def test_equivalence_three_workers(self):
        """Odd world sizes exercise uneven column shards."""
        ag, em = run_pair(GNMT8.tiny(), world=3, steps=2)
        for key in ag.state:
            np.testing.assert_array_equal(ag.state[key], em.state[key], err_msg=key)

    def test_equivalence_over_longer_run(self):
        ag, em = run_pair(LM.tiny(), steps=8)
        assert ag.losses == em.losses


class TestTrainingProgress:
    def test_loss_decreases(self):
        r = RealTrainer(GNMT8.tiny(), strategy="embrace", world_size=2,
                        steps=12, lr=5e-3, seed=0).train()
        first = np.mean(r.losses[:3])
        last = np.mean(r.losses[-3:])
        assert last < first

    def test_single_worker_degenerate(self):
        r = RealTrainer(LM.tiny(), strategy="embrace", world_size=1, steps=2).train()
        assert len(r.losses) == 2

    def test_tokens_counted(self):
        r = RealTrainer(LM.tiny(), strategy="allgather", world_size=2, steps=2).train()
        assert all(t > 0 for t in r.tokens_per_step)

    def test_comm_bytes_recorded(self):
        r = RealTrainer(LM.tiny(), strategy="embrace", world_size=2, steps=2).train()
        assert r.comm_bytes > 0

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            RealTrainer(LM.tiny(), strategy="magic")

    def test_predictions_recorded(self):
        r = RealTrainer(GNMT8.tiny(), strategy="allgather", world_size=2,
                        steps=2, record_predictions=True).train()
        assert len(r.predictions) == 2
        assert r.predictions[0].ndim == 2

    def test_predictions_come_from_the_steps_forward(self):
        """Predictions are read before the optimizer step moves the
        projection: step 0's are the initial model's."""
        from repro.engine.workload import batch_stream

        cfg = GNMT8.tiny()
        r = RealTrainer(cfg, strategy="embrace", world_size=1, steps=1, lr=1.0,
                        seed=3, record_predictions=True).train()
        model = build_model(cfg, rng=np.random.default_rng(3))
        batch = next(iter(batch_stream(cfg, "rtx3090", seed=4)))
        logits = model.decode_logits(batch.inputs, batch.targets[:, :-1])
        np.testing.assert_array_equal(r.predictions[0], np.argmax(logits, axis=-1))


class TestEvalMetrics:
    def test_perplexity(self):
        assert perplexity(0.0) == 1.0
        assert perplexity(np.log(40.0)) == pytest.approx(40.0)
        with pytest.raises(ValueError):
            perplexity(-1)

    def test_perplexity_capped(self):
        assert np.isfinite(perplexity(1000.0))

    def test_perplexity_curve_smoothing(self):
        curve = perplexity_curve([np.log(4), np.log(16)], smooth=2)
        assert curve[0] == pytest.approx(4.0)
        assert curve[1] == pytest.approx(8.0)  # exp(mean(log4, log16))
        with pytest.raises(ValueError):
            perplexity_curve([1.0], smooth=0)

    def test_bleu_perfect_match(self):
        ref = [np.array([5, 6, 7, 8, 9])]
        assert bleu(ref, ref) == pytest.approx(100.0)

    def test_bleu_no_overlap(self):
        hyp = [np.array([1, 2, 3, 4])]
        ref = [np.array([10, 11, 12, 13])]
        assert bleu(hyp, ref) == 0.0

    def test_bleu_partial(self):
        hyp = [np.array([5, 6, 7, 99])]
        ref = [np.array([5, 6, 7, 8])]
        score = bleu(hyp, ref)
        assert 0 < score < 100

    def test_bleu_brevity_penalty(self):
        full = bleu([np.array([5, 6, 7, 8])], [np.array([5, 6, 7, 8])])
        short = bleu([np.array([5, 6])], [np.array([5, 6, 7, 8])])
        assert short < full

    def test_bleu_strips_padding(self):
        hyp = [np.array([5, 6, 0, 0])]
        ref = [np.array([5, 6])]
        assert bleu(hyp, ref) == pytest.approx(bleu([np.array([5, 6])], ref))

    def test_bleu_validation(self):
        with pytest.raises(ValueError):
            bleu([], [])
        with pytest.raises(ValueError):
            bleu([np.array([1])], [])

    def test_teacher_forced_argmax(self):
        cfg = GNMT8.tiny()
        model = build_model(cfg)
        from repro.engine.workload import batch_stream

        batch = next(iter(batch_stream(cfg, "rtx3090")))
        model.forward_backward(batch)
        preds = teacher_forced_argmax(model, batch)
        assert preds.shape == batch.targets[:, 1:].shape
        # The decode path's argmax at every position, padding included.
        logits = model.decode_logits(batch.inputs, batch.targets[:, :-1])
        np.testing.assert_array_equal(preds, np.argmax(logits, axis=-1))

    def test_teacher_forced_requires_logits(self):
        class NoLogits:
            pass

        with pytest.raises(ValueError):
            teacher_forced_argmax(NoLogits(), None)


class TestConvergenceCurves:
    """Fig. 11's actual claim: both strategies converge identically."""

    def test_ppl_curves_identical(self):
        ag, em = run_pair(LM.tiny(), steps=6, seed=11)
        assert perplexity_curve(ag.losses) == perplexity_curve(em.losses)

    def test_bleu_trajectories_identical(self):
        ag, em = run_pair(GNMT8.tiny(), steps=4, seed=11,
                          record_predictions=True)
        for p_ag, p_em in zip(ag.predictions, em.predictions):
            np.testing.assert_array_equal(p_ag, p_em)


class TestValidationLoop:
    def test_val_losses_recorded_and_decreasing(self):
        cfg = GNMT8.tiny()
        r = RealTrainer(
            cfg, strategy="embrace", world_size=2, steps=12, lr=5e-3,
            seed=1, eval_every=4, eval_batches=2,
        ).train()
        assert len(r.val_losses) == 3
        assert r.val_losses[-1] < r.val_losses[0]

    def test_val_losses_identical_across_strategies(self):
        """Bit-identical models produce bit-identical validation curves."""
        cfg = LM.tiny()
        kw = dict(world_size=2, steps=4, seed=2, eval_every=2)
        ag = RealTrainer(cfg, strategy="allgather", **kw).train()
        em = RealTrainer(cfg, strategy="embrace", **kw).train()
        assert ag.val_losses == em.val_losses

    def test_eval_every_validation(self):
        with pytest.raises(ValueError):
            RealTrainer(LM.tiny(), eval_every=0)


class TestDensifiedAllReduceStrategy:
    def test_converges_and_matches_allgather_closely(self):
        """The densified baseline is numerically equivalent up to float
        summation order (ring chunks vs rank-ordered sparse sums) — a
        few float32 ulps."""
        cfg = GNMT8.tiny()
        kw = dict(world_size=2, steps=4, seed=3)
        ag = RealTrainer(cfg, strategy="allgather", **kw).train()
        ar = RealTrainer(cfg, strategy="allreduce", **kw).train()
        for key in ag.state:
            np.testing.assert_allclose(
                ag.state[key], ar.state[key], atol=1e-6, err_msg=key
            )

    def test_dense_format_moves_more_bytes(self):
        """§2.2's Fig. 1 claim, measured on real wire bytes: densified
        AllReduce sends the zeros, sparse strategies do not."""
        cfg = GNMT8.scaled(vocab=512, dim_divisor=32)
        kw = dict(world_size=4, steps=3, seed=0)
        dense_bytes = RealTrainer(cfg, strategy="allreduce", **kw).train().comm_bytes
        sparse_bytes = RealTrainer(cfg, strategy="allgather", **kw).train().comm_bytes
        embrace_bytes = RealTrainer(cfg, strategy="embrace", **kw).train().comm_bytes
        assert dense_bytes > sparse_bytes
        assert dense_bytes > embrace_bytes


class TestProcessBackend:
    """A process-backed group trains bit-identically to the thread backend."""

    @pytest.mark.slow
    def test_matches_thread_backend(self):
        kw = dict(strategy="embrace", world_size=2, steps=3, seed=5)
        ref = RealTrainer(GNMT8.tiny(), **kw).train()
        with open_group(2, backend="process") as group:
            got = RealTrainer(GNMT8.tiny(), group=group, **kw).train()
        assert got.losses == ref.losses
        for key in ref.state:
            np.testing.assert_array_equal(got.state[key], ref.state[key],
                                          err_msg=key)

    @pytest.mark.slow
    def test_allgather_strategy_on_shm(self):
        kw = dict(strategy="allgather", world_size=2, steps=3, seed=5)
        ref = RealTrainer(GNMT8.tiny(), **kw).train()
        with open_group(2, backend="process") as group:
            got = RealTrainer(GNMT8.tiny(), group=group, **kw).train()
        assert got.losses == ref.losses
        for key in ref.state:
            np.testing.assert_array_equal(got.state[key], ref.state[key],
                                          err_msg=key)


class TestOverlapScheduling:
    """The async comm engine (overlap=True, the default) must train
    bit-identically to inline execution of the same work items
    (overlap=False): same chunk bounds, same ring reductions, same
    per-row optimizer-op order for the carried-over delayed parts."""

    @staticmethod
    def _pair(cfg, **kw):
        sync = RealTrainer(cfg, overlap=False, **kw).train()
        over = RealTrainer(cfg, overlap=True, **kw).train()
        return sync, over

    @pytest.mark.parametrize("strategy", ["allgather", "allreduce", "embrace"])
    def test_overlap_bit_identical_to_sync(self, strategy):
        sync, over = self._pair(
            GNMT8.tiny(), strategy=strategy, world_size=2, steps=3, seed=5
        )
        assert sync.losses == over.losses
        for key in sync.state:
            np.testing.assert_array_equal(sync.state[key], over.state[key],
                                          err_msg=key)

    def test_overlap_with_validation_and_three_workers(self):
        """Odd shards + mid-run validation: the delayed parts must be
        flushed before every eval pass for the curves to match."""
        sync, over = self._pair(
            GNMT8.tiny(), strategy="embrace", world_size=3, steps=4,
            seed=2, eval_every=2,
        )
        assert sync.losses == over.losses
        assert sync.val_losses == over.val_losses
        for key in sync.state:
            np.testing.assert_array_equal(sync.state[key], over.state[key],
                                          err_msg=key)

    def test_overlap_under_faults_matches_clean_sync(self):
        """Drops/delays/reordering below the scheduler change timing,
        never numerics: faulty overlapped == clean synchronous."""
        from repro.faults import FaultPlan

        plan = FaultPlan(
            seed=3, delay_prob=0.3, delay_s=0.002, drop_prob=0.1,
            reorder_prob=0.2, reorder_s=0.003, recv_deadline=30.0,
        )
        kw = dict(strategy="embrace", world_size=2, steps=3, seed=5)
        clean = RealTrainer(GNMT8.tiny(), overlap=False, **kw).train()
        faulty = RealTrainer(
            GNMT8.tiny(), overlap=True, fault_plan=plan, **kw
        ).train()
        assert clean.losses == faulty.losses
        for key in clean.state:
            np.testing.assert_array_equal(clean.state[key], faulty.state[key],
                                          err_msg=key)

    @pytest.mark.slow
    def test_overlap_on_process_backend(self):
        kw = dict(strategy="embrace", world_size=2, steps=3, seed=5)
        ref = RealTrainer(GNMT8.tiny(), overlap=False, **kw).train()
        with open_group(2, backend="process") as group:
            got = RealTrainer(
                GNMT8.tiny(), overlap=True, group=group, **kw
            ).train()
        assert got.losses == ref.losses
        for key in ref.state:
            np.testing.assert_array_equal(got.state[key], ref.state[key],
                                          err_msg=key)


def _runtime_worker(comm, deferred):
    """Drive one table's TableGroupRuntime for a few synthetic steps, either
    fused (apply_gradient) or with the delayed part genuinely carried
    across the step boundary like the overlapped trainer does."""
    from repro.engine.embrace_runtime import TableGroupRuntime
    from repro.nn.embedding import Embedding
    from repro.tensors import SparseRows

    vocab, dim, steps = 48, 8, 4
    table = Embedding(vocab, dim, rng=np.random.default_rng(7), name="emb")
    rt = TableGroupRuntime(comm, {"emb": table})
    inv = 1.0 / comm.world_size
    rng = np.random.default_rng(100 + comm.rank)
    ids = [rng.integers(0, vocab, size=12) for _ in range(steps)]
    grads = [
        SparseRows(i, rng.normal(size=(len(i), dim)), vocab) for i in ids
    ]
    pending = None
    for t in range(steps):
        nxt = ids[t + 1] if t + 1 < steps else None
        global_next = (
            np.concatenate(comm.allgather(nxt)) if nxt is not None else None
        )
        if deferred:
            if pending is not None:
                rt.apply_part(pending, final=True)  # step-boundary flush
                pending = None
            prior, delayed = rt.split(grads[t], ids[t], global_next)
            rt.apply_part(rt.exchange(comm, prior, inv), final=False)
            pending = rt.exchange(comm, delayed, inv)
        else:
            rt.apply_gradient(grads[t], ids[t], global_next, scale=inv)
        if nxt is not None:
            rt.refresh_rows(nxt)  # deferred mode: pending still unapplied
    if pending is not None:
        rt.apply_part(pending, final=True)
    return rt.gather_tables()["emb"]


class TestDelayedStepBoundary:
    def test_deferred_delayed_matches_fused_reference(self):
        """Carrying the delayed part across the step boundary (through a
        refresh_rows that must not read its rows) reproduces the fused
        EmbraceAdam single-update sequence bit-exactly."""
        from repro.comm import run_threaded

        fused = run_threaded(2, _runtime_worker, False)
        deferred = run_threaded(2, _runtime_worker, True)
        for f, d in zip(fused, deferred):
            np.testing.assert_array_equal(f, d)
        np.testing.assert_array_equal(fused[0], fused[1])


def _forbid_gathers(monkeypatch):
    """Make any column AllGather of a table group raise."""
    from repro.engine.embrace_runtime import TableGroupRuntime

    def gather(*args, **kwargs):
        raise AssertionError("table gather after the last step")

    monkeypatch.setattr(TableGroupRuntime, "gather_tables", gather)
    monkeypatch.setattr(TableGroupRuntime, "_gather_columns", gather)


def _ring_gather_bytes(config, world):
    """What rank 0 sent in a ring AllGather of every table's columns:
    each rank's shard once, except rank 1's (the last one it receives)."""
    from repro.comm.sparse import column_slices

    model = build_model(config, rng=np.random.default_rng(0))
    total = 0
    for table in model.embedding_tables().values():
        rows, dim = table.weight.data.shape
        last = column_slices(dim, world)[1]
        total += rows * (dim - (last.stop - last.start)) * table.weight.data.itemsize
    return total


class TestNoCollectiveAfterLastStep:
    """Ranks return their own embedding columns; the launcher joins them."""

    HOT = {"hot_fraction": 0.05, "repartition_interval": 2}

    # Rank-0 comm_bytes (seed 5, int32 ids, values-only sparse
    # exchanges) had every run ended with a column AllGather of each
    # table; the runs send exactly that less.  Each step's loss mean
    # gathers one float64 to every peer: (N - 1) * 8 B.  Each one-shot
    # AllGather sends rank 0's own ids to every peer, so the world >= 3
    # figures follow rank 0's own id counts.
    @pytest.mark.parametrize(
        "paper_cfg, world, steps, knobs, bytes_with_gather",
        [
            (GNMT8, 2, 3, None, 109_312),
            (GNMT8, 3, 3, None, 146_776),
            (DLRM, 2, 3, None, 15_120),
            (DLRM, 3, 3, None, 22_464),
            (GNMT8, 2, 6, HOT, 218_324),
        ],
        ids=["GNMT-8-w2", "GNMT-8-w3", "DLRM-w2", "DLRM-w3", "GNMT-8-w2-hot"],
    )
    def test_state_assembled_without_gather(
        self, monkeypatch, paper_cfg, world, steps, knobs, bytes_with_gather
    ):
        config = paper_cfg.tiny()
        ag = RealTrainer(config, strategy="allgather", world_size=world,
                         steps=steps, seed=5).train()
        _forbid_gathers(monkeypatch)
        em = RealTrainer(config, strategy="embrace", world_size=world,
                         steps=steps, seed=5, knobs=knobs).train()
        assert em.losses == ag.losses
        assert list(em.state) == list(ag.state)
        for key in ag.state:
            np.testing.assert_array_equal(em.state[key], ag.state[key], err_msg=key)
        assert em.comm_bytes == bytes_with_gather - _ring_gather_bytes(config, world)

    def test_process_backend_assembles_thread_state(self, monkeypatch):
        _forbid_gathers(monkeypatch)  # before the fork: workers inherit it
        kw = dict(strategy="embrace", world_size=2, steps=3, seed=5)
        ref = RealTrainer(DLRM.tiny(), **kw).train()
        with open_group(2, backend="process") as group:
            got = RealTrainer(DLRM.tiny(), group=group, **kw).train()
        assert got.losses == ref.losses
        assert list(got.state) == list(ref.state)
        for key in ref.state:
            np.testing.assert_array_equal(got.state[key], ref.state[key], err_msg=key)


#: The wire lanes of an embrace run without hot rows, by counter name.
EMBRACE_LANES = ("dense", "ids", "alltoall_sparse", "lookup", "loss")


def _scalar_allreduce_bytes(comm):
    comm.allreduce(np.zeros(1))
    return comm.bytes_sent


def _sparse_value_bytes(config, world, steps, seed):
    """What rank 0's column-shard exchanges send when only values travel:
    every step, each row its batch reads times the columns it does not
    own times the value itemsize (no hot set, so every row is cold)."""
    from repro.comm.sparse import column_slices
    from repro.engine.workload import batch_stream

    trainer = RealTrainer(config, seed=seed)
    model = build_model(config, rng=np.random.default_rng(0))
    stream = batch_stream(config, trainer.gpu_kind, seed=seed + 1)
    total = 0
    for _ in range(steps):
        batch = next(stream)
        for name, table in model.embedding_tables().items():
            rows = len(np.unique(trainer._table_ids(model, name, batch)))
            dim = table.embedding_dim
            own = column_slices(dim, world)[0]
            peer_cols = dim - (own.stop - own.start)
            total += rows * peer_cols * table.weight.data.itemsize
    return total


class TestWireLanes:
    """Every byte an embrace step sends is named by a lane counter, row
    ids travel as int32, and they travel once: on the ids lane."""

    @pytest.mark.parametrize("world", [2, 3])
    @pytest.mark.parametrize("paper_cfg", [GNMT8, DLRM], ids=["GNMT-8", "DLRM"])
    def test_row_ids_travel_once(self, paper_cfg, world):
        steps = 4
        res = RealTrainer(paper_cfg.tiny(), strategy="embrace", world_size=world,
                          steps=steps, seed=5, trace=True).train()
        counters = res.trace.counters[0]
        # Every int32 byte is a gathered id: the sparse exchanges send
        # values only, their rows inferred from the ids AllGather.
        assert counters["wire_bytes.int32"] == counters["wire_bytes.ids"] > 0
        assert counters["wire_bytes.alltoall_sparse"] == _sparse_value_bytes(
            paper_cfg.tiny(), world, steps, seed=5
        )
        lanes = {lane: counters[f"wire_bytes.{lane}"] for lane in EMBRACE_LANES}
        assert sum(lanes.values()) == res.comm_bytes

    @pytest.mark.parametrize("paper_cfg", [GNMT8, DLRM], ids=["GNMT-8", "DLRM"])
    def test_lanes_sum_to_comm_bytes(self, paper_cfg):
        steps = 3
        res = RealTrainer(paper_cfg.tiny(), strategy="embrace", world_size=2,
                          steps=steps, seed=5, trace=True).train()
        counters = res.trace.counters[0]
        lanes = {lane: counters[f"wire_bytes.{lane}"] for lane in EMBRACE_LANES}
        assert all(lanes.values()), lanes
        # One float64 scalar allreduce of the loss per step.
        assert lanes["loss"] == steps * run_threaded(2, _scalar_allreduce_bytes)[0]
        assert sum(lanes.values()) == res.comm_bytes
        assert "wire_bytes.int64" not in counters

    def test_process_backend_sends_no_int64(self):
        with open_group(2, backend="process", trace=True) as group:
            res = RealTrainer(DLRM.tiny(), strategy="embrace", world_size=2,
                              steps=3, seed=5, group=group).train()
        counters = res.trace.counters[0]
        assert counters["wire_bytes.int32"] > 0
        assert "wire_bytes.int64" not in counters
        assert sum(counters[f"wire_bytes.{lane}"] for lane in EMBRACE_LANES) == (
            res.comm_bytes
        )
