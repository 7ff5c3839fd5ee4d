"""Tests for the DLRM-style recsys model extension."""

import numpy as np
import pytest

from repro.data import DLRMBatchIterator
from repro.engine.trainer_real import RealTrainer
from repro.models import block_specs
from repro.models.blocks import DLRM_DENSE_FEATURES
from repro.models.config import ALL_MODELS, DLRM, PAPER_MODELS
from repro.models.registry import build_model, get_config


class TestConfig:
    def test_registered_but_not_a_paper_model(self):
        assert "DLRM" in ALL_MODELS
        assert "DLRM" not in PAPER_MODELS  # Table 1 stays untouched
        assert get_config("DLRM") is DLRM

    def test_shape(self):
        assert DLRM.family == "dlrm"
        assert len(DLRM.tables) == 8
        assert all(t.dim == 64 for t in DLRM.tables)

    def test_tiny_scales_down(self):
        tiny = DLRM.tiny()
        assert tiny.family == "dlrm"
        assert all(t.vocab_size < 500_000 for t in tiny.tables)


class TestBlocks:
    def test_block_structure(self):
        blocks = block_specs(DLRM)
        names = [b.name for b in blocks]
        for t in DLRM.tables:
            assert t.name in names
        assert "bottom_mlp" in names and "top_mlp" in names
        top = next(b for b in blocks if b.name == "top_mlp")
        assert set(top.fp_deps) == {t.name for t in DLRM.tables} | {"bottom_mlp"}


class TestBatchIterator:
    def test_shapes_and_streams(self):
        config = DLRM.tiny()
        batch = next(iter(DLRMBatchIterator(config, batch_size=32, seed=1)))
        assert batch.targets.shape == (32, 1)
        assert set(batch.streams) == {t.name for t in config.tables} | {"__dense__"}
        assert batch.streams["__dense__"].shape == (32, DLRM_DENSE_FEATURES)
        for t in config.tables:
            ids = batch.streams[t.name]
            assert ids.shape == (32, config.src_seq_len)
            assert ids.min() >= 1  # 0 is the padding row
            assert ids.max() < t.vocab_size

    def test_deterministic_per_seed(self):
        config = DLRM.tiny()
        a = next(iter(DLRMBatchIterator(config, 16, seed=5)))
        b = next(iter(DLRMBatchIterator(config, 16, seed=5)))
        c = next(iter(DLRMBatchIterator(config, 16, seed=6)))
        t = config.tables[0].name
        assert np.array_equal(a.streams[t], b.streams[t])
        assert not np.array_equal(a.streams[t], c.streams[t])


class TestModel:
    def test_forward_backward_produces_sparse_grads(self):
        config = DLRM.tiny()
        model = build_model(config, rng=np.random.default_rng(0))
        batch = next(iter(DLRMBatchIterator(config, batch_size=16, seed=0)))
        loss = model.forward_backward(batch)
        assert np.isfinite(loss) and loss > 0
        for name, table in model.embedding_tables().items():
            grad = table.weight.grad
            assert grad is not None, name
            assert grad.indices.size > 0  # SparseRows, touched rows only

    def test_overfits_one_batch(self):
        """Gradients point downhill: repeated SGD on a fixed batch must
        drive its loss down (the synthetic targets are too noisy for a
        short multi-batch run to decrease monotonically)."""
        from repro.optim.sgd import SGD

        config = DLRM.tiny()
        model = build_model(config, rng=np.random.default_rng(0))
        batch = next(iter(DLRMBatchIterator(config, batch_size=32, seed=0)))
        opt = SGD(model.parameters(), lr=0.05)
        losses = []
        for _ in range(15):
            opt.zero_grad()
            losses.append(model.forward_backward(batch))
            opt.step()
        assert losses[-1] < losses[0]

    def test_tables_are_parameters_and_checkpointed(self, tmp_path):
        """``tables`` is a dict attribute: ``parameters()`` must walk it,
        or optimizers, ``state_dict()`` and checkpoints lose every table."""
        from repro.engine.checkpoint import load_checkpoint, save_checkpoint
        from repro.optim import EmbraceAdam

        config = DLRM.tiny()
        model = build_model(config, rng=np.random.default_rng(0))
        params = {id(p) for p in model.parameters()}
        for name, table in model.embedding_tables().items():
            assert id(table.weight) in params, name
            assert f"tables.{name}.weight" in model.state_dict()
        path = str(tmp_path / "dlrm.npz")
        save_checkpoint(path, model, EmbraceAdam(model.parameters()), step=1)
        restored = build_model(config, rng=np.random.default_rng(1))
        load_checkpoint(path, restored, EmbraceAdam(restored.parameters()))
        for name, table in model.embedding_tables().items():
            np.testing.assert_array_equal(
                restored.embedding_tables()[name].weight.data,
                table.weight.data,
                err_msg=name,
            )

    def test_real_trainer_runs(self):
        result = RealTrainer(
            DLRM.tiny(), strategy="embrace", world_size=2, steps=4, seed=0
        ).train()
        assert len(result.losses) == 4
        assert all(np.isfinite(x) for x in result.losses)

    @pytest.mark.parametrize("strategy", ["embrace", "allgather", "allreduce"])
    def test_overlap_bit_identical(self, strategy):
        losses = {}
        for overlap in (True, False):
            losses[overlap] = RealTrainer(
                DLRM.tiny(), strategy=strategy, world_size=2, steps=3,
                seed=0, overlap=overlap,
            ).train().losses
        assert losses[True] == losses[False]


class TestSimPath:
    def test_context_and_strategies(self):
        from repro.engine.step_simulator import simulate_step
        from repro.engine.trainer_sim import make_context
        from repro.strategies import ALL_STRATEGIES

        ctx = make_context(DLRM, "rtx3090", 4)
        times = {
            name: simulate_step(ALL_STRATEGIES[name](), ctx).step_time
            for name in ("EmbRace", "Horovod-AllReduce", "Horovod-AllGather")
        }
        assert all(t > 0 for t in times.values())
        # DLRM is embedding-dominated: densified AllReduce must lose.
        assert times["EmbRace"] < times["Horovod-AllReduce"]
