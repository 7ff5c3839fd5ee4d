"""Training precision: float32 end to end on the real path.

EmbRace trains in fp32 and every size this repo prices assumes 4-byte
values (``EmbeddingTableConfig.row_nbytes == dim * 4 + 8``).  These
tests hold the real path to it:

* dtype audit — after one ``forward_backward`` every parameter, dense
  gradient and ``SparseRows`` gradient of every model is float32, so no
  float64 upcast leaks into compute or onto the wire; so is every array
  a 2-rank ``RealTrainer`` returns and the service's final tables;
* checkpoints — a float64 checkpoint (every one written before the
  switch) resumes a float32 model and float32 shard / Adam state, and a
  float32 checkpoint round-trips bit-exactly;
* the wire — one exchanged sparse row costs ``shard width * 4 + 8``
  bytes per peer, the simulator's price;
* BLAS — a process-group worker runs one BLAS thread unless the user
  chose a thread count.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.comm import open_group, run_threaded
from repro.engine import checkpoint as ckpt
from repro.engine.embrace_runtime import TableGroupRuntime
from repro.engine.trainer_real import RealTrainer
from repro.engine.workload import batch_stream
from repro.faults import FaultPlan
from repro.models.config import ALL_MODELS, DLRM, GNMT8, EmbeddingTableConfig
from repro.models.registry import build_model
from repro.nn.embedding import Embedding
from repro.obs import SpanRecorder
from repro.obs.merge import install_recorder
from repro.optim import Adam
from repro.serve import ServeConfig, ShardedEmbeddingService, offline_reference
from repro.tensors import SparseRows
from repro.utils import blas

F32 = np.dtype(np.float32)

#: Every registered model at test scale, the LM with and without its
#: sampled softmax, and the two ``benchmarks/e2e`` training configs.
AUDIT_MODELS = {
    **{name: (cfg.tiny(), {}) for name, cfg in ALL_MODELS.items()},
    "LM-sampled": (ALL_MODELS["LM"].tiny(), {"num_sampled": 16}),
    "gnmt_compute": (
        replace(GNMT8.scaled(vocab=4096, dim_divisor=16), batch_size_rtx3090=32),
        {},
    ),
    "dlrm_sparse": (
        replace(DLRM.scaled(vocab=20000, dim_divisor=2), batch_size_rtx3090=256),
        {},
    ),
}


def _grad_arrays(p):
    if p.grad is None:
        return []
    if isinstance(p.grad, SparseRows):
        return [p.grad.values]
    return [p.grad]


# --------------------------------------------------------------------- #
# dtype audit
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(AUDIT_MODELS))
def test_forward_backward_stays_float32(name):
    config, kwargs = AUDIT_MODELS[name]
    model = build_model(config, rng=np.random.default_rng(0), **kwargs)
    model.train()
    loss = model.forward_backward(next(batch_stream(config, "rtx3090", seed=1)))
    assert np.isfinite(loss)
    grads = 0
    for pname, p in model.named_parameters():
        assert p.data.dtype == F32, pname
        for g in _grad_arrays(p):
            assert g.dtype == F32, f"{pname}.grad"
            grads += 1
    assert grads, "forward_backward produced no gradients"


def test_float64_on_request():
    model = build_model(GNMT8.tiny()).astype(np.float64)
    model.forward_backward(next(batch_stream(GNMT8.tiny(), "rtx3090", seed=1)))
    for pname, p in model.named_parameters():
        assert p.data.dtype == np.float64, pname
        assert all(g.dtype == np.float64 for g in _grad_arrays(p)), pname


@pytest.mark.parametrize("config", [GNMT8.tiny(), DLRM.tiny()], ids=["GNMT-8", "DLRM"])
@pytest.mark.parametrize("strategy", ["embrace", "allgather"])
def test_trainer_state_is_float32(config, strategy):
    result = RealTrainer(
        config, strategy=strategy, world_size=2, steps=2, seed=3
    ).train()
    for key, value in result.state.items():
        assert value.dtype == F32, key


def test_service_tables_are_float32():
    cfg = ServeConfig(
        world_size=2, backend="thread", clients=1, requests_per_client=4,
        train_steps=2, vocab=256, dim=8,
    )
    with ShardedEmbeddingService(cfg) as service:
        report = service.run()
    _, final, _ = offline_reference(cfg)
    for name in cfg.tables:
        assert report.final_tables[name].dtype == F32
        assert final[name].dtype == F32
        assert np.array_equal(report.final_tables[name], final[name])


# --------------------------------------------------------------------- #
# checkpoints
# --------------------------------------------------------------------- #
def _upcast_checkpoint(path: str) -> None:
    """Rewrite ``path`` with every float array in float64 — the layout of
    every checkpoint saved before training switched to float32."""
    with np.load(path) as archive:
        arrays = {
            k: archive[k].astype(np.float64) if archive[k].dtype.kind == "f" else archive[k]
            for k in archive.files
        }
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _stepped(model):
    """One Adam step on ``model`` (so the optimizer has state)."""
    config = model.config
    model.forward_backward(next(batch_stream(config, "rtx3090", seed=1)))
    optimizer = Adam(model.parameters(), lr=1e-3)
    optimizer.step()
    model.zero_grad()
    return optimizer


def test_float64_checkpoint_loads_into_float32(tmp_path):
    config = GNMT8.tiny()
    old = build_model(config, rng=np.random.default_rng(4)).astype(np.float64)
    path = str(tmp_path / "old.npz")
    ckpt.save_checkpoint(path, old, _stepped(old), step=1)

    model = build_model(config, rng=np.random.default_rng(9))
    optimizer = Adam(model.parameters(), lr=1e-3)
    assert ckpt.load_checkpoint(path, model, optimizer) == 1
    want = old.state_dict()
    for name, p in model.named_parameters():
        assert p.data.dtype == F32, name
        np.testing.assert_array_equal(p.data, want[name].astype(np.float32))
    for p in model.parameters():
        st = optimizer.state_for(p)
        assert st["exp_avg"].dtype == F32 and st["exp_avg_sq"].dtype == F32
    # ... and it trains on in float32.
    _ = model.forward_backward(next(batch_stream(config, "rtx3090", seed=2)))
    optimizer.step()
    assert all(p.data.dtype == F32 for p in model.parameters())


def test_float32_checkpoint_round_trips_bit_exactly(tmp_path):
    config = GNMT8.tiny()
    model = build_model(config, rng=np.random.default_rng(4))
    optimizer = _stepped(model)
    path = str(tmp_path / "new.npz")
    ckpt.save_checkpoint(path, model, optimizer, step=3)

    fresh = build_model(config, rng=np.random.default_rng(9))
    fresh_opt = Adam(fresh.parameters(), lr=1e-3)
    assert ckpt.load_checkpoint(path, fresh, fresh_opt) == 3
    want = model.state_dict()
    for name, p in fresh.named_parameters():
        assert p.data.dtype == F32
        assert p.data.tobytes() == want[name].tobytes(), name
    for p, q in zip(model.parameters(), fresh.parameters()):
        for key in ("exp_avg", "exp_avg_sq"):
            a, b = optimizer.state_for(p)[key], fresh_opt.state_for(q)[key]
            assert b.dtype == F32 and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("strategy", ["embrace", "allgather"])
def test_resume_from_float64_checkpoint(strategy, tmp_path):
    """Resuming from an upcast checkpoint is exact: float32 -> float64 ->
    float32 is lossless, so the stitched run equals an uninterrupted one
    only if parameters *and* Adam moments (the EmbRace shard state
    included) came back in float32."""
    config = GNMT8.tiny()
    kwargs = dict(strategy=strategy, world_size=2, steps=5, seed=5)
    expected = RealTrainer(config, **kwargs).train()

    writer = RealTrainer(
        config, checkpoint_every=2, **{**kwargs, "steps": 2}
    )
    path = str(tmp_path / "resume.npz")
    writer._launch(0, path, timeout=60.0)
    _upcast_checkpoint(path)
    with np.load(path) as archive:
        assert all(
            archive[k].dtype == np.float64
            for k in archive.files
            if archive[k].dtype.kind == "f"
        )
    result = RealTrainer(config, **kwargs)._launch(2, path, timeout=60.0)[0]
    assert result.losses == expected.losses
    for key, value in expected.state.items():
        assert result.state[key].dtype == F32, key
        np.testing.assert_array_equal(result.state[key], value, err_msg=key)


def test_train_resilient_recovers_from_float64_checkpoint(tmp_path, monkeypatch):
    """Every checkpoint of the run is written float64 (as an old trainer
    wrote them); the crash recovery reads one back and stays bit-exact."""
    from repro.engine import trainer_real

    save = trainer_real.save_checkpoint

    def save_float64(path, *args, **kwargs):
        save(path, *args, **kwargs)
        _upcast_checkpoint(path)

    monkeypatch.setattr(trainer_real, "save_checkpoint", save_float64)
    config = GNMT8.tiny()
    kwargs = dict(strategy="embrace", world_size=2, steps=6, seed=5)
    expected = RealTrainer(config, **kwargs).train()
    out = RealTrainer(
        config,
        fault_plan=FaultPlan(seed=5, crashes={1: 5}, recv_deadline=2.0),
        checkpoint_every=2,
        checkpoint_dir=str(tmp_path),
        **kwargs,
    ).train_resilient()
    assert out.report.restore_steps == [4]
    assert out.result.losses == expected.losses
    for key, value in expected.state.items():
        assert out.result.state[key].dtype == F32, key
        np.testing.assert_array_equal(out.result.state[key], value, err_msg=key)


# --------------------------------------------------------------------- #
# the wire prices a row like the simulator
# --------------------------------------------------------------------- #
VOCAB, DIM, ROWS = 64, 10, 12


def _one_prior_exchange(comm):
    """One float32 prior exchange; (counter delta, bytes_sent delta, rows,
    every rank's shard width)."""
    table = Embedding(VOCAB, DIM, rng=np.random.default_rng(0), name="t").astype(
        np.float32
    )
    group = TableGroupRuntime(comm, {"t": table})
    rng = np.random.default_rng(comm.rank)
    ids = rng.choice(VOCAB, size=ROWS, replace=False)
    grad = SparseRows(ids, rng.normal(size=(ROWS, DIM)).astype(np.float32), VOCAB)
    prior, _ = group.split(grad, np.unique(ids), np.arange(VOCAB))
    recorder = SpanRecorder(rank=comm.rank)
    install_recorder(comm, recorder)
    before = comm.bytes_sent
    shard = group.exchange(comm, prior, 1.0 / comm.world_size)
    sent = comm.bytes_sent - before
    assert shard.values.dtype == F32
    return (
        recorder.counters["wire_bytes.alltoall_sparse"],
        sent,
        prior.nnz_rows,
        comm.allgather(shard.dim),
    )


@pytest.mark.parametrize("world", [2, 3])
def test_exchanged_row_costs_the_simulated_price(world):
    for rank, (counted, sent, rows, widths) in enumerate(
        run_threaded(world, _one_prior_exchange)
    ):
        assert rows == ROWS
        # Each peer receives its columns of every row: width * 4 + 4.
        price = sum(
            rows * EmbeddingTableConfig("shard", VOCAB, width).row_nbytes
            for peer, width in enumerate(widths)
            if peer != rank
        )
        assert counted == price
        assert sent == price


# --------------------------------------------------------------------- #
# BLAS pin
# --------------------------------------------------------------------- #
def _worker_blas_threads(comm):
    return blas.blas_num_threads()


def test_process_worker_runs_one_blas_thread(monkeypatch):
    if blas.blas_num_threads() is None:
        pytest.skip("no OpenBLAS thread control symbol resolves")
    for name in blas.THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    setter = blas._controls()[0]
    before = blas.blas_num_threads()
    # Fork from a parent whose pool is as wide as the machine allows, so
    # a worker reporting 1 pinned itself.
    setter(max(2, os.cpu_count() or 1))
    try:
        with open_group(2, backend="process") as group:
            assert group.run(_worker_blas_threads) == [1, 1]
    finally:
        setter(before)


def test_pin_respects_user_thread_count(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert blas.pin_blas_threads() is False
