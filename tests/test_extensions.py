"""Tests for the extension layer: checkpointing, trace export, and the
CLI."""

import json
import os

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.engine.checkpoint import load_checkpoint, save_checkpoint
from repro.models import GNMT8, LM, build_model
from repro.optim import Adam
from repro.sim.trace import Trace, TraceEntry
from repro.sim.trace_export import to_chrome_trace, write_chrome_trace


class TestCheckpoint:
    def test_roundtrip_model_and_optimizer(self, tmp_path):
        from repro.engine.workload import batch_stream

        cfg = GNMT8.tiny()
        model = build_model(cfg, rng=np.random.default_rng(0))
        optim = Adam(model.parameters(), lr=1e-3)
        batch = next(iter(batch_stream(cfg, "rtx3090")))
        model.forward_backward(batch)
        optim.step()
        model.zero_grad()

        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model, optim, step=7)

        model2 = build_model(cfg, rng=np.random.default_rng(99))
        optim2 = Adam(model2.parameters(), lr=1e-3)
        step = load_checkpoint(path, model2, optim2)
        assert step == 7
        for (n1, p1), (_, p2) in zip(
            model.named_parameters(), model2.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)

        # Resumed training is bit-identical to uninterrupted training.
        model.forward_backward(batch)
        optim.step()
        model2.forward_backward(batch)
        optim2.step()
        for (n1, p1), (_, p2) in zip(
            model.named_parameters(), model2.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)

    def test_model_only(self, tmp_path):
        cfg = LM.tiny()
        model = build_model(cfg)
        path = str(tmp_path / "m.npz")
        save_checkpoint(path, model)
        model2 = build_model(cfg, rng=np.random.default_rng(5))
        assert load_checkpoint(path, model2) == 0
        np.testing.assert_array_equal(
            model.embedding.weight.data, model2.embedding.weight.data
        )

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        cfg = LM.tiny()
        model = build_model(cfg)
        path = str(tmp_path / "a.npz")
        save_checkpoint(path, model)
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []


class TestTraceExport:
    def _trace(self):
        return Trace(
            [
                TraceEntry("bp", "compute", "compute", 0.0, 1.0),
                TraceEntry("ar", "comm", "comm", 1.0, 2.5),
            ]
        )

    def test_chrome_format(self):
        doc = to_chrome_trace(self._trace())
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2
        ar = next(e for e in spans if e["name"] == "ar")
        assert ar["ts"] == pytest.approx(1.0e6)
        assert ar["dur"] == pytest.approx(1.5e6)

    def test_write_is_valid_json(self, tmp_path):
        path = str(tmp_path / "t.json")
        write_chrome_trace(self._trace(), path)
        with open(path) as fh:
            doc = json.load(fh)
        assert "traceEvents" in doc

    def test_lane_metadata(self):
        doc = to_chrome_trace(self._trace(), process_name="demo")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"demo", "comm", "compute"} <= names


class TestCLI:
    def test_sizes(self, capsys):
        assert cli_main(["sizes"]) == 0
        out = capsys.readouterr().out
        assert "LM" in out and "BERT-base" in out

    def test_simulate(self, capsys):
        assert cli_main(["simulate", "--model", "GNMT-8", "--world", "4"]) == 0
        out = capsys.readouterr().out
        assert "tokens/s" in out

    def test_train(self, capsys):
        assert cli_main(
            ["train", "--model", "LM", "--steps", "2", "--world", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "step   0" in out or "step 0" in out.replace("  ", " ")

    def test_trace(self, tmp_path, capsys):
        out_file = str(tmp_path / "trace.json")
        assert cli_main(
            ["trace", "--model", "LM", "--world", "4", "-o", out_file]
        ) == 0
        with open(out_file) as fh:
            assert "traceEvents" in json.load(fh)

    def test_experiment_single(self, capsys, tmp_path):
        out_file = str(tmp_path / "exp.md")
        assert cli_main(["experiment", "table1", "-o", out_file]) == 0
        with open(out_file) as fh:
            assert "Table 1" in fh.read()

    def test_experiment_unknown(self, capsys):
        assert cli_main(["experiment", "fig99"]) == 2
