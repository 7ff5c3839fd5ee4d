"""Smoke tests: every example script runs end-to-end.

Each example is executed as a subprocess with small arguments; these
tests guard the user-facing entry points against API drift.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_comm_cost_explorer(self):
        out = run_example("comm_cost_explorer.py", "--nodes", "2", "--gpus", "4")
        assert "crossover" in out or "best method" in out or "overtakes" in out

    def test_comm_cost_explorer_single_gpu_nodes(self):
        out = run_example("comm_cost_explorer.py", "--nodes", "4", "--gpus", "1")
        assert "omnireduce" in out

    def test_timeline_explorer(self):
        out = run_example(
            "timeline_explorer.py", "--model", "GNMT-8", "--world", "8"
        )
        assert "EmbRace" in out and "step" in out

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "bit-identical to fused: True" in out
        assert "final weights bit-identical: True" in out
        assert "EmbRace" in out

    def test_convergence_equivalence(self):
        out = run_example("convergence_equivalence.py", "--steps", "6")
        assert "Curves exactly identical: True" in out

    def test_scaling_study_hybrid(self):
        out = run_example(
            "scaling_study.py", "--steps", "2", "--max-world", "16"
        )
        assert "losses bit-identical (hierarchical vs flat): True" in out
        assert "batch-stream node dedup" in out
        assert "replay ladder" in out

    @pytest.mark.parametrize("args", [["--world", "2", "--steps", "3"]])
    def test_translation_embrace(self, args):
        out = run_example("translation_embrace.py", *args)
        assert "bit-identical across strategies: True" in out

    def test_serving_study(self):
        out = run_example(
            "serving_study.py", "--steps", "6", "--requests", "15",
            "--clients", "1", "3",
        )
        assert "bit-identical to offline replay: True" in out
        assert "torn batches (version-mixed reads): 0" in out
        assert "p50 ms" in out and "qps" in out

    def test_placement_study(self):
        out = run_example(
            "placement_study.py", "--steps", "10", "--requests", "10",
        )
        assert "learned plan [trace]" in out
        assert "losses bit-identical to offline replay (all runs): True" in out
        assert "torn batches (version-mixed reads): 0" in out
        assert "0 mismatched" in out

    def test_autotune_study(self, tmp_path):
        out_json = tmp_path / "tuned.json"
        out = run_example(
            "autotune_study.py", "--steps", "3", "--vocab", "512",
            "-o", str(out_json),
        )
        assert "fitted alpha-beta links" in out
        assert "loss curves bit-identical across candidates: True" in out
        from repro.tune import TunedProfile

        profile = TunedProfile.load(str(out_json))
        assert profile.knobs is not None
