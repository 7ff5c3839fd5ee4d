"""Tests for repro.scenarios: the model x strategy matrix."""

import pytest

from repro.scenarios import (
    RealCheck,
    ScenarioCell,
    ScenarioReport,
    ScenarioSpec,
    run_matrix,
)


def tiny_spec(**overrides):
    kw = dict(
        models=("LM",),
        strategies=("EmbRace", "Horovod-AllReduce"),
        world_size=4,
        validate_real=False,
    )
    kw.update(overrides)
    return ScenarioSpec(**kw)


class TestSpec:
    def test_smoke_and_full_validate(self):
        assert len(ScenarioSpec.smoke().models) == 3
        full = ScenarioSpec.full()
        assert len(full.models) * len(full.strategies) == 25

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            tiny_spec(models=("GPT-17",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            tiny_spec(strategies=())


class TestMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return run_matrix(tiny_spec())

    def test_every_cell_present(self, report):
        assert len(report.cells) == 1 * 2
        for strategy in ("EmbRace", "Horovod-AllReduce"):
            cell = report.cell("LM", strategy)
            assert cell.step_time_s > 0
            assert 0.0 <= cell.stall_frac <= 1.0

    def test_missing_cell_raises(self, report):
        with pytest.raises(KeyError):
            report.cell("LM", "BytePS")

    def test_embrace_beats_allreduce_everywhere(self, report):
        em = report.cell("LM", "EmbRace").step_time_s
        ar = report.cell("LM", "Horovod-AllReduce").step_time_s
        assert em < ar

    def test_report_round_trip(self, report):
        assert ScenarioReport.from_json(report.to_json()) == report

    def test_render_mentions_every_cell(self, report):
        text = report.render()
        assert "LM" in text and "EmbRace" in text and "Horovod-AllReduce" in text


class TestRealValidation:
    def test_real_twin_bit_identical(self):
        spec = tiny_spec(
            strategies=("EmbRace",),
            validate_real=True,
            real_world_size=2,
            real_steps=3,
        )
        report = run_matrix(spec)
        assert len(report.real_checks) == 1
        check = report.real_checks[0]
        assert check.identical
        assert check.max_abs_diff == 0.0

    def test_round_trip_preserves_checks(self):
        report = ScenarioReport(
            world_size=4, gpu_kind="rtx3090",
            cells=(ScenarioCell("LM", "EmbRace", 1e-3, 0.1),),
            real_checks=(RealCheck("LM", "EmbRace", True, 0.0),),
        )
        assert ScenarioReport.from_json(report.to_json()) == report


class TestCli:
    def test_scenarios_smoke_flags(self, capsys):
        from repro.cli import main

        code = main([
            "scenarios",
            "--models", "LM",
            "--strategies", "EmbRace", "Horovod-AllReduce",
            "--world", "4",
            "--no-real",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario matrix" in out
        assert "Horovod-AllReduce" in out
