"""The scenario matrix runner (see the package docstring)."""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.models.config import ALL_MODELS
from repro.utils.validation import check_in, check_positive

#: Sim-name -> real-trainer strategy name for the exactly-equivalent
#: strategies (approximate baselines like BytePS have no real twin).
REAL_TWINS = {
    "EmbRace": "embrace",
    "Horovod-AllGather": "allgather",
    "Horovod-AllReduce": "allreduce",
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One matrix: which models x strategies to sweep.

    When ``validate_real`` is set, every (model, strategy) pair whose
    strategy has a real twin is additionally trained at tiny scale on
    ``real_world_size`` in-process workers, overlapped and unoverlapped,
    and the two loss curves must agree bit-for-bit (the scheduler
    reorders communication, never arithmetic).
    """

    models: tuple[str, ...]
    strategies: tuple[str, ...]
    world_size: int = 8
    gpu_kind: str = "rtx3090"
    validate_real: bool = False
    real_world_size: int = 4
    real_steps: int = 3

    def __post_init__(self) -> None:
        for axis in ("models", "strategies"):
            if not getattr(self, axis):
                raise ValueError(f"ScenarioSpec.{axis} must be non-empty")
        for m in self.models:
            check_in("model", m, set(ALL_MODELS))
        check_positive("world_size", self.world_size)

    @classmethod
    def smoke(cls) -> "ScenarioSpec":
        """A small matrix for CI: 3 models x 3 strategies."""
        return cls(
            models=("LM", "GNMT-8", "DLRM"),
            strategies=("EmbRace", "Horovod-AllReduce", "Horovod-AllGather"),
            world_size=4,
            validate_real=True,
            real_world_size=2,
        )

    @classmethod
    def full(cls) -> "ScenarioSpec":
        """The whole grid at paper scale (5 x 5 = 25 cells)."""
        return cls(
            models=("LM", "GNMT-8", "Transformer", "BERT-base", "DLRM"),
            strategies=(
                "EmbRace", "Horovod-AllReduce", "Horovod-AllGather",
                "BytePS", "Parallax",
            ),
            validate_real=True,
        )


@dataclass(frozen=True)
class ScenarioCell:
    """Simulator verdict for one (model, strategy) cell."""

    model: str
    strategy: str
    step_time_s: float
    stall_frac: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "strategy": self.strategy,
            "step_time_s": self.step_time_s,
            "stall_frac": self.stall_frac,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioCell":
        return cls(
            model=str(d["model"]),
            strategy=str(d["strategy"]),
            step_time_s=float(d["step_time_s"]),
            stall_frac=float(d["stall_frac"]),
        )


@dataclass(frozen=True)
class RealCheck:
    """Bit-identity verdict of one real-backend validation run."""

    model: str
    strategy: str
    identical: bool
    max_abs_diff: float

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "strategy": self.strategy,
            "identical": self.identical,
            "max_abs_diff": self.max_abs_diff,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RealCheck":
        return cls(
            model=str(d["model"]),
            strategy=str(d["strategy"]),
            identical=bool(d["identical"]),
            max_abs_diff=float(d["max_abs_diff"]),
        )


@dataclass(frozen=True)
class ScenarioReport:
    """Everything one :func:`run_matrix` sweep produced."""

    world_size: int
    gpu_kind: str
    cells: tuple[ScenarioCell, ...]
    real_checks: tuple[RealCheck, ...] = ()

    def cell(self, model: str, strategy: str) -> ScenarioCell:
        for c in self.cells:
            if (c.model, c.strategy) == (model, strategy):
                return c
        raise KeyError(f"no cell ({model}, {strategy})")

    def to_dict(self) -> dict:
        return {
            "world_size": self.world_size,
            "gpu_kind": self.gpu_kind,
            "cells": [c.to_dict() for c in self.cells],
            "real_checks": [r.to_dict() for r in self.real_checks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioReport":
        return cls(
            world_size=int(d["world_size"]),
            gpu_kind=str(d["gpu_kind"]),
            cells=tuple(ScenarioCell.from_dict(c) for c in d["cells"]),
            real_checks=tuple(
                RealCheck.from_dict(r) for r in d.get("real_checks", ())
            ),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioReport":
        return cls.from_dict(json.loads(text))

    def render(self) -> str:
        from repro.utils.tables import Table

        table = Table(
            ["model", "strategy", "step (ms)", "stall"],
            title=f"scenario matrix @ {self.world_size} x {self.gpu_kind}",
        )
        for c in self.cells:
            table.add_row([
                c.model, c.strategy,
                f"{c.step_time_s * 1e3:.2f}",
                f"{c.stall_frac:.3f}",
            ])
        lines = [table.render()]
        if self.real_checks:
            lines.append("")
            lines.append("real-backend bit-identity (overlap on vs off):")
            for r in self.real_checks:
                verdict = "identical" if r.identical else (
                    f"DIFFERS (max |dloss| = {r.max_abs_diff:.3e})"
                )
                lines.append(f"  {r.model:12s} {r.strategy:18s} {verdict}")
        return "\n".join(lines)


def _cell(ctx, model, strategy) -> ScenarioCell:
    from repro.engine.step_simulator import simulate_step
    from repro.strategies import ALL_STRATEGIES

    report = simulate_step(ALL_STRATEGIES[strategy](), ctx)
    return ScenarioCell(
        model=model,
        strategy=strategy,
        step_time_s=report.step_time,
        stall_frac=(
            report.computation_stall / report.step_time
            if report.step_time > 0
            else 0.0
        ),
    )


def _real_check(model: str, strategy: str, spec: ScenarioSpec) -> RealCheck:
    """Train the tiny twin with the comm scheduler on and off; exact
    strategies must produce bit-identical loss curves either way."""
    from repro.engine.trainer_real import RealTrainer

    config = ALL_MODELS[model].tiny()
    losses = {}
    for overlap in (True, False):
        result = RealTrainer(
            config,
            strategy=REAL_TWINS[strategy],
            world_size=spec.real_world_size,
            steps=spec.real_steps,
            seed=0,
            overlap=overlap,
        ).train()
        losses[overlap] = result.losses
    diffs = [abs(a - b) for a, b in zip(losses[True], losses[False])]
    return RealCheck(
        model=model,
        strategy=strategy,
        identical=losses[True] == losses[False],
        max_abs_diff=max(diffs) if diffs else 0.0,
    )


def run_matrix(spec: ScenarioSpec, log=None) -> ScenarioReport:
    """Sweep the matrix; see :class:`ScenarioSpec` for the knobs.

    Each model's :class:`~repro.strategies.base.StepContext` is built
    once and shared across its strategies; ``log`` (e.g. ``print``)
    receives one progress line per cell.
    """
    from repro.engine.trainer_sim import make_context

    say = log or (lambda *_: None)
    cells: list[ScenarioCell] = []
    checks: list[RealCheck] = []
    for model in spec.models:
        ctx = make_context(ALL_MODELS[model], spec.gpu_kind, spec.world_size)
        for strategy in spec.strategies:
            cell = _cell(ctx, model, strategy)
            cells.append(cell)
            say(f"{model} / {strategy}: {cell.step_time_s * 1e3:.2f} ms")
            if spec.validate_real and strategy in REAL_TWINS:
                check = _real_check(model, strategy, spec)
                checks.append(check)
                say(
                    f"{model} / {strategy} / real x{spec.real_world_size}: "
                    + ("bit-identical" if check.identical else "MISMATCH")
                )
    return ScenarioReport(
        world_size=spec.world_size,
        gpu_kind=spec.gpu_kind,
        cells=tuple(cells),
        real_checks=tuple(checks),
    )
