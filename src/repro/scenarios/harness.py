"""Shared experiment plumbing: safeguard configuration, tables, replication.

Every benchmark builds a scenario under a :class:`SafeguardConfig`, runs
it to a horizon, and prints an :class:`ExperimentTable`.  The config's
preset constructors name the ablation arms of DESIGN.md.
:func:`run_matrix` executes a full configs x seeds grid and aggregates,
with JSON export for downstream analysis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence


@dataclass(frozen=True)
class SafeguardConfig:
    """Which of the paper's mechanisms are active."""

    preaction: bool = False            # sec VI-A
    preaction_hazards: bool = False    # VI-A extended to predicted hazards
    obligations: bool = False          # VI-A obligations for indirect harm
    statespace: bool = False           # sec VI-B
    breakglass: bool = False           # VI-B break-glass escalation
    watchdog: bool = False             # sec VI-C
    collection: bool = False           # sec VI-D
    governance: bool = False           # sec VI-E
    utility: bool = False              # sec VII
    cross_validation: bool = False     # sec II human review of kinetics
    sealed: bool = True                # tamper-proof guard chains

    # -- presets --------------------------------------------------------------

    @staticmethod
    def none() -> "SafeguardConfig":
        """The unguarded baseline: generative policies with no safeguards."""
        return SafeguardConfig(sealed=False)

    @staticmethod
    def full() -> "SafeguardConfig":
        """Everything on — the paper's combined defense."""
        return SafeguardConfig(
            preaction=True, preaction_hazards=False, obligations=True,
            statespace=True, breakglass=True, watchdog=True, collection=True,
            governance=True, utility=False, sealed=True,
        )

    @staticmethod
    def only(**flags) -> "SafeguardConfig":
        """A single-mechanism arm, e.g. ``SafeguardConfig.only(preaction=True)``."""
        return replace(SafeguardConfig.none(), **flags)

    def without(self, **flags_off) -> "SafeguardConfig":
        """Ablation: this config with the named mechanisms turned off."""
        return replace(self, **{name: False for name in flags_off})

    def label(self) -> str:
        on = [name for name, value in self.__dict__.items()
              if value and name != "sealed"]
        if not on:
            return "baseline"
        return "+".join(sorted(on))


class ExperimentTable:
    """A printable experiment result table (the benches' output format)."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: list[list] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def _format_cell(self, value) -> str:
        if isinstance(value, float):
            if value != value:  # NaN
                return "nan"
            if abs(value) >= 1000 or (value != 0 and abs(value) < 0.01):
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def render(self) -> str:
        cells = [[self._format_cell(value) for value in row] for row in self.rows]
        widths = [
            max(len(self.columns[index]),
                max((len(row[index]) for row in cells), default=0))
            for index in range(len(self.columns))
        ]
        lines = [f"== {self.title} =="]
        header = " | ".join(
            name.ljust(widths[index]) for index, name in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in cells:
            lines.append(" | ".join(
                row[index].ljust(widths[index]) for index in range(len(row))
            ))
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())

    def to_dict(self) -> dict:
        return {"title": self.title, "columns": self.columns, "rows": self.rows}

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]


def mean_and_std(values: Iterable[float]) -> tuple:
    """(mean, sample standard deviation) of a sequence."""
    values = list(values)
    if not values:
        return (0.0, 0.0)
    mean = sum(values) / len(values)
    if len(values) < 2:
        return (mean, 0.0)
    variance = sum((value - mean) ** 2 for value in values) / (len(values) - 1)
    return (mean, math.sqrt(variance))


def run_matrix(
    arms: Sequence[tuple],
    run_fn: Callable[..., dict],
    seeds: Sequence[int],
    export_path: Optional[str] = None,
    workers: Optional[int] = None,
    warehouse=None,
    experiment: Optional[str] = None,
    git_rev: str = "unknown",
    tag: str = "",
) -> dict:
    """Run a full (arm x seed) grid and aggregate per arm.

    ``arms`` is a sequence of ``(label, config)`` pairs; ``run_fn(config,
    seed)`` must return a flat dict.  Returns ``{label: aggregated}`` where
    each aggregated dict maps numeric keys to ``(mean, std)`` (the
    :func:`run_replications` format).  With ``export_path`` set, the raw
    per-run results are also written as JSON for offline analysis.

    With a ``warehouse`` (:class:`~repro.telemetry.warehouse.Warehouse`)
    every cell auto-ingests as one run record keyed ``(experiment, arm
    label, seed, git_rev)`` — campaign sweeps land in the longitudinal
    store as they run, so the regression sentinel can compare arms
    across seeds and revisions without a separate collection step.

    Cells fan out through :func:`repro.scenarios.sweep.run_sweep`
    (parallel when ``workers`` or ``REPRO_SWEEP_WORKERS`` says so, serial
    otherwise) with identical aggregates either way: each cell depends
    only on its ``(config, seed)`` arguments and results merge in cell
    order.
    """
    from repro.scenarios.sweep import run_sweep

    cells = [(config, seed) for _label, config in arms for seed in seeds]
    flat = run_sweep(run_fn, cells, workers=workers)
    raw: dict = {}
    aggregated: dict = {}
    per_arm = len(seeds)
    for index, (label, _config) in enumerate(arms):
        runs = flat[index * per_arm:(index + 1) * per_arm]
        raw[label] = runs
        aggregated[label] = {"_n": len(runs)}
        if runs:
            for key in runs[0]:
                values = [run[key] for run in runs]
                if all(isinstance(value, (int, float))
                       and not isinstance(value, bool) for value in values):
                    aggregated[label][key] = mean_and_std(values)
    if warehouse is not None:
        from repro.telemetry.warehouse.ingest import ingest_run_dict

        for index, (label, _config) in enumerate(arms):
            for offset, seed in enumerate(seeds):
                result = flat[index * per_arm + offset]
                if result:
                    ingest_run_dict(warehouse, result,
                                    experiment=experiment or "matrix",
                                    arm=label, seed=seed, git_rev=git_rev,
                                    tag=tag)
    if export_path is not None:
        with open(export_path, "w", encoding="utf-8") as handle:
            json.dump({"seeds": list(seeds), "results": raw}, handle,
                      indent=2, default=str)
    return aggregated


def run_replications(run_fn: Callable[[int], dict], seeds: Sequence[int]) -> dict:
    """Run ``run_fn(seed)`` per seed and aggregate numeric result keys.

    Returns {key: (mean, std)} over the replications for every key whose
    values are numeric, plus ``"_n"`` with the replication count.
    """
    results = [run_fn(seed) for seed in seeds]
    aggregated: dict = {"_n": len(results)}
    if not results:
        return aggregated
    for key in results[0]:
        values = [result[key] for result in results]
        if all(isinstance(value, (int, float)) and not isinstance(value, bool)
               for value in values):
            aggregated[key] = mean_and_std(values)
    return aggregated
