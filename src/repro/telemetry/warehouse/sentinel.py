"""The cross-run regression sentinel: typed deltas judged by declared families.

:func:`compare_runs` takes a baseline run set and a candidate run set
(each possibly several trials), reduces every ``(experiment, metric)``
pair to its **median over trials** (the E23 best-of-N convention: one
robust number per side, so a single slow trial cannot manufacture a
regression), and judges the delta by the family the bench that wrote
the metric **declared** for it (``record.context["gates"]``, read from
the document's ``gates`` block by :func:`ingest_bench
<repro.telemetry.warehouse.ingest.ingest_bench>`).  Nothing is guessed
from a metric's name, and a metric is never pooled with a namesake
from another experiment:

* **defense** counters — zero tolerance: any increase is a regression.
  Across *different* protocols (a quick CI run vs a committed full run)
  only categorical breaches gate — a metric that was 0 and became
  nonzero — because a magnitude change may just be the seed-count
  difference;
* **overhead** percentages — absolute band (percentage points);
* **throughput** (higher is better) and **latency** (lower is better)
  — relative bands.

Overhead, throughput and latency are wall clock: gated only when both
sides ran the same protocol (quick-mode flags match), otherwise
reported, never gated.  An undeclared metric (every bundle and
``run_matrix`` metric, a counterfactual arm, a bench input) is
``other``: reported, never gated.

The verdicts are typed (:class:`MetricDelta`), the report renders for
humans and serializes for CI (:class:`DeltaReport`), and
:func:`update_trajectory` folds the warehouse's medians of declared
metrics into ``TRAJECTORY.json`` — the longitudinal perf/defense record
the ROADMAP campaigns score against.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.telemetry.exposition import _atomic_write_text
from repro.telemetry.warehouse.query import median

#: Trajectory document schema.
TRAJECTORY_SCHEMA = 1


@dataclass(frozen=True)
class FamilyRule:
    """How one metric family is judged."""

    family: str
    higher_better: bool
    rel_tol: Optional[float] = None     # fraction of the baseline
    abs_tol: Optional[float] = None     # absolute units
    wallclock: bool = False             # only gate when protocols match


#: The families a bench may declare, by name; each one gates.
RULES = {rule.family: rule for rule in (
    FamilyRule("defense", higher_better=False, abs_tol=0.0),
    FamilyRule("overhead", higher_better=False, abs_tol=1.5,
               wallclock=True),
    FamilyRule("throughput", higher_better=True, rel_tol=0.10,
               wallclock=True),
    FamilyRule("latency", higher_better=False, rel_tol=0.25,
               wallclock=True),
)}

#: What an undeclared metric is: informational, never gated.
OTHER = FamilyRule("other", higher_better=False)


@dataclass
class MetricDelta:
    """One judged metric: both medians, the delta, and the verdict."""

    experiment: str
    metric: str
    family: str
    baseline: Optional[float]
    candidate: Optional[float]
    delta: Optional[float]
    relative_pct: Optional[float]
    verdict: str                 # ok|improvement|regression|informational|missing
    gated: bool
    n_baseline: int = 0
    n_candidate: int = 0
    note: str = ""

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class DeltaReport:
    """The typed output of :func:`compare_runs`."""

    deltas: list = field(default_factory=list)
    comparable: bool = True
    baseline_runs: int = 0
    candidate_runs: int = 0

    @property
    def regressions(self) -> list:
        return [delta for delta in self.deltas
                if delta.verdict == "regression"]

    @property
    def improvements(self) -> list:
        return [delta for delta in self.deltas
                if delta.verdict == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict:
        return {
            "comparable": self.comparable,
            "baseline_runs": self.baseline_runs,
            "candidate_runs": self.candidate_runs,
            "ok": self.ok,
            "regressions": [delta.to_dict() for delta in self.regressions],
            "improvements": [delta.to_dict() for delta in self.improvements],
            "deltas": [delta.to_dict() for delta in self.deltas],
        }

    def render(self, max_rows: int = 40) -> str:
        """Human-readable verdict table, regressions first."""
        ordered = sorted(
            self.deltas,
            key=lambda delta: ({"regression": 0, "improvement": 1,
                                "informational": 2, "ok": 3,
                                "missing": 4}.get(delta.verdict, 5),
                               delta.family, delta.experiment,
                               delta.metric))
        lines = [f"compare_runs: {self.baseline_runs} baseline vs "
                 f"{self.candidate_runs} candidate run(s), "
                 f"{'comparable' if self.comparable else 'cross-protocol'}"
                 f" -> {'OK' if self.ok else 'REGRESSIONS'}"]
        for delta in ordered[:max_rows]:
            rel = (f" ({delta.relative_pct:+.1f}%)"
                   if delta.relative_pct is not None else "")
            lines.append(
                f"  [{delta.verdict:>13}] {delta.family:<10} "
                f"{delta.experiment} {delta.metric}: "
                f"{delta.baseline} -> {delta.candidate}{rel}")
        if len(ordered) > max_rows:
            lines.append(f"  ... {len(ordered) - max_rows} more")
        return "\n".join(lines)


def _median_metrics(records) -> dict:
    """``{(experiment, metric): (median over trials, trials)}`` for one
    side's records."""
    pools: dict = {}
    for record in records:
        for name, value in record.metrics.items():
            pools.setdefault((record.key.experiment, name), []).append(
                float(value))
    return {key: (median(values), len(values))
            for key, values in pools.items()}


def _declared(records) -> dict:
    """``{(experiment, metric): family}`` the records declare."""
    return {(record.key.experiment, name): family
            for record in records
            for name, family in record.context.get("gates", {}).items()}


def _judge(rule: FamilyRule, base: float, cand: float,
           comparable: bool) -> tuple:
    """``(verdict, note)`` for one metric under its family rule."""
    delta = cand - base
    worse = delta < 0 if rule.higher_better else delta > 0
    tolerance = 0.0
    if rule.abs_tol is not None:
        tolerance = max(tolerance, rule.abs_tol)
    if rule.rel_tol is not None:
        tolerance = max(tolerance, rule.rel_tol * abs(base))
    breach = abs(delta) > tolerance
    if not breach:
        return ("ok", "")
    if rule is OTHER:            # no declared direction to judge it by
        return ("informational", "undeclared metric")
    # Comparability first, in either direction: a quick run is no more
    # a gain over a full one than it is a loss.
    if rule.wallclock and not comparable:
        return ("informational",
                "wall-clock family across different protocols")
    if rule.family == "defense" and not comparable and base > 0.0:
        # A nonzero defense counter moving under a different protocol
        # may be the seed-count difference; 0 -> nonzero never is.
        return ("informational",
                "magnitude change across protocols (baseline nonzero)")
    return ("regression", "") if worse else ("improvement", "")


def compare_runs(baseline, candidate, comparable: Optional[bool] = None,
                 ) -> DeltaReport:
    """Judge a candidate run set against a baseline run set.

    ``baseline`` / ``candidate`` are lists of
    :class:`~repro.telemetry.warehouse.records.RunRecord` (trials of
    the same protocol on each side).  Each ``(experiment, metric)`` pair
    is judged by the family its records declare; where both sides
    declare it, the candidate's declaration wins.  ``comparable``
    overrides the automatic protocol check (quick-mode flags equal on
    both sides).
    """
    baseline = list(baseline)
    candidate = list(candidate)
    if comparable is None:
        comparable = ({record.quick() for record in baseline}
                      == {record.quick() for record in candidate})
    base_medians = _median_metrics(baseline)
    cand_medians = _median_metrics(candidate)
    families = {**_declared(baseline), **_declared(candidate)}

    report = DeltaReport(comparable=comparable,
                         baseline_runs=len(baseline),
                         candidate_runs=len(candidate))
    for key in sorted(set(base_medians) | set(cand_medians)):
        rule = RULES.get(families.get(key), OTHER)
        base, n_base = base_medians.get(key, (None, 0))
        cand, n_cand = cand_medians.get(key, (None, 0))
        delta = MetricDelta(
            experiment=key[0], metric=key[1], family=rule.family,
            baseline=base, candidate=cand, delta=None, relative_pct=None,
            verdict="missing", gated=False, n_baseline=n_base,
            n_candidate=n_cand, note="present on one side only")
        if base is not None and cand is not None:
            delta.verdict, delta.note = _judge(rule, base, cand, comparable)
            delta.gated = rule is not OTHER
            delta.delta = cand - base
            if base != 0.0:
                delta.relative_pct = delta.delta / abs(base) * 100.0
        report.deltas.append(delta)
    return report


# -- the longitudinal record ---------------------------------------------------


def load_trajectory(path: str) -> dict:
    """The trajectory document (a fresh empty one when absent/damaged)."""
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
            if isinstance(document, dict) and "points" in document:
                return document
        except ValueError:
            pass
    return {"schema": TRAJECTORY_SCHEMA, "points": []}


def update_trajectory(warehouse, path: str,
                      git_rev: str = "unknown") -> dict:
    """Fold the warehouse's per-experiment medians into the trajectory.

    One point per git revision: ``{git_rev, runs, experiments:
    {experiment: {metric: median}}}``, keeping only the metrics each
    record declares (the ones the sentinel gates) so the document stays
    a *trajectory*, not a dump.  Records that declare nothing (bundles,
    ``run_matrix`` cells) add no experiment.  An existing point for the
    same revision is replaced — re-running a bench updates history in
    place instead of duplicating it.  Returns the written document.
    """
    experiments: dict = {}
    for record in warehouse.runs():
        declared = record.context.get("gates")
        if declared is None:
            continue
        pools = experiments.setdefault(record.key.experiment, {})
        for name, value in record.metrics.items():
            if name in declared:
                pools.setdefault(name, []).append(float(value))
    point = {
        "git_rev": git_rev,
        "runs": len(warehouse),
        "experiments": {
            experiment: {name: median(values)
                         for name, values in sorted(pools.items())}
            for experiment, pools in sorted(experiments.items())
        },
    }
    document = load_trajectory(path)
    document["points"] = [existing for existing in document["points"]
                          if existing.get("git_rev") != git_rev]
    document["points"].append(point)
    _atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True,
                                        default=str) + "\n")
    return document
