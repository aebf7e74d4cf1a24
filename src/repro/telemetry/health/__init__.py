"""Fleet health monitoring: streaming SLIs, alert rules, closed loops (E20).

The paper's §V detection requirement — humans "monitoring the behavior
of the collective" — needs something watching the live metric streams,
not just the post-hoc ``explain()`` of E19.  This package is that
watcher:

* :mod:`repro.telemetry.health.estimators` — O(1)-memory online
  estimators (:class:`Ewma`, counter-delta rates) that ride the metric
  streams without retaining samples;
* :mod:`repro.telemetry.health.monitor` — :class:`HealthMonitor`: one
  periodic task sampling every registered SLI, publishing ``health.*``
  gauges and fanning readings out to subscribers;
* :mod:`repro.telemetry.health.rules` — :class:`AlertEngine` evaluating
  :class:`AlertRule` ECA policies (same condition grammar as the
  generative layer) with dwell times and hysteresis; firings mint
  spans, chain into the audit log, and export as JSONL;
* :mod:`repro.telemetry.health.adaptive` — the closed loops:
  :class:`AdaptiveQuarantine` tunes ``OverseerLink.quarantine_after``
  from link-health alerts, :class:`CompactionController` turns
  storage-pressure alerts into size-triggered journal compaction;
* :mod:`repro.telemetry.health.knobs` — :class:`KnobArbiter` (E22):
  priority-arbitrated, span-attributed composition when several closed
  loops tune the same safeguard knob.
"""

from repro.telemetry.health.adaptive import (AdaptiveQuarantine,
                                             CompactionController)
from repro.telemetry.health.estimators import Ewma, RateTracker
from repro.telemetry.health.knobs import (
    KnobArbiter,
    approach_strikes_knob,
    approach_threshold_knob,
    quarantine_knob,
)
from repro.telemetry.health.monitor import HealthMonitor
from repro.telemetry.health.rules import Alert, AlertEngine, AlertRule

__all__ = [
    "AdaptiveQuarantine",
    "CompactionController",
    "KnobArbiter",
    "approach_strikes_knob",
    "approach_threshold_knob",
    "quarantine_knob",
    "Ewma",
    "RateTracker",
    "HealthMonitor",
    "Alert",
    "AlertEngine",
    "AlertRule",
]
