"""Pinned trace of the full-defense confrontation.

Every layer the scenario can arm is on: all safeguards, every threat
channel, the reliable transport with signed kill orders, journal +
snapshot durability with size-triggered compaction, the health plane and
the reputation plane.  A refactor of any of them that changes what the
fleet does changes this digest.
"""

from __future__ import annotations

import hashlib
import json

from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
from repro.scenarios.harness import SafeguardConfig

#: sha256 over the canonical trace lines of the run below.
PINNED_DIGEST = "e5349bc7be746a90a2d9b603737ea92520b06b71f033c3f3922427bca6793a97"


def trace_digest(scenario) -> str:
    """One line per trace event: ``repr(time) kind subject detail-json``."""
    digest = hashlib.sha256()
    for event in scenario.sim.trace.events:
        detail = json.dumps(event.detail, sort_keys=True, default=str)
        digest.update(f"{event.time!r} {event.kind} {event.subject} {detail}\n"
                      .encode("utf-8"))
    return digest.hexdigest()


def test_full_stack_trace_is_pinned():
    scenario = ConfrontationScenario(
        seed=3, config=SafeguardConfig.full(), threats=ThreatConfig.all(),
        n_drones_per_org=4, n_mules_per_org=2,
        safety_transport="reliable", signed_commands=True,
        durability="journal+snapshot", compaction_policy="size",
        health=True, reputation=True,
    )
    summary = scenario.run(until=60.0)
    assert trace_digest(scenario) == PINNED_DIGEST
    assert summary["alerts_fired"] == 1
    assert summary["reputation_outcomes"] == 255
    assert summary["compactions_sized"] == 12
    assert summary["healthy_killed"] == 0
