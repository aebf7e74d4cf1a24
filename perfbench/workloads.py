"""Workload definitions: what each named workload builds from a seed.

The seed only shapes the inputs (scenario RNG, request mix, batch rows);
sizes, horizons and rates are fixed per workload so two commits run the
same work.
"""

from __future__ import annotations

import hashlib
import json
import random

SIM_WORKLOADS = ("confrontation-dense", "confrontation-long", "sharded-fleet")
WORKLOADS = SIM_WORKLOADS + ("control-plane",)

#: Fixed simulated horizons (per-event cost grows with horizon).
HORIZON = {"confrontation-dense": 150, "confrontation-long": 1200}

#: sharded-fleet shape: 100k devices, horizon 48, 2 worker shards.
SHARDED = {"n_devices": 100_000, "horizon": 48.0, "vectorized": True}
SHARDS = 2

#: control-plane mix, per block of 20 requests.
EVALUATE_PER_BLOCK = 18
BATCH_ROWS = 512
OPEN_LOOP_RATE = 1000.0          # requests/s, about a third of capacity
BATCH_BODIES = 8                 # distinct seeded /batch payloads per run
EVALUATE_BODIES = 64             # distinct seeded /evaluate payloads per run


def fleet_seeds(seed: int, count: int) -> list:
    """The scenario seeds of the ``count`` fleets one confrontation run
    measures."""
    return [seed * 100 + k for k in range(count)]


def build_confrontation(workload: str, seed: int):
    """The full-defense confrontation at the workload's fleet shape."""
    from repro.scenarios.confrontation import ConfrontationScenario, ThreatConfig
    from repro.scenarios.harness import SafeguardConfig

    common = dict(seed=seed, config=SafeguardConfig.full(),
                  safety_transport="reliable", signed_commands=True,
                  health=True, reputation=True)
    if workload == "confrontation-dense":
        return ConfrontationScenario(n_drones_per_org=16, n_mules_per_org=8,
                                     threats=ThreatConfig.all(),
                                     durability="journal", **common)
    if workload == "confrontation-long":
        # Worm only: with operator error or the backdoor campaign on, the
        # watchdog kills a healthy drone as approaching_bad within 1200
        # ticks on some seeds, and the run fails its own checks.
        return ConfrontationScenario(n_drones_per_org=4, n_mules_per_org=2,
                                     threats=ThreatConfig(),
                                     durability="journal+snapshot",
                                     compaction_policy="size", **common)
    raise ValueError(f"not a confrontation workload: {workload}")


def build_sharded(seed: int, n_shards: int, processes: bool):
    from repro.scenarios.sharded import ShardedScenario

    return ShardedScenario(n_shards=n_shards, processes=processes, seed=seed,
                           **SHARDED)


def confrontation_digest(scenario) -> str:
    """sha256 over the scenario's trace, one canonical line per event."""
    digest = hashlib.sha256()
    for event in scenario.sim.trace.events:
        digest.update(f"{event.time!r} {event.kind} {event.subject} "
                      f"{json.dumps(event.detail, sort_keys=True, default=str)}\n"
                      .encode("utf-8"))
    return digest.hexdigest()


def audit_logs(scenario) -> list:
    """Every hash-chained audit log the scenario keeps."""
    logs = list(scenario.audits.values())
    if scenario.authz_audit is not None:
        logs.append(scenario.authz_audit)
    if scenario.alerts is not None and scenario.alerts.audit is not None:
        logs.append(scenario.alerts.audit)
    return logs


def decision_counts(metrics) -> dict:
    """``decisions.<outcome>`` counters of a metrics registry."""
    return {name.split(".", 1)[1]: int(metrics.get(name).value)
            for name in metrics.names()
            if name.startswith("decisions.") and name.count(".") == 1}


# -- control-plane inputs -------------------------------------------------------


def evaluate_body(rng: random.Random, overheated: bool) -> dict:
    """One /evaluate: a move command from an explicit state.  Overheated
    states make ``advance`` cross the safe band, so the guard substitutes
    ``vent_heat``; the rest execute ``advance``."""
    heat = rng.uniform(105.0, 140.0) if overheated else rng.uniform(10.0, 50.0)
    return {"event": {"kind": "mgmt.command.move"},
            "state": {"heat": round(heat, 3), "speed": round(rng.uniform(0, 60), 3),
                      "battery": round(rng.uniform(30.0, 100.0), 3)}}


def batch_rows(rng: random.Random) -> list:
    return [{"speed": round(rng.uniform(0.0, 120.0), 3),
             "heat": round(rng.uniform(0.0, 160.0), 3),
             "battery": round(rng.uniform(0.0, 100.0), 3),
             "civilians_near": rng.randrange(0, 4),
             "weapon_armed": rng.random() < 0.2}
            for _ in range(BATCH_ROWS)]


def expected_choices(rows: list) -> list:
    """Program names the scalar reference evaluator picks for ``rows``."""
    from repro.api.profile import default_profile
    from repro.statespace.batch import StateMatrix

    profile = default_profile()
    evaluator = profile.build_batch_evaluator()
    chosen = evaluator.select_scalar(StateMatrix.from_rows(profile.space, rows))
    programs = evaluator.programs
    return [programs[int(i)].name if i >= 0 else None for i in chosen]


class RequestMix:
    """The seeded control-plane request stream.

    Requests are ``(kind, index)`` pairs: ``("evaluate", i)`` for body
    ``i`` (overheated when ``i % 3 == 0``), ``("batch", j)``, or
    ``("metrics", 0)``.  Each block of 20 holds 18 evaluates, 1 batch and
    1 metrics scrape in a seeded order.
    """

    def __init__(self, seed: int):
        rng = random.Random(f"control-plane:{seed}")
        self.evaluate = [json.dumps(evaluate_body(rng, i % 3 == 0)).encode()
                         for i in range(EVALUATE_BODIES)]
        rows = [batch_rows(rng) for _ in range(BATCH_BODIES)]
        self.batch = [json.dumps({"rows": r}).encode() for r in rows]
        self.batch_expected = [expected_choices(r) for r in rows]
        self._rng = random.Random(f"control-plane-order:{seed}")
        self._evaluate_next = 0
        self._batch_next = 0

    def block(self) -> list:
        kinds = ["evaluate"] * EVALUATE_PER_BLOCK + ["batch", "metrics"]
        self._rng.shuffle(kinds)
        out = []
        for kind in kinds:
            if kind == "evaluate":
                out.append((kind, self._evaluate_next % EVALUATE_BODIES))
                self._evaluate_next += 1
            elif kind == "batch":
                out.append((kind, self._batch_next % BATCH_BODIES))
                self._batch_next += 1
            else:
                out.append((kind, 0))
        return out

    def take(self, n: int) -> list:
        out: list = []
        while len(out) < n:
            out.extend(self.block())
        return out[:n]

    def arrivals(self, n: int, rate: float, seed: int) -> list:
        """``n`` Poisson due times (seconds from phase start) at ``rate``."""
        rng = random.Random(f"control-plane-arrivals:{seed}")
        due, out = 0.0, []
        for _ in range(n):
            due += rng.expovariate(rate)
            out.append(due)
        return out
