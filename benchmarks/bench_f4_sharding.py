"""F4 — sharded fleet execution + vectorized batch evaluation, measured.

Three claims, one experiment file:

* **Vectorization** — evaluating a 10k-device fleet per tick through the
  compiled numpy guard/safeness path is >= 3x the scalar twin's
  device-decisions/sec (measured well above 10x), and the two paths
  produce byte-identical traces.  This claim is core-count independent,
  so it is asserted everywhere.

* **Sharding** — partitioning the fleet across worker processes leaves
  the merged trace/audit digests byte-identical for every shard count
  (asserted everywhere).  The wall-clock speedup claim (>= 3x
  events/sec at 4 shards) only *means* anything with >= 4 cores; on
  smaller hosts the bench records ``determinism-equivalence`` for the
  speedup cell instead of a number, following the F2 precedent of never
  letting a shared-runner wall clock fail a correctness suite.

* **Scale** — one 10k-device confrontation (240k guard decisions)
  completes within a fixed wall budget on one core.

Results export to ``benchmarks/results/BENCH_F4.json``.

Quick mode (``F4_QUICK=1``, used by CI's perf-smoke job): 2k devices,
2 shards, shorter horizon — the determinism assertions all still run.
"""

import functools
import os
import time

from repro.scenarios.harness import ExperimentTable
from repro.scenarios.sharded import ShardedScenario

from conftest import export_section

QUICK = os.environ.get("F4_QUICK", "") not in ("", "0")

N_DEVICES = 2_000 if QUICK else 10_000
HORIZON = 16.0 if QUICK else 24.0
SHARD_COUNTS = (1, 2) if QUICK else (1, 2, 4)
SPEEDUP_FLOOR = 3.0
SCALE_WALL_BUDGET_SEC = 60.0
MIN_CORES_FOR_SPEEDUP = 4

SPEC = dict(seed=7, horizon=HORIZON, window=4.0, n_communities=64,
            n_devices=N_DEVICES)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
RESULTS_PATH = os.path.join(RESULTS_DIR, "BENCH_F4.json")


RESULTS_HEADER = {
    "experiment": "F4",
    "title": "Sharded fleet execution + vectorized guard/safeness "
             "batch evaluation",
    "unit": {"decisions_per_sec": "guard decisions / wall second",
             "events_per_sec": "simulator events / wall second"},
    "quick": QUICK,
    "cores": os.cpu_count(),
}
_export = functools.partial(export_section, RESULTS_PATH, RESULTS_HEADER)


def timed_run(**kwargs):
    scenario = ShardedScenario(**{**SPEC, **kwargs})
    start = time.perf_counter()
    run = scenario.run()
    return run, time.perf_counter() - start


def test_f4_vectorized_vs_scalar(experiment):
    """The tentpole perf claim: the numpy path is >= 3x the scalar twin
    in device-decisions/sec, byte-identical trace either way."""
    vector, vec_wall = timed_run(n_shards=1, vectorized=True)
    scalar, sca_wall = timed_run(n_shards=1, vectorized=False)
    assert vector.trace_digest == scalar.trace_digest
    assert vector.audit_digest == scalar.audit_digest

    decisions = vector.summary["decisions"]
    vec_rate = decisions / vec_wall
    sca_rate = decisions / sca_wall
    speedup = vec_rate / sca_rate

    table = ExperimentTable(
        f"F4 vectorized batch evaluation ({N_DEVICES} devices, "
        f"{decisions} decisions)",
        ["path", "wall s", "decisions/sec"],
    )
    table.add_row("scalar", round(sca_wall, 3), int(sca_rate))
    table.add_row("vectorized", round(vec_wall, 3), int(vec_rate))
    experiment(table)
    _export("vectorization", {
        "devices": N_DEVICES, "decisions": decisions,
        "scalar_wall_sec": sca_wall, "vector_wall_sec": vec_wall,
        "scalar_decisions_per_sec": int(sca_rate),
        "vector_decisions_per_sec": int(vec_rate),
        "speedup": round(speedup, 2),
        "trace_digest": vector.trace_digest,
    }, gates={"scalar_wall_sec": "latency", "vector_wall_sec": "latency",
              "scalar_decisions_per_sec": "throughput",
              "vector_decisions_per_sec": "throughput",
              "speedup": "throughput"})
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized path only {speedup:.1f}x the scalar twin")


def test_f4_shard_scaling(experiment):
    """Byte-identity across shard counts always; the wall-clock speedup
    floor only where the host has the cores to express it."""
    cores = os.cpu_count() or 1
    runs = {}
    for n_shards in SHARD_COUNTS:
        runs[n_shards] = timed_run(n_shards=n_shards,
                                   processes=n_shards > 1)

    base_run, base_wall = runs[SHARD_COUNTS[0]]
    table = ExperimentTable(
        f"F4 shard scaling ({N_DEVICES} devices, {cores} cores)",
        ["shards", "wall s", "events/sec", "imbalance", "digest ok"],
    )
    rows = {}
    for n_shards, (run, wall) in runs.items():
        assert run.trace_digest == base_run.trace_digest
        assert run.audit_digest == base_run.audit_digest
        assert run.summary == base_run.summary
        table.add_row(n_shards, round(wall, 3),
                      int(run.perf["events"] / wall),
                      round(run.perf["imbalance"], 2), "yes")
        rows[str(n_shards)] = {
            "wall_sec": wall,
            "events_per_sec": int(run.perf["events"] / wall),
            "imbalance": run.perf["imbalance"],
            "barrier_windows": run.perf["windows"],
        }
    experiment(table)

    top = SHARD_COUNTS[-1]
    speedup = base_wall / runs[top][1]
    multicore = cores >= MIN_CORES_FOR_SPEEDUP and top >= 4
    _export("sharding", {
        "shard_counts": list(SHARD_COUNTS), "runs": rows,
        "trace_digest": base_run.trace_digest,
        "speedup_at_top": round(speedup, 2),
        "speedup_assertion": (
            f"asserted >= {SPEEDUP_FLOOR}x" if multicore
            else "determinism-equivalence only "
                 f"({cores} cores < {MIN_CORES_FOR_SPEEDUP}; F2 precedent)"),
    }, gates={"speedup_at_top": "throughput",
              **{f"runs.{n}.{key}": family for n in rows
                 for key, family in (("wall_sec", "latency"),
                                     ("events_per_sec", "throughput"))}})
    if multicore:
        assert speedup >= SPEEDUP_FLOOR, (
            f"{top} shards only {speedup:.1f}x serial on {cores} cores")


def test_f4_scale_within_wall_budget():
    """The 10k-device scenario (240k decisions) stays inside a fixed wall
    budget even serially on one core — the scale claim does not depend
    on parallel hardware."""
    run, wall = timed_run(n_shards=1)
    _export("fleet_scale", {
        "devices": N_DEVICES, "horizon": HORIZON,
        "decisions": run.summary["decisions"],
        "wall_sec": wall, "budget_sec": SCALE_WALL_BUDGET_SEC,
        "events_per_sec": int(run.perf["events"] / wall),
    }, gates={"wall_sec": "latency", "events_per_sec": "throughput"})
    assert wall < SCALE_WALL_BUDGET_SEC
    assert run.summary["devices"] == N_DEVICES
    assert run.summary["healthy_killed"] == 0
