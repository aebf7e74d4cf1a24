"""One repetition of a simulation workload, in a fresh process.

Usage (from the checkout root; ``run.py`` drives this)::

    python3 perfbench/worker.py --workload confrontation-dense --seed 1 \
        --mode timed --t0 <time.monotonic() at spawn>

Modes:

* ``timed`` — the end-to-end measurement.  Confrontation runs advance
  one simulated second per ``Simulator.run`` call so each tick's host
  latency is a sample; sharded runs record each barrier window's wall.
* ``plain`` — one run without per-step timing (``ConfrontationScenario.run``
  or an in-process ``ShardedScenario.run``), the tracing-overhead base.
* ``traced`` — the same run with every layer entry point wrapped.

Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from stats import median  # noqa: E402

#: Calibrate the host speed after every this much measured tick time.
CALIBRATE_EVERY_S = 0.02


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def registry_counts(metrics, names) -> dict:
    return {name: metrics.value(name) for name in names}


CONFRONTATION_COUNTERS = (
    "net.sent", "net.delivered", "reliable.sent", "reliable.resends",
    "reliable.dead_letter", "authz.accepted", "authz.rejected",
    "store.compactions_sized",
)


def confrontation(args) -> dict:
    scenario = workloads.build_confrontation(args.workload, args.seed)
    horizon = workloads.HORIZON[args.workload]
    ready = time.monotonic()
    sim = scenario.sim
    ticks: list = []
    factors = [1.0]
    if args.mode == "timed":
        clock = hostspeed.StepClock(CALIBRATE_EVERY_S)
        for tick in range(1, horizon + 1):
            clock.time(sim.run, float(tick))
        ticks = clock.normalized()
        factors = clock.marks
        wall = sum(clock.raw)
        summary = scenario.summary(float(horizon))
    else:
        started = perf_counter()
        summary = scenario.run(until=float(horizon))
        wall = perf_counter() - started
    logs = workloads.audit_logs(scenario)
    storage = scenario.storage
    return {
        # The first calibration runs right after set-up.
        "setup_s": (ready - args.t0) / factors[0],
        "wall_s": wall,
        "tick_s": ticks,
        "host_factor": median(factors),
        "events": sim.events_processed,
        "digest": workloads.confrontation_digest(scenario),
        "skynet_formed": summary["skynet_formed"],
        "healthy_killed": summary["healthy_killed"],
        "audit_logs": len(logs),
        "audit_ok": all(log.verify() for log in logs),
        "decisions": workloads.decision_counts(sim.metrics),
        "counters": registry_counts(sim.metrics, CONFRONTATION_COUNTERS),
        "store_bytes_written": storage.bytes_written if storage is not None else 0,
    }


class BarrierWindows:
    """Has every shard calibrate the host speed around its part of each
    barrier window, and records each window's slowest shard at reference
    speed (``windows``) and when the first window began (``first_start``,
    monotonic: every shard built)."""

    def __init__(self):
        import repro.sim.sharding as sharding

        self.windows: list = []
        self.first_start = None
        self.first_factors: list = []
        run_window = sharding.ShardHost.run_window
        record = self

        def calibrated_run_window(host, barrier, inbound):
            before = hostspeed.factor()
            outbox, busy = run_window(host, barrier, inbound)
            return outbox, (busy, busy / ((before + hostspeed.factor()) / 2.0), before)

        class RecordingTiming(sharding.BarrierTiming):
            __slots__ = ()

            def add_window(self, busies, window_wall):
                if record.first_start is None:
                    record.first_start = time.monotonic() - window_wall
                    record.first_factors = [before for _busy, _norm, before in busies]
                record.windows.append(max(norm for _busy, norm, _before in busies))
                super().add_window([busy for busy, _norm, _before in busies], window_wall)

        # Shard processes fork after this, so they inherit the patch.
        sharding.ShardHost.run_window = calibrated_run_window
        sharding.BarrierTiming = RecordingTiming


def sharded(args) -> dict:
    processes = args.processes == 1
    barrier = BarrierWindows() if args.mode == "timed" else None
    scenario = workloads.build_sharded(args.seed, args.shards, processes)
    ready = time.monotonic()
    setup_factor = 1.0
    started = perf_counter()
    run = scenario.run()
    wall = perf_counter() - started
    if barrier is not None:
        ready = barrier.first_start
        setup_factor = sum(barrier.first_factors) / len(barrier.first_factors)
    summary = run.summary
    vector = sum(result.metrics.get("vector_evals", 0) for result in run.results)
    scalar = sum(result.metrics.get("scalar_evals", 0) for result in run.results)
    timing = run.timing
    return {
        "setup_s": (ready - args.t0) / setup_factor,
        "wall_s": wall,
        "window_s": barrier.windows if barrier is not None else [],
        "host_factor": setup_factor,
        "events": run.perf["events"],
        "decisions_total": summary["decisions"],
        "vetoes": summary["vetoes"],
        "digest": run.trace_digest,
        "audit_digest": run.audit_digest,
        "healthy_killed": summary["healthy_killed"],
        "vector_evals": vector,
        "scalar_evals": scalar,
        "shard_sent": sum(r.metrics.get("net.shard.sent", 0) for r in run.results),
        "shard_delivered": sum(r.metrics.get("net.shard.delivered", 0)
                               for r in run.results),
        "timing": {
            "busy_s": sum(timing.busy_sec),
            "barrier_frac": (sum(timing.barrier_sec)
                             / max(1e-12, sum(timing.busy_sec) + sum(timing.barrier_sec))),
            "imbalance": timing.imbalance(),
            "windows": timing.windows,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.SIM_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "plain", "traced"), default="timed")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--shards", type=int, default=workloads.SHARDS)
    parser.add_argument("--processes", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spans-out", default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    ledger = None
    if args.mode == "traced":
        from ledger import Ledger
        from layers import install

        ledger = Ledger()
        install(ledger)
        from repro.scenarios.confrontation import ConfrontationScenario
        from repro.scenarios.sharded import ShardedScenario

        ledger.patch(ConfrontationScenario, "run", "bench.run", root=True)
        ledger.patch(ShardedScenario, "run", "bench.run", root=True)

    if args.workload == "sharded-fleet":
        result = sharded(args)
    else:
        result = confrontation(args)
    if ledger is not None:
        result["ledger"] = ledger.rows()
        result["ledger_roots_s"] = ledger.roots_s
        result["ledger_spans"] = ledger.opened
        if args.spans_out:
            ledger.write(args.spans_out)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
