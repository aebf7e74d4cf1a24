"""The repository benchmark: four workloads, end-to-end metrics, and a
per-layer cost ledger from a separate traced run.

    python3 perfbench/run.py --workload confrontation-dense --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout (it imports ``src/repro``).  Every
repetition is a fresh process: a worker for the simulation workloads, a
``python -m repro.api`` server for ``control-plane``.  ``--trace 0``
reports the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` reports the per-layer ones.  Human-readable lines come
first; the last stdout line is the JSON result.  Exits 2 without a
result when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: Repetitions per timed run: ``--seconds`` over the nominal cost of one
#: repetition (process start, build and run on the reference host), at
#: least MIN_REPS.
MIN_REPS = 3
NOMINAL_REP_S = {"confrontation-dense": 4.5, "confrontation-long": 5.0,
                 "sharded-fleet": 3.5, "control-plane": 5.0}
#: Per-layer self times plus loop (or transport) must cover the traced
#: wall within this share of it.
ACCOUNTING_TOLERANCE = 0.05
WORKER_TIMEOUT = 170.0
#: Tail percentile caps: p90 for simulation ticks and barrier windows,
#: whose rarest steps (a compaction burst, a kill wave) depend on the seed
#: more than on the code; p95 for control-plane requests, the middle of
#: the /batch and /metrics tenth of the mix, where p99 rests on how often
#: a Poisson arrival lands behind a /batch.
SIM_TAIL_CAP = 90.0
API_TAIL_CAP = 95.0

#: control-plane phases (per repetition)
WARMUP_REQUESTS = 200
CLOSED_REQUESTS = 4000
CHUNK_REQUESTS = 500
OPEN_REQUESTS = 2500
#: Open-loop requests between two host-speed calibrations.
SEGMENT_REQUESTS = 250
TRACED_SERIAL_REQUESTS = 2000
#: Untraced/traced pairs per traced run (the overhead compares the fastest).
TRACE_PAIRS = 2


def load_declarations() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def add(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(reason)

    def operation(self, failures: list) -> None:
        """One operation, failed when any of its checks did."""
        self.add(1, 1 if failures else 0, "; ".join(failures))


# -- simulation workloads ---------------------------------------------------------


def spawn_worker(workload: str, seed: int, mode: str, **extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    cmd += ["--t0", repr(time.monotonic())]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def repetitions(workload: str, seconds: float) -> int:
    """As many nominal repetitions of ``workload`` as fit in ``seconds``,
    at least MIN_REPS.  The count depends on the arguments only, never on
    how fast the host is, so every run does the same work."""
    return max(MIN_REPS, int(seconds / NOMINAL_REP_S[workload]))


def repeat(workload: str, seconds: float, once) -> list:
    return [once() for _ in range(repetitions(workload, seconds))]


def confrontation_failures(rep: dict, first: dict | None = None) -> list:
    """Checks of one confrontation run; with ``first``, also that it
    repeats ``first`` (a run of the same fleet seed) exactly."""
    checks = [
        (not rep["skynet_formed"], "skynet formed"),
        (rep["healthy_killed"] == 0, "healthy device killed"),
        (rep["audit_ok"], "audit chain failed verify()"),
    ]
    if first is not None:
        checks += [
            (rep["digest"] == first["digest"], "trace digest differs across repetitions"),
            (rep["events"] == first["events"], "sim.events differs across repetitions"),
        ]
    return [reason for ok, reason in checks if not ok]


def sharded_failures(rep: dict, reference: dict) -> list:
    checks = [
        (rep["healthy_killed"] == 0, "healthy device killed"),
        (rep["digest"] == reference["digest"], "trace digest differs from 1 shard"),
        (rep["audit_digest"] == reference["audit_digest"],
         "audit digest differs from 1 shard"),
    ]
    return [reason for ok, reason in checks if not ok]


def latency_metrics(samples_s: list, cap: float) -> tuple:
    """``(p50_ms, tail_ms, tail_label, n)``.  The tail is the highest
    percentile up to ``cap`` with at least ten samples beyond it."""
    n = len(samples_s)
    q = stats.tail_percentile(n, cap)
    if q <= 50:
        raise ValueError(f"{n} latency samples cannot support a tail percentile")
    return (stats.percentile(samples_s, 50) * 1e3,
            stats.percentile(samples_s, q) * 1e3, f"p{q:g}", n)


def timed_simulation(workload: str, seed: int, seconds: float, tally: Tally, lines) -> dict:
    """Fresh workers.  sharded-fleet repeats one fleet and keeps each
    barrier window's fastest repetition (``stats.elementwise_min``).  A
    confrontation run measures several fleets, seeded from ``seed``, once
    each and pools their ticks: how long the late ticks take depends on
    how each fleet's fight unfolds, and pooling averages that out."""
    if workload == "sharded-fleet":
        reps = repeat(workload, seconds, lambda: spawn_worker(workload, seed, "timed"))
        reference = spawn_worker(workload, seed, "plain", shards=1, processes=0)
        tally.operation(sharded_failures(reference, reference))
        for rep in reps:
            tally.operation(sharded_failures(rep, reference))
        windows = stats.elementwise_min([rep["window_s"] for rep in reps])
        work = reps[0]["decisions_total"]
        wall = sum(windows)
        # Twelve windows a run are too few for a tail: pool the repetitions.
        samples = [w for rep in reps for w in rep["window_s"]]
        lines.append(f"throughput = guard decisions per second of barrier windows ({work} "
                     f"decisions, {workloads.SHARDS} worker shards); latency = a window's "
                     f"slowest shard, pooled over repetitions; set-up ends when every "
                     f"shard is built")
        lines.append(f"digest {reps[0]['digest'][:16]} (1 shard: "
                     f"{reference['digest'][:16]})")
    else:
        fleets = workloads.fleet_seeds(seed, repetitions(workload, seconds))
        reps = [spawn_worker(workload, fleet, "timed") for fleet in fleets]
        for rep in reps:
            tally.operation(confrontation_failures(rep))
        samples = [tick for rep in reps for tick in rep["tick_s"]]
        work = sum(rep["events"] for rep in reps)
        wall = sum(samples)
        lines.append(f"throughput = simulator events per host second ({work} events over "
                     f"{len(fleets)} fleets, horizon {workloads.HORIZON[workload]}); "
                     f"latency = host time per simulated second")
        lines.append(f"fleet seeds {fleets}; events {[rep['events'] for rep in reps]}")
    p50, tail, tail_label, n = latency_metrics(samples, SIM_TAIL_CAP)
    lines.append(f"repetitions {len(reps)}; latency samples {n}, tail = {tail_label}")
    lines.append("per-repetition wall s: " + ", ".join(f"{rep['wall_s']:.3f}" for rep in reps)
                 + f"; measured total at reference speed {wall:.3f}")
    lines.append("per-repetition host factor: "
                 + ", ".join(f"{rep['host_factor']:.2f}" for rep in reps))
    return {
        "setup_s": stats.median([rep["setup_s"] for rep in reps]),
        "throughput_per_s": work / wall,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "peak_rss_mb": stats.median([rep["peak_rss_mb"] for rep in reps]),
    }


# -- control plane ------------------------------------------------------------------


class ControlPlanePlan:
    """The request sequence every repetition of one seed replays."""

    def __init__(self, seed: int):
        self.mix = mix = workloads.RequestMix(seed)
        self.warmup = mix.take(WARMUP_REQUESTS)
        self.closed = mix.take(CLOSED_REQUESTS)
        self.open = mix.take(OPEN_REQUESTS)
        self.due = mix.arrivals(OPEN_REQUESTS, workloads.OPEN_LOOP_RATE, seed)


def pin_to_one_core() -> int:
    """Pin this process, and so the servers it starts, to one core: the
    calibration between phases then measures the core both sides run on.
    Also tightens the load generator's timers."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    loadgen.tight_timers()
    return core


def count_responses(mix, responses, expected: int, errors: list, tally: Tally) -> dict:
    """Verify ``responses`` (``expected`` were sent or due); returns the
    outcome counts."""
    failed, outcomes = loadgen.verify(mix, responses)
    missing = expected - len(responses)
    tally.add(expected, failed + missing,
              f"control-plane: {failed} bad responses, {missing} missing, errors {errors}")
    return outcomes


def calibrated(parts: list, run_part) -> tuple:
    """``run_part(part)`` -> ``(durations, responses, errors)`` for each
    part, with a host-speed calibration before the first part and after
    every one (the server is idle then).  Returns ``(durations at
    reference speed, responses, errors, factors)``; ``None`` durations
    stay ``None``."""
    factors = [hostspeed.factor()]
    durations, responses, errors = [], [], []
    for k, part in enumerate(parts):
        got, part_responses, part_errors = run_part(part)
        factors.append(hostspeed.factor())
        scale = (factors[k] + factors[k + 1]) / 2.0
        durations += [None if d is None else d / scale for d in got]
        responses += part_responses
        errors += part_errors
    return durations, responses, errors, factors


def closed_chunk(connections: list, mix, part: list) -> tuple:
    wall, responses, errors = loadgen.closed_loop(connections, mix, part)
    return [wall], responses, errors


def open_segments(plan: ControlPlanePlan) -> list:
    """The open-loop plan in segments of ``SEGMENT_REQUESTS``, each with
    due times from its own start: ``(requests, due)``."""
    out = []
    for i in range(0, len(plan.open), SEGMENT_REQUESTS):
        base = plan.due[i - 1] if i else 0.0
        out.append((plan.open[i:i + SEGMENT_REQUESTS],
                    [d - base for d in plan.due[i:i + SEGMENT_REQUESTS]]))
    return out


def open_phase(connections: list, mix, plan: ControlPlanePlan) -> tuple:
    """The open loop, calibrated per segment: ``(latencies at reference
    speed, raw generator lags, responses, errors)``."""
    lags: list = []

    def segment(part):
        latencies, part_lags, responses, errors = loadgen.open_loop(connections, mix, *part)
        lags.extend(part_lags)
        return latencies, responses, errors

    latencies, responses, errors, _factors = calibrated(open_segments(plan), segment)
    return latencies, lags, responses, errors


def control_plane_rep(plan: ControlPlanePlan, tally: Tally) -> dict:
    mix = plan.mix
    server = loadgen.Server(ROOT)
    try:
        server.wait_healthy()
        _wall, _lat, warm = loadgen.serial(server, mix, plan.warmup)
        ready = time.monotonic()
        connections = loadgen.connect(server)
        try:
            chunks, closed, errors, factors = calibrated(
                [plan.closed[i:i + CHUNK_REQUESTS]
                 for i in range(0, len(plan.closed), CHUNK_REQUESTS)],
                lambda part: closed_chunk(connections, mix, part))
            latencies, lags, opened, open_errors = open_phase(connections, mix, plan)
        finally:
            loadgen.close_all(connections)
    finally:
        server.stop()
    outcomes = count_responses(mix, warm + closed + opened,
                               len(plan.warmup) + len(plan.closed) + len(plan.open),
                               errors + open_errors, tally)
    # The first calibration runs right after set-up.
    return {"setup_s": (ready - server.spawned) / factors[0],
            "chunks": chunks, "latencies": latencies, "lags": lags,
            "outcomes": outcomes, "host_factor": stats.median(factors),
            "peak_rss_mb": server.peak_rss_mb()}


def timed_control_plane(seed: int, seconds: float, tally: Tally, lines) -> dict:
    """Repetitions replay one seeded request plan on fresh servers.
    Throughput and latency pool every repetition's calibrated chunks and
    open-loop requests: once the host's speed is divided out, the pool is
    steadier than the fastest repetition of each request, whose value rests
    on how rare a quiet moment was."""
    plan = ControlPlanePlan(seed)
    core = pin_to_one_core()
    reps = repeat("control-plane", seconds, lambda: control_plane_rep(plan, tally))
    chunks = [chunk for rep in reps for chunk in rep["chunks"]]
    samples = [lat for rep in reps for lat in rep["latencies"] if lat is not None]
    lags = [lag for rep in reps for lag in rep["lags"] if lag is not None]
    p50, tail, tail_label, n = latency_metrics(samples, API_TAIL_CAP)
    lines.append(f"throughput = closed-loop requests/s over {loadgen.MAX_CONNECTIONS} "
                 f"keep-alive connections; latency = open loop at "
                 f"{workloads.OPEN_LOOP_RATE:g} req/s from each request's due time; "
                 f"client and server pinned to core {core}")
    lines.append(f"repetitions {len(reps)}; latency samples {n}, tail = {tail_label} "
                 f"(p99 {stats.percentile(samples, 99) * 1e3:.3f} ms); "
                 f"generator lag p99 {stats.percentile(lags, 99) * 1e3:.3f} ms")
    lines.append("per-repetition closed-loop req/s at reference speed: " + ", ".join(
        f"{CHUNK_REQUESTS * len(rep['chunks']) / sum(rep['chunks']):,.0f}" for rep in reps))
    lines.append("per-repetition host factor: "
                 + ", ".join(f"{rep['host_factor']:.2f}" for rep in reps))
    lines.append(f"outcomes (last repetition): {reps[-1]['outcomes']}")
    return {
        "setup_s": stats.median([rep["setup_s"] for rep in reps]),
        "throughput_per_s": CHUNK_REQUESTS * len(chunks) / sum(chunks),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "peak_rss_mb": stats.median([rep["peak_rss_mb"] for rep in reps]),
    }


# -- traced runs ----------------------------------------------------------------------

#: Ledger rows summed into a layer metric (``calls``/``self_s``).
LAYER_ROWS = {
    "sim.queue.push": ["sim.queue.push"],
    "net.send": ["net.send", "net.shard.send"],
    "net.deliver": ["cb.net"],
    "net.reliable.send": ["net.reliable.send"],
    "telemetry.histogram.observe": ["telemetry.histogram.observe"],
    "telemetry.span.start": ["telemetry.span.start", "telemetry.span.start_trace"],
    "telemetry.health.tick": ["cb.health-monitor", "api.runtime.pump"],
    "core.engine.handle_event": ["core.engine.handle_event"],
    "safeguards.preaction.check": ["safeguards.preaction.check"],
    "safeguards.statespace.check": ["safeguards.statespace.check"],
    "safeguards.watchdog.check_all": ["safeguards.watchdog.check_all"],
    "safeguards.gateway.admit": ["safeguards.gateway.admit"],
    "crypto.sign": ["crypto.sign"],
    "crypto.verify": ["crypto.verify"],
    "store.journal.append": ["store.journal.append"],
    "store.journal.snapshot": ["store.journal.snapshot"],
    "audit.append": ["audit.append"],
    "trust.reputation.record": ["trust.reputation.record"],
    "safeguards.batch.select": ["safeguards.batch.select"],
    "safeguards.batch.apply": ["safeguards.batch.apply"],
    "statespace.from_rows": ["statespace.from_rows"],
    "api.handle_request.evaluate": ["api.handle_request.evaluate"],
    "api.handle_request.batch": ["api.handle_request.batch"],
    "api.handle_request.metrics": ["api.handle_request.metrics"],
    "api.access_log": ["api.access_log"],
    "api.metrics_render": ["api.metrics_render"],
}

#: The two halves of the dense/long contrast, as shares of traced wall.
SHARES = {
    "share.net_histogram": ["net.send", "net.deliver", "net.reliable.send",
                            "telemetry.histogram.observe"],
    "share.core_audit_store": ["core.engine.handle_event", "audit.append",
                               "store.journal.append", "store.journal.snapshot"],
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(rows: list) -> dict:
    """``<layer>.calls`` / ``<layer>.self_s`` from ledger rows, plus the
    loop and the callbacks no layer claims."""
    by_name = {name: (calls, seconds) for name, calls, seconds in rows}
    values: dict = {}
    claimed = set()
    for layer, names in LAYER_ROWS.items():
        claimed.update(names)
        values[f"{layer}.calls"] = sum(by_name.get(n, (0, 0.0))[0] for n in names)
        values[f"{layer}.self_s"] = sum(by_name.get(n, (0, 0.0))[1] for n in names)
    values["sim.loop.self_s"] = by_name.get("sim.run", (0, 0.0))[1]
    values["sim.callbacks.self_s"] = sum(
        seconds for name, (_calls, seconds) in by_name.items()
        if name.startswith("cb.") and name not in claimed)
    return values


def accounting(values: dict, rows: list, wall: float, tally: Tally, lines,
               extra_s: float = 0.0, extra_label: str = "") -> None:
    accounted = sum(seconds for _name, _calls, seconds in rows) + extra_s
    values["bench.trace.wall_s"] = wall
    values["bench.trace.accounted_frac"] = ratio(accounted, wall)
    values["bench.trace.unaccounted_s"] = wall - accounted
    values["bench.trace.tolerance"] = ACCOUNTING_TOLERANCE
    ok = abs(wall - accounted) <= ACCOUNTING_TOLERANCE * wall
    tally.operation([] if ok else
                    [f"ledger accounts for {accounted:.4f}s of {wall:.4f}s traced wall"])
    lines.append(f"accounting: self times{extra_label} = {accounted:.4f}s of "
                 f"{wall:.4f}s traced wall ({100 * ratio(accounted, wall):.2f}%, "
                 f"tolerance ±{100 * ACCOUNTING_TOLERANCE:g}%), unaccounted "
                 f"{wall - accounted:+.4f}s -> {'ok' if ok else 'FAIL'}")
    for name, _names in SHARES.items():
        values[name] = ratio(sum(values[f"{layer}.self_s"] for layer in _names), wall)
    for name, calls, seconds in rows:
        lines.append(f"  {name:<36} {calls:>10} calls {seconds:>10.4f} s "
                     f"{100 * ratio(seconds, wall):6.2f}%")
    if extra_label:
        lines.append(f"  {extra_label.strip(' +'):<36} {'':>10}       {extra_s:>10.4f} s "
                     f"{100 * ratio(extra_s, wall):6.2f}%")


def pairs(untraced, traced) -> tuple:
    """``TRACE_PAIRS`` untraced and traced runs, interleaved so host drift
    hits both sides alike."""
    bases, traceds = [], []
    for _ in range(TRACE_PAIRS):
        bases.append(untraced())
        traceds.append(traced())
    return bases, traceds


def fastest(runs: list) -> dict:
    return min(runs, key=lambda run: run["wall_s"])


def traced_simulation(workload: str, seed: int, tally: Tally, lines) -> dict:
    """The per-layer ledger of the fastest traced run; tracing overhead is
    its wall against the fastest untraced run."""
    spans_out = os.path.join(OUT, f"{workload}.spans")
    if workload == "sharded-fleet":
        barrier = spawn_worker(workload, seed, "timed")
        bases, traceds = pairs(lambda: spawn_worker(workload, seed, "plain", shards=1,
                                                    processes=0),
                               lambda: spawn_worker(workload, seed, "traced", shards=1,
                                                    processes=0, spans_out=spans_out))
        base, traced = fastest(bases), fastest(traceds)
        for rep in [barrier] + bases + traceds:
            tally.operation(sharded_failures(rep, bases[0]))
        timing = barrier["timing"]
        decisions = traced["decisions_total"]
        extra = {
            "sim.sharding.busy_s": timing["busy_s"],
            "sim.sharding.barrier_frac": timing["barrier_frac"],
            "sim.sharding.imbalance": timing["imbalance"],
            "sim.sharding.windows": timing["windows"],
            "net.delivered_per_send": ratio(traced["shard_delivered"], traced["shard_sent"]),
            "core.engine.veto_ratio": ratio(traced["vetoes"], decisions),
            "core.engine.executed_ratio": ratio(decisions - traced["vetoes"], decisions),
            "safeguards.batch.vector_ratio": ratio(
                traced["vector_evals"], traced["vector_evals"] + traced["scalar_evals"]),
        }
    else:
        fleet = workloads.fleet_seeds(seed, 1)[0]
        bases, traceds = pairs(lambda: spawn_worker(workload, fleet, "plain"),
                               lambda: spawn_worker(workload, fleet, "traced",
                                                    spans_out=spans_out))
        base, traced = fastest(bases), fastest(traceds)
        for rep in bases + traceds:
            tally.operation(confrontation_failures(rep, bases[0]))
        counters = traced["counters"]
        decisions = traced["decisions"]
        total = sum(decisions.values())
        extra = {
            "net.delivered_per_send": ratio(counters["net.delivered"], counters["net.sent"]),
            "net.reliable.resend_ratio": ratio(counters["reliable.resends"],
                                               counters["reliable.sent"]),
            "net.reliable.dead_letters": counters["reliable.dead_letter"],
            "core.engine.executed_ratio": ratio(decisions.get("executed", 0), total),
            "core.engine.veto_ratio": ratio(
                decisions.get("vetoed", 0) + decisions.get("substituted", 0), total),
            "safeguards.gateway.reject_ratio": ratio(
                counters["authz.rejected"],
                counters["authz.accepted"] + counters["authz.rejected"]),
            "store.bytes_written": traced["store_bytes_written"],
            "store.compactions": counters["store.compactions_sized"],
        }
    values = layer_values(traced["ledger"])
    values.update(extra)
    values["sim.events"] = traced["events"]
    values["bench.trace.untraced_wall_s"] = base["wall_s"]
    values["bench.trace.overhead"] = ratio(traced["wall_s"], base["wall_s"]) - 1.0
    values["bench.trace.spans"] = traced["ledger_spans"]
    lines.append(f"traced wall {traced['wall_s']:.3f}s vs untraced {base['wall_s']:.3f}s: "
                 f"tracing overhead {100 * values['bench.trace.overhead']:.1f}%")
    accounting(values, traced["ledger"], traced["wall_s"], tally, lines)
    return values


def serial_passes(server, mix, plan: list) -> tuple:
    """``TRACE_PAIRS`` back-to-back passes over ``plan`` on one connection:
    ``(walls, latencies, responses)``."""
    walls, latencies, responses = [], [], []
    for _ in range(TRACE_PAIRS):
        wall, pass_latencies, pass_responses = loadgen.serial(server, mix, plan)
        walls.append(wall)
        latencies += pass_latencies
        responses += pass_responses
    return walls, latencies, responses


def traced_control_plane(seed: int, tally: Tally, lines) -> dict:
    plan = ControlPlanePlan(seed)
    pin_to_one_core()
    mix, serial_plan = plan.mix, plan.closed[:TRACED_SERIAL_REQUESTS]
    ledger_out = os.path.join(OUT, "control-plane.spans")
    os.makedirs(OUT, exist_ok=True)

    server = loadgen.Server(ROOT)
    try:
        server.wait_healthy()
        base_walls, _latencies, base_responses = serial_passes(server, mix, serial_plan)
        connections = loadgen.connect(server)
        try:
            latencies, lags, opened, errors = loadgen.open_loop(connections, mix, plan.open,
                                                                plan.due)
        finally:
            loadgen.close_all(connections)
    finally:
        server.stop()
    server = loadgen.Server(ROOT, traced=True, ledger_out=ledger_out)
    try:
        server.wait_healthy()
        walls, client_latencies, responses = serial_passes(server, mix, serial_plan)
    finally:
        server.stop()
    with open(ledger_out + ".rows.json", encoding="utf-8") as handle:
        ledger = json.load(handle)
    base_wall, wall = min(base_walls), min(walls)

    outcomes = count_responses(mix, base_responses + opened + responses,
                               2 * TRACE_PAIRS * len(serial_plan) + len(plan.open),
                               errors, tally)
    latencies = [lat for lat in latencies if lat is not None]
    lags = [lag for lag in lags if lag is not None]
    rows = ledger["rows"]
    transport_s = sum(client_latencies) - ledger["roots_s"]
    values = layer_values(rows)
    evaluated = sum(outcomes.get(k, 0) for k in ("executed", "substituted", "noop"))
    vector = scalar = 0
    for kind, _index, status, body in responses:
        if kind == "batch" and status == 200:
            payload = json.loads(body)
            vector += payload["vector_evals"]
            scalar += payload["scalar_evals"]
    values.update({
        "sim.events": len(serial_plan),
        "api.transport_ms": transport_s / len(client_latencies) * 1e3,
        "core.engine.executed_ratio": ratio(outcomes.get("executed", 0), evaluated),
        "core.engine.veto_ratio": ratio(outcomes.get("substituted", 0), evaluated),
        "safeguards.batch.vector_ratio": ratio(vector, vector + scalar),
        "bench.trace.untraced_wall_s": base_wall,
        "bench.trace.overhead": ratio(wall, base_wall) - 1.0,
        "bench.trace.spans": ledger["spans"],
        "bench.generator_lag_ms": stats.percentile(lags, 99) * 1e3,
        "bench.latency_samples": len(latencies),
    })
    lines.append(f"traced serial wall {wall:.3f}s vs untraced {base_wall:.3f}s for "
                 f"{len(serial_plan)} requests: tracing overhead "
                 f"{100 * values['bench.trace.overhead']:.1f}%")
    lines.append(f"open loop at {workloads.OPEN_LOOP_RATE:g} req/s (untraced): "
                 f"p50 {stats.percentile(latencies, 50) * 1e3:.3f} ms, p99 "
                 f"{stats.percentile(latencies, 99) * 1e3:.3f} ms over {len(latencies)} "
                 f"samples; generator lag p99 {values['bench.generator_lag_ms']:.3f} ms")
    # The ledger covers every traced pass, so it accounts for their summed wall.
    accounting(values, rows, sum(walls), tally, lines, extra_s=transport_s,
               extra_label=" + api.transport")
    return values


# -- entry point ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    declared = load_declarations()
    tally = Tally()
    lines: list = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    if args.trace:
        if args.workload == "control-plane":
            values = traced_control_plane(args.seed, tally, lines)
        else:
            values = traced_simulation(args.workload, args.seed, tally, lines)
        wanted = declared["per_layer"]
    else:
        if args.workload == "control-plane":
            values = timed_control_plane(args.seed, args.seconds, tally, lines)
        else:
            values = timed_simulation(args.workload, args.seed, args.seconds, tally, lines)
        wanted = declared["end_to_end"]

    metrics = {}
    for name, unit in wanted.items():
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<40} {value:>16.6g} {unit}")
    for reason in tally.reasons:
        lines.append(f"FAILED: {reason}")
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
