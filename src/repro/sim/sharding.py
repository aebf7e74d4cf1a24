"""Sharded single-scenario execution with a byte-identical-trace guarantee (F4).

One large fleet is partitioned across shards along its interaction graph;
each shard runs its own :class:`~repro.sim.simulator.Simulator` between
tick barriers, exchanging only cross-shard messages at each barrier.
The contract — extending the serial==parallel guarantee the sweep
executor established for *cells* to the inside of one scenario — is:

    the merged trace, summary, and audit-chain digest of a run are
    **byte-identical for every shard count**, including ``n_shards=1``.

What makes that hold (each point is load-bearing):

* **Shard assignment is deterministic** — :func:`partition_positions`
  grows shards by breadth-first search from evenly spaced seeds over
  member positions (communities stay together); it is a pure function
  of each position's sorted peers and ``n_shards``.
  :func:`partition_graph` is its adapter from member names and edges,
  positions being places in the sorted member list; a scenario that
  knows its topology in closed form can feed the walk directly.
  :func:`partition_crc`, the ``cell_seed``-style hashed assignment, is
  kept only as the baseline the graph partitioner is measured against.
* **Per-device behaviour is assignment-invariant** — every shard
  simulator is built from the *same* master seed, and
  :class:`~repro.sim.rng.SeededRNG` derives substreams by hashing
  ``seed:name``, so ``rng.stream("device/<id>")`` yields the same
  sequence no matter which process hosts the device.  Message latency
  is CRC-hashed per message (:mod:`repro.net.shardnet`), never drawn
  from a shared stream.
* **Message exchange is submission-order merged** — each barrier batch
  is sorted by ``(deliver_at, sender, per-sender seq)``, a pure function
  of the message set, and injected in that order at a dedicated event
  priority.
* **The merged trace is a stable sort** of per-shard trace records by
  ``(time, subject)``; each subject lives entirely in one shard, so the
  per-subject record order is the shard's own generation order.

Each shard is a :class:`ShardHost` subclass returned by the scenario's
module-level ``build_fn(shard_index, n_shards, members, build_args)``.
The worker side (:func:`shard_worker`) builds one in a forked process,
freezes the built heap out of the collector's reach, keeps the shard
live across windows and speaks a tiny pipe protocol: ``run`` a window,
return the outbox; ``finalize``, return a :class:`ShardResult`.
The in-process mode runs the identical code path shard-by-shard and is
the reference "serial" execution.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import zlib
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.net.shardnet import ShardRouter, wire_sort_key
from repro.sim.profiling import BarrierTiming
from repro.sim.simulator import Simulator

#: ``build_fn(shard_index, n_shards, members, build_args)`` returns the
#: shard's :class:`ShardHost`.
BuildFn = Callable[[int, int, list, dict], "ShardHost"]


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def partition_crc(members, n_shards: int, salt=0) -> dict:
    """``cell_seed``-style hashed assignment: member -> shard.

    Spreads members uniformly but ignores the interaction graph; use it
    as the baseline the graph partitioner is measured against.
    """
    if n_shards < 1:
        raise ConfigurationError("n_shards must be >= 1")
    assignment = {}
    for member in members:
        text = f"{salt!r}|{member!r}".encode("utf-8")
        assignment[member] = zlib.crc32(text) % n_shards
    return assignment


def partition_positions(peers, n_shards: int) -> tuple:
    """Deterministic BFS-growth partition of positions ``0 .. n - 1``.

    ``peers[p]`` lists position ``p``'s neighbors in ascending order; a
    repeated peer needs no dedupe, because it sits next to its twin and
    whichever copy is popped second is already owned.  Seeds are evenly
    spaced over the positions; shards claim one position per round from
    their BFS frontier (falling back to the lowest unassigned position),
    capped at ``ceil(n / n_shards)``.  Returns ``(claimed, owner)``: the
    positions in the order they were claimed, and each position's shard.
    Pure function of ``(peers, n_shards)`` — no RNG — so every process
    computes the same partition.
    """
    if n_shards < 1:
        raise ConfigurationError("n_shards must be >= 1")
    n = len(peers)
    quota = math.ceil(n / n_shards)
    owner = [-1] * n
    claimed: list = []
    frontiers = [deque([(index * n) // n_shards]) for index in range(n_shards)]
    sizes = [0] * n_shards
    cursor = 0  # next position to hand a starved shard
    while len(claimed) < n:
        progress = False
        for shard in range(n_shards):
            if sizes[shard] >= quota:
                continue
            member = -1
            frontier = frontiers[shard]
            while frontier:
                candidate = frontier.popleft()
                if owner[candidate] < 0:
                    member = candidate
                    break
            if member < 0:
                while cursor < n and owner[cursor] >= 0:
                    cursor += 1
                if cursor >= n:
                    continue
                member = cursor
            owner[member] = shard
            claimed.append(member)
            sizes[shard] += 1
            progress = True
            frontier.extend(peers[member])
        if not progress:
            break
    # Safety net: anything left (cannot happen with ceil quotas) goes to
    # the emptiest shard, smallest index first.
    for member in range(n):
        if owner[member] < 0:
            shard = min(range(n_shards), key=lambda s: (sizes[s], s))
            owner[member] = shard
            claimed.append(member)
            sizes[shard] += 1
    return claimed, owner


def partition_graph(members, edges, n_shards: int) -> dict:
    """Deterministic BFS-growth partition along the interaction graph.

    The adapter from names to :func:`partition_positions`: a member's
    position is its place in the sorted member list, so seeds are evenly
    spaced over that list and each frontier grows in sorted-member
    order.  A member name is looked up once per edge end; the walk moves
    ints.  Pure function of ``(members, edges, n_shards)``; returns
    member -> shard in the order members were claimed.
    """
    ordered = sorted(dict.fromkeys(members))   # linear when already sorted
    position = {member: index for index, member in enumerate(ordered)}
    get = position.get
    adjacency: list = [[] for _ in ordered]
    for a, b in edges:
        i = get(a)
        j = get(b)
        if i is not None and j is not None:
            adjacency[i].append(j)
            adjacency[j].append(i)
    for peers in adjacency:
        peers.sort()
    claimed, owner = partition_positions(adjacency, n_shards)
    return {ordered[member]: owner[member] for member in claimed}


def cut_edges(assignment: dict, edges) -> int:
    """How many interaction edges cross a shard boundary."""
    return sum(1 for a, b in edges
               if a in assignment and b in assignment
               and assignment[a] != assignment[b])


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic fleet partition: member -> shard, plus pins."""

    n_shards: int
    assignment: dict

    @staticmethod
    def build(members, n_shards: int, edges=(),
              pins: Optional[dict] = None) -> "ShardPlan":
        """Partition ``members`` along ``edges`` (:func:`partition_graph`),
        then apply pins.

        ``pins`` maps members (e.g. a fleet-global watchdog) to fixed
        shard indices — pinned members join the plan without affecting
        the balance of the partitioned fleet.
        """
        return ShardPlan.pinned(partition_graph(members, edges, n_shards),
                                n_shards, pins)

    @staticmethod
    def pinned(assignment: dict, n_shards: int,
               pins: Optional[dict] = None) -> "ShardPlan":
        """The plan of a partition already made, with ``pins`` applied
        (added last, in their own order)."""
        for member, shard in (pins or {}).items():
            if not 0 <= shard < n_shards:
                raise ConfigurationError(
                    f"pin for {member!r} outside [0, {n_shards})")
            assignment[member] = shard
        return ShardPlan(n_shards=n_shards, assignment=assignment)

    def members_of(self, shard: int) -> list:
        return sorted(m for m, s in self.assignment.items() if s == shard)

    def shard_of(self, member) -> int:
        return self.assignment[member]

    def sizes(self) -> list:
        counts = [0] * self.n_shards
        for shard in self.assignment.values():
            counts[shard] += 1
        return counts


# ---------------------------------------------------------------------------
# Per-shard results and the deterministic merge
# ---------------------------------------------------------------------------


@dataclass
class ShardResult:
    """Everything one shard ships home at finalize (picklable).

    ``trace`` rows are ``(time, subject, rendered_line)`` so the merge
    can stable-sort without re-parsing; ``audit`` rows are canonical
    strings feeding the audit-chain digest; ``spans`` are deterministic
    scenario span dicts (explicit shard-invariant contexts — the
    tracer's counter-minted ids are per-process and stay out of the
    determinism surface).
    """

    shard_index: int
    trace: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    audit: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    events_processed: int = 0


def merge_trace(results: Sequence[ShardResult]) -> list:
    """Stable-sorted merged trace lines: the determinism surface.

    Every subject's records come from exactly one shard (devices never
    migrate), so a stable sort by ``(time, subject)`` preserves each
    subject's generation order while making cross-subject order a pure
    function of the record set.
    """
    rows = []
    for result in results:
        rows.extend(result.trace)
    rows.sort(key=lambda row: (row[0], row[1]))
    return [row[2] for row in rows]


def trace_digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def audit_chain_digest(results: Sequence[ShardResult]) -> str:
    """Hash-chain over the merged, deterministically sorted audit entries."""
    entries = []
    for result in results:
        entries.extend(result.audit)
    entries.sort()
    digest = "0" * 64
    for entry in entries:
        digest = hashlib.sha256((digest + entry).encode("utf-8")).hexdigest()
    return digest


def merge_summaries(summaries: Sequence[dict]) -> dict:
    """Merge per-shard summaries: numbers add, dicts merge-add, flags must
    agree.  The result is part of the determinism surface, so the merge
    is order-insensitive for everything it sums."""
    merged: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if key not in merged:
                merged[key] = value.copy() if isinstance(value, dict) else value
                continue
            current = merged[key]
            if isinstance(value, bool) or isinstance(current, bool):
                if current != value:
                    raise SimulationError(
                        f"shard summaries disagree on flag {key!r}")
            elif isinstance(value, (int, float)):
                merged[key] = current + value
            elif isinstance(value, dict):
                for inner_key, inner_value in value.items():
                    current[inner_key] = current.get(inner_key, 0) + inner_value
            elif current != value:
                raise SimulationError(
                    f"shard summaries disagree on value {key!r}")
    return merged


def merge_spans(results: Sequence[ShardResult]) -> list:
    """Merged deterministic scenario spans, sorted like the trace."""
    spans = []
    for result in results:
        spans.extend(result.spans)
    spans.sort(key=lambda s: (s.get("time", 0.0), s.get("subject", ""),
                              s.get("name", ""), s.get("span_id", "")))
    return spans


# ---------------------------------------------------------------------------
# Barrier schedule and routing
# ---------------------------------------------------------------------------


def barrier_schedule(horizon: float, window: float) -> list:
    """The barrier times: ``window, 2*window, ...`` capped at ``horizon``.

    Computed by multiplication (not accumulation) so the schedule is a
    pure function of ``(horizon, window)`` with no float drift.
    """
    if horizon <= 0 or window <= 0:
        raise ConfigurationError("horizon and window must be positive")
    count = max(1, math.ceil(horizon / window - 1e-9))
    barriers = [min(window * (index + 1), horizon) for index in range(count)]
    if barriers[-1] < horizon:
        barriers.append(horizon)
    return barriers


def route_batches(outboxes, assignment: dict, n_shards: int):
    """Group drained outboxes by destination shard, submission-order
    sorted (:func:`repro.net.shardnet.wire_sort_key`).  Returns
    ``(batches, unroutable_count)``."""
    batches: list = [[] for _ in range(n_shards)]
    unroutable = 0
    for outbox in outboxes:
        for message in outbox:
            shard = assignment.get(message.recipient)
            if shard is None:
                unroutable += 1
                continue
            batches[shard].append(message)
    for batch in batches:
        batch.sort(key=wire_sort_key)
    return batches, unroutable


# ---------------------------------------------------------------------------
# Shard hosts: in-process and worker-process
# ---------------------------------------------------------------------------


def trace_line(event) -> str:
    """The canonical rendering of one trace record:
    ``repr(time) kind subject detail-json`` (detail keys sorted)."""
    return (f"{event.time!r} {event.kind} {event.subject} "
            f"{json.dumps(event.detail, sort_keys=True)}")


class ShardHost:
    """One live shard of a sharded fleet: the base every fleet shard
    subclasses, plus the window-step protocol the coordinator drives.

    The base owns the shard's :class:`~repro.sim.simulator.Simulator`
    and :class:`~repro.net.shardnet.ShardRouter` (both built from the
    fleet ``spec``'s ``seed`` and ``window``), the sorted ``dev-*``
    members with their global indices, the shard's ``audit`` and
    ``spans`` rows, and the canonical trace rendering at
    :meth:`finalize`.  A subclass supplies:

    * ``_tick()`` — the per-tick fleet step;
    * ``_on_device_message(message)`` — the router handler every device
      shares; the device is ``message.recipient``;
    * ``summary()`` — the shard's summary dict (merged across shards);
    * optionally ``metrics()`` — extra observational counters.

    It calls :meth:`start` once, at the point in its construction where
    device handlers and the fleet tick belong.  ``start`` schedules the
    tick, so where it runs fixes the tick's event-queue insertion order
    relative to the subclass's other initial events — moving it changes
    same-time ordering and with it every trace digest.
    """

    def __init__(self, shard_index: int, members: list, spec) -> None:
        spec.validate()
        self.spec = spec
        self.shard_index = shard_index
        self.sim = Simulator(seed=spec.seed)
        self.router = ShardRouter(self.sim, seed=spec.seed, window=spec.window)
        self.devices = sorted(m for m in members if m.startswith("dev-"))
        self.global_index = {name: int(name[4:]) for name in self.devices}
        self.audit: list = []
        self.spans: list = []

    def start(self) -> None:
        """Register the device handler for every device and start the
        fleet tick."""
        handler = self._on_device_message
        for name in self.devices:
            self.router.register(name, handler)
        self.sim.every(self.spec.tick_interval, self._tick, label="fleet:tick")

    def metrics(self) -> dict:
        return {}

    def run_window(self, barrier: float, inbound) -> tuple:
        """Inject the barrier batch, run to the barrier; returns
        ``(outbox, busy_seconds)``."""
        self.router.inject(inbound)
        started = perf_counter()
        self.sim.run(until=barrier)
        busy = perf_counter() - started
        return self.router.drain_outbox(), busy

    def finalize(self) -> ShardResult:
        trace = [(event.time, event.subject, trace_line(event))
                 for event in self.sim.trace.events]
        metrics = {name: self.sim.metrics.value(name)
                   for name in ("net.shard.sent", "net.shard.delivered")}
        metrics.update(self.metrics())
        return ShardResult(
            shard_index=self.shard_index, trace=trace, summary=self.summary(),
            audit=list(self.audit), spans=list(self.spans), metrics=metrics,
            events_processed=self.sim.events_processed,
        )


def shard_worker(conn, build_fn: BuildFn, build_args: dict, shard_index: int,
                 n_shards: int, members: list) -> None:
    """Worker-process loop: build once, step windows over the pipe."""
    try:
        host = build_fn(shard_index, n_shards, members, build_args)
        # The worker owns its process, and the built shard lives as long
        # as it does: move it out of the collector's reach, so no
        # collection walks it inside a window.
        gc.freeze()
        conn.send(("ready", shard_index))
        while True:
            command, payload = conn.recv()
            if command == "run":
                barrier, inbound = payload
                outbox, busy = host.run_window(barrier, inbound)
                conn.send(("window", (outbox, busy)))
            elif command == "finalize":
                conn.send(("result", host.finalize()))
                return
            else:
                raise SimulationError(f"unknown shard command {command!r}")
    except Exception:
        import traceback

        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # coordinator already gone
            pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


@dataclass
class ShardedRun:
    """A finished sharded run: the determinism surface plus perf data.

    ``summary`` / ``trace_lines`` / ``trace_digest`` / ``audit_digest`` /
    ``spans`` are byte-identical across shard counts; ``timing`` and
    ``perf`` are observational (wall clock) and excluded from that
    contract.
    """

    plan: ShardPlan
    results: list
    summary: dict
    trace_lines: list
    trace_digest: str
    audit_digest: str
    spans: list
    timing: BarrierTiming
    perf: dict

    def trace_bytes(self) -> bytes:
        return "\n".join(self.trace_lines).encode("utf-8")


def _expect(conn, kind: str):
    tag, payload = conn.recv()
    if tag == "error":
        raise SimulationError(f"shard worker failed:\n{payload}")
    if tag != kind:
        raise SimulationError(f"expected {kind!r} from worker, got {tag!r}")
    return payload


def _mp_context():
    # fork keeps worker startup cheap and build_fn flexible; fall back to
    # the platform default (spawn) where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_sharded(build_fn: BuildFn, build_args: dict, plan: ShardPlan,
                horizon: float, window: float, *,
                processes: bool = False) -> ShardedRun:
    """Run one fleet partitioned per ``plan`` to ``horizon``.

    ``processes=False`` runs every shard in this process, shard-by-shard
    (the reference execution); ``processes=True`` hosts each shard in a
    forked worker and overlaps their windows.  Both produce the same
    merged result, byte for byte.
    """
    n_shards = plan.n_shards
    members_by_shard: list = [[] for _ in range(n_shards)]
    for member, shard in plan.assignment.items():
        members_by_shard[shard].append(member)
    for members in members_by_shard:
        members.sort()
    barriers = barrier_schedule(horizon, window)
    timing = BarrierTiming(n_shards)
    inbound: list = [[] for _ in range(n_shards)]
    unroutable = 0
    wall_started = perf_counter()

    if processes and n_shards > 1:
        ctx = _mp_context()
        pipes = []
        workers = []
        try:
            for shard in range(n_shards):
                parent, child = ctx.Pipe()
                worker = ctx.Process(
                    target=shard_worker,
                    args=(child, build_fn, build_args, shard, n_shards,
                          members_by_shard[shard]),
                    daemon=True,
                )
                worker.start()
                child.close()
                pipes.append(parent)
                workers.append(worker)
            for parent in pipes:
                _expect(parent, "ready")
            for barrier in barriers:
                window_started = perf_counter()
                for shard, parent in enumerate(pipes):
                    parent.send(("run", (barrier, inbound[shard])))
                outboxes = []
                busies = []
                for parent in pipes:
                    outbox, busy = _expect(parent, "window")
                    outboxes.append(outbox)
                    busies.append(busy)
                timing.add_window(busies, perf_counter() - window_started)
                inbound, dropped = route_batches(outboxes, plan.assignment,
                                                 n_shards)
                unroutable += dropped
            results = []
            for parent in pipes:
                parent.send(("finalize", None))
            for parent in pipes:
                results.append(_expect(parent, "result"))
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.terminate()
            for parent in pipes:
                parent.close()
        mode = "processes"
    else:
        hosts = [build_fn(shard, n_shards, members_by_shard[shard], build_args)
                 for shard in range(n_shards)]
        for barrier in barriers:
            window_started = perf_counter()
            outboxes = []
            busies = []
            for shard, host in enumerate(hosts):
                outbox, busy = host.run_window(barrier, inbound[shard])
                outboxes.append(outbox)
                busies.append(busy)
            timing.add_window(busies, perf_counter() - window_started)
            inbound, dropped = route_batches(outboxes, plan.assignment,
                                             n_shards)
            unroutable += dropped
        results = [host.finalize() for host in hosts]
        mode = "inprocess"

    wall = perf_counter() - wall_started
    results.sort(key=lambda result: result.shard_index)
    lines = merge_trace(results)
    events = sum(result.events_processed for result in results)
    perf = {
        "mode": mode,
        "shards": n_shards,
        "windows": len(barriers),
        "events": events,
        "wall_sec": wall,
        "events_per_sec": (events / wall) if wall > 0 else 0.0,
        "unroutable": unroutable,
        "imbalance": timing.imbalance(),
    }
    return ShardedRun(
        plan=plan,
        results=results,
        summary=merge_summaries([result.summary for result in results]),
        trace_lines=lines,
        trace_digest=trace_digest(lines),
        audit_digest=audit_chain_digest(results),
        spans=merge_spans(results),
        timing=timing,
        perf=perf,
    )
