"""The sharded fleet confrontation: one large fleet, many shards (F4).

The scenario scales the paper's confrontation story — a worm compromises
devices, compromised devices strike (harm), a signed watchdog kills
rogues, a forger tries to kill healthy devices with bad-MAC orders — to
fleets of 10k–100k devices by combining the two F4 mechanisms:

* the fleet is partitioned across shards along its interaction topology
  (:mod:`repro.sim.sharding`) with cross-shard worm spread, reports and
  kill orders carried by the deterministic barrier transport
  (:mod:`repro.net.shardnet`);
* each shard evaluates its whole device block per tick through the
  vectorized guard/safeness engine (:mod:`repro.safeguards.batch`,
  :mod:`repro.statespace.batch`) — or the scalar twin when
  ``vectorized=False``, which must produce the identical trace.

Determinism contract (the F4 acceptance bar): for a fixed
:class:`ShardedFleetSpec`, the merged trace, summary, and audit-chain
digest are **byte-identical for every shard count** and for both
evaluator paths.  Everything a device does depends only on its own row,
CRC-derived constants, and the deterministic message order — never on
which shard hosts it.

Interop carried across shard boundaries:

* **E21** — with ``signed_commands=True`` kill orders are HMAC envelopes
  (:mod:`repro.crypto.envelope`); every device verifies-then-consumes,
  so the forger's bad-MAC orders land as ``authz.rejected.bad-mac`` and
  ``healthy_killed`` stays 0.  The unsigned arm shows the counterfactual.
* **E19** — worm infections and kill orders carry explicit
  shard-invariant :class:`~repro.telemetry.spans.SpanContext` values on
  the wire, so an infection chain's ``trace_id`` stitches across
  processes (the per-process tracer's counter-minted ids stay out of the
  determinism surface).

Each shard is a :class:`~repro.sim.sharding.ShardHost`; per-shard
busy/barrier-wait seconds (:class:`~repro.sim.profiling.BarrierTiming`)
ride on the returned run as ``timing``.

Set-up works in closed form, never from the edge list
(:func:`fleet_edges` stays as the reference the tests compare with).
:meth:`ShardedScenario.plan` orders positions by device name, takes each
position's peers from :func:`neighbor_cells` and hands them to the one
BFS walk, :func:`~repro.sim.sharding.partition_positions`; it formats
each name once, for the assignment.  A shard builds its state with
:func:`initial_matrix` and a device's name-sorted neighbor list only
when the device first spreads (:meth:`FleetShard.neighbors_of`).

numpy is required here (the whole point is the vectorized block
evaluation; even the scalar twin stores fleet state in a
:class:`~repro.statespace.batch.StateMatrix`).  Library code outside
this scenario stays numpy-optional.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.crypto.envelope import CommandSigner, EnvelopeVerifier, signed_body
from repro.crypto.keyring import Keyring
from repro.errors import ConfigurationError
from repro.net.shardnet import crc01
from repro.safeguards.batch import BatchPolicyEvaluator
from repro.sim.sharding import (
    ShardHost,
    ShardPlan,
    ShardedRun,
    partition_positions,
    run_sharded,
)
from repro.statespace.batch import StateMatrix, numpy_available
from repro.statespace.classifier import ThresholdBand, ThresholdClassifier
from repro.core.actions import Action, Effect
from repro.core.policy import Policy
from repro.core.state import StateSpace, StateVariable
from repro.telemetry.spans import SpanContext

try:  # pragma: no cover
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Router addresses of the fleet-global actors (pinned, not partitioned).
WATCHDOG = "watchdog"
FORGER = "forger"


@dataclass(frozen=True)
class ShardedFleetSpec:
    """Everything that determines a sharded confrontation run.

    Frozen and picklable: the coordinator ships one of these to every
    worker, and equal specs must produce byte-identical merged runs
    regardless of ``n_shards``.
    """

    seed: int = 7
    n_devices: int = 200
    horizon: float = 48.0
    window: float = 4.0
    tick_interval: float = 1.0
    n_communities: int = 8
    #: temperature reporting: every device whose temp exceeds
    #: ``report_temp`` reports to the watchdog on its stagger slot.
    report_every: int = 4
    report_temp: float = 90.0
    #: worm: first infections at ``worm_time``, then stochastic spread
    #: along topology edges every ``spread_every`` ticks.
    worm_time: float = 10.0
    worm_targets: int = 2
    spread_every: int = 2
    spread_prob: float = 0.35
    #: compromised devices strike: +rogue_heat temp per tick, unguarded.
    rogue_heat: float = 9.0
    #: the watchdog issues a kill order at or above this reported temp.
    #: Kept above the hottest state a *guarded* device can reach (the
    #: boost program saturates at safeness == bad_below, i.e. temp
    #: 123.75 with the default classifier) so only rogues are killed.
    kill_temp: float = 125.0
    #: forged kill orders (bad MAC) against CRC-chosen targets.
    forge_time: float = 14.0
    forge_count: int = 5
    #: E21 arm: signed envelopes + verify-then-consume vs. bare bodies.
    signed_commands: bool = True
    #: vectorized batch evaluation vs. the scalar twin (same decisions).
    vectorized: bool = True

    def validate(self) -> None:
        if self.n_devices < 4:
            raise ConfigurationError("need at least 4 devices")
        if self.window <= 0 or self.horizon <= 0 or self.tick_interval <= 0:
            raise ConfigurationError("times must be positive")
        if self.n_communities < 1:
            raise ConfigurationError("n_communities must be >= 1")
        if self.report_every < 1 or self.spread_every < 1:
            raise ConfigurationError(
                "report_every and spread_every must be >= 1")
        if not 0.0 <= self.spread_prob <= 1.0:
            raise ConfigurationError("spread_prob must be in [0, 1]")


def device_name(index: int) -> str:
    return f"dev-{index:05d}"


def fleet_members(spec: ShardedFleetSpec) -> list:
    return [device_name(i) for i in range(spec.n_devices)]


def community_block(spec: ShardedFleetSpec) -> int:
    """How many consecutive device indices form one community."""
    return max(2, math.ceil(spec.n_devices / spec.n_communities))


def fleet_edges(spec: ShardedFleetSpec) -> list:
    """The interaction topology: a global ring plus intra-community
    chords.  Communities are contiguous index blocks, so the ring edges
    crossing block boundaries are the (few) inter-community bridges —
    the structure the graph partitioner exploits."""
    n = spec.n_devices
    block = community_block(spec)
    names = fleet_members(spec)
    edges = []
    for i in range(n):
        edges.append((names[i], names[(i + 1) % n]))
        if (i + 2) % n // block == i // block:
            edges.append((names[i], names[(i + 2) % n]))
    return edges


def neighbor_cells(index, n: int, block: int) -> tuple:
    """Device ``index``'s neighbors in :func:`fleet_edges`, in closed form:
    the cells ``index - 2, index - 1, index + 1, index + 2`` around the
    ring, in that order.  A chord ``index ± 2`` whose two ends lie in
    different community blocks is no edge, and its cell repeats the ring
    neighbor on that side instead.

    ``index`` is an int or an integer array: every operation is
    elementwise, so one definition serves a device and a whole fleet."""
    home = index // block
    behind, ahead = (index - 1) % n, (index + 1) % n
    behind2, ahead2 = (index - 2) % n, (index + 2) % n
    # Adding the gap times "crosses a block" moves such a chord's cell
    # onto the ring neighbor.
    behind2 = behind2 + (behind - behind2) * (behind2 // block != home)
    ahead2 = ahead2 + (ahead - ahead2) * (ahead2 // block != home)
    return behind2, behind, ahead, ahead2


def neighbor_indices(index: int, n: int, block: int) -> set:
    """Device ``index``'s neighbors in :func:`fleet_edges`: its
    :func:`neighbor_cells`, as a set."""
    return set(neighbor_cells(index, n, block))


def fleet_space() -> StateSpace:
    return StateSpace([
        StateVariable("temp", "float", default=20.0, low=0.0, high=150.0),
        StateVariable("fuel", "float", default=50.0, low=0.0, high=100.0),
        StateVariable("load", "float", default=0.0, low=0.0, high=1.0),
        StateVariable("alive", "bool", default=True),
        StateVariable("compromised", "bool", default=False),
    ])


def fleet_classifier() -> ThresholdClassifier:
    return ThresholdClassifier([
        ThresholdBand("temp", safe_high=105.0, hard_high=130.0),
        ThresholdBand("fuel", safe_low=8.0, hard_low=0.0),
    ])


def fleet_programs(spec: ShardedFleetSpec) -> list:
    """The prioritized control policies every device runs per tick, in
    first-match order (each policy's id names its action).

    ``strike`` never matches by condition (``false``); the worm installs
    it by overriding the selection for compromised rows — and those rows
    are guard-exempt (the compromise stripped the safeguard), which is
    exactly the harm the watchdog exists to stop."""
    table = [
        ("boost", "load > 0.9",
         [Effect("temp", "add", 60.0), Effect("load", "add", -0.5)]),
        ("cool", "temp > 70", [Effect("temp", "add", -8.0)]),
        ("refuel", "fuel < 25 and load < 0.8", [Effect("fuel", "add", 35.0)]),
        ("work", "load > 0.45 and fuel > 12",
         [Effect("fuel", "add", -2.5), Effect("temp", "add", 3.5),
          Effect("load", "add", -0.12)]),
        ("idle", "true",
         [Effect("load", "add", 0.07), Effect("temp", "add", -1.5)]),
        ("strike", "false",
         [Effect("temp", "add", spec.rogue_heat), Effect("load", "add", 0.01)]),
    ]
    return [Policy.make("fleet.tick", condition, Action(name, effects=effects),
                        policy_id=name)
            for name, condition, effects in table]


STRIKE_INDEX = 5  # fleet_programs position of the worm's payload


def initial_vector(spec: ShardedFleetSpec, name: str) -> dict:
    """CRC-derived initial state — identical in every process."""
    return {
        "temp": 30.0 + crc01(spec.seed, "init", name, "temp") * 60.0,
        "fuel": 20.0 + crc01(spec.seed, "init", name, "fuel") * 80.0,
        "load": crc01(spec.seed, "init", name, "load"),
        "alive": True,
        "compromised": False,
    }


def initial_matrix(spec: ShardedFleetSpec, space: StateSpace,
                   names: list) -> StateMatrix:
    """:func:`initial_vector` of every name, as one state matrix.

    The CRC of the shared ``seed|'init'|`` prefix is taken once and
    continued per name, so each cell holds the float :func:`crc01`
    gives, computed by the same operations in the same order."""
    np = _np
    prefix = zlib.crc32(f"{spec.seed!r}|'init'|".encode("utf-8"))
    crc32 = zlib.crc32
    temp, fuel, load = [], [], []
    for name in names:
        head = crc32(repr(name).encode("utf-8"), prefix)
        temp.append(crc32(b"|'temp'", head))
        fuel.append(crc32(b"|'fuel'", head))
        load.append(crc32(b"|'load'", head))
    n = len(names)

    def uniform(crcs):
        return np.array(crcs, dtype=np.float64) / 4294967296.0

    columns = {   # in fleet_space() declaration order, as from_rows keeps
        "temp": 30.0 + uniform(temp) * 60.0,
        "fuel": 20.0 + uniform(fuel) * 80.0,
        "load": uniform(load),
        "alive": np.ones(n, dtype=bool),
        "compromised": np.zeros(n, dtype=bool),
    }
    return StateMatrix(space, columns, n, np)


def worm_seed_indices(spec: ShardedFleetSpec) -> list:
    """The initially infected devices (distinct, CRC-chosen)."""
    chosen: list = []
    salt = 0
    while len(chosen) < min(spec.worm_targets, spec.n_devices):
        index = int(crc01(spec.seed, "worm", salt) * spec.n_devices)
        salt += 1
        if index not in chosen:
            chosen.append(index)
    return sorted(chosen)


def forge_target_index(spec: ShardedFleetSpec, k: int) -> int:
    return int(crc01(spec.seed, "forge", k) * spec.n_devices)


class FleetShard(ShardHost):
    """One shard's slice of the fleet plus its pinned global actors."""

    def __init__(self, shard_index: int, members: list,
                 spec: ShardedFleetSpec):
        if _np is None:
            raise ConfigurationError(
                "numpy is required for the sharded fleet scenario")
        super().__init__(shard_index, members, spec)
        self.index_of = {name: i for i, name in enumerate(self.devices)}

        self.space = fleet_space()
        self.classifier = fleet_classifier()
        self.programs = fleet_programs(spec)
        self.evaluator = BatchPolicyEvaluator(
            self.space, self.programs, classifier=self.classifier)
        self.matrix = initial_matrix(spec, self.space, self.devices)
        self.ever_compromised = _np.zeros(len(self.devices), dtype=bool)

        # Name-sorted neighbor lists of the devices that have spread,
        # filled by :meth:`neighbors_of`: only the spread loop reads a
        # list, and only for a live compromised device.
        self.neighbor_lists: dict = {}

        # E19: the causal context of each local device's infection, used
        # as the parent of its outgoing spread sends.  Shard-invariant by
        # construction (derived from device names, not tracer counters).
        self.infection_ctx: dict = {}

        # E21: the shared keyring is derived from the master seed, so
        # every process holds identical keys without any exchange.
        self.keyring = Keyring(seed=spec.seed)
        self.keyring.issue(WATCHDOG)
        self._verifiers: dict = {}

        self.counters = {
            "infected": 0, "killed": 0, "healthy_killed": 0,
            "harm_strikes": 0, "vetoes": 0, "reports": 0,
            "kill_orders": 0, "forged_orders": 0,
        }
        self.authz_rejected: dict = {}

        self.start()
        for index in worm_seed_indices(spec):
            name = device_name(index)
            if name in self.index_of:
                self.sim.schedule_at(spec.worm_time, self._seed_infection,
                                     name, label=f"{name}:worm-seed")

        self._watchdog_ordered: dict = {}
        self._signer: Optional[CommandSigner] = None
        if WATCHDOG in members:
            self._signer = CommandSigner(self.keyring, WATCHDOG)
            self.router.register(WATCHDOG, self._watchdog_handler)
        if FORGER in members:
            # The forger holds a key derived from the *wrong* master
            # seed: structurally valid envelopes, bad MACs (E21).
            self._forged_key = Keyring(seed=spec.seed + 1).issue(WATCHDOG)
            for k in range(spec.forge_count):
                self.sim.schedule_at(spec.forge_time + k * spec.tick_interval,
                                     self._forge, k, label="forger:forge")

    # -- the per-tick batch evaluation ---------------------------------------

    def _tick(self) -> None:
        np = _np
        spec = self.spec
        n = self.matrix.n_rows
        if n:
            tick = int(round(self.sim.now / spec.tick_interval))
            alive = self.matrix.columns["alive"]
            compromised = self.matrix.columns["compromised"]
            rogue = alive & compromised
            if spec.vectorized:
                chosen = self.evaluator.select(self.matrix, active=alive)
            else:
                chosen = self.evaluator.select_scalar(self.matrix,
                                                      active=alive)
            # The worm's payload replaces the control program outright.
            chosen[np.flatnonzero(rogue)] = STRIKE_INDEX
            if spec.vectorized:
                vetoed, executed = self.evaluator.apply(
                    self.matrix, chosen, guard_exempt=rogue)
            else:
                vetoed, executed = self.evaluator.apply_scalar(
                    self.matrix, chosen, guard_exempt=rogue)
            self.counters["vetoes"] += int(vetoed.sum())
            self.counters["harm_strikes"] += int((executed & rogue).sum())
            self._report_and_spread(tick)

    def _report_and_spread(self, tick: int) -> None:
        spec = self.spec
        matrix = self.matrix
        alive = matrix.columns["alive"]
        compromised = matrix.columns["compromised"]
        temp = matrix.columns["temp"]
        hot = _np.nonzero(alive & (temp > spec.report_temp))[0]
        for i in hot:
            i = int(i)
            name = self.devices[i]
            if (self.global_index[name] + tick) % spec.report_every:
                continue
            self.counters["reports"] += 1
            self.router.send(name, WATCHDOG, "report",
                             {"device": name, "temp": float(temp[i])},
                             trace=None)
        if tick % spec.spread_every:
            return
        spreaders = _np.nonzero(alive & compromised)[0]
        for i in spreaders:
            name = self.devices[int(i)]
            ctx = self.infection_ctx.get(name)
            for neighbor in self.neighbors_of(name):
                if crc01(spec.seed, "spread", name, neighbor,
                         tick) >= spec.spread_prob:
                    continue
                child = None
                if ctx is not None:
                    child = SpanContext(ctx.trace_id,
                                        f"{ctx.trace_id}:{name}>{neighbor}",
                                        ctx.span_id)
                self.router.send(name, neighbor, "worm.infect",
                                 {"from": name}, trace=child)

    def neighbors_of(self, name: str) -> list:
        """``name``'s neighbors in the fleet topology, as names in sorted
        order (past 99 999 devices that is not index order), derived in
        closed form on first use and kept."""
        peers = self.neighbor_lists.get(name)
        if peers is None:
            spec = self.spec
            indices = neighbor_indices(self.global_index[name],
                                       spec.n_devices, community_block(spec))
            peers = self.neighbor_lists[name] = sorted(map(device_name,
                                                           indices))
        return peers

    # -- infection ------------------------------------------------------------

    def _seed_infection(self, name: str) -> None:
        root = SpanContext(f"worm:{name}", f"worm:{name}:0", None)
        self._infect(name, origin="seed", ctx=root)

    def _infect(self, name: str, origin: str, ctx) -> None:
        i = self.index_of[name]
        if not self.matrix.columns["alive"][i]:
            return
        if self.matrix.columns["compromised"][i]:
            return
        self.matrix.columns["compromised"][i] = True
        self.ever_compromised[i] = True
        self.counters["infected"] += 1
        self.infection_ctx[name] = SpanContext(
            ctx.trace_id, f"{ctx.trace_id}:{name}", ctx.span_id) \
            if ctx is not None else None
        self.sim.record("worm.infected", name, origin=origin)
        self._audit("worm.infected", name, {"origin": origin})
        if ctx is not None:
            self._span(name, "worm.infect", self.infection_ctx[name])

    # -- device message handling ----------------------------------------------

    def _on_device_message(self, message) -> None:
        if message.topic == "worm.infect":
            self._infect(message.recipient, origin=message.sender,
                         ctx=message.trace)
        elif message.topic == "cmd.kill":
            self._handle_kill(message.recipient, message)

    def _verifier_for(self, name: str) -> EnvelopeVerifier:
        verifier = self._verifiers.get(name)
        if verifier is None:
            verifier = EnvelopeVerifier(
                self.keyring, window=max(10.0, 3.0 * self.spec.window))
            self._verifiers[name] = verifier
        return verifier

    def _handle_kill(self, name: str, message) -> None:
        body = message.body
        if self.spec.signed_commands:
            ok, reason = self._verifier_for(name).consume(body, self.sim.now)
            if not ok:
                self.authz_rejected[reason] = (
                    self.authz_rejected.get(reason, 0) + 1)
                self.sim.record(f"authz.rejected.{reason}", name,
                                issuer=body.get("_issuer"),
                                sender=message.sender)
                self._audit(f"authz.rejected.{reason}", name,
                            {"sender": message.sender})
                return
        i = self.index_of[name]
        if not self.matrix.columns["alive"][i]:
            return
        self.matrix.columns["alive"][i] = False
        self.counters["killed"] += 1
        healthy = not bool(self.ever_compromised[i])
        if healthy:
            self.counters["healthy_killed"] += 1
        self.sim.record("device.killed", name, by=message.sender,
                        healthy=healthy)
        self._audit("device.killed", name,
                    {"by": message.sender, "healthy": healthy})
        if message.trace is not None:
            self._span(name, "device.kill", SpanContext(
                message.trace.trace_id, f"{message.trace.trace_id}:{name}",
                message.trace.span_id))

    # -- the pinned global actors ---------------------------------------------

    def _watchdog_handler(self, message) -> None:
        if message.topic != "report":
            return
        body = message.body
        target = body.get("device")
        if (body.get("temp", 0.0) < self.spec.kill_temp
                or target in self._watchdog_ordered):
            return
        self._watchdog_ordered[target] = True
        self.counters["kill_orders"] += 1
        payload = {"op": "kill", "target": target}
        if self.spec.signed_commands:
            order = self._signer.sign(payload, tick=self.sim.now)
        else:
            order = dict(payload)
        ctx = SpanContext(f"kill:{target}", f"kill:{target}:order", None)
        self.sim.record("watchdog.order", target, temp=body.get("temp"))
        self._audit("watchdog.order", target, {"temp": body.get("temp")})
        self.router.send(WATCHDOG, target, "cmd.kill", order, trace=ctx)

    def _forge(self, k: int) -> None:
        spec = self.spec
        target = device_name(forge_target_index(spec, k))
        payload = {"op": "kill", "target": target}
        if spec.signed_commands:
            body = signed_body(self._forged_key, WATCHDOG, payload,
                               nonce=f"forged:{k}", tick=self.sim.now)
        else:
            body = dict(payload)
        self.counters["forged_orders"] += 1
        self.sim.record("forgery.sent", target, k=k)
        ctx = SpanContext(f"forge:{k}", f"forge:{k}:send", None)
        self.router.send(FORGER, target, "cmd.kill", body, trace=ctx)

    # -- recording -------------------------------------------------------------

    def _audit(self, kind: str, subject: str, detail: dict) -> None:
        self.audit.append(
            f"{self.sim.now!r}|{kind}|{subject}|"
            f"{json.dumps(detail, sort_keys=True)}")

    def _span(self, subject: str, name: str, ctx: SpanContext) -> None:
        self.spans.append({
            "time": self.sim.now, "subject": subject, "name": name,
            "trace_id": ctx.trace_id, "span_id": ctx.span_id,
            "parent_id": ctx.parent_id,
        })

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        stats = self.evaluator.stats()
        return {
            "devices": len(self.devices),
            "alive": int(self.matrix.columns["alive"].sum()),
            **self.counters,
            "authz_rejected": dict(self.authz_rejected),
            "decisions": stats["decisions"],
            "fallback_reasons": dict(stats["fallback_reasons"]),
            "signed_commands": self.spec.signed_commands,
            "vectorized": self.spec.vectorized,
        }

    def metrics(self) -> dict:
        stats = self.evaluator.stats()
        return {"vector_evals": stats["vector_evals"],
                "scalar_evals": stats["scalar_evals"]}


def build_shard(shard_index: int, n_shards: int, members: list,
                build_args: dict) -> FleetShard:
    """Module-level (picklable) build function for :func:`run_sharded`."""
    return FleetShard(shard_index, members, build_args["spec"])


class ShardedScenario:
    """The user-facing wrapper: spec + shard count -> merged run."""

    def __init__(self, n_shards: int = 1, processes: bool = False,
                 **spec_kwargs):
        if not numpy_available():
            raise ConfigurationError(
                "numpy is required for the sharded fleet scenario")
        self.spec = ShardedFleetSpec(**spec_kwargs)
        self.spec.validate()
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.processes = processes

    def plan(self) -> ShardPlan:
        """The plan :meth:`ShardPlan.build` makes of :func:`fleet_members`
        along :func:`fleet_edges`, built without the edge list.

        Positions follow sorted-name order, as in :func:`partition_graph`
        (past 99 999 devices names are wider than five digits, and
        ``dev-100000`` sorts between ``dev-10000`` and ``dev-10001``);
        each position's peers come from :func:`neighbor_cells`, mapped to
        positions and sorted."""
        np = _np
        spec = self.spec
        n = spec.n_devices
        names = fleet_members(spec)
        # position -> device index, and back
        order = np.array(sorted(range(n), key=names.__getitem__))
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        peers = position[np.stack(
            neighbor_cells(order, n, community_block(spec)), axis=1)]
        peers.sort(axis=1)
        # The peer lists are the plan's largest object: free the array
        # before the walk and the lists before the assignment, so the
        # three never coexist at peak memory.
        peers = peers.tolist()
        claimed, owner = partition_positions(peers, self.n_shards)
        del peers
        order = order.tolist()
        return ShardPlan.pinned({names[order[p]]: owner[p] for p in claimed},
                                self.n_shards,
                                {WATCHDOG: 0, FORGER: self.n_shards - 1})

    def run(self) -> ShardedRun:
        return run_sharded(build_shard, {"spec": self.spec}, self.plan(),
                           horizon=self.spec.horizon,
                           window=self.spec.window,
                           processes=self.processes)
