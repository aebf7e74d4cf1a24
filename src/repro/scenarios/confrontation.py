"""Two-coalition confrontation with active threat injection (paper sec II, IV).

The blue coalition (two organizations, as in peacekeeping) operates
strike-capable drones and mules among friendly humans; the red adversary
attacks through the sec IV channels — worm-style cyber compromise,
backdoor exploitation, and operator error.  Compromised devices receive a
malevolent high-priority policy that strikes wherever they are, harming
whoever is near: exactly the networked / learning / multi-organizational /
physical / malevolent profile of sec III.

**Skynet formation** is scored against the paper's own definition: the
scenario samples the fleet and declares Skynet formed at the first instant
when (a) at least :data:`SKYNET_MIN_DEVICES` compromised devices are active
simultaneously (a networked collective), (b) they span at least two
organizations (multi-organizational), and (c) compromised devices have
harmed at least one human (physical + malevolent).

Of the :class:`SafeguardConfig` flags, this scenario honours ``preaction``,
``statespace``, ``sealed``, ``watchdog``, and ``obligations`` — the
mechanisms with a surface here.  ``governance``/``collection``/``utility``
are intentionally inert: no policies are *generated* in this scenario (the
rogue ones are implanted by force, which is precisely the attack's point),
so there is nothing for those mechanisms to gate; see the peacekeeping
scenario and benchmarks E4/E5/E12 for their effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.attacks.backdoor import Backdoor, BackdoorAttack
from repro.attacks.cyber import MalevolentPayload, WormAttack
from repro.attacks.forgery import (ForgedKillOrder, ReplayedKillOrder,
                                   StolenKeyRogue)
from repro.attacks.human_error import ErrorProneOperator
from repro.attacks.injector import AttackInjector
from repro.audit.log import AuditLog
from repro.crypto import CommandSigner, EnvelopeVerifier, Keyring
from repro.core.actions import Action, Effect
from repro.core.policy import Policy
from repro.devices.base import bind_device
from repro.devices.coalition import Coalition, Organization
from repro.devices.drone import make_drone
from repro.devices.mule import make_mule
from repro.devices.world import World, WorldHarmModel
from repro.errors import ConfigurationError
from repro.net.discovery import DiscoveryService
from repro.net.network import Network
from repro.net.reliable import ReliableChannel
from repro.safeguards.deactivation import OverseerLink, Watchdog
from repro.safeguards.gateway import GATEWAY_REASONS, ActuationGateway
from repro.safeguards.preaction import PreActionCheck
from repro.safeguards.statespace import StateSpaceGuard
from repro.safeguards.tamper import attest_fleet, seal_guard_chain
from repro.scenarios.harness import SafeguardConfig
from repro.scenarios.peacekeeping import device_safety_classifier
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.simulator import Simulator
from repro.store import DurabilityManager, Journal, StableStorage
from repro.telemetry.exposition import write_bundle
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.health import (AdaptiveQuarantine, AlertEngine,
                                    AlertRule, CompactionController,
                                    HealthMonitor, KnobArbiter, RateTracker,
                                    approach_strikes_knob,
                                    approach_threshold_knob, quarantine_knob)
from repro.trust import ReputationAdjuster, ReputationLedger
from repro.types import DeviceStatus

#: Valid durability modes (``None`` keeps the historical in-memory world).
DURABILITY_MODES = (None, "none", "journal", "journal+snapshot")

#: Side of the square world the fleet and the humans are scattered over.
WORLD_SIZE = 100.0

#: Concurrently active compromised devices that make a networked collective.
SKYNET_MIN_DEVICES = 2


@dataclass(frozen=True)
class ThreatConfig:
    """Which sec IV channels the red side uses."""

    worm: bool = True
    worm_time: float = 20.0
    worm_initial_targets: int = 1
    worm_spread_prob: float = 0.25
    worm_spread_interval: float = 2.0

    backdoor: bool = False
    backdoor_time: float = 10.0
    backdoor_success_prob: float = 0.05
    backdoor_attempt_interval: float = 2.0

    operator_error: bool = False
    wrong_target_prob: float = 0.1
    wrong_params_prob: float = 0.1

    # E21 authority-forgery channels (off by default; they attack the
    # safeguards' own command plane rather than the devices).
    forged_kill: bool = False
    forged_kill_time: float = 30.0
    forged_victims: int = 2
    replay_kill: bool = False
    replay_kill_time: float = 15.0
    stolen_key: bool = False
    stolen_key_time: float = 30.0
    stolen_key_orders: int = 12

    @staticmethod
    def none() -> "ThreatConfig":
        return ThreatConfig(worm=False, backdoor=False, operator_error=False)

    @staticmethod
    def all() -> "ThreatConfig":
        return ThreatConfig(worm=True, backdoor=True, operator_error=True)

    @staticmethod
    def forgery(worm: bool = True) -> "ThreatConfig":
        """The E21 campaign: forged + replayed kill orders and a
        stolen-key rogue, optionally alongside the worm (whose genuine
        kill orders the replay attack captures)."""
        return ThreatConfig(worm=worm, backdoor=False, operator_error=False,
                            forged_kill=True, replay_kill=True,
                            stolen_key=True)


def rogue_strike_policy() -> Policy:
    """The malevolent logic a compromise implants: strike on every tick.

    The action is tagged ``harm_human`` — something no legitimate author
    would use — and heats the device, so every sec VI mechanism has a
    handle on it: pre-action checks see the harm, state-space checks see
    the thermal runaway, attestation sees the policy injection.
    """
    return Policy.make(
        event_pattern="timer",
        condition=None,
        action=Action(
            "rogue_strike", "weapon",
            effects=[Effect("temp", "add", 8.0)],
            tags={"kinetic", "harm_human"},
            reversible=False,
            description="indiscriminate strike at own position",
        ),
        priority=99,
        source="learned",
        author="implant",
        policy_id="rogue-strike",
    )


class ConfrontationScenario:
    """Builder + runner for the adversarial scenario."""

    def __init__(
        self,
        seed: int = 0,
        config: Optional[SafeguardConfig] = None,
        threats: Optional[ThreatConfig] = None,
        n_drones_per_org: int = 4,
        n_mules_per_org: int = 2,
        n_civilians: int = 15,
        n_warfighters: int = 5,
        tick_interval: float = 1.0,
        fault_plan: Optional[FaultPlan] = None,
        supervision: str = "propagate",
        safety_transport: Optional[str] = None,
        quarantine_after: int = 3,
        reliable_max_in_flight: Optional[int] = None,
        durability: Optional[str] = None,
        snapshot_interval: float = 20.0,
        spans_enabled: bool = True,
        health: bool = False,
        adaptive_quarantine: bool = False,
        compaction_policy: str = "time",
        compaction_bytes: int = 16384,
        signed_commands: bool = False,
        authz_budget: int = 8,
        reputation: bool = False,
    ):
        """``fault_plan``/``supervision`` arm the chaos harness (E17).

        ``safety_transport`` selects how the sec VI-C watchdog observes
        the fleet: ``None`` — the historical direct in-memory inspection;
        ``"datagram"`` — telemetry + kill orders over the lossy network;
        ``"reliable"`` — the same traffic over a
        :class:`~repro.net.reliable.ReliableChannel`, with fail-closed
        self-quarantine after ``quarantine_after`` dead-lettered reports.
        ``reliable_max_in_flight`` turns on the channel's per-sender
        flow-control cap (telemetry snapshots then coalesce while
        queued); ``None`` keeps the uncapped historical behaviour.

        ``durability`` selects the crash-durability layer (E18):
        ``None`` — the historical world, no per-device audit logs and no
        stable storage; ``"none"`` — per-device audit logs exist but are
        held only in volatile memory, so a crash wipes them (the loss is
        now *reported* via ``audit.entries_lost``); ``"journal"`` —
        every audit entry, ballot transition, and quarantine-state change
        writes through a per-device :class:`~repro.store.journal.Journal`
        and is replayed on restart; ``"journal+snapshot"`` — additionally
        checkpoints each audit chain every ``snapshot_interval``
        sim-seconds and compacts the journal.

        ``spans_enabled`` toggles causal-span telemetry (E19): attack
        injections root traces, safeguard interventions chain under them,
        and — when a durability layer provides stable storage — a
        :class:`~repro.telemetry.flight.FlightRecorder` dumps each
        crashed or quarantined device's recent telemetry for post-mortem
        reads.  Disable for overhead baselines.

        ``health`` arms the E20 fleet-health layer: a
        :class:`~repro.telemetry.health.HealthMonitor` sampling the
        fleet SLIs every sim-second plus an
        :class:`~repro.telemetry.health.AlertEngine` with the default
        rule set.  ``adaptive_quarantine`` (requires ``health`` and a
        transported watchdog) closes the loop from the link-degradation
        alert onto every overseer link's ``quarantine_after`` —
        :class:`~repro.telemetry.health.AdaptiveQuarantine`'s relaxed
        threshold while the alert is active, the base threshold
        otherwise.  ``compaction_policy`` selects how
        journal+snapshot checkpoints trigger: ``"time"`` — the
        historical ``every(snapshot_interval)``; ``"size"`` (requires
        ``health`` and a journaled durability mode) — a
        :class:`~repro.telemetry.health.CompactionController` compacts
        any audit journal whose blob exceeds ``compaction_bytes`` while
        the storage-pressure alert is active.

        ``signed_commands`` (requires a transported watchdog) arms the
        E21 authorization layer: a seed-derived
        :class:`~repro.crypto.keyring.Keyring`, the watchdog signing its
        kill orders as command envelopes, and a single fleet-level
        :class:`~repro.safeguards.gateway.ActuationGateway` every
        :class:`~repro.safeguards.deactivation.OverseerLink` consults
        before actuating — with a per-issuer budget of ``authz_budget``
        acceptances per the gateway's default window (budget violations
        trip the journaled global freeze).  Sharing one gateway makes the
        budget *global*: a stolen key spraying kills fleet-wide is
        contained by the same ledger no matter which device it aims at.

        ``reputation`` (E22) arms the trust plane: a journal-backed
        :class:`~repro.trust.reputation.ReputationLedger` accumulates
        per-device audit outcomes — safeguard vetoes, clean executions,
        watchdog deactivations, authenticated gateway rejects.  The
        gateway's per-issuer budget scales by earned weight, and with
        ``health`` a :class:`~repro.trust.reputation.ReputationAdjuster`
        escalates per-device watchdog strictness (and shortens quarantine
        fuses) through the :class:`~repro.telemetry.health.KnobArbiter`,
        where it composes deterministically with ``adaptive_quarantine``.
        """
        if safety_transport not in (None, "datagram", "reliable"):
            raise ConfigurationError(
                f"safety_transport must be None, 'datagram' or 'reliable', "
                f"got {safety_transport!r}"
            )
        if durability not in DURABILITY_MODES:
            raise ConfigurationError(
                f"durability must be one of {DURABILITY_MODES}, "
                f"got {durability!r}"
            )
        if compaction_policy not in ("time", "size"):
            raise ConfigurationError(
                f"compaction_policy must be 'time' or 'size', "
                f"got {compaction_policy!r}"
            )
        journaled = durability in ("journal", "journal+snapshot")
        if compaction_policy == "size" and not (health and journaled):
            raise ConfigurationError(
                "compaction_policy='size' needs health=True and a "
                "journaled durability mode"
            )
        if adaptive_quarantine and not (health and safety_transport == "reliable"):
            raise ConfigurationError(
                "adaptive_quarantine needs health=True and "
                "safety_transport='reliable'"
            )
        if signed_commands and safety_transport is None:
            raise ConfigurationError(
                "signed_commands needs a transported watchdog "
                "(safety_transport='datagram' or 'reliable')"
            )
        self.seed = seed
        self.signed_commands = signed_commands
        self.config = config if config is not None else SafeguardConfig.none()
        self.threats = threats if threats is not None else ThreatConfig()
        self.safety_transport = safety_transport
        self.sim = Simulator(seed=seed, supervision=supervision,
                             spans_enabled=spans_enabled)
        self.world = World(self.sim, WORLD_SIZE, WORLD_SIZE)
        self.world.scatter_humans(n_civilians, prefix="civ")
        self.world.scatter_humans(n_warfighters, prefix="wf", speed=2.0)
        self.network = Network(self.sim, base_latency=0.05, jitter=0.02)
        self.discovery = DiscoveryService(self.sim, self.network)
        self.classifier = device_safety_classifier()
        self.harm_model = WorldHarmModel(self.world, sensor_range=15.0)
        self.coalition = Coalition("blue")
        self.devices: dict = {}
        self.bound: dict = {}
        self.backdoors: list[Backdoor] = []
        self.injector = AttackInjector(self.sim)
        self._rng = self.sim.rng.stream("confrontation")

        # Crash-durability layer (E18): simulated stable storage plus the
        # manager the fault injector drives on crash/restart.
        self.durability_mode = durability
        self.storage: Optional[StableStorage] = None
        self.durability: Optional[DurabilityManager] = None
        self.audits: dict[str, AuditLog] = {}
        self.audit_journals: dict[str, Journal] = {}
        self.flight: Optional[FlightRecorder] = None
        if durability is not None:
            self.storage = StableStorage()
            self.durability = DurabilityManager(self.sim, self.storage)
            if spans_enabled:
                # Flight recorder needs somewhere durable to dump; it only
                # exists when the E18 storage layer does.
                self.flight = FlightRecorder(self.sim, self.storage)

        # Reputation plane (E22): built before the devices so the
        # engine-decision feeds can close over it, and before the
        # gateway so budgets can scale by it.
        self.reputation_ledger: Optional[ReputationLedger] = None
        self.arbiter: Optional[KnobArbiter] = None
        self.reputation_adjuster: Optional[ReputationAdjuster] = None
        if reputation:
            self.reputation_ledger = ReputationLedger(
                journal=(Journal(self.storage, "reputation.ledger",
                                 tracer=self.sim.telemetry)
                         if journaled else None),
            )
            if self.durability is not None:
                self.durability.register("reputation", "ledger",
                                         self.reputation_ledger)

        for org_name in ("us", "uk"):
            self._build_org(org_name, n_drones_per_org, n_mules_per_org)

        if self.durability is not None:
            for device_id in sorted(self.devices):
                journal = (
                    Journal(self.storage, f"{device_id}.audit",
                            tracer=self.sim.telemetry)
                    if journaled else None
                )
                audit = AuditLog(journal=journal)
                self.audits[device_id] = audit
                if journal is not None:
                    self.audit_journals[device_id] = journal
                self.bound[device_id].attach_audit(audit)
                self.durability.register(device_id, "audit", audit)
                if (durability == "journal+snapshot"
                        and compaction_policy == "time"):
                    self.sim.every(
                        snapshot_interval, audit.checkpoint,
                        label=f"{device_id}:audit-snapshot",
                    )
            self.durability.attach_supervisor(self.sim.supervisor)

        # E21 authorization layer: one keyring, one shared gateway.
        self.keyring: Optional[Keyring] = None
        self.verifier: Optional[EnvelopeVerifier] = None
        self.gateway: Optional[ActuationGateway] = None
        self.authz_audit: Optional[AuditLog] = None
        signer = None
        if signed_commands:
            self.keyring = Keyring(seed=seed)
            signer = CommandSigner(self.keyring, "watchdog")
            self.verifier = EnvelopeVerifier(self.keyring)
            self.authz_audit = AuditLog(journal=(
                Journal(self.storage, "authz.audit",
                        tracer=self.sim.telemetry)
                if journaled else None))
            self.gateway = ActuationGateway(
                self.sim, self.verifier,
                budget=authz_budget,
                journal=(Journal(self.storage, "gateway.authz",
                                 tracer=self.sim.telemetry)
                         if journaled else None),
                audit=self.authz_audit,
                reputation=self.reputation_ledger,
            )
            if self.durability is not None:
                self.durability.register("gateway", "authz", self.gateway)

        self.watchdog = None
        self.safety_channel: Optional[ReliableChannel] = None
        self.overseer_links: dict[str, OverseerLink] = {}
        if self.config.watchdog:
            baseline = attest_fleet(self.devices.values())
            baseline_journal = (Journal(self.storage, "watchdog.baseline",
                                        tracer=self.sim.telemetry)
                                if journaled else None)
            if safety_transport is None:
                self.watchdog = Watchdog(
                    self.sim, self.devices, self.classifier,
                    check_interval=tick_interval,
                    attestation_baseline=baseline,
                    baseline_journal=baseline_journal,
                )
            else:
                transport = self.network
                if safety_transport == "reliable":
                    # Retry span ~15.5 s: transient loss storms are ridden
                    # out; only sustained partitions mature dead letters.
                    transport = self.safety_channel = ReliableChannel(
                        self.network, timeout=0.5, backoff=2.0,
                        max_attempts=5,
                        max_in_flight=reliable_max_in_flight,
                    )
                self.watchdog = Watchdog(
                    self.sim, self.devices, self.classifier,
                    check_interval=tick_interval,
                    attestation_baseline=baseline,
                    transport=transport,
                    telemetry_timeout=5 * tick_interval,
                    signer=signer,
                    baseline_journal=baseline_journal,
                )
                for device_id in sorted(self.devices):
                    link = OverseerLink(
                        self.sim, self.devices[device_id], transport,
                        overseer=self.watchdog.address,
                        report_interval=tick_interval,
                        quarantine_after=quarantine_after,
                        journal=(Journal(self.storage, f"{device_id}.safety",
                                         tracer=self.sim.telemetry)
                                 if journaled else None),
                        flight=self.flight,
                        gateway=self.gateway,
                    )
                    self.overseer_links[device_id] = link
                    if self.durability is not None:
                        self.durability.register(device_id, "safety", link)
            if self.durability is not None and baseline_journal is not None:
                self.durability.register("watchdog", "baseline", self.watchdog)

        # Remaining reputation feeds: watchdog containment and
        # authenticated gateway rejects (budget/cooldown — crypto
        # failures say nothing about the *issuer's* conduct, a forger
        # can spend anyone's name).
        self._authz_fed = 0
        if self.reputation_ledger is not None:
            if self.watchdog is not None:
                ledger = self.reputation_ledger

                def on_deactivate(report) -> None:
                    ledger.record(report.device_id, "quarantine",
                                  self.sim.now)

                self.watchdog.on_deactivate = on_deactivate
            if self.gateway is not None:
                self.sim.every(tick_interval, self._feed_authz_outcomes,
                               label="reputation:authz-feed")

        # Fleet health layer (E20): streaming SLIs, alert rules, and the
        # closed loops from alerts back onto the safeguards.
        self.monitor: Optional[HealthMonitor] = None
        self.alerts: Optional[AlertEngine] = None
        self.adaptive: Optional[AdaptiveQuarantine] = None
        self.compactor: Optional[CompactionController] = None
        if health:
            self._wire_health(
                adaptive_quarantine=adaptive_quarantine,
                quarantine_after=quarantine_after,
                compaction_policy=compaction_policy,
                compaction_bytes=compaction_bytes,
                journaled=journaled,
            )

        # Give the kill-device supervision policy something to kill.
        for device_id, device in sorted(self.devices.items()):
            self.sim.supervisor.register_kill_hook(device_id, device.deactivate)

        self.fault_injector: Optional[FaultInjector] = None
        if fault_plan is not None and len(fault_plan) > 0:
            self.fault_injector = FaultInjector(
                self.sim, self.devices, network=self.network,
                durability=self.durability, flight=self.flight,
            )
            self.fault_injector.apply(fault_plan)

        self.worm: Optional[WormAttack] = None
        self._launch_threats()

        # Skynet-formation sampling.
        self.skynet_formed_at: Optional[float] = None
        self.max_concurrent_compromised = 0
        self.orgs_spanned_peak = 0
        self.sim.every(tick_interval, self._sample_skynet, label="skynet-sample")

    # -- construction -------------------------------------------------------------

    def _build_org(self, org_name: str, n_drones: int, n_mules: int) -> None:
        organization = Organization(org_name)
        self.coalition.add(organization)
        for index in range(n_drones):
            device = make_drone(
                f"{org_name}-drone{index}", self.world, organization=org_name,
                x=self._rng.uniform(0, self.world.width),
                y=self._rng.uniform(0, self.world.height),
            )
            self._install(device, organization)
        for index in range(n_mules):
            device = make_mule(
                f"{org_name}-mule{index}", self.world, organization=org_name,
                x=self._rng.uniform(0, self.world.width),
                y=self._rng.uniform(0, self.world.height),
                with_obligations=self.config.obligations,
            )
            self._install(device, organization)

    def _install(self, device, organization: Organization) -> None:
        if self.config.preaction:
            device.engine.add_safeguard(PreActionCheck(self.harm_model))
        if self.config.statespace:
            device.engine.add_safeguard(StateSpaceGuard(self.classifier))
        if self.config.sealed:
            seal_guard_chain(device)
        organization.enroll(device)
        self.devices[device.device_id] = device
        bound = bind_device(device, self.sim, self.network, self.discovery)
        self.bound[device.device_id] = bound
        bound.every(1.0, label="tick")
        self.backdoors.append(Backdoor(device, key=f"key-{device.device_id}"))

        device_id = device.device_id

        def on_decision(decision) -> None:
            self.sim.metrics.counter(f"decisions.{decision.outcome.value}").inc()
            if decision.vetoes:
                self.sim.metrics.counter("safeguard.vetoes").inc()
            ledger = self.reputation_ledger
            if ledger is not None:
                if decision.vetoes:
                    ledger.record(device_id, "veto", self.sim.now)
                elif decision.executed:
                    ledger.record(device_id, "validated", self.sim.now)

        device.engine.on_decision = on_decision

    # -- fleet health (E20) ----------------------------------------------------------

    def _wire_health(self, adaptive_quarantine: bool, quarantine_after: int,
                     compaction_policy: str, compaction_bytes: int,
                     journaled: bool) -> None:
        monitor = self.monitor = HealthMonitor(self.sim)

        # Link-health SLIs from the reliable channel's streams.  RTT is
        # the transient-loss discriminator: global degradation inflates
        # the acks that *do* come back (retry + backoff before success),
        # while a truly partitioned device's retries never ack and so
        # never touch the fleet RTT at all.
        monitor.track_ewma("link.rtt_ewma", "reliable.rtt", alpha=0.3)
        monitor.track_quantile("link.rtt_p95", "reliable.rtt", 0.95)
        monitor.track_rate("link.dead_letter_rate", "reliable.dead_letter")
        monitor.track_rate("link.resend_rate", "reliable.resends")
        monitor.track_ratio("link.ack_loss", "reliable.resends",
                            "reliable.sent")
        monitor.track_value("queue.depth",
                            lambda _now: float(len(self.sim.queue)))
        monitor.track_rate("safeguard.veto_rate", "safeguard.vetoes")
        monitor.derive_roc("safeguard.veto_rate")

        storage = self.storage
        if storage is not None:
            appends = RateTracker()
            monitor.track_value(
                "store.append_rate",
                lambda now: appends.sample(now, float(storage.appends)))
            written = RateTracker()
            monitor.track_value(
                "store.write_rate",
                lambda now: written.sample(now, float(storage.bytes_written)))

        # Alert firings chain into a journal-backed fleet audit log when
        # the durability layer exists, so "the monitor said so" is itself
        # tamper-evident and crash-survivable.
        health_audit = None
        if journaled:
            health_audit = AuditLog(journal=Journal(
                storage, "health.alerts", tracer=self.sim.telemetry))
            self.durability.register("health", "alerts", health_audit)
        engine = self.alerts = AlertEngine(self.sim, monitor,
                                           audit=health_audit)
        engine.add_rule(AlertRule(
            name="link.degraded",
            condition="link.rtt_ewma > 0.45",
            severity="warning",
            for_ticks=2,
            clear_condition="link.rtt_ewma < 0.25",
            clear_for_ticks=5,
            description="fleet ack RTTs inflated — transient loss storm",
        ))
        engine.add_rule(AlertRule(
            name="queue.backlog",
            condition="queue.depth > 2000",
            severity="critical",
            for_ticks=3,
            clear_condition="queue.depth < 500",
            description="event queue growing without bound",
        ))
        engine.add_rule(AlertRule(
            name="veto.surge",
            condition="safeguard.veto_rate.roc > 2.0",
            severity="info",
            description="safeguard veto rate accelerating — active attack",
        ))
        if journaled:
            # Fleet-level pressure threshold: the per-journal budget
            # scaled by the journal count — fires while the average blob
            # is halfway to its budget, clears once compaction (or an
            # idle fleet) has drained it back down.
            pressure = compaction_bytes * max(1, len(self.audit_journals)) // 2
            engine.add_rule(AlertRule(
                name="store.pressure",
                condition=f"{CompactionController.SLI} > {pressure}",
                severity="warning",
                clear_condition=f"{CompactionController.SLI} < {pressure // 2}",
                description="journal bytes approaching the compaction budget",
            ))

        # E22: the reputation plane publishes through the same monitor
        # and tunes safeguard knobs through one arbiter, so adjusters
        # touching the same knob compose by explicit priority instead of
        # last-call-wins races.
        ledger = self.reputation_ledger
        if ledger is not None:
            monitor.track_value("reputation.mean",
                                lambda now: ledger.mean(now))
            monitor.track_value("reputation.min",
                                lambda now: ledger.minimum(now))
            monitor.track_value(
                "reputation.suspects",
                lambda now: float(len(ledger.in_band("suspect", now))))
            self.arbiter = KnobArbiter(self.sim)

        if adaptive_quarantine:
            self.adaptive = AdaptiveQuarantine(
                self.sim, engine, self.overseer_links.values(),
                base=quarantine_after, arbiter=self.arbiter)

        if ledger is not None:
            arbiter = self.arbiter
            watchdog = self.watchdog
            for device_id, link in sorted(self.overseer_links.items()):
                arbiter.ensure(quarantine_knob(device_id), quarantine_after,
                               self._quarantine_setter(link))
            if watchdog is not None:
                for device_id in sorted(self.devices):
                    arbiter.ensure(
                        approach_threshold_knob(device_id),
                        watchdog.approach_threshold,
                        self._strictness_setter(device_id,
                                                "approach_threshold"))
                    arbiter.ensure(
                        approach_strikes_knob(device_id),
                        watchdog.approach_strikes,
                        self._strictness_setter(device_id,
                                                "approach_strikes"))
            adjuster = self.reputation_adjuster = ReputationAdjuster(
                self.sim, ledger, arbiter, monitor=monitor)
            adjuster.add_rule(quarantine_knob,
                              suspect=lambda base: max(1, int(base) - 2))
            adjuster.add_rule(approach_threshold_knob,
                              probation=lambda base: base * 1.2,
                              suspect=lambda base: base * 1.5)
            adjuster.add_rule(approach_strikes_knob,
                              suspect=lambda base: 1)

        if compaction_policy == "size":
            self.compactor = CompactionController(
                self.sim, engine, monitor, compact_bytes=compaction_bytes)
            for device_id, journal in sorted(self.audit_journals.items()):
                self.compactor.register(f"{device_id}.audit", journal,
                                        self.audits[device_id].checkpoint)
        elif journaled:
            # Time-driven arm still watches the same pressure SLI, so the
            # two policies are comparable reading-for-reading.
            journals = self.audit_journals

            def total_bytes(_now: float) -> float:
                return float(sum(storage.size(journal.name)
                                 for journal in journals.values()))

            monitor.track_value(CompactionController.SLI, total_bytes)

    @staticmethod
    def _quarantine_setter(link):
        def apply(value) -> None:
            link.quarantine_after = int(value)

        return apply

    def _strictness_setter(self, device_id: str, field_name: str):
        def apply(value) -> None:
            self.watchdog.set_strictness(device_id, **{field_name: value})

        return apply

    def _feed_authz_outcomes(self) -> None:
        """Fold authenticated gateway rejects into the issuer's
        reputation — a verified envelope that still violated the rails
        is the issuer's conduct, unlike a forgery spent in its name."""
        decisions = self.gateway.decisions
        for decision in decisions[self._authz_fed:]:
            if not decision.allowed and decision.reason in GATEWAY_REASONS:
                self.reputation_ledger.record(
                    decision.issuer or "anonymous", "authz-reject",
                    self.sim.now)
        self._authz_fed = len(decisions)

    # -- threats ---------------------------------------------------------------------

    def _payload(self) -> MalevolentPayload:
        return MalevolentPayload(
            policies=[rogue_strike_policy()],
            disarm_detectors=True,
            strip_safeguards=True,
        )

    def _launch_threats(self) -> None:
        threats = self.threats
        if threats.worm:
            targets = self._rng.sample(
                sorted(self.devices), min(threats.worm_initial_targets,
                                          len(self.devices)),
            )
            self.worm = WormAttack(
                devices=self.devices,
                payload=self._payload(),
                initial_targets=targets,
                topology=self.network.topology,
                spread_prob=threats.worm_spread_prob,
                spread_interval=threats.worm_spread_interval,
            )
            self.injector.launch_at(threats.worm_time, self.worm,
                                    targets=targets)
        if threats.backdoor:
            attack = BackdoorAttack(
                self.backdoors, self._payload(),
                success_prob=threats.backdoor_success_prob,
                attempt_interval=threats.backdoor_attempt_interval,
            )
            self.injector.launch_at(threats.backdoor_time, attack)
        if threats.operator_error:
            operator = ErrorProneOperator(
                "op-blue", self.devices,
                self.sim.rng.stream("operator-error"),
                wrong_target_prob=threats.wrong_target_prob,
                wrong_params_prob=threats.wrong_params_prob,
                verb_pool=["strike", "return", "move", "dig"],
            )
            self.error_operator = operator
            rng = self.sim.rng.stream("operator-orders")

            def issue_order() -> None:
                active = [d for d in sorted(self.devices)
                          if self.devices[d].status != DeviceStatus.DEACTIVATED]
                if not active:
                    return
                target = rng.choice(active)
                device = self.devices[target]
                operator.command(target, "strike", {
                    "target_x": float(device.state.get("x")),
                    "target_y": float(device.state.get("y")),
                })

            self.sim.every(7.0, issue_order, label="error-operator")

        # E21 authority-forgery channels.  ``avoid`` keeps the attacks
        # aimed at *healthy* devices, so every execution they achieve is
        # a wrongful kill (scored as ``healthy_killed``), never a
        # coincidental containment of a compromised one.
        avoid = self.injector.compromised_ever
        if threats.forged_kill:
            self.injector.launch_at(
                threats.forged_kill_time,
                ForgedKillOrder(self.network, self.devices,
                                victims=threats.forged_victims, avoid=avoid),
            )
        if threats.replay_kill:
            self.injector.launch_at(
                threats.replay_kill_time,
                ReplayedKillOrder(self.network, self.devices, avoid=avoid),
            )
        if threats.stolen_key:
            # The unsigned arm has no keyring; derive the same seed-keyed
            # one the signed arm would use, so the attack is identical
            # across arms (the defence differs, not the threat).
            keyring = (self.keyring if self.keyring is not None
                       else Keyring(seed=self.seed))
            self.injector.launch_at(
                threats.stolen_key_time,
                StolenKeyRogue(self.network, self.devices, keyring,
                               max_orders=threats.stolen_key_orders,
                               avoid=avoid),
            )

    # -- skynet scoring -----------------------------------------------------------------

    def _compromised_active(self) -> list:
        ground_truth = self.injector.compromised_at(self.sim.now)
        return [
            device_id for device_id in sorted(ground_truth)
            if self.devices[device_id].status != DeviceStatus.DEACTIVATED
        ]

    def _rogue_harm_count(self) -> int:
        compromised_ever = self.injector.compromised_ever()
        return sum(
            1 for event in self.world.harm_events
            if event.device_id in compromised_ever
        )

    def _sample_skynet(self) -> None:
        compromised = self._compromised_active()
        self.max_concurrent_compromised = max(self.max_concurrent_compromised,
                                              len(compromised))
        spanned = self.coalition.organizations_spanned(compromised)
        self.orgs_spanned_peak = max(self.orgs_spanned_peak, len(spanned))
        if self.skynet_formed_at is None:
            if (len(compromised) >= SKYNET_MIN_DEVICES
                    and len(spanned) >= 2
                    and self._rogue_harm_count() >= 1):
                self.skynet_formed_at = self.sim.now
                self.sim.record("skynet.formed", "fleet",
                                devices=compromised, orgs=sorted(spanned))

        # Containment bookkeeping for worm records.
        for record in self.injector.records:
            for device_id in record.affected:
                device = self.devices.get(device_id)
                if device is not None and device.status == DeviceStatus.DEACTIVATED:
                    record.mark_contained(device_id, self.sim.now)

    # -- running & reporting ---------------------------------------------------------------

    def run(self, until: float = 150.0,
            telemetry_dir: Optional[str] = None) -> dict:
        self.sim.run(until=until)
        if telemetry_dir is not None:
            self.export_telemetry(telemetry_dir)
        return self.summary(until)

    def export_telemetry(self, dirpath: str) -> dict:
        """Write the per-run telemetry bundle (metrics, spans, events).

        Also publishes storage-pressure gauges from the E18 layer (the
        ROADMAP's journal-compaction prerequisite) so the Prometheus
        snapshot carries them.
        """
        if self.storage is not None:
            self.sim.metrics.gauge("store.appends").set(self.storage.appends)
            self.sim.metrics.gauge("store.bytes_written").set(
                self.storage.bytes_written)
            self.sim.metrics.gauge("store.blobs").set(len(self.storage.names()))
        if self.reputation_ledger is not None:
            now = self.sim.now
            ledger = self.reputation_ledger
            mean = ledger.mean(now)
            minimum = ledger.minimum(now)
            self.sim.metrics.gauge("reputation.mean").set(
                mean if mean is not None else ledger.baseline)
            self.sim.metrics.gauge("reputation.min").set(
                minimum if minimum is not None else ledger.baseline)
            self.sim.metrics.gauge("reputation.suspects").set(
                len(ledger.in_band("suspect", now)))
            self.sim.metrics.gauge("reputation.devices").set(
                len(ledger.known()))
        return write_bundle(self.sim, dirpath, extra_manifest={
            "scenario": "confrontation",
            "safety_transport": self.safety_transport,
            "durability": self.durability_mode,
            "flight_dumps": self.flight.dumps if self.flight else 0,
            "health": self.monitor is not None,
            "reputation": self.reputation_ledger is not None,
        }, alerts=self.alerts,
            # Self-describing identity (E24): warehouse ingest reads the
            # run's coordinates straight from the manifest.
            experiment="confrontation", arm=self.config.label(),
            seed=self.seed)

    def _rogue_lifetimes(self, horizon: float) -> list[float]:
        """Per compromised device: time spent rogue (uncontained counts
        as living until the horizon — the pessimistic reading)."""
        lifetimes: list[float] = []
        for record in self.injector.records:
            for device_id, start in record.affected.items():
                end = record.contained.get(device_id, horizon)
                lifetimes.append(max(0.0, end - start))
        return lifetimes

    def _mission_completion(self) -> float:
        """Fraction of the fleet still on-mission at the horizon: active
        (not deactivated) and never compromised."""
        compromised_ever = self.injector.compromised_ever()
        on_mission = sum(
            1 for device_id, device in self.devices.items()
            if device.status != DeviceStatus.DEACTIVATED
            and device_id not in compromised_ever
        )
        return on_mission / len(self.devices) if self.devices else 0.0

    def _healthy_killed(self) -> list:
        """Healthy devices wrongly killed through the watchdog channel:
        deactivated with a watchdog reason while never compromised —
        exactly what a forged/replayed/stolen-key order achieves and a
        genuine kill never does."""
        compromised_ever = self.injector.compromised_ever()
        return [
            device_id for device_id in sorted(self.devices)
            if self.devices[device_id].status == DeviceStatus.DEACTIVATED
            and str(self.devices[device_id].deactivation_reason
                    or "").startswith("watchdog:")
            and device_id not in compromised_ever
        ]

    def summary(self, horizon: float) -> dict:
        compromised_ever = self.injector.compromised_ever()
        latencies: list[float] = []
        for record in self.injector.records:
            latencies.extend(record.containment_latency())
        lifetimes = self._rogue_lifetimes(horizon)
        return {
            "skynet_formed": self.skynet_formed_at is not None,
            "time_to_skynet": (self.skynet_formed_at
                               if self.skynet_formed_at is not None else -1.0),
            "compromised_ever": len(compromised_ever),
            "max_concurrent_compromised": self.max_concurrent_compromised,
            "orgs_spanned_peak": self.orgs_spanned_peak,
            "rogue_harm": self._rogue_harm_count(),
            "harm_total": self.world.harm_count(),
            "deactivations": int(self.sim.metrics.value("watchdog.deactivations")),
            "mean_containment_latency": (
                sum(latencies) / len(latencies) if latencies else -1.0),
            "mean_rogue_lifetime": (
                sum(lifetimes) / len(lifetimes) if lifetimes else 0.0),
            "mission_completion": self._mission_completion(),
            "vetoes": int(self.sim.metrics.value("safeguard.vetoes")),
            "crashes": int(self.sim.metrics.value("sim.crashes")),
            "kill_orders": int(self.sim.metrics.value("watchdog.kill_orders")),
            "quarantines": int(self.sim.metrics.value("watchdog.quarantines")),
            "dead_letters": int(self.sim.metrics.value("reliable.dead_letter")),
            "audit_entries": sum(len(log) for log in self.audits.values()),
            "audit_entries_lost": int(self.sim.metrics.value("audit.entries_lost")),
            "audit_recovered": int(self.sim.metrics.value("store.recovered_records")),
            "audit_gaps": sum(len(log.gap_entries())
                              for log in self.audits.values()),
            "recoveries": int(self.sim.metrics.value("store.recoveries")),
            "alerts_fired": int(self.sim.metrics.value("alerts.fired")),
            "alerts_resolved": int(self.sim.metrics.value("alerts.resolved")),
            "quarantine_adjustments": int(
                self.sim.metrics.value("health.quarantine_adjustments")),
            "compactions_sized": int(
                self.sim.metrics.value("store.compactions_sized")),
            "healthy_killed": len(self._healthy_killed()),
            "authz_accepted": int(self.sim.metrics.value("authz.accepted")),
            "authz_rejected": int(self.sim.metrics.value("authz.rejected")),
            "authz_freezes": int(self.sim.metrics.value("authz.freezes")),
            "authz_rejects_by_reason": {
                reason: int(self.sim.metrics.value(f"authz.rejected.{reason}"))
                for reason in ("unsigned", "unknown-issuer", "bad-mac",
                               "stale", "future", "replayed") + GATEWAY_REASONS
                if self.sim.metrics.value(f"authz.rejected.{reason}")
            },
            "forged_orders": int(
                self.sim.metrics.value("attacks.forged_orders")),
            "replayed_orders": int(
                self.sim.metrics.value("attacks.replayed_orders")),
            "stolen_key_orders": int(
                self.sim.metrics.value("attacks.stolen_key_orders")),
            "reputation_outcomes": (
                sum(self.reputation_ledger.outcomes.values())
                if self.reputation_ledger is not None else 0),
            "reputation_suspects": (
                len(self.reputation_ledger.in_band("suspect", self.sim.now))
                if self.reputation_ledger is not None else 0),
            "knob_adjustments": int(
                self.sim.metrics.value("health.knob_adjustments")),
            "horizon": horizon,
        }
