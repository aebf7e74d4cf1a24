"""Closed-loop consumers: alerts actuate the safeguards they watch.

Two ROADMAP items end here — the measurement side has existed since
E18/E19 (the ``reliable.rtt`` histogram, the ``store.*`` pressure
gauges); these classes are the missing *tuning/trigger policies*:

* :class:`AdaptiveQuarantine` — a fixed ``quarantine_after`` trades
  false self-quarantines (transient loss) against rogue lifetime (true
  partition).  The discriminator is the ack-RTT stream: global
  degradation makes *successful* acks need retries, so the fleet RTT
  SLI surges; a truly partitioned device's retries never ack at all and
  leave the fleet RTT untouched.  While the link-degradation alert is
  active every overseer link tolerates more consecutive dead letters;
  the moment it resolves the base fail-closed threshold is back.
* :class:`CompactionController` — snapshots were time-driven
  (``every(20s)``): under sustained write pressure a journal grows
  unboundedly between ticks.  This controller compacts a journal the
  tick its blob crosses a byte budget — but only while the
  storage-pressure alert is active, so quiet fleets never pay a sweep.
"""

from __future__ import annotations

from typing import Optional


class AdaptiveQuarantine:
    """Tunes ``OverseerLink.quarantine_after`` from link-health alerts.

    With an ``arbiter`` (a :class:`~repro.telemetry.health.knobs.KnobArbiter`)
    the relaxation goes through per-device knob arbitration at
    :attr:`PRIORITY` 10 instead of writing ``link.quarantine_after``
    directly — so the E22 :class:`~repro.trust.reputation.ReputationAdjuster`
    (priority 20) can keep a suspect device's fuse tight through a storm
    that relaxes everyone else's, deterministically rather than by
    whichever callback ran last.  Without an arbiter the legacy
    direct-write behavior is unchanged.
    """

    #: Storm relaxation ranks below reputation tightening (priority 20).
    PRIORITY = 10

    def __init__(self, sim, engine, links, base: int = 3, relaxed: int = 8,
                 rule: str = "link.degraded", arbiter=None):
        if relaxed < base:
            raise ValueError("relaxed threshold must not undercut the base "
                             "(adaptive mode never weakens fail-closed below it)")
        self.sim = sim
        self.links = list(links)
        self.base = base
        self.relaxed = relaxed
        self.rule = rule
        self.arbiter = arbiter
        self._gauge = sim.metrics.gauge("health.quarantine_after")
        self._gauge.set(float(base))
        self._adjustments = sim.metrics.counter("health.quarantine_adjustments")
        if arbiter is not None:
            from repro.telemetry.health.knobs import quarantine_knob
            self._knob_names = []
            for link in self.links:
                name = quarantine_knob(link.device.device_id)
                arbiter.ensure(name, base, self._setter(link))
                self._knob_names.append(name)
        else:
            for link in self.links:
                link.quarantine_after = base
        engine.on_fire(self._on_fire)
        engine.on_resolve(self._on_resolve)

    @staticmethod
    def _setter(link):
        def apply(value):
            link.quarantine_after = int(value)
        return apply

    def _apply(self, threshold: int, cause: str) -> None:
        if self.arbiter is not None:
            for name in self._knob_names:
                if threshold == self.base:
                    self.arbiter.withdraw(name, "adaptive-quarantine")
                else:
                    self.arbiter.propose(name, "adaptive-quarantine",
                                         self.PRIORITY, threshold, cause=cause)
        else:
            for link in self.links:
                link.quarantine_after = threshold
        self._gauge.set(float(threshold))
        self._adjustments.inc()
        self.sim.record("health.quarantine_tune", cause,
                        quarantine_after=threshold)

    def _on_fire(self, alert) -> None:
        if alert.rule.name == self.rule:
            self._apply(self.relaxed, alert.rule.name)

    def _on_resolve(self, alert) -> None:
        if alert.rule.name == self.rule:
            self._apply(self.base, alert.rule.name)


class CompactionController:
    """Size-triggered journal compaction gated on storage-pressure alerts.

    Registered journals publish their summed blob bytes as the
    ``store.journal_bytes`` SLI.  While ``rule`` is active, any journal
    whose blob has outgrown ``compact_bytes`` is checkpointed on the
    spot (snapshot + compact).
    """

    #: SLI name under which registered journals' total bytes publish.
    SLI = "store.journal_bytes"

    def __init__(self, sim, engine, monitor, compact_bytes: int = 16384,
                 rule: str = "store.pressure"):
        self.sim = sim
        self.engine = engine
        self.compact_bytes = compact_bytes
        self.rule = rule
        self._components: list[tuple[str, object, object]] = []
        self._compactions = sim.metrics.counter("store.compactions_sized")
        monitor.track_value(self.SLI, self._total_bytes)
        monitor.subscribe(self._on_tick)

    def register(self, label: str, journal, checkpoint) -> None:
        """Track ``journal`` with ``checkpoint()`` as its compaction hook
        (e.g. :meth:`repro.audit.log.AuditLog.checkpoint`)."""
        self._components.append((label, journal, checkpoint))

    def _total_bytes(self, _now: float) -> Optional[float]:
        if not self._components:
            return None
        return float(sum(journal.storage.size(journal.name)
                         for _label, journal, _checkpoint in self._components))

    def _on_tick(self, now: float, _readings: dict) -> None:
        if not self.engine.is_active(self.rule):
            return
        for label, journal, checkpoint in self._components:
            size = journal.storage.size(journal.name)
            if size < self.compact_bytes:
                continue
            upto = checkpoint()
            if upto is None:
                continue                    # component declined (e.g. crashed)
            self._compactions.inc()
            self.sim.record("store.compact", label, trigger="size",
                            bytes=size, upto=upto)
