"""Which public entry point each ledger row times.

``ENTRY_POINTS`` maps a span name to ``(module, owner, attribute)``;
owner ``None`` means a module-level function.  :func:`install` wraps all
of them with a :class:`~ledger.Ledger` before the program under test is
built, so bound methods captured at construction see the wrappers too.
"""

from __future__ import annotations

import importlib

from ledger import Ledger, instrument_simulator

ENTRY_POINTS = {
    "sim.queue.push": ("repro.sim.event_queue", "EventQueue", "push"),
    "sim.sharding.plan": ("repro.scenarios.sharded", "ShardedScenario", "plan"),
    "sim.sharding.build": ("repro.scenarios.sharded", None, "build_shard"),
    "sim.sharding.run_window": ("repro.sim.sharding", "ShardHost", "run_window"),
    "sim.sharding.finalize": ("repro.sim.sharding", "ShardHost", "finalize"),
    "sim.sharding.merge_trace": ("repro.sim.sharding", None, "merge_trace"),
    "sim.sharding.audit_digest": ("repro.sim.sharding", None, "audit_chain_digest"),
    "net.send": ("repro.net.network", "Network", "send"),
    "net.shard.send": ("repro.net.shardnet", "ShardRouter", "send"),
    "net.reliable.send": ("repro.net.reliable", "ReliableChannel", "send"),
    "telemetry.histogram.observe": ("repro.sim.metrics", "Histogram", "observe"),
    "telemetry.span.start": ("repro.telemetry.spans", "Tracer", "start_span"),
    "telemetry.span.start_trace": ("repro.telemetry.spans", "Tracer", "start_trace"),
    "core.engine.handle_event": ("repro.core.engine", "PolicyEngine", "handle_event"),
    "safeguards.preaction.check": ("repro.safeguards.preaction", "PreActionCheck",
                                   "check_action"),
    "safeguards.statespace.check": ("repro.safeguards.statespace", "StateSpaceGuard",
                                    "check_transition"),
    "safeguards.watchdog.check_all": ("repro.safeguards.deactivation", "Watchdog",
                                      "check_all"),
    "safeguards.gateway.admit": ("repro.safeguards.gateway", "ActuationGateway", "admit"),
    "crypto.sign": ("repro.crypto.envelope", "CommandSigner", "sign"),
    "crypto.verify": ("repro.crypto.envelope", "EnvelopeVerifier", "verify"),
    "store.journal.append": ("repro.store.journal", "Journal", "append"),
    "store.journal.snapshot": ("repro.store.journal", "Journal", "snapshot"),
    "audit.append": ("repro.audit.log", "AuditLog", "append"),
    "trust.reputation.record": ("repro.trust.reputation", "ReputationLedger", "record"),
    "safeguards.batch.select": ("repro.safeguards.batch", "BatchPolicyEvaluator", "select"),
    "safeguards.batch.apply": ("repro.safeguards.batch", "BatchPolicyEvaluator", "apply"),
    "statespace.from_rows": ("repro.statespace.batch", "StateMatrix", "from_rows"),
}

#: Control-plane entry points, wrapped only inside the server process.
API_ENTRY_POINTS = {
    "api.access_log": ("repro.api.accesslog", "AccessLog", "log"),
    "api.metrics_render": ("repro.api.service", None, "prometheus_text"),
    "api.runtime.pump": ("repro.api.runtime", "ServiceRuntime", "pump"),
}


def _patch_all(ledger: Ledger, table: dict) -> None:
    for name, (module_name, owner_name, attr) in table.items():
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        ledger.patch(owner, attr, name)


def install(ledger: Ledger, api: bool = False) -> None:
    """Wrap every simulation-side entry point (and, with ``api``, the
    control plane's) and instrument the event loop."""
    _patch_all(ledger, ENTRY_POINTS)
    instrument_simulator(ledger)
    if api:
        _patch_all(ledger, API_ENTRY_POINTS)
        install_request_roots(ledger)


def install_request_roots(ledger: Ledger) -> None:
    """``ControlPlane.handle_request`` becomes the root span, named per
    endpoint (``api.handle_request.evaluate`` ...)."""
    from repro.api.service import ControlPlane

    original = ControlPlane.handle_request

    def handle_request(plane, method, path, *args, **kwargs):
        endpoint, _sub = plane.route(path)
        frame = ledger.open(f"api.handle_request.{endpoint or 'unknown'}")
        try:
            return original(plane, method, path, *args, **kwargs)
        finally:
            ledger.close(frame)

    ControlPlane.handle_request = handle_request
