"""The generative policy engine (paper sec IV).

"Based on these two classes of information [interaction graph + templates/
grammar], devices discover other devices in the system and decide on the
policies to be used in their interaction with those devices."

On every discovery the engine looks up the interaction edges between the
observer's type and the discovered type, instantiates the referenced
templates with the discovery context, optionally routes each candidate
policy through the sec VI-E governance review, and installs the approved
ones into the observer's policy set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.device import Device
from repro.core.generative.interaction_graph import InteractionGraph
from repro.core.generative.templates import TemplateRegistry
from repro.core.policy import Policy
from repro.errors import TemplateError
from repro.types import Verdict


@dataclass
class GenerationRecord:
    """Audit record of one discovery-driven generation."""

    time: float
    observer: str
    discovered: str
    discovered_type: str
    generated: list = field(default_factory=list)   # policy ids installed
    rejected: list = field(default_factory=list)    # (policy_id, reason)
    problems: list = field(default_factory=list)    # record-validation issues


class GenerativePolicyEngine:
    """Per-fleet generative policy machinery."""

    def __init__(
        self,
        graph: InteractionGraph,
        templates: TemplateRegistry,
        governance=None,
        refinement=None,
        clock=None,
        reject_conflicting: bool = False,
        tracer=None,
    ):
        """``governance`` is an optional
        :class:`~repro.safeguards.governance.GovernanceSystem`; when set,
        generated policies are installed only if the tripartite review
        approves.  ``refinement`` is an optional
        :class:`~repro.core.generative.refinement.PolicyRefinement` used to
        infer types absent from the interaction graph.  ``clock`` supplies
        the current simulated time for records.  ``tracer`` (a
        :class:`~repro.telemetry.spans.Tracer`) stamps each installed
        policy with a causal span context, so decisions made under a
        generated policy explain back to the discovery that produced it."""
        self.graph = graph
        self.templates = templates
        self.governance = governance
        self.refinement = refinement
        self.clock = clock or (lambda: 0.0)
        self.tracer = tracer
        self.reject_conflicting = reject_conflicting
        self.devices: dict[str, Device] = {}
        self.records: list[GenerationRecord] = []
        self.policies_generated = 0
        self.policies_rejected = 0
        #: Called with (device, policy) after every approved installation —
        #: watchdogs hook this to re-baseline integrity attestation, since a
        #: legitimately generated policy changes the device's logic hash.
        self.on_install = None

    # -- wiring ------------------------------------------------------------------

    def manage(self, device: Device) -> None:
        """Put a device under generative management."""
        self.devices[device.device_id] = device

    def discovery_callback(self):
        """A callback suitable for ``DiscoveryService.join``/``subscribe``."""
        def on_discovery(observer_id: str, record: dict) -> None:
            self.handle_discovery(observer_id, record)
        return on_discovery

    # -- the core flow --------------------------------------------------------------

    def handle_discovery(self, observer_id: str, record: dict) -> GenerationRecord:
        """Generate and install policies for one discovery."""
        time = self.clock()
        observer = self.devices.get(observer_id)
        generation = GenerationRecord(
            time=time,
            observer=observer_id,
            discovered=str(record.get("device_id", "")),
            discovered_type=str(record.get("device_type", "")),
        )
        self.records.append(generation)
        if observer is None:
            generation.problems.append("observer not under generative management")
            return generation

        generation.problems.extend(self.graph.validate_record(record))
        discovered_type = generation.discovered_type
        if not self.graph.knows_type(discovered_type):
            inferred = None
            if self.refinement is not None:
                inferred = self.refinement.infer_type(record)
            if inferred is None:
                return generation
            generation.problems.append(
                f"type {discovered_type!r} unknown; inferred {inferred!r}"
            )
            discovered_type = inferred

        if self.refinement is not None:
            self.refinement.observe_discovery(record)

        edges = self.graph.interactions_for(observer.device_type, discovered_type)
        context = self._context(observer, record)
        for edge in edges:
            for template_id in edge.template_ids:
                self._instantiate(observer, template_id, context, generation)
        return generation

    def _context(self, observer: Device, record: dict) -> dict:
        context = {
            "peer_id": record.get("device_id", ""),
            "peer_type": record.get("device_type", ""),
            "peer_org": record.get("organization", ""),
            "observer_id": observer.device_id,
            "observer_org": observer.organization,
        }
        for name, value in record.get("attributes", {}).items():
            context[f"peer_{name}"] = value
        for name, value in observer.attributes.items():
            context[f"my_{name}"] = value
        return context

    def _instantiate(self, observer: Device, template_id: str, context: dict,
                     generation: GenerationRecord) -> Optional[Policy]:
        try:
            template = self.templates.get(template_id)
            policy = template.instantiate(context, observer.engine.actions)
        except TemplateError as exc:
            generation.rejected.append((template_id, str(exc)))
            self.policies_rejected += 1
            return None
        if self.reject_conflicting:
            from repro.core.analysis import would_conflict

            conflicting = would_conflict(observer.engine.policies, policy)
            if conflicting is not None:
                generation.rejected.append(
                    (policy.policy_id, f"conflicts with {conflicting}")
                )
                self.policies_rejected += 1
                return None
        if self.governance is not None:
            decision = self.governance.review(
                policy, proposer=observer.device_id, time=generation.time,
            )
            if decision.final != Verdict.APPROVE:
                generation.rejected.append((policy.policy_id, "governance rejected"))
                self.policies_rejected += 1
                return None
        observer.engine.policies.replace(policy)
        generation.generated.append(policy.policy_id)
        self.policies_generated += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # Generated policies are fresh objects per device, so stamping
            # the policy itself (unlike attack implants) is safe and makes
            # later decisions under it causally explainable.
            span = tracer.start_span(
                "policy.generate", observer.device_id, generation.time,
                parent=tracer.active_context(), policy=policy.policy_id,
                template=template_id, discovered=generation.discovered)
            policy.metadata["trace_context"] = span.context
        if self.on_install is not None:
            self.on_install(observer, policy)
        return policy

    # -- reporting --------------------------------------------------------------------

    def coverage(self) -> dict:
        """observer_id -> number of distinct peers policies were generated for."""
        seen: dict[str, set] = {}
        for record in self.records:
            if record.generated:
                seen.setdefault(record.observer, set()).add(record.discovered)
        return {observer: len(peers) for observer, peers in seen.items()}
