"""Learning-based refinement of the generative architecture (paper sec IV).

"they can augment the information provided by the human manager on their
own.  They can use unsupervised machine learning techniques to add or
remove from the types of devices that the human has specified, learn the
relationship between the attributes they see among the devices in the
system and create predictive models of those relationships, share the
information and policies they generate with other devices..."

:class:`PolicyRefinement` bundles those three augmentations: type
inference for unknown discoveries, attribute-relationship learning for
predicting unannounced attributes, and gossip-based policy sharing with
optional governance review on installation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.device import Device
from repro.core.policy import Policy
from repro.errors import PolicyError
from repro.learning.predictive import AttributeRelationshipModel, NaiveBayesTypeClassifier
from repro.types import Verdict


def serialize_policy(policy: Policy) -> dict:
    """A gossip-able representation of a policy.

    Requires the policy to carry its condition string in metadata (the
    template and grammar paths both stamp ``condition_str``); AST-only
    conditions are not shareable, which keeps shared policies inside the
    parseable (auditable) language.
    """
    condition_str = policy.metadata.get("condition_str")
    if condition_str is None:
        raise PolicyError(
            f"policy {policy.policy_id} has no condition_str metadata; "
            "only grammar/template policies can be shared"
        )
    return {
        "policy_id": policy.policy_id,
        "event_pattern": policy.event_pattern,
        "condition_str": condition_str,
        "action_name": policy.action.name,
        "action_params": {
            key: value for key, value in policy.action.params.items()
            if not key.startswith("_")
        },
        "priority": policy.priority,
        "author": policy.author,
    }


def deserialize_policy(spec: dict, device: Device) -> Policy:
    """Rebuild a shared policy against the *receiving* device's library."""
    base_action = device.engine.actions.get(spec["action_name"])
    policy = Policy.make(
        event_pattern=spec["event_pattern"],
        condition=spec["condition_str"] or None,
        action=base_action.with_params(**spec.get("action_params", {})),
        priority=int(spec.get("priority", 0)),
        source="shared",
        author=str(spec.get("author", "")),
        policy_id=f"shared:{spec['policy_id']}:{device.device_id}",
        condition_str=spec["condition_str"],
        shared_from=spec["policy_id"],
    )
    traced = policy.action.with_params(
        _policy_id=policy.policy_id, _policy_source=policy.source,
    )
    return Policy(
        policy_id=policy.policy_id, event_pattern=policy.event_pattern,
        condition=policy.condition, action=traced, priority=policy.priority,
        source=policy.source, author=policy.author, metadata=policy.metadata,
    )


class PolicyRefinement:
    """Type inference, attribute prediction, and policy sharing."""

    def __init__(self, min_type_observations: int = 3,
                 governance=None):
        self.type_classifier = NaiveBayesTypeClassifier()
        self.attribute_model = AttributeRelationshipModel()
        self.min_type_observations = min_type_observations
        self.governance = governance
        self.shared_installed = 0
        self.shared_rejected = 0

    # -- learning from discoveries -----------------------------------------------

    def observe_discovery(self, record: dict) -> None:
        device_type = record.get("device_type", "")
        attributes = record.get("attributes", {})
        if device_type:
            self.type_classifier.observe(device_type, attributes)
        self.attribute_model.observe(attributes)

    def infer_type(self, record: dict) -> Optional[str]:
        """Best-guess type for an unknown discovery, or None if unconfident."""
        if self.type_classifier.total < self.min_type_observations:
            return None
        return self.type_classifier.classify(record.get("attributes", {}))

    # -- policy sharing ---------------------------------------------------------------

    def installer(self, device: Device, time_fn=None):
        """A gossip ``on_update`` callback that installs shared policies.

        Each incoming policy is rebuilt against the device's own action
        library and, when governance is configured, reviewed before
        installation — shared malevolent policies die here in E10.
        """
        clock = time_fn or (lambda: 0.0)

        def on_update(item) -> None:
            if not item.key.startswith("policy:"):
                return
            try:
                policy = deserialize_policy(item.payload, device)
            except PolicyError:
                self.shared_rejected += 1
                return
            if self.governance is not None:
                decision = self.governance.review(
                    policy, proposer=item.origin, time=clock(),
                )
                if decision.final != Verdict.APPROVE:
                    self.shared_rejected += 1
                    return
            device.engine.policies.replace(policy)
            self.shared_installed += 1

        return on_update
