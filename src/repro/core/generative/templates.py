"""Policy templates (paper sec IV).

A template is a parameterized ECA rule with typed slots; when a device
discovers a peer, the generative engine fills the slots from the discovery
context (peer id, peer attributes, observer attributes) and installs the
resulting policy.  Slots use ``{name}`` placeholders in the event pattern
and condition string, and ``$name`` references in action params (so a
whole typed value — not its string form — can be passed through).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Optional

from repro.core.actions import ActionLibrary
from repro.core.policy import Policy
from repro.errors import TemplateError


def _fill(template: str, context: dict, what: str) -> str:
    try:
        return string.Formatter().vformat(template, (), _Strict(context))
    except KeyError as exc:
        raise TemplateError(f"{what}: unfilled slot {exc.args[0]!r}") from None


class _Strict(dict):
    def __missing__(self, key):
        raise KeyError(key)


@dataclass(frozen=True)
class PolicyTemplate:
    """One parameterized ECA rule."""

    template_id: str
    event_pattern: str
    condition_template: str       # "" means unconditional
    action_name: str
    action_params: tuple = ()     # tuple of (param, value-or-"$slot")
    priority: int = 0
    description: str = ""

    @staticmethod
    def make(template_id: str, event_pattern: str, condition: str,
             action_name: str, *, priority: int = 0, description: str = "",
             **action_params) -> "PolicyTemplate":
        return PolicyTemplate(
            template_id=template_id,
            event_pattern=event_pattern,
            condition_template=condition,
            action_name=action_name,
            action_params=tuple(sorted(action_params.items())),
            priority=priority,
            description=description,
        )

    def required_slots(self) -> set:
        """Every ``{slot}`` / ``$slot`` name the template needs filled."""
        slots = set()
        for text in (self.event_pattern, self.condition_template):
            for _literal, name, _spec, _conv in string.Formatter().parse(text):
                if name:
                    slots.add(name)
        for _param, value in self.action_params:
            if isinstance(value, str) and value.startswith("$"):
                slots.add(value[1:])
        return slots

    def instantiate(self, context: dict, actions: ActionLibrary,
                    policy_id: Optional[str] = None,
                    author: str = "generative") -> Policy:
        """Fill the slots from ``context`` and build the policy.

        The resulting action carries ``_policy_id``/``_policy_source``
        params so the sec VI-E governance guard can gate it at runtime.
        """
        event_pattern = _fill(self.event_pattern, context,
                              f"template {self.template_id} event")
        condition = _fill(self.condition_template, context,
                          f"template {self.template_id} condition")
        base_action = actions.get(self.action_name)
        params = {}
        for param, value in self.action_params:
            if isinstance(value, str) and value.startswith("$"):
                slot = value[1:]
                if slot not in context:
                    raise TemplateError(
                        f"template {self.template_id}: unfilled slot {slot!r}"
                    )
                params[param] = context[slot]
            elif isinstance(value, str):
                params[param] = _fill(value, context,
                                      f"template {self.template_id} param {param}")
            else:
                params[param] = value
        policy = Policy.make(
            event_pattern=event_pattern,
            condition=condition or None,
            action=base_action.with_params(**params),
            priority=self.priority,
            source="generated",
            author=author,
            policy_id=policy_id,
            template_id=self.template_id,
            condition_str=condition,
        )
        # Stamp governance-traceability params onto the action.
        traced = policy.action.with_params(
            _policy_id=policy.policy_id, _policy_source=policy.source,
        )
        return Policy(
            policy_id=policy.policy_id,
            event_pattern=policy.event_pattern,
            condition=policy.condition,
            action=traced,
            priority=policy.priority,
            source=policy.source,
            author=policy.author,
            metadata=policy.metadata,
        )


class TemplateRegistry:
    """Named collection of templates referenced by interaction-graph edges."""

    def __init__(self, templates=()):
        self._templates: dict[str, PolicyTemplate] = {}
        for template in templates:
            self.add(template)

    def add(self, template: PolicyTemplate) -> None:
        if template.template_id in self._templates:
            raise TemplateError(f"duplicate template {template.template_id!r}")
        self._templates[template.template_id] = template

    def get(self, template_id: str) -> PolicyTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise TemplateError(f"unknown template {template_id!r}") from None

    def __contains__(self, template_id: str) -> bool:
        return template_id in self._templates

    def __len__(self) -> int:
        return len(self._templates)
