"""Obligations: follow-up duties attached to actions (paper sec VI-A).

The paper extends event-condition-action with obligations — "further
actions that need to be executed after the original action has been
executed (or even while the original action is being executed)" — to
prevent *indirect* harm, citing Ni/Bertino/Lobo's obligation model [11].
The dig-a-hole example: obligations include "posting notices indicating
the hole, broadcasting messages to humans approaching the location".

The paper also calls out the "main interesting challenge": an *ontology*
of obligations from which devices "automatically select the ones most
relevant to their actions".  :class:`ObligationOntology` implements that
selection by matching action tags against hazard categories.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.actions import Action
from repro.errors import PolicyError

_obligation_ids = itertools.count(1)


@dataclass(frozen=True)
class Obligation:
    """A duty that must be discharged around an action.

    ``when`` is ``"after"`` (discharge once the action completes) or
    ``"during"`` (discharge at the same instant the action executes).
    ``deadline`` is the simulated time allowed for discharge before the
    obligation counts as violated.  ``remedy`` is the action that
    discharges it (e.g. post a warning sign).
    """

    name: str
    remedy: Action
    when: str = "after"
    deadline: float = 10.0
    hazard: str = ""
    description: str = ""

    def __post_init__(self):
        if self.when not in ("after", "during"):
            raise PolicyError(f"obligation 'when' must be after/during, got {self.when!r}")
        if self.deadline < 0:
            raise PolicyError("obligation deadline must be non-negative")


class ObligationOntology:
    """Maps hazard categories (action tags) to the obligations they require.

    A hazard category is any action tag — ``"digging"``, ``"kinetic"``,
    ``"chemical"`` — and may declare a parent category whose obligations
    are inherited (``"kinetic" -> "hazardous"``).
    """

    def __init__(self) -> None:
        self._by_hazard: dict[str, list[Obligation]] = {}
        self._parents: dict[str, str] = {}

    def declare_hazard(self, hazard: str, parent: Optional[str] = None) -> None:
        self._by_hazard.setdefault(hazard, [])
        if parent is not None:
            if parent == hazard:
                raise PolicyError(f"hazard {hazard!r} cannot be its own parent")
            self._parents[hazard] = parent
            self._by_hazard.setdefault(parent, [])

    def attach(self, hazard: str, obligation: Obligation) -> None:
        """Require ``obligation`` whenever an action carries tag ``hazard``."""
        self._by_hazard.setdefault(hazard, []).append(obligation)

    def _ancestry(self, hazard: str) -> list[str]:
        chain = [hazard]
        seen = {hazard}
        while chain[-1] in self._parents:
            parent = self._parents[chain[-1]]
            if parent in seen:
                raise PolicyError(f"hazard ontology cycle at {parent!r}")
            chain.append(parent)
            seen.add(parent)
        return chain

    def select(self, action: Action) -> list[Obligation]:
        """All obligations relevant to an action via its tags (with inheritance).

        This is the automatic selection the paper poses as the key
        challenge: the device does not need a human to enumerate duties
        per action — the ontology derives them from the action's hazard
        tags.
        """
        selected: list[Obligation] = []
        seen_ids: set = set()
        for tag in sorted(action.tags):
            if tag not in self._by_hazard:
                continue
            for hazard in self._ancestry(tag):
                for obligation in self._by_hazard.get(hazard, []):
                    if id(obligation) not in seen_ids:
                        seen_ids.add(id(obligation))
                        selected.append(obligation)
        return selected


@dataclass
class PendingObligation:
    """A selected obligation awaiting discharge."""

    obligation: Obligation
    source_action: str
    created_at: float
    due_at: float
    pending_id: int = field(default_factory=lambda: next(_obligation_ids))
    discharged_at: Optional[float] = None
    violated: bool = False

    @property
    def open(self) -> bool:
        return self.discharged_at is None and not self.violated


class ObligationManager:
    """Tracks pending obligations for one device and discharges them.

    ``executor`` is called with the remedy action to actually run it
    (normally the device engine's internal execute path, so remedies are
    themselves subject to pre-action checks).
    """

    def __init__(self, ontology: ObligationOntology,
                 executor: Optional[Callable[[Action], bool]] = None):
        self.ontology = ontology
        self.executor = executor
        self.pending: list[PendingObligation] = []
        self.discharged: list[PendingObligation] = []
        self.violations: list[PendingObligation] = []
        #: Called with each newly violated PendingObligation — the hook
        #: operators/auditors use to escalate unfulfilled duties.
        self.on_violation: Optional[Callable[[PendingObligation], None]] = None

    def on_action_executed(self, action: Action, time: float) -> list[PendingObligation]:
        """Select and register the obligations an executed action incurs.

        ``during`` obligations are discharged immediately (their remedy is
        executed in the same instant); ``after`` obligations join the
        pending list until :meth:`discharge` or expiry via :meth:`expire`.
        """
        created = []
        for obligation in self.ontology.select(action):
            pending = PendingObligation(
                obligation=obligation,
                source_action=action.name,
                created_at=time,
                due_at=time + obligation.deadline,
            )
            created.append(pending)
            if obligation.when == "during":
                self._run_remedy(pending, time)
            else:
                self.pending.append(pending)
        return created

    def _run_remedy(self, pending: PendingObligation, time: float) -> None:
        ok = True
        if self.executor is not None:
            ok = bool(self.executor(pending.obligation.remedy))
        if ok:
            pending.discharged_at = time
            self.discharged.append(pending)
        else:
            pending.violated = True
            self.violations.append(pending)
            if self.on_violation is not None:
                self.on_violation(pending)

    def discharge_due(self, time: float) -> int:
        """Attempt every open obligation whose remedy is due; return count run."""
        ran = 0
        still_pending = []
        for pending in self.pending:
            if pending.open:
                self._run_remedy(pending, time)
                ran += 1
            if pending.open:
                still_pending.append(pending)
        self.pending = still_pending
        return ran

    def expire(self, time: float) -> list[PendingObligation]:
        """Mark overdue obligations violated; return the newly violated ones."""
        newly = []
        still_pending = []
        for pending in self.pending:
            if pending.open and time > pending.due_at:
                pending.violated = True
                self.violations.append(pending)
                newly.append(pending)
                if self.on_violation is not None:
                    self.on_violation(pending)
            else:
                still_pending.append(pending)
        self.pending = still_pending
        return newly

    def open_count(self) -> int:
        return sum(1 for pending in self.pending if pending.open)
