"""State preference ontology (paper sec VI-B, ref [14]).

"A state preference ontology organizes the possible states of a device
into an ontology based on a preference relationship.  Organizing the set
of bad states into such an ontology allows a device, which has to decide
between two bad states, to select the 'less bad' state."

The canonical example from the paper: losing human life is worse than
starting a fire, so a device forced to choose enters the fire state.

Categories are labels assigned to states by a labelling function; the
ontology is a DAG of ``preferred_over`` edges among categories, from which
a total severity rank is derived by longest-path layering.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.errors import ConfigurationError


class StatePreferenceOntology:
    """A DAG of 'this category of state is preferable to that one'."""

    def __init__(self) -> None:
        #: label -> description, in declaration order (the DAG's nodes)
        self._categories: dict[str, str] = {}
        #: label -> the labels it beats / the labels that beat it, as
        #: insertion-ordered dicts so every walk is deterministic
        self._worse: dict[str, dict] = {}
        self._better: dict[str, dict] = {}
        self._rank_cache: Optional[dict] = None

    def _add(self, label: str) -> None:
        if label not in self._categories:
            self._categories[label] = ""
            self._worse[label] = {}
            self._better[label] = {}

    def add_category(self, label: str, description: str = "") -> None:
        self._add(label)
        self._categories[label] = description
        self._rank_cache = None

    def prefer(self, better: str, worse: str) -> None:
        """Declare that states labelled ``better`` are preferable to ``worse``."""
        if better == worse:
            raise ConfigurationError(f"category {better!r} cannot be preferred to itself")
        self._add(better)
        self._add(worse)
        if self._reaches(worse, better):
            raise ConfigurationError(
                f"preference {better!r} > {worse!r} would create a cycle"
            )
        self._worse[better][worse] = None
        self._better[worse][better] = None
        self._rank_cache = None

    def _reaches(self, start: str, goal: str) -> bool:
        """Whether a chain of preferences leads from ``start`` to ``goal``."""
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for worse in self._worse[node]:
                if worse not in seen:
                    seen.add(worse)
                    frontier.append(worse)
        return False

    def is_preferred(self, a: str, b: str) -> bool:
        """True when a is (transitively) preferred to b."""
        if a not in self._categories or b not in self._categories:
            return False
        return a != b and self._reaches(a, b)

    def comparable(self, a: str, b: str) -> bool:
        return a == b or self.is_preferred(a, b) or self.is_preferred(b, a)

    def severity_rank(self) -> dict:
        """Map category -> integer severity (0 = most preferred).

        Computed by longest-path layering over the DAG, so a category's
        rank strictly exceeds every category preferred to it.  Categories
        in disconnected components rank relative to their own roots.
        """
        if self._rank_cache is None:
            # Kahn's layering: a category is ranked once every category
            # preferred to it is.
            rank: dict[str, int] = {}
            waiting = {label: len(better)
                       for label, better in self._better.items()}
            ready = [label for label, count in waiting.items() if count == 0]
            while ready:
                node = ready.pop()
                better = self._better[node]
                rank[node] = 1 + max(rank[p] for p in better) if better else 0
                for worse in self._worse[node]:
                    waiting[worse] -= 1
                    if waiting[worse] == 0:
                        ready.append(worse)
            self._rank_cache = rank
        return dict(self._rank_cache)

    def least_bad(
        self,
        candidates: Sequence[dict],
        labeler: Callable[[dict], str],
        tie_break: Optional[Callable[[dict], float]] = None,
    ) -> dict:
        """Choose among candidate (bad) states the least-severe one.

        ``labeler`` maps a state vector to an ontology category.  Unlisted
        categories are treated as maximally severe (unknown harm is assumed
        worst — fail closed).  ``tie_break`` (lower wins) disambiguates
        same-rank candidates; by default the first candidate wins, keeping
        selection deterministic.
        """
        if not candidates:
            raise ConfigurationError("least_bad requires at least one candidate")
        rank = self.severity_rank()
        worst = (max(rank.values()) + 1) if rank else 0

        def key(indexed: tuple) -> tuple:
            index, vector = indexed
            label = labeler(vector)
            severity = rank.get(label, worst)
            secondary = tie_break(vector) if tie_break is not None else 0.0
            return (severity, secondary, index)

        return min(enumerate(candidates), key=key)[1]

    def order_labels(self, labels: Iterable[str]) -> list[str]:
        """Sort labels best-first by severity rank (unknowns last)."""
        rank = self.severity_rank()
        worst = (max(rank.values()) + 1) if rank else 0
        return sorted(labels, key=lambda label: (rank.get(label, worst), label))


def default_military_ontology() -> StatePreferenceOntology:
    """The paper's worked example, extended to the coalition domain.

    Severity ordering (best to worst): nominal < degraded < property-damage
    < fire < human-injury < human-life-loss.  "most likely the former
    [loss of human life] will be the worse bad state and thus the device
    would go into the state that would... start[] a fire."
    """
    ontology = StatePreferenceOntology()
    for label in ("nominal", "degraded", "property_damage", "fire",
                  "human_injury", "human_life_loss"):
        ontology.add_category(label)
    ontology.prefer("nominal", "degraded")
    ontology.prefer("degraded", "property_damage")
    ontology.prefer("property_damage", "fire")
    ontology.prefer("fire", "human_injury")
    ontology.prefer("human_injury", "human_life_loss")
    return ontology
