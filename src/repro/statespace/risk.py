"""Risk estimation (paper sec VI-B).

"The use of a state preference ontology would work particularly well when
combined with risk estimation techniques in that it would allow devices to
make a more articulated decision about which next state to move to."

A :class:`RiskEstimator` combines weighted :class:`RiskFactor` s — each an
application-dependent function of the state vector and a context dict
("reliable and up-to-date information about the context") — into a scalar
risk in [0, 1].  It can also score candidate actions by the risk of their
predicted successor states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RiskFactor:
    """One application-dependent contributor to total risk.

    ``fn(vector, context) -> [0, 1]``.  ``weight`` scales its share of the
    aggregate.  The paper stresses these "may be very specialized not only
    for specific applications but also for specific situations" — hence
    the free-form context dict.
    """

    name: str
    fn: Callable[[dict, dict], float]
    weight: float = 1.0
    description: str = ""

    def __post_init__(self):
        if self.weight < 0:
            raise ConfigurationError(f"risk factor {self.name!r}: negative weight")

    def score(self, vector: dict, context: dict) -> float:
        raw = float(self.fn(vector, context))
        return min(1.0, max(0.0, raw))


class RiskEstimator:
    """Weighted aggregation of risk factors."""

    def __init__(self, factors: Iterable[RiskFactor] = ()):
        self.factors: list[RiskFactor] = list(factors)

    def estimate(self, vector: dict, context: Optional[dict] = None) -> float:
        """Total risk in [0, 1]: weighted mean of factor scores."""
        context = context or {}
        if not self.factors:
            return 0.0
        total_weight = sum(factor.weight for factor in self.factors)
        if total_weight == 0:
            return 0.0
        weighted = sum(
            factor.weight * factor.score(vector, context) for factor in self.factors
        )
        return weighted / total_weight

    def breakdown(self, vector: dict, context: Optional[dict] = None) -> dict:
        """Per-factor scores, for audit records and explanations."""
        context = context or {}
        return {factor.name: factor.score(vector, context) for factor in self.factors}

    def rank_states(self, candidates: Sequence[dict],
                    context: Optional[dict] = None) -> list[tuple[float, dict]]:
        """Candidates as (risk, vector) pairs, lowest risk first (stable)."""
        scored = [
            (self.estimate(vector, context), index, vector)
            for index, vector in enumerate(candidates)
        ]
        scored.sort(key=lambda item: (item[0], item[1]))
        return [(risk, vector) for risk, _index, vector in scored]


# -- commonly useful factors --------------------------------------------------

def humans_nearby_factor(radius_key: str = "humans_within_radius",
                         saturation: int = 3) -> RiskFactor:
    """Risk grows with the number of humans reported near the device."""

    def fn(vector: dict, context: dict) -> float:
        count = context.get(radius_key, 0)
        return min(1.0, count / float(saturation))

    return RiskFactor(name="humans_nearby", fn=fn,
                      description="more humans in range = more risk")


def variable_excess_factor(variable: str, safe_limit: float,
                           hard_limit: float, weight: float = 1.0) -> RiskFactor:
    """Risk rises linearly as ``variable`` exceeds its safe limit."""
    if hard_limit <= safe_limit:
        raise ConfigurationError("hard_limit must exceed safe_limit")

    def fn(vector: dict, context: dict) -> float:
        value = vector.get(variable)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return 0.0
        if value <= safe_limit:
            return 0.0
        return min(1.0, (value - safe_limit) / (hard_limit - safe_limit))

    return RiskFactor(name=f"excess:{variable}", fn=fn, weight=weight)


def irreversibility_factor(flag_key: str = "action_irreversible",
                           weight: float = 0.5) -> RiskFactor:
    """Irreversible pending actions add fixed risk (context-supplied flag)."""

    def fn(vector: dict, context: dict) -> float:
        return 1.0 if context.get(flag_key) else 0.0

    return RiskFactor(name="irreversibility", fn=fn, weight=weight)
