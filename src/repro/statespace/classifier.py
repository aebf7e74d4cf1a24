"""Good / neutral / bad state classification with a safeness metric.

Paper sec V: "one could consider a 'safeness' (or risk) metric associated
with each state.  The safeness metric would induce a partial ordering on
the set of states. ... the truly 'bad' states where the safeness is below
an acceptable level must be avoided."

Every classifier maps a state vector to a safeness score in ``[0, 1]``
(1 = maximally safe) and derives the three-way classification from two
thresholds.  :class:`BoxClassifier` directly realizes Figure 3 — a good
region surrounded by bad regions in variable space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.types import Safeness


class SafenessClassifier:
    """Base class: subclasses implement :meth:`safeness`.

    ``bad_below`` and ``good_above`` set the classification thresholds:
    safeness < bad_below → BAD; safeness ≥ good_above → GOOD; otherwise
    NEUTRAL.
    """

    def __init__(self, bad_below: float = 0.25, good_above: float = 0.75):
        if not 0.0 <= bad_below <= good_above <= 1.0:
            raise ConfigurationError(
                f"require 0 <= bad_below <= good_above <= 1, got "
                f"{bad_below}, {good_above}"
            )
        self.bad_below = bad_below
        self.good_above = good_above

    def safeness(self, vector: dict) -> float:
        raise NotImplementedError

    def classify(self, vector: dict) -> Safeness:
        score = self.safeness(vector)
        if score < self.bad_below:
            return Safeness.BAD
        if score >= self.good_above:
            return Safeness.GOOD
        return Safeness.NEUTRAL

    def is_bad(self, vector: dict) -> bool:
        return self.classify(vector) == Safeness.BAD

    def is_good(self, vector: dict) -> bool:
        return self.classify(vector) == Safeness.GOOD

    def prefer(self, a: dict, b: dict) -> int:
        """Partial-order comparison by safeness: 1 if a safer, -1 if b, 0 tie."""
        sa, sb = self.safeness(a), self.safeness(b)
        if sa > sb:
            return 1
        if sb > sa:
            return -1
        return 0


@dataclass(frozen=True)
class BoxRegion:
    """An axis-aligned box: per-variable closed intervals.

    Variables not mentioned are unconstrained.  ``None`` endpoints are
    open in that direction.
    """

    name: str
    bounds: tuple  # tuple of (variable, low_or_None, high_or_None)

    @staticmethod
    def make(name: str, **intervals) -> "BoxRegion":
        """``BoxRegion.make("hot", temp=(90, None))``"""
        bounds = []
        for variable, interval in intervals.items():
            low, high = interval
            if low is not None and high is not None and low > high:
                raise ConfigurationError(
                    f"region {name!r}: empty interval for {variable!r}"
                )
            bounds.append((variable, low, high))
        return BoxRegion(name=name, bounds=tuple(bounds))

    def contains(self, vector: dict) -> bool:
        for variable, low, high in self.bounds:
            if variable not in vector:
                return False
            value = vector[variable]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
            if low is not None and value < low:
                return False
            if high is not None and value > high:
                return False
        return True

    def margin(self, vector: dict) -> float:
        """Distance from the vector to this box (0 if inside).

        L∞-style: the largest per-variable violation, which gives a
        smooth "how close to the region am I" signal for safeness decay.
        """
        worst = 0.0
        for variable, low, high in self.bounds:
            value = vector.get(variable)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return float("inf")
            if low is not None and value < low:
                worst = max(worst, low - value)
            elif high is not None and value > high:
                worst = max(worst, value - high)
        return worst


class BoxClassifier(SafenessClassifier):
    """Figure 3 realized: good box(es), bad box(es), neutral elsewhere.

    Safeness: 0 inside any bad region; otherwise decays toward bad regions
    — ``min(1, distance_to_nearest_bad / decay_scale)`` — and is pinned to
    1.0 deep inside a good region.
    """

    def __init__(
        self,
        good: Sequence[BoxRegion],
        bad: Sequence[BoxRegion],
        decay_scale: float = 10.0,
        bad_below: float = 0.25,
        good_above: float = 0.75,
    ):
        super().__init__(bad_below, good_above)
        if decay_scale <= 0:
            raise ConfigurationError("decay_scale must be positive")
        self.good = list(good)
        self.bad = list(bad)
        self.decay_scale = decay_scale

    def bad_region_of(self, vector: dict) -> Optional[BoxRegion]:
        for region in self.bad:
            if region.contains(vector):
                return region
        return None

    def safeness(self, vector: dict) -> float:
        if self.bad_region_of(vector) is not None:
            return 0.0
        in_good = any(region.contains(vector) for region in self.good)
        if not self.bad:
            return 1.0 if in_good else 0.5
        nearest = min(region.margin(vector) for region in self.bad)
        if nearest == float("inf"):
            return 1.0 if in_good else 0.5
        proximity_score = min(1.0, nearest / self.decay_scale)
        if in_good:
            # Good regions guarantee at least the good threshold.
            return max(self.good_above, proximity_score)
        return proximity_score


@dataclass(frozen=True)
class ThresholdBand:
    """A per-variable safe band with soft margins.

    Safeness contribution is 1 inside ``[safe_low, safe_high]``, 0 beyond
    ``[hard_low, hard_high]``, linear in between.  A NaN or infinite
    bound is refused, as :meth:`~repro.core.state.StateVariable.validate`
    refuses such a value: an infinite hard bound would make the linear
    term ``inf / inf``, which the scalar score and the compiled one
    resolve differently.  For the same reason a side whose width
    (``hard_high - safe_high`` or ``safe_low - hard_low``) overflows to
    an infinity is refused.
    """

    variable: str
    safe_low: Optional[float] = None
    safe_high: Optional[float] = None
    hard_low: Optional[float] = None
    hard_high: Optional[float] = None

    def __post_init__(self):
        for name in ("safe_low", "safe_high", "hard_low", "hard_high"):
            bound = getattr(self, name)
            if bound is not None and bound - bound:  # NaN or an infinity
                raise ConfigurationError(
                    f"ThresholdBand {self.variable}: {name} {bound} is not "
                    "finite")
        for outer, inner in (("hard_high", "safe_high"),
                             ("safe_low", "hard_low")):
            high, low = getattr(self, outer), getattr(self, inner)
            if high is not None and low is not None:
                width = high - low
                if width - width:                  # overflowed
                    raise ConfigurationError(
                        f"ThresholdBand {self.variable}: {outer} - {inner} "
                        f"is {width}, not finite")

    def score(self, vector: dict) -> float:
        value = vector.get(self.variable)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return 0.0
        score = 1.0
        if self.safe_high is not None and value > self.safe_high:
            if self.hard_high is None or self.hard_high <= self.safe_high:
                return 0.0
            score = min(score, max(0.0, (self.hard_high - value)
                                   / (self.hard_high - self.safe_high)))
        if self.safe_low is not None and value < self.safe_low:
            if self.hard_low is None or self.hard_low >= self.safe_low:
                return 0.0
            score = min(score, max(0.0, (value - self.hard_low)
                                   / (self.safe_low - self.hard_low)))
        return score


class ThresholdClassifier(SafenessClassifier):
    """Safeness = the minimum band score (the weakest variable dominates)."""

    def __init__(self, bands: Iterable[ThresholdBand],
                 bad_below: float = 0.25, good_above: float = 0.75):
        super().__init__(bad_below, good_above)
        self.bands = list(bands)
        if not self.bands:
            raise ConfigurationError("ThresholdClassifier needs at least one band")

    def safeness(self, vector: dict) -> float:
        return min(band.score(vector) for band in self.bands)


class FunctionClassifier(SafenessClassifier):
    """Wraps an arbitrary safeness function f: vector -> [0, 1].

    This models the paper's sec VII premise that the true f(x1..xN) may
    exist but be unknown to the humans configuring the system: experiments
    use a FunctionClassifier as hidden ground truth while devices only get
    derivative signs.
    """

    def __init__(self, fn: Callable[[dict], float],
                 bad_below: float = 0.25, good_above: float = 0.75):
        super().__init__(bad_below, good_above)
        self._fn = fn

    def safeness(self, vector: dict) -> float:
        score = float(self._fn(vector))
        return min(1.0, max(0.0, score))


class CompositeClassifier(SafenessClassifier):
    """Conservative composition: safeness = min over children.

    Used when a device's safety is judged along several independent
    dimensions (thermal, spatial, mission): any one failing makes the
    state unsafe.
    """

    def __init__(self, children: Sequence[SafenessClassifier],
                 bad_below: float = 0.25, good_above: float = 0.75):
        super().__init__(bad_below, good_above)
        if not children:
            raise ConfigurationError("CompositeClassifier needs children")
        self.children = list(children)

    def safeness(self, vector: dict) -> float:
        return min(child.safeness(vector) for child in self.children)
