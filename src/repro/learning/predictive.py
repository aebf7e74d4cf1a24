"""Predictive models over discovered-device attributes (paper sec IV).

"They can ... learn the relationship between the attributes they see among
the devices in the system and create predictive models of those
relationships" — :class:`AttributeRelationshipModel` learns pairwise
linear relations between numeric attributes online, and can predict
missing attributes of a newly discovered device from the ones it
announces.

"use unsupervised machine learning techniques to add or remove from the
types of devices that the human has specified" —
:class:`NaiveBayesTypeClassifier` infers a device's type from its
attributes, letting the generative engine handle devices whose announced
type is absent from the human-provided interaction graph.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import LearningError


class _PairwiseRegression:
    """Online simple linear regression y ≈ a·x + b via running co-moments."""

    def __init__(self) -> None:
        self.n = 0
        self.mean_x = 0.0
        self.mean_y = 0.0
        self.cov_xy = 0.0   # sum of co-deviations
        self.var_x = 0.0    # sum of squared x deviations

    def update(self, x: float, y: float) -> None:
        self.n += 1
        dx = x - self.mean_x
        self.mean_x += dx / self.n
        self.mean_y += (y - self.mean_y) / self.n
        self.cov_xy += dx * (y - self.mean_y)
        self.var_x += dx * (x - self.mean_x)

    @property
    def slope(self) -> Optional[float]:
        if self.n < 2 or self.var_x == 0.0:
            return None
        return self.cov_xy / self.var_x

    def predict(self, x: float) -> Optional[float]:
        slope = self.slope
        if slope is None:
            return None
        return slope * x + (self.mean_y - slope * self.mean_x)


class AttributeRelationshipModel:
    """Learns directed pairwise linear relations among numeric attributes."""

    def __init__(self, min_observations: int = 3):
        self.min_observations = min_observations
        self._pairs: dict[tuple, _PairwiseRegression] = {}
        self.observations = 0

    def observe(self, attributes: dict) -> None:
        """Ingest one device's attribute record."""
        numeric = {
            name: float(value) for name, value in attributes.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        self.observations += 1
        names = sorted(numeric)
        for i, x_name in enumerate(names):
            for y_name in names[i + 1:]:
                for key, x, y in (
                    ((x_name, y_name), numeric[x_name], numeric[y_name]),
                    ((y_name, x_name), numeric[y_name], numeric[x_name]),
                ):
                    reg = self._pairs.get(key)
                    if reg is None:
                        reg = self._pairs[key] = _PairwiseRegression()
                    reg.update(x, y)

    def predict_attribute(self, target: str, known: dict) -> Optional[float]:
        """Predict ``target`` from whichever known attribute explains it best.

        Best = the regression with the largest |slope|·spread signal among
        pairs with enough observations; returns None when nothing usable.
        """
        best: Optional[tuple[float, float]] = None  # (|cov|, prediction)
        for name, value in known.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            reg = self._pairs.get((name, target))
            if reg is None or reg.n < self.min_observations:
                continue
            prediction = reg.predict(float(value))
            if prediction is None:
                continue
            strength = abs(reg.cov_xy)
            if best is None or strength > best[0]:
                best = (strength, prediction)
        return best[1] if best else None

    def known_relations(self) -> list[tuple]:
        """(x, y, slope) triples with enough support, for inspection."""
        out = []
        for (x_name, y_name), reg in sorted(self._pairs.items()):
            if reg.n >= self.min_observations and reg.slope is not None:
                out.append((x_name, y_name, reg.slope))
        return out


class NaiveBayesTypeClassifier:
    """Gaussian naive Bayes over numeric attributes, categorical counts over strings."""

    def __init__(self, smoothing: float = 1.0):
        self.smoothing = smoothing
        self._type_counts: dict[str, int] = {}
        #: type -> attribute -> (n, mean, m2) for numeric
        self._numeric: dict[str, dict] = {}
        #: type -> attribute -> value -> count for categorical
        self._categorical: dict[str, dict] = {}
        self.total = 0

    def observe(self, device_type: str, attributes: dict) -> None:
        self.total += 1
        self._type_counts[device_type] = self._type_counts.get(device_type, 0) + 1
        numeric = self._numeric.setdefault(device_type, {})
        categorical = self._categorical.setdefault(device_type, {})
        for name, value in attributes.items():
            if isinstance(value, bool) or isinstance(value, str):
                bucket = categorical.setdefault(name, {})
                bucket[str(value)] = bucket.get(str(value), 0) + 1
            elif isinstance(value, (int, float)):
                n, mean, m2 = numeric.get(name, (0, 0.0, 0.0))
                n += 1
                delta = float(value) - mean
                mean += delta / n
                m2 += delta * (float(value) - mean)
                numeric[name] = (n, mean, m2)

    def classify(self, attributes: dict) -> Optional[str]:
        """The most probable type, or None before any training."""
        scores = self.log_posteriors(attributes)
        if not scores:
            return None
        return max(sorted(scores), key=lambda t: scores[t])

    def log_posteriors(self, attributes: dict) -> dict:
        if self.total == 0:
            return {}
        scores = {}
        n_types = len(self._type_counts)
        for device_type, count in self._type_counts.items():
            log_p = math.log((count + self.smoothing)
                             / (self.total + self.smoothing * n_types))
            for name, value in attributes.items():
                log_p += self._feature_loglik(device_type, name, value)
            scores[device_type] = log_p
        return scores

    def _feature_loglik(self, device_type: str, name: str, value) -> float:
        if isinstance(value, bool) or isinstance(value, str):
            bucket = self._categorical.get(device_type, {}).get(name, {})
            total = sum(bucket.values())
            vocab = max(1, len(bucket))
            count = bucket.get(str(value), 0)
            return math.log((count + self.smoothing)
                            / (total + self.smoothing * vocab))
        if isinstance(value, (int, float)):
            stats = self._numeric.get(device_type, {}).get(name)
            if stats is None:
                return math.log(1e-6)
            n, mean, m2 = stats
            variance = m2 / (n - 1) if n > 1 else 1.0
            variance = max(variance, 1e-6)
            return (-0.5 * math.log(2 * math.pi * variance)
                    - (float(value) - mean) ** 2 / (2 * variance))
        raise LearningError(f"unsupported attribute type for {name!r}")

    def types(self) -> list[str]:
        return sorted(self._type_counts)
