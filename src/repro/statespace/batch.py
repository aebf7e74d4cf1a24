"""Vectorized safeness evaluation over structured state arrays (F4).

The per-device hot path evaluates one state vector at a time; at fleet
scale (10k-100k devices, benchmark F4) that per-device Python dispatch
dominates the run.  This module batches the sec V safeness metric across
a whole device block:

* :class:`StateMatrix` — column-per-variable arrays mirroring a
  :class:`~repro.core.state.StateSpace` (one float64/bool/object column
  per declared variable, with the declared physical bounds available for
  vectorized clamping);
* :func:`compile_safeness` — compiles a
  :class:`~repro.statespace.classifier.SafenessClassifier` into a closure
  that scores every row at once.  The compiled arithmetic mirrors the
  scalar implementations operation-for-operation (same IEEE-754 ops in
  the same order), so vector and scalar scores are bit-identical and the
  BAD/NEUTRAL/GOOD decisions agree exactly.

Not every classifier vectorizes: :class:`FunctionClassifier` wraps an
opaque Python function, and unknown subclasses may override
``safeness``.  Those raise :class:`BatchCompileError` with a stable
``reason`` slug — callers fall back to the scalar path and **count** the
fallback (silent degradation is how perf regressions hide).

numpy is optional for the library as a whole: everything here degrades
to the scalar path when numpy is absent (:func:`numpy_available`).
"""

from __future__ import annotations

from repro.core.state import StateSpace
from repro.errors import ConfigurationError
from repro.statespace.classifier import (
    BoxClassifier,
    CompositeClassifier,
    SafenessClassifier,
    ThresholdClassifier,
)

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - container always ships numpy
    _np = None

#: Numeric variable kinds a compiled classifier may read.
_NUMERIC_KINDS = ("float", "int")


def numpy_available() -> bool:
    """Whether the vectorized paths can run at all."""
    return _np is not None


class BatchCompileError(Exception):
    """A construct the vectorizer cannot express.

    ``reason`` is a stable slug used as a fallback-counter key:
    ``opaque-function``, ``unsupported-classifier``, ``unknown-variable``,
    ``non-numeric-variable``, ``no-numpy`` (plus the condition-side
    reasons minted by :mod:`repro.safeguards.batch`).
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class StateMatrix:
    """Column-per-variable arrays mirroring a :class:`StateSpace`.

    Row ``i`` is one device's state vector; :meth:`row` materializes it
    back into the plain-dict form every scalar API consumes (values are
    converted to native Python scalars so ``Condition.evaluate`` and
    ``SafenessClassifier.safeness`` see exactly what a
    :class:`~repro.core.state.DeviceState` would hand them).
    """

    def __init__(self, space: StateSpace, n_rows: int, np_module=None):
        np = np_module if np_module is not None else _np
        if np is None:
            raise ConfigurationError(
                "numpy is required for StateMatrix; install it or use the "
                "scalar per-device path"
            )
        if n_rows < 0:
            raise ConfigurationError("n_rows must be non-negative")
        self.np = np
        self.space = space
        self.n_rows = int(n_rows)
        self.columns: dict = {}
        for var in space.variables():
            if var.kind == "float":
                col = np.full(self.n_rows, float(var.default), dtype=np.float64)
            elif var.kind == "int":
                col = np.full(self.n_rows, int(var.default), dtype=np.int64)
            elif var.kind == "bool":
                col = np.full(self.n_rows, bool(var.default), dtype=bool)
            else:  # str
                col = np.array([var.default] * self.n_rows, dtype=object)
            self.columns[var.name] = col

    @classmethod
    def from_rows(cls, space: StateSpace, rows, np_module=None) -> "StateMatrix":
        """Build a matrix from an iterable of state-vector dicts.

        A value its column cannot hold raises :class:`ValueError` naming
        the row index and the variable.
        """
        rows = list(rows)
        matrix = cls(space, len(rows), np_module=np_module)
        try:
            for name, col in matrix.columns.items():
                for i, vector in enumerate(rows):
                    if name in vector:
                        col[i] = vector[name]
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"row {i}: {name}: {exc}") from None
        return matrix

    def column(self, name: str):
        try:
            return self.columns[name]
        except KeyError:
            raise ConfigurationError(
                f"state variable {name!r} not declared in the matrix space"
            ) from None

    def row(self, i: int) -> dict:
        """Row ``i`` as a plain dict of native Python scalars."""
        out = {}
        for name, col in self.columns.items():
            value = col[i]
            kind = self.space.variable(name).kind
            if kind == "float":
                out[name] = float(value)
            elif kind == "int":
                out[name] = int(value)
            elif kind == "bool":
                out[name] = bool(value)
            else:
                out[name] = value
        return out

    def rows(self):
        for i in range(self.n_rows):
            yield self.row(i)

    def clamp(self, name: str, values):
        """Values saturated at the variable's declared physical bounds.

        Mirrors :meth:`repro.core.state.DeviceState.resolve_changes`:
        ``low`` is applied before ``high``, each replacing only values
        strictly past the bound — the scalar two-``if`` form, so ``-0.0``
        at a bound of ``0.0`` stays ``-0.0`` (``maximum`` would flip it).
        """
        np = self.np
        var = self.space.variable(name)
        if var.low is not None:
            values = np.where(values < var.low, var.low, values)
        if var.high is not None:
            values = np.where(values > var.high, var.high, values)
        return values


# ---------------------------------------------------------------------------
# Classifier compilation
# ---------------------------------------------------------------------------


def _require_numeric(space: StateSpace, name: str) -> None:
    if name not in space:
        raise BatchCompileError("unknown-variable", name)
    if space.variable(name).kind not in _NUMERIC_KINDS:
        raise BatchCompileError("non-numeric-variable", name)


def _compile_threshold(clf: ThresholdClassifier, space: StateSpace, np):
    bands = list(clf.bands)
    for band in bands:
        _require_numeric(space, band.variable)

    def safeness(columns: dict, n: int):
        score = None
        for band in bands:
            v = columns[band.variable]
            s = np.ones(n, dtype=np.float64)
            if band.safe_high is not None:
                over = v > band.safe_high
                if band.hard_high is None or band.hard_high <= band.safe_high:
                    s = np.where(over, 0.0, s)
                else:
                    cand = np.minimum(s, np.maximum(
                        0.0, (band.hard_high - v)
                        / (band.hard_high - band.safe_high)))
                    s = np.where(over, cand, s)
            if band.safe_low is not None:
                under = v < band.safe_low
                if band.hard_low is None or band.hard_low >= band.safe_low:
                    s = np.where(under, 0.0, s)
                else:
                    cand = np.minimum(s, np.maximum(
                        0.0, (v - band.hard_low)
                        / (band.safe_low - band.hard_low)))
                    s = np.where(under, cand, s)
            score = s if score is None else np.minimum(score, s)
        return score

    return safeness


def _compile_box(clf: BoxClassifier, space: StateSpace, np):
    for region in list(clf.good) + list(clf.bad):
        for variable, _low, _high in region.bounds:
            _require_numeric(space, variable)

    def contains(region, columns, n):
        inside = np.ones(n, dtype=bool)
        for variable, low, high in region.bounds:
            v = columns[variable]
            if low is not None:
                inside = inside & (v >= low)
            if high is not None:
                inside = inside & (v <= high)
        return inside

    def margin(region, columns, n):
        # Largest per-variable violation; the low branch takes precedence
        # where both could fire, matching the scalar if/elif.
        worst = np.zeros(n, dtype=np.float64)
        for variable, low, high in region.bounds:
            v = columns[variable]
            contrib = np.zeros(n, dtype=np.float64)
            if high is not None:
                contrib = np.where(v > high, v - high, contrib)
            if low is not None:
                contrib = np.where(v < low, low - v, contrib)
            worst = np.maximum(worst, contrib)
        return worst

    def safeness(columns: dict, n: int):
        in_bad = np.zeros(n, dtype=bool)
        nearest = None
        for region in clf.bad:
            in_bad = in_bad | contains(region, columns, n)
            m = margin(region, columns, n)
            nearest = m if nearest is None else np.minimum(nearest, m)
        in_good = np.zeros(n, dtype=bool)
        for region in clf.good:
            in_good = in_good | contains(region, columns, n)
        if nearest is None:  # no bad regions declared
            base = np.where(in_good, 1.0, 0.5)
        else:
            proximity = np.minimum(1.0, nearest / clf.decay_scale)
            base = np.where(in_good,
                            np.maximum(clf.good_above, proximity), proximity)
        return np.where(in_bad, 0.0, base)

    return safeness


def _compile(clf: SafenessClassifier, space: StateSpace, np):
    # Exact-type dispatch on purpose: a subclass may override safeness(),
    # and compiling the parent's semantics would silently diverge.
    kind = type(clf)
    if kind is ThresholdClassifier:
        return _compile_threshold(clf, space, np)
    if kind is BoxClassifier:
        return _compile_box(clf, space, np)
    if kind is CompositeClassifier:
        children = [_compile(child, space, np) for child in clf.children]

        def safeness(columns: dict, n: int):
            score = None
            for child in children:
                s = child(columns, n)
                score = s if score is None else np.minimum(score, s)
            return score

        return safeness
    if kind.__name__ == "FunctionClassifier":
        raise BatchCompileError("opaque-function", kind.__name__)
    raise BatchCompileError("unsupported-classifier", kind.__name__)


class BatchSafeness:
    """A compiled classifier: scores/classifies every row at once."""

    __slots__ = ("classifier", "np", "_fn", "calls")

    def __init__(self, classifier: SafenessClassifier, fn, np):
        self.classifier = classifier
        self.np = np
        self._fn = fn
        self.calls = 0

    def safeness(self, columns: dict, n: int):
        """Safeness score per row, bit-identical to the scalar metric."""
        self.calls += 1
        return self._fn(columns, n)

    def bad_mask(self, columns: dict, n: int):
        """Rows whose predicted state classifies BAD (score < bad_below)."""
        return self.safeness(columns, n) < self.classifier.bad_below


def compile_safeness(classifier: SafenessClassifier, space: StateSpace,
                     np_module=None) -> BatchSafeness:
    """Compile ``classifier`` for batch evaluation over ``space`` columns.

    Raises :class:`BatchCompileError` (with a stable ``reason``) for
    constructs the vectorizer cannot express; callers catch it, count the
    fallback, and use the scalar classifier instead.
    """
    np = np_module if np_module is not None else _np
    if np is None:
        raise BatchCompileError("no-numpy")
    return BatchSafeness(classifier, _compile(classifier, space, np), np)

