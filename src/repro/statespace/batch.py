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
  BAD/NEUTRAL/GOOD decisions agree exactly.  The compiled classifier
  names the columns it reads (:attr:`BatchSafeness.reads`), and a
  threshold classifier's BAD mask comes from its band comparisons
  without building the score.

Not every classifier vectorizes: :class:`FunctionClassifier` wraps an
opaque Python function, and unknown subclasses may override
``safeness``.  Those raise :class:`BatchCompileError` with a stable
``reason`` slug — callers fall back to the scalar path and **count** the
fallback (silent degradation is how perf regressions hide).

numpy is optional for the library as a whole: everything here degrades
to the scalar path when numpy is absent (:func:`numpy_available`).
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Optional

from repro.core.state import StateSpace
from repro.errors import ConfigurationError, StateError
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

#: Per variable kind: the value types a column admits without asking
#: ``validate`` cell by cell (``bool`` subclasses ``int`` but is refused
#: by the numeric kinds), and the column's dtype.
_KINDS = {"float": ({float, int}, "float64"), "int": ({int}, "int64"),
          "bool": ({bool}, "bool"), "str": ({str}, "object")}


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

    Built by :meth:`from_rows`.  Row ``i`` is one device's state vector;
    :meth:`row` materializes it back into the plain-dict form every
    scalar API consumes (values are converted to native Python scalars so
    ``Condition.evaluate`` and ``SafenessClassifier.safeness`` see exactly
    what a :class:`~repro.core.state.DeviceState` would hand them).
    """

    def __init__(self, space: StateSpace, columns: dict, n_rows: int, np):
        self.np = np
        self.space = space
        #: variable name -> one ``n_rows`` array per declared variable
        self.columns = columns
        self.n_rows = n_rows

    @classmethod
    def from_rows(cls, space: StateSpace, rows, np_module=None) -> "StateMatrix":
        """Build a matrix from an iterable of state-vector dicts.

        Rows are admitted as a :class:`~repro.core.state.DeviceState`
        admits a state: each must be a dict over declared names whose
        values :meth:`StateVariable.validate
        <repro.core.state.StateVariable.validate>` accepts; a missing
        name keeps its default.  A refusal is a
        :class:`ValueError` naming the lowest refused row, ``row {i}: ``
        followed by ``validate``'s (or :meth:`StateSpace.variable`'s) own
        words about one bad cell: an undeclared name first, else the first
        bad variable in declaration order.
        """
        np = np_module if np_module is not None else _np
        if np is None:
            raise ConfigurationError(
                "numpy is required for StateMatrix; install it or use the "
                "scalar per-device path"
            )
        rows = list(rows)
        columns, refusal = _admit(space, rows, np)
        if refusal is not None:
            raise ValueError(refusal)
        return cls(space, columns, len(rows), np)

    def column(self, name: str):
        try:
            return self.columns[name]
        except KeyError:
            raise ConfigurationError(
                f"state variable {name!r} not declared in the matrix space"
            ) from None

    def row(self, i: int) -> dict:
        """Row ``i`` as a plain dict of native Python scalars."""
        return {name: col[i] if col.dtype == object else col[i].item()
                for name, col in self.columns.items()}

    def rows(self):
        for i in range(self.n_rows):
            yield self.row(i)

    def clamp(self, name: str, values):
        """Saturate ``values``, a float array the caller owns, in place at
        the variable's declared physical bounds, and return it.

        Mirrors :meth:`repro.core.state.DeviceState.resolve_changes`:
        ``low`` is applied before ``high``, each replacing only values
        strictly past the bound — the scalar two-``if`` form, so ``-0.0``
        at a bound of ``0.0`` stays ``-0.0`` (``maximum`` would flip it).
        """
        np = self.np
        var = self.space.variable(name)
        if var.low is not None:
            np.copyto(values, var.low, where=values < var.low)
        if var.high is not None:
            np.copyto(values, var.high, where=values > var.high)
        return values


def _admit(space: StateSpace, rows: list, np) -> tuple[dict, Optional[str]]:
    """``(columns, refusal)`` for ``rows``: refusal is ``None`` when every
    row is admitted, else the words naming the lowest refused row.

    One pass over the rows' types and keys, then one vectorized pass per
    column over the rows below the lowest refusal found so far.  Only a
    cell of an unexpected type, or the one bad cell, is judged on its own.
    """
    limit = len(rows)
    culprit = None                          # (name, value) of the bad cell
    if set(map(type, rows)) - {dict}:
        limit = next((i for i, row in enumerate(rows)
                      if not isinstance(row, dict)), limit)
    columns: dict = {}
    declared = space.names()
    if not set(declared) >= set().union(*rows[:limit]):
        limit, culprit = next((i, (key, row[key]))
                              for i, row in enumerate(rows)
                              for key in row if key not in space)
    for name in declared:
        var = space.variable(name)
        plain, dtype = _KINDS[var.kind]
        try:
            values = list(map(itemgetter(name), rows[:limit]))
        except KeyError:                    # some row keeps the default
            values = list(map(dict.get, rows[:limit], repeat(name),
                              repeat(var.default)))
        bad = None
        if not plain.issuperset(map(type, values)):
            bad = next((i for i, value in enumerate(values)
                        if type(value) not in plain
                        and _refusal(space, name, value, np)), None)
        stored = values if bad is None else values[:bad]
        try:
            col = np.fromiter(stored, dtype=dtype, count=len(stored))
        except (OverflowError, ValueError, TypeError):
            bad = next(i for i, value in enumerate(stored)
                       if _refusal(space, name, value, np))
            stored = values[:bad]
            col = np.fromiter(stored, dtype=dtype, count=bad)
        columns[name] = col
        if var.kind in _NUMERIC_KINDS:
            out = ~np.isfinite(col)
            if var.low is not None:
                out |= col < var.low
            if var.high is not None:
                out |= col > var.high
            if out.any():
                bad = int(out.argmax())
        elif var.allowed is not None and not var.allowed.issuperset(stored):
            bad = next(i for i, value in enumerate(stored)
                       if value not in var.allowed)
        if bad is not None:
            limit, culprit = bad, (name, values[bad])
    if limit == len(rows):
        return columns, None
    if culprit is None:
        return columns, (f"row {limit}: expected a dict, "
                         f"got {type(rows[limit]).__name__}")
    return columns, f"row {limit}: {_refusal(space, *culprit, np)}"


def _refusal(space: StateSpace, name: str, value, np) -> Optional[str]:
    """``validate``'s (or ``space.variable``'s) words for one cell, judged
    on the value its column holds (``500`` in a float column is judged as
    ``500.0``); ``None`` when the cell is admitted."""
    try:
        var = space.variable(name)
        plain, dtype = _KINDS[var.kind]
        if type(value) not in plain:
            var.validate(value)        # the type words, unless a subclass
        try:
            value = np.array(value, dtype=dtype).item()
        except (OverflowError, ValueError, TypeError) as exc:
            var.validate(value)        # the bound it is past, if any
            return f"{name}: {exc}"
        var.validate(value)
    except StateError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# Classifier compilation
# ---------------------------------------------------------------------------


def _require_numeric(space: StateSpace, name: str, reads: set) -> None:
    """Admit ``name`` as a numeric column the classifier reads."""
    if name not in space:
        raise BatchCompileError("unknown-variable", name)
    if space.variable(name).kind not in _NUMERIC_KINDS:
        raise BatchCompileError("non-numeric-variable", name)
    reads.add(name)


def _compile_threshold(clf: ThresholdClassifier, space: StateSpace, np,
                       reads: set):
    bands = list(clf.bands)
    for band in bands:
        _require_numeric(space, band.variable, reads)

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


def _compile_threshold_bad(clf: ThresholdClassifier, np):
    """``bad(columns, n, t)``: the rows a threshold classifier's score puts
    below ``0 < t <= 1``, read off its band comparisons without building
    the score.

    The score is a minimum of per-side terms, and a minimum is below
    ``t`` iff one term is: a side past its safe bound with no (or no
    usable) hard bound scores 0, below any ``t > 0``; one with a hard
    bound scores ``min(1, max(0, q))``, below ``t`` iff ``q < t`` when
    ``0 < t <= 1``.  ``q`` is computed with the score's own IEEE
    operations.  The bounds and each side's width are finite
    (:class:`ThresholdBand` refuses others), so ``q`` is NaN only where
    the value is, and a NaN value is past no bound.
    """
    bands = list(clf.bands)

    def bad(columns: dict, n: int, t: float):
        mask = np.zeros(n, dtype=bool)
        for band in bands:
            v = columns[band.variable]
            if band.safe_high is not None:
                hit = v > band.safe_high
                if hit.any():
                    if (band.hard_high is not None
                            and band.hard_high > band.safe_high):
                        hit &= ((band.hard_high - v)
                                / (band.hard_high - band.safe_high)) < t
                    mask |= hit
            if band.safe_low is not None:
                hit = v < band.safe_low
                if hit.any():
                    if (band.hard_low is not None
                            and band.hard_low < band.safe_low):
                        hit &= ((v - band.hard_low)
                                / (band.safe_low - band.hard_low)) < t
                    mask |= hit
        return mask

    return bad


def _compile_box(clf: BoxClassifier, space: StateSpace, np, reads: set):
    for region in list(clf.good) + list(clf.bad):
        for variable, _low, _high in region.bounds:
            _require_numeric(space, variable, reads)

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


def _compile(clf: SafenessClassifier, space: StateSpace, np, reads: set):
    # Exact-type dispatch on purpose: a subclass may override safeness(),
    # and compiling the parent's semantics would silently diverge.
    kind = type(clf)
    if kind is ThresholdClassifier:
        return _compile_threshold(clf, space, np, reads)
    if kind is BoxClassifier:
        return _compile_box(clf, space, np, reads)
    if kind is CompositeClassifier:
        children = [_compile(child, space, np, reads)
                    for child in clf.children]

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
    """A compiled classifier: scores/classifies every row at once.

    ``reads`` names the columns the compiled arithmetic reads; no other
    column need be passed in.
    """

    __slots__ = ("classifier", "np", "reads", "_fn", "_bad", "calls")

    def __init__(self, classifier: SafenessClassifier, fn, np,
                 reads: frozenset, bad):
        self.classifier = classifier
        self.np = np
        self.reads = reads
        self._fn = fn
        self._bad = bad
        self.calls = 0

    def safeness(self, columns: dict, n: int):
        """Safeness score per row, bit-identical to the scalar metric."""
        self.calls += 1
        return self._fn(columns, n)

    def bad_mask(self, columns: dict, n: int):
        """Rows whose predicted state classifies BAD (score < bad_below).

        A threshold classifier with ``0 < bad_below <= 1`` answers from
        its band comparisons without building the score
        (:func:`_compile_threshold_bad`); the mask is the same either way.
        """
        t = self.classifier.bad_below
        if self._bad is None or not 0 < t <= 1:
            return self.safeness(columns, n) < t
        self.calls += 1
        return self._bad(columns, n, t)


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
    reads: set = set()
    fn = _compile(classifier, space, np, reads)
    bad = (_compile_threshold_bad(classifier, np)
           if type(classifier) is ThresholdClassifier else None)
    return BatchSafeness(classifier, fn, np, frozenset(reads), bad)
