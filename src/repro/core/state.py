"""Device state as a vector of declared variables (paper sec V).

"One way to characterize any such device is by its state, where the state
is defined as consisting of the values of a set of variables, where each
variable represents an attribute of the configuration of the sensors,
actuators or other aspects of the device."

:class:`StateSpace` declares the variables (with types and bounds);
:class:`DeviceState` is a point in that space that records its own
transition history so safeguards and auditors can inspect trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.errors import StateBoundsError, UnknownVariableError
from repro.types import Value

_KIND_TYPES = {
    "float": (int, float),
    "int": (int,),
    "bool": (bool,),
    "str": (str,),
}


@dataclass(frozen=True)
class StateVariable:
    """Declaration of one state variable.

    ``kind`` is one of ``float``, ``int``, ``bool``, ``str``.  Numeric
    variables may declare ``low``/``high`` bounds; string variables may
    declare an ``allowed`` set.  Bounds are *physical* limits (what values
    are representable), not safety limits — safety is the classifier's job.
    """

    name: str
    kind: str = "float"
    default: Value = 0.0
    low: Optional[float] = None
    high: Optional[float] = None
    allowed: Optional[frozenset] = None
    description: str = ""

    def __post_init__(self):
        if self.kind not in _KIND_TYPES:
            raise StateBoundsError(f"unknown variable kind {self.kind!r}")
        object.__setattr__(self, "allowed",
                           frozenset(self.allowed) if self.allowed is not None else None)
        self.validate(self.default)

    def validate(self, value: Value) -> Value:
        """Check (and for int kinds, coerce) a candidate value; return it."""
        expected = _KIND_TYPES[self.kind]
        if self.kind != "bool" and isinstance(value, bool):
            raise StateBoundsError(f"{self.name}: bool given for {self.kind} variable")
        if not isinstance(value, expected):
            raise StateBoundsError(
                f"{self.name}: expected {self.kind}, got {type(value).__name__}"
            )
        if self.kind in ("float", "int"):
            if value != value:  # NaN fails every bound comparison below
                raise StateBoundsError(f"{self.name}: NaN is not a value")
            if self.low is not None and value < self.low:
                raise StateBoundsError(f"{self.name}: {value} below bound {self.low}")
            if self.high is not None and value > self.high:
                raise StateBoundsError(f"{self.name}: {value} above bound {self.high}")
            if value - value:  # inf - inf is NaN: an infinity past no bound
                raise StateBoundsError(f"{self.name}: {value} is not finite")
        if self.allowed is not None and value not in self.allowed:
            raise StateBoundsError(f"{self.name}: {value!r} not in allowed set")
        return value

    def clamp(self, value: float) -> float:
        """Clamp a numeric value into the declared bounds."""
        if self.kind not in ("float", "int"):
            raise StateBoundsError(f"{self.name}: clamp only applies to numeric kinds")
        if self.low is not None:
            value = max(self.low, value)
        if self.high is not None:
            value = min(self.high, value)
        return int(value) if self.kind == "int" else value


class StateSpace:
    """The declared set of variables for a device type."""

    def __init__(self, variables: Iterable[StateVariable]):
        self._vars: dict[str, StateVariable] = {}
        for var in variables:
            if var.name in self._vars:
                raise StateBoundsError(f"duplicate state variable {var.name!r}")
            self._vars[var.name] = var

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def __len__(self) -> int:
        return len(self._vars)

    def names(self) -> list[str]:
        return list(self._vars)

    def variable(self, name: str) -> StateVariable:
        try:
            return self._vars[name]
        except KeyError:
            raise UnknownVariableError(f"state variable {name!r} not declared") from None

    def variables(self) -> list[StateVariable]:
        return list(self._vars.values())

    def defaults(self) -> dict:
        return {name: var.default for name, var in self._vars.items()}

    def validate_vector(self, vector: dict) -> dict:
        """Validate a full or partial assignment; returns the same dict."""
        for name, value in vector.items():
            self.variable(name).validate(value)
        return vector

    def numeric_names(self) -> list[str]:
        return [n for n, v in self._vars.items() if v.kind in ("float", "int")]

    def merged(self, other: "StateSpace") -> "StateSpace":
        """A new space with this space's variables plus ``other``'s."""
        merged = dict(self._vars)
        for var in other.variables():
            if var.name in merged and merged[var.name] != var:
                raise StateBoundsError(f"conflicting declarations for {var.name!r}")
            merged[var.name] = var
        return StateSpace(merged.values())


class Transition:
    """One recorded state change (``changed`` maps name -> (old, new)).

    A plain ``__slots__`` class rather than a dataclass: one instance is
    allocated per state mutation, which makes construction cost part of
    the device-model hot loop (benchmark F2).
    """

    __slots__ = ("time", "cause", "changed")

    def __init__(self, time: float, cause: str, changed: Optional[dict] = None):
        self.time = time
        self.cause = cause
        self.changed = {} if changed is None else changed

    def __eq__(self, other) -> bool:
        return (isinstance(other, Transition)
                and self.time == other.time and self.cause == other.cause
                and self.changed == other.changed)

    def __repr__(self) -> str:
        return f"Transition(time={self.time!r}, cause={self.cause!r}, changed={self.changed!r})"


class DeviceState:
    """A mutable point in a :class:`StateSpace`, with transition history."""

    def __init__(self, space: StateSpace, initial: Optional[dict] = None,
                 history_limit: int = 1024):
        self.space = space
        self._values = space.defaults()
        self._history: list[Transition] = []
        self._history_limit = history_limit
        self.version = 0
        if initial:
            space.validate_vector(initial)
            for name, value in initial.items():
                self._values[name] = value

    def get(self, name: str) -> Value:
        if name not in self._values:
            raise UnknownVariableError(f"state variable {name!r} not declared")
        return self._values[name]

    def __getitem__(self, name: str) -> Value:
        return self.get(name)

    def set(self, name: str, value: Value, *, time: float = 0.0,
            cause: str = "direct") -> None:
        """Assign one variable (validated against its declaration)."""
        self.space.variable(name).validate(value)
        old = self._values[name]
        if old != value:
            self._values[name] = value
            self.version += 1
            history = self._history
            history.append(Transition(time, cause, {name: (old, value)}))
            if len(history) > self._history_limit:
                del history[: len(history) - self._history_limit]

    def apply(self, changes: dict, *, time: float = 0.0, cause: str = "direct") -> Transition:
        """Apply several assignments atomically; records one transition."""
        variable = self.space.variable
        for name, new in changes.items():
            variable(name).validate(new)
        values = self._values
        changed = {}
        for name, new in changes.items():
            old = values[name]
            if old != new:
                changed[name] = (old, new)
                values[name] = new
        transition = Transition(time, cause, changed)
        if changed:
            self.version += 1
            history = self._history
            history.append(transition)
            if len(history) > self._history_limit:
                del history[: len(history) - self._history_limit]
        return transition

    def snapshot(self) -> dict:
        """A defensive copy of the current state vector."""
        return dict(self._values)

    def peek(self) -> dict:
        """The live state vector itself — strictly read-only.

        The policy-engine hot path (policy selection, effect prediction)
        reads the vector once per event; copying it each time dominated
        the F2 loop.  Callers must not mutate the returned dict; use
        :meth:`snapshot` for a safe copy.
        """
        return self._values

    def history(self) -> list[Transition]:
        return list(self._history)

    def clamp_changes(self, changes: dict) -> dict:
        """Saturate numeric assignments at the declared physical bounds.

        Actuators model physical quantities: a heater pushing temp past its
        representable maximum pins it there rather than erroring.  The
        engine clamps every action effect through this before predicting
        or applying.
        """
        clamped = {}
        for name, value in changes.items():
            variable = self.space.variable(name)
            if (variable.kind in ("float", "int")
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)):
                clamped[name] = variable.clamp(value)
            else:
                clamped[name] = value
        return clamped

    def resolve_changes(self, effects) -> dict:
        """Resolve declared effects against the current vector, clamped.

        Semantically equivalent to
        ``clamp_changes(action.predicted_changes(peek()))`` but in one
        pass touching only the affected variables — effects compose
        unclamped (matching :meth:`Action.predicted_changes`) and the
        final value of each variable is then saturated at its physical
        bounds.  This is the per-event path of the policy engine
        (benchmark F2); raises :class:`UnknownVariableError` for effects
        on undeclared variables, like :meth:`clamp_changes`.
        """
        if not effects:
            return {}
        values = self._values
        overlay: dict = {}
        for effect in effects:
            name = effect.variable
            if name not in overlay and name in values:
                overlay[name] = values[name]
            effect.apply_to(overlay)
        variable = self.space.variable
        out: dict = {}
        for name, new in overlay.items():
            var = variable(name)
            if (var.kind in ("float", "int")
                    and isinstance(new, (int, float))
                    and not isinstance(new, bool)):
                if var.low is not None and new < var.low:
                    new = var.low
                if var.high is not None and new > var.high:
                    new = var.high
                if var.kind == "int":
                    new = int(new)
            else:
                # Non-numeric assignments are validated here (numeric ones
                # are in-bounds by construction after clamping), so the
                # result is safe for :meth:`apply_resolved`.
                var.validate(new)
            if values.get(name) != new:
                out[name] = new
        return out

    def apply_resolved(self, changes: dict, *, time: float = 0.0,
                       cause: str = "direct") -> Transition:
        """Apply changes produced by :meth:`resolve_changes`, skipping
        re-validation (they are in-bounds by construction).  Same atomic
        semantics and history recording as :meth:`apply`."""
        values = self._values
        changed = {}
        for name, new in changes.items():
            old = values[name]
            if old != new:
                changed[name] = (old, new)
                values[name] = new
        transition = Transition(time, cause, changed)
        if changed:
            self.version += 1
            history = self._history
            history.append(transition)
            if len(history) > self._history_limit:
                del history[: len(history) - self._history_limit]
        return transition

    def predict(self, changes: dict) -> dict:
        """The vector that *would* result from ``changes``, without mutating.

        This is the basis of the sec VI-B state-space check: the guard
        evaluates the predicted vector before the transition is allowed.
        """
        self.space.validate_vector(changes)
        predicted = dict(self._values)
        predicted.update(changes)
        return predicted


#: A safeness function maps a state vector to a score in [0, 1]
#: (1 = maximally safe).  See ``repro.statespace.classifier`` for the
#: concrete classifiers built on top of this signature.
SafenessFn = Callable[[dict], float]


def distance(a: dict, b: dict, names: Optional[Iterable[str]] = None) -> float:
    """Euclidean distance between two vectors over shared numeric variables."""
    keys = list(names) if names is not None else [
        k for k in a if k in b and isinstance(a[k], (int, float))
        and not isinstance(a[k], bool)
    ]
    total = 0.0
    for key in keys:
        diff = float(a[key]) - float(b[key])
        total += diff * diff
    return total ** 0.5
