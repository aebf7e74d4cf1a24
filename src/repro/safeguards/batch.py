"""Batch guard evaluation: a compiled comparator table for the policy
grammar plus vectorized effect application and state-space veto (F4).

The scalar engine evaluates one ``(condition, effects, guard)`` chain per
device per event.  At fleet scale the same chain is evaluated for tens of
thousands of structurally identical devices every tick, so this module
compiles the engine's own :class:`~repro.core.policy.Policy` objects once
(in first-match order, e.g. :meth:`PolicySet.ordered
<repro.core.policy.PolicySet.ordered>`) and then evaluates every device
in a handful of numpy passes:

* :func:`compile_condition` lowers the condition AST
  (:mod:`repro.core.conditions`) onto whole columns via a comparator
  table (``==  !=  <  <=  >  >=`` map to elementwise ufuncs);
* :class:`BatchPolicyEvaluator` does first-match policy selection
  (event patterns are not consulted: a batch has no event) into a
  first-match code in the narrowest signed integer dtype that holds
  ``-1 ... len(programs) - 1``, accumulated branch-free without any
  write through a boolean mask, then predicted-state computation
  (effects compose unclamped, final values saturate at the declared
  bounds — exactly
  :meth:`~repro.core.state.DeviceState.resolve_changes`), and the sec
  VI-B veto (predicted state classifies BAD) in batch.  Prediction, veto
  and write-back run on per-program row subsets: each program gathers
  only the rows that chose it, and of those only the columns its
  effects compute from plus the ones the compiled classifier reads
  (:attr:`BatchSafeness.reads <repro.statespace.batch.BatchSafeness>`),
  so the guarded work is done once per row, not once per row per
  program.  A row that chose a program is vetoed or executed, so
  ``executed`` is one pass, ``(chosen >= 0) & ~vetoed``.  Effects
  compile per variable (:class:`EffectPlan`): a variable whose last
  effect is a ``set`` predicts one constant, resolved at compile time by
  the engine's rule, on any variable kind.

**Decision identity.** The vector path reproduces the scalar path
bit-for-bit: same IEEE-754 operations in the same order.  The evaluator
carries a scalar twin (:meth:`BatchPolicyEvaluator.select_scalar` /
:meth:`apply_scalar`) built on the *real* ``Condition.evaluate`` /
``classifier.safeness`` / ``Effect.apply_to`` — the property tests assert
both paths pick the same programs, veto the same rows, and land on the
same state.

**Visible fallback.** Constructs the vectorizer cannot express — the
``in`` operator, ``event.*`` references, event-dependent conditions,
opaque classifiers, ``add``/``scale`` on int, bool or str variables, a
``set`` value the variable's ``validate`` refuses — fall back to the
scalar twin *per program*, and every fallback is counted by reason
(:attr:`BatchPolicyEvaluator.fallback_reasons`) at compile time and as
one ``scalar_evals`` per program each time it runs, so a policy change
that silently demotes the fleet to scalar dispatch shows up in metrics
rather than only in wall clock.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional, Sequence

from repro.core.conditions import (
    AllOf,
    AnyOf,
    Comparison,
    Condition,
    EventFieldIs,
    EventKindIs,
    Literal,
    Not,
    TrueCondition,
)
from repro.core.policy import Policy
from repro.core.state import StateSpace
from repro.errors import StateError
from repro.statespace.batch import (
    BatchCompileError,
    BatchSafeness,
    StateMatrix,
    compile_safeness,
)
from repro.statespace.classifier import SafenessClassifier

try:  # pragma: no cover
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: The comparator table: guard-grammar operator -> elementwise callable.
#: ``in`` is deliberately absent (membership against an arbitrary Python
#: container does not vectorize) — it is the canonical fallback case.
VECTOR_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: fn(columns, n) -> bool ndarray
CompiledCondition = Callable[[dict, int], object]


def compile_condition(condition: Condition, space: StateSpace,
                      np_module=None) -> CompiledCondition:
    """Compile a condition AST into ``fn(columns, n) -> bool array``.

    Raises :class:`BatchCompileError` with a stable reason slug for
    anything outside the vectorizable grammar subset: ``in-operator``,
    ``event-reference``, ``event-dependent``, ``unknown-variable``,
    ``unsupported-condition``, ``no-numpy``.
    """
    np = np_module if np_module is not None else _np
    if np is None:
        raise BatchCompileError("no-numpy")
    names = set(space.names())

    def operand(value):
        if isinstance(value, Literal):
            const = value.value
            return lambda columns: const
        if isinstance(value, str):
            if value.startswith("event."):
                raise BatchCompileError("event-reference", value)
            if value not in names:
                raise BatchCompileError("unknown-variable", value)
            return lambda columns: columns[value]
        const = value
        return lambda columns: const

    def compile_node(node: Condition) -> CompiledCondition:
        kind = type(node)
        if kind is TrueCondition:
            return lambda columns, n: np.ones(n, dtype=bool)
        if kind is Comparison:
            if node.op == "in":
                raise BatchCompileError("in-operator", repr(node))
            op_fn = VECTOR_OPS[node.op]
            left = operand(node.left)
            right = operand(node.right)

            def fn(columns, n):
                result = op_fn(left(columns), right(columns))
                if not hasattr(result, "shape") or result.shape == ():
                    # Both operands were constants: broadcast the scalar.
                    return np.full(n, bool(result))
                return result.astype(bool, copy=False)

            return fn
        if kind is Not:
            inner = compile_node(node.inner)
            return lambda columns, n: ~inner(columns, n)
        if kind is AllOf:
            parts = [compile_node(part) for part in node.parts]

            def all_fn(columns, n):
                mask = np.ones(n, dtype=bool)
                for part in parts:
                    mask = mask & part(columns, n)
                return mask

            return all_fn
        if kind is AnyOf:
            parts = [compile_node(part) for part in node.parts]

            def any_fn(columns, n):
                mask = np.zeros(n, dtype=bool)
                for part in parts:
                    mask = mask | part(columns, n)
                return mask

            return any_fn
        if kind in (EventKindIs, EventFieldIs):
            raise BatchCompileError("event-dependent", kind.__name__)
        raise BatchCompileError("unsupported-condition", kind.__name__)

    return compile_node(condition)


class BatchProgram:
    """One compiled policy: its id, condition and action's declared effects."""

    __slots__ = ("name", "condition", "effects")

    def __init__(self, policy: Policy):
        self.name = policy.policy_id
        self.condition = policy.condition
        self.effects = policy.action.effects


class EffectPlan:
    """One program's effects, compiled per variable they write.

    Effects on different variables do not interact, so each variable's
    effects compose on their own, in declaration order, and a ``set``
    discards what came before it.  ``consts`` are the variables whose last
    effect is a ``set``: ``(name, value)`` with the value resolved once.
    ``steps`` are the float variables computed per row: ``(name, start,
    ops)``, where ``start`` is the value of the ``set`` the ``add`` /
    ``scale`` ``ops`` compose on (``None``: the row's own value).
    ``gather`` names the columns read from the matrix: the ones ``steps``
    start from plus the ones the classifier reads.  ``spread`` are the
    ``consts`` the classifier reads, so they are spread over the rows.
    """

    __slots__ = ("consts", "steps", "gather", "spread")

    def __init__(self, consts: tuple, steps: tuple, gather: tuple,
                 spread: tuple):
        self.consts = consts
        self.steps = steps
        self.gather = gather
        self.spread = spread


def _set_constant(var, value):
    """A ``set`` value resolved by the rule of
    :meth:`~repro.core.state.DeviceState.resolve_changes`: a number is
    clamped at the bounds (and truncated on an int column), and the value
    an int, bool or str column receives is validated.  Raises
    :class:`~repro.errors.StateError`, ``ValueError`` or
    ``OverflowError`` for a value the column refuses."""
    if (var.kind in ("float", "int") and isinstance(value, (int, float))
            and not isinstance(value, bool)):
        if var.kind == "float":
            value = float(value)
        if var.low is not None and value < var.low:
            value = var.low
        if var.high is not None and value > var.high:
            value = var.high
        if var.kind == "float":
            return float(value)
        value = int(value)
    return var.validate(value)


class BatchPolicyEvaluator:
    """Vectorized first-match selection + guarded effect application.

    ``policies`` are compiled, in the given order, into :attr:`programs`
    (one :class:`BatchProgram` each).  ``select`` picks the first program
    (by list order) whose condition holds per row; ``apply`` computes
    each chosen program's predicted state, vetoes rows whose prediction
    classifies BAD (unless exempt), and writes the surviving changes back
    into the matrix.  Both have scalar twins with identical semantics
    built on the real scalar APIs.
    """

    def __init__(self, space: StateSpace, policies: Sequence[Policy],
                 classifier: Optional[SafenessClassifier] = None,
                 np_module=None):
        self.np = np_module if np_module is not None else _np
        self.space = space
        self.programs = [BatchProgram(policy) for policy in policies]
        self.classifier = classifier
        #: compile-time fallback accounting, reason slug -> count
        self.fallback_reasons: dict = {}
        #: runtime accounting
        self.vector_evals = 0
        self.scalar_evals = 0
        self.decisions = 0
        self._safeness: Optional[BatchSafeness] = None
        if classifier is not None:
            try:
                self._safeness = compile_safeness(classifier, space, self.np)
            except BatchCompileError as exc:
                self._count_fallback(exc.reason)
        self._cond_fns = [self._compile_cond(p) for p in self.programs]
        self._effect_plans = [self._compile_effects(p) for p in self.programs]

    # -- compilation ---------------------------------------------------------

    def _count_fallback(self, reason: str) -> None:
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    def _compile_cond(self, program: BatchProgram):
        try:
            return compile_condition(program.condition, self.space, self.np)
        except BatchCompileError as exc:
            self._count_fallback(exc.reason)
            return None

    def _compile_effects(self, program: BatchProgram) -> Optional[EffectPlan]:
        """Compile a program's effects into an :class:`EffectPlan`.

        ``add`` and ``scale`` vectorize on float variables; ``set``
        vectorizes on every kind, its value resolved once as the engine
        resolves it (:func:`_set_constant`).  ``add`` or ``scale`` on an
        int, bool or str variable, or a ``set`` value that variable's
        ``validate`` refuses, keeps the program scalar
        (``non-float-effect``), as does a non-numeric value for a float
        variable (``non-numeric-effect``).
        """
        if self.np is None:
            self._count_fallback("no-numpy")
            return None
        chains: dict = {}      # variable -> (set value or None, ops after it)
        for effect in program.effects:
            if effect.variable not in self.space:
                self._count_fallback("unknown-variable")
                return None
            var = self.space.variable(effect.variable)
            if var.kind == "float":
                reason = "non-numeric-effect"
                if not isinstance(effect.value, (int, float)) or isinstance(
                        effect.value, bool):
                    self._count_fallback(reason)
                    return None
            else:
                reason = "non-float-effect"
                if effect.op != "set":
                    self._count_fallback(reason)
                    return None
            if effect.op == "set":
                try:
                    _set_constant(var, effect.value)
                except (StateError, ValueError, OverflowError):
                    self._count_fallback(reason)
                    return None
                chains[effect.variable] = (effect.value, [])
            else:
                chains.setdefault(effect.variable, (None, []))[1].append(effect)
        consts = tuple((name, _set_constant(self.space.variable(name), value))
                       for name, (value, ops) in chains.items() if not ops)
        # Ops compose on the unclamped set value; only the result clamps.
        steps = tuple((name, None if value is None else float(value),
                       tuple(ops))
                      for name, (value, ops) in chains.items() if ops)
        if self.classifier is None:
            reads = frozenset()
        elif self._safeness is not None:
            reads = self._safeness.reads
        else:                   # the scalar classifier sees whole rows
            reads = frozenset(self.space.names())
        computed = {name for name, _ in consts}
        computed.update(name for name, start, _ in steps if start is not None)
        needed = reads.union(name for name, start, _ in steps if start is None)
        gather = tuple(name for name in self.space.names()
                       if name in needed and name not in computed)
        spread = tuple((name, value) for name, value in consts
                       if name in reads)
        return EffectPlan(consts, steps, gather, spread)

    def compiled_programs(self) -> int:
        """How many programs run fully vectorized (condition + effects)."""
        return sum(1 for fn, plan in zip(self._cond_fns, self._effect_plans)
                   if fn is not None and plan is not None)

    # -- vectorized path -----------------------------------------------------

    def condition_mask(self, index: int, matrix: StateMatrix):
        """Program ``index``'s condition over every row (counted fallback)."""
        np = self.np
        n = matrix.n_rows
        fn = self._cond_fns[index]
        if fn is not None:
            self.vector_evals += 1
            return fn(matrix.columns, n)
        self.scalar_evals += 1
        condition = self.programs[index].condition
        mask = np.zeros(n, dtype=bool)
        for i in range(n):
            mask[i] = bool(condition.evaluate(matrix.row(i)))
        return mask

    def select(self, matrix: StateMatrix, active=None):
        """First-match program index per row (-1 = none / inactive).

        The result is the narrowest signed integer array that holds
        ``-1 ... len(programs) - 1``: int8 up to 127 programs, then int16,
        then int32.  Each program adds ``index + 1`` to the rows it is the
        first to match (``hit`` is a subset of the still-pending rows, so
        a row gains one term at most) and ``-1`` comes off once at the
        end; no array is written through a boolean mask.  Programs are
        tried in order only while some active row is still unchosen:
        once a catch-all has matched, the rest are not evaluated."""
        np = self.np
        n = matrix.n_rows
        width = np.min_scalar_type(-len(self.programs) - 1).type
        code = np.zeros(n, dtype=width)
        pending = (np.ones(n, dtype=bool) if active is None
                   else np.array(active, dtype=bool))
        self.decisions += int(np.count_nonzero(pending))
        for index in range(len(self.programs)):
            if not pending.any():
                break
            hit = pending & self.condition_mask(index, matrix)
            code += hit.view(np.int8) * width(index + 1)
            pending ^= hit
        code -= 1
        return code

    def _predicted_columns(self, matrix: StateMatrix, plan: EffectPlan,
                           rows) -> dict:
        """Predicted columns for one program over the ``rows`` that chose
        it: the columns ``plan.gather`` names, each computed variable's
        prediction, and the constants the classifier reads.  Effects
        compose unclamped; each computed variable is then saturated at its
        physical bounds, the batch mirror of
        ``DeviceState.resolve_changes``.
        """
        np = self.np
        columns = matrix.columns
        k = rows.size
        predicted = {name: columns[name][rows] for name in plan.gather}
        for name, start, ops in plan.steps:
            # A gathered column is a copy, so it is worked in place.
            col = (predicted[name] if start is None
                   else np.full(k, start, dtype=np.float64))
            for effect in ops:
                if effect.op == "add":
                    np.add(col, effect.value, out=col)
                else:  # scale
                    np.multiply(col, effect.value, out=col)
            predicted[name] = matrix.clamp(name, col)
        for name, value in plan.spread:
            predicted[name] = np.full(k, value, dtype=columns[name].dtype)
        return predicted

    def _bad_rows(self, predicted: dict, n: int):
        """BAD-classification mask over predicted columns (counted fallback)."""
        np = self.np
        classifier = self.classifier
        if classifier is None:
            return np.zeros(n, dtype=bool)
        if self._safeness is not None:
            return self._safeness.bad_mask(predicted, n)
        self.scalar_evals += 1
        bad = np.zeros(n, dtype=bool)
        names = list(predicted)
        for i in range(n):
            vector = {name: predicted[name][i].item()
                      if hasattr(predicted[name][i], "item")
                      else predicted[name][i] for name in names}
            bad[i] = classifier.safeness(vector) < classifier.bad_below
        return bad

    def apply(self, matrix: StateMatrix, chosen, guard_exempt=None):
        """Apply each row's chosen program; returns ``(vetoed, executed)``.

        ``chosen`` is :meth:`select`'s code or any integer array of
        program indices (``-1``: none), such as :meth:`select_scalar`'s
        int64 one.  Each program runs on the rows that chose it: those
        rows are gathered (only the columns the program computes from or
        the classifier reads), predicted, classified and written back,
        and no other row is touched.  A row picks one program, so no
        program reads a row an earlier program wrote.  ``guard_exempt``
        rows (e.g. compromised devices that stripped their safeguards)
        bypass the veto and always execute.  Every row that chose a
        program is either vetoed or executed, so ``executed`` is derived
        in one pass as ``(chosen >= 0) & ~vetoed``.
        """
        np = self.np
        n = matrix.n_rows
        vetoed = np.zeros(n, dtype=bool)
        if guard_exempt is None:
            guard_exempt = np.zeros(n, dtype=bool)
        columns = matrix.columns
        for index, plan in enumerate(self._effect_plans):
            rows = np.flatnonzero(chosen == index)
            if not rows.size:
                continue
            if plan is None:
                self._apply_rows_scalar(matrix, rows, self.programs[index],
                                        guard_exempt, vetoed)
                continue
            if plan.consts or plan.steps:
                predicted = self._predicted_columns(matrix, plan, rows)
                veto = self._bad_rows(predicted, rows.size)
                if veto.any():
                    veto &= ~guard_exempt[rows]
                    vetoed[rows[veto]] = True
                    keep = ~veto
                    rows = rows[keep]
                    predicted = {name: predicted[name][keep]
                                 for name, _, _ in plan.steps}
                for name, _, _ in plan.steps:
                    columns[name][rows] = predicted[name]
                for name, value in plan.consts:
                    columns[name][rows] = value
        return vetoed, (chosen >= 0) & ~vetoed

    # -- scalar twin -----------------------------------------------------------

    def select_scalar(self, matrix: StateMatrix, active=None):
        """Reference selection via ``Condition.evaluate`` row by row."""
        np = self.np
        n = matrix.n_rows
        chosen = np.full(n, -1, dtype=np.int64)
        if active is None:
            active = np.ones(n, dtype=bool)
        self.decisions += int(active.sum())
        for i in range(n):
            if not active[i]:
                continue
            vector = matrix.row(i)
            for index, program in enumerate(self.programs):
                if program.condition.evaluate(vector):
                    chosen[i] = index
                    break
        return chosen

    def _resolve_row(self, vector: dict, effects) -> dict:
        """Scalar effect resolution: compose unclamped, clamp the result."""
        overlay: dict = {}
        for effect in effects:
            name = effect.variable
            if name not in overlay and name in vector:
                overlay[name] = vector[name]
            effect.apply_to(overlay)
        out = {}
        for name, new in overlay.items():
            var = self.space.variable(name)
            if (var.kind in ("float", "int")
                    and isinstance(new, (int, float))
                    and not isinstance(new, bool)):
                if var.low is not None and new < var.low:
                    new = var.low
                if var.high is not None and new > var.high:
                    new = var.high
                if var.kind == "int":
                    new = int(new)
            out[name] = new
        return out

    def _apply_rows_scalar(self, matrix: StateMatrix, rows, program,
                           guard_exempt, vetoed) -> None:
        """One program over ``rows`` on the scalar twin (one scalar eval);
        marks the vetoed rows, and every other row executes."""
        self.scalar_evals += 1
        classifier = self.classifier
        if not program.effects:
            return
        for i in rows:
            i = int(i)
            vector = matrix.row(i)
            changes = self._resolve_row(vector, program.effects)
            predicted = dict(vector)
            predicted.update(changes)
            bad = (classifier is not None
                   and classifier.safeness(predicted) < classifier.bad_below)
            if bad and not guard_exempt[i]:
                vetoed[i] = True
                continue
            for name, value in changes.items():
                matrix.columns[name][i] = value

    def apply_scalar(self, matrix: StateMatrix, chosen, guard_exempt=None):
        """Reference application; decision-identical to :meth:`apply`."""
        np = self.np
        n = matrix.n_rows
        vetoed = np.zeros(n, dtype=bool)
        if guard_exempt is None:
            guard_exempt = np.zeros(n, dtype=bool)
        for index, program in enumerate(self.programs):
            rows = np.nonzero(chosen == index)[0]
            if rows.size:
                self._apply_rows_scalar(matrix, rows, program, guard_exempt,
                                        vetoed)
        return vetoed, (chosen >= 0) & ~vetoed

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "programs": len(self.programs),
            "compiled_programs": self.compiled_programs(),
            "classifier_compiled": self._safeness is not None,
            "vector_evals": self.vector_evals,
            "scalar_evals": self.scalar_evals,
            "decisions": self.decisions,
            "fallback_reasons": dict(self.fallback_reasons),
        }
