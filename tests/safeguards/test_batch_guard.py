"""The F4 vectorizer: grammar coverage, visible fallback, decision identity.

Two properties carry the tentpole:

* **Total coverage with visible fallback** — every guard-grammar
  construct either compiles to the vectorized form or raises
  :class:`~repro.statespace.batch.BatchCompileError` with a stable
  reason slug that the evaluator *counts*; nothing silently demotes.
* **Decision identity** — over a randomized policy corpus, the
  vectorized select/apply path picks the same programs, vetoes the same
  rows, and lands on the same state as the scalar twin built on the real
  ``Condition.evaluate`` / ``classifier.safeness`` / ``Effect.apply_to``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import Effect
from repro.core.conditions import (
    AllOf,
    AnyOf,
    Comparison,
    EventFieldIs,
    EventKindIs,
    Literal,
    Not,
    TrueCondition,
    parse_condition,
)
from repro.core.state import StateSpace, StateVariable
from repro.safeguards.batch import (
    VECTOR_OPS,
    BatchPolicyEvaluator,
    BatchProgram,
    compile_condition,
)
from repro.statespace.batch import (
    BatchCompileError,
    StateMatrix,
    compile_safeness,
)
from repro.statespace.classifier import (
    BoxClassifier,
    BoxRegion,
    CompositeClassifier,
    FunctionClassifier,
    ThresholdBand,
    ThresholdClassifier,
)


def space() -> StateSpace:
    return StateSpace([
        StateVariable("temp", "float", 20.0, 0.0, 150.0),
        StateVariable("fuel", "float", 50.0, 0.0, 100.0),
        StateVariable("load", "float", 0.5, 0.0, 1.0),
        StateVariable("count", "int", 0, 0, 100),
        StateVariable("armed", "bool", False),
        StateVariable("mode", "str", "idle", allowed={"idle", "busy"}),
    ])


def matrix_from(rows):
    return StateMatrix.from_rows(space(), rows)


# -- every grammar construct vectorizes or fails with a counted reason ---------


def test_every_comparator_in_the_table_vectorizes():
    sp = space()
    m = matrix_from([{"temp": 10.0}, {"temp": 20.0}, {"temp": 30.0}])
    for op in VECTOR_OPS:
        fn = compile_condition(parse_condition(f"temp {op} 20"), sp)
        mask = fn(m.columns, m.n_rows)
        expected = [eval(f"t {op} 20") for t in (10.0, 20.0, 30.0)]
        assert list(mask) == expected, op


@pytest.mark.parametrize("condition, reason", [
    (Comparison("mode", "in", Literal(("idle", "busy"))), "in-operator"),
    (parse_condition("event.level > 5"), "event-reference"),
    (EventKindIs("attack"), "event-dependent"),
    (EventFieldIs("level", ">", 5), "event-dependent"),
    (Comparison("ghost", ">", Literal(1)), "unknown-variable"),
])
def test_inexpressible_constructs_raise_stable_reasons(condition, reason):
    with pytest.raises(BatchCompileError) as excinfo:
        compile_condition(condition, space())
    assert excinfo.value.reason == reason


def test_composite_and_literal_constructs_vectorize():
    sp = space()
    m = matrix_from([{"temp": 80.0, "fuel": 5.0, "armed": True},
                     {"temp": 10.0, "fuel": 50.0, "armed": False}])
    cases = [
        (TrueCondition(), [True, True]),
        (Not(parse_condition("temp > 50")), [False, True]),
        (AllOf([parse_condition("temp > 50"),
                parse_condition("fuel < 10")]), [True, False]),
        (AnyOf([parse_condition("temp > 50"),
                parse_condition("fuel > 40")]), [True, True]),
        (parse_condition("armed"), [True, False]),     # bare bool variable
        (Comparison(Literal(3), "<", Literal(5)), [True, True]),  # const
        (parse_condition("temp > fuel"), [True, False]),  # var vs var
        (parse_condition("false"), [False, False]),
    ]
    for condition, expected in cases:
        fn = compile_condition(condition, sp)
        assert list(fn(m.columns, m.n_rows)) == expected, condition


def test_evaluator_counts_condition_and_effect_fallbacks():
    programs = [
        BatchProgram("ok", "temp > 50", [Effect("temp", "add", -1.0)]),
        BatchProgram("member", Comparison("mode", "in", Literal(("idle",))),
                     [Effect("temp", "set", 0.0)]),
        BatchProgram("intfx", "true", [Effect("count", "add", 1)]),
        BatchProgram("boolval", "true", [Effect("temp", "set", True)]),
        BatchProgram("ghostfx", "true", [Effect("ghost", "set", 1.0)]),
    ]
    evaluator = BatchPolicyEvaluator(space(), programs)
    reasons = evaluator.fallback_reasons
    assert reasons["in-operator"] == 1
    assert reasons["non-float-effect"] == 1       # int target stays scalar
    assert reasons["non-numeric-effect"] == 1     # bool *value* stays scalar
    assert reasons["unknown-variable"] == 1
    assert evaluator.compiled_programs() == 1     # only "ok" fully vectorizes
    # The scalar fallbacks still *run* (and are counted at runtime).
    m = matrix_from([{"temp": 60.0}])
    evaluator.condition_mask(1, m)
    assert evaluator.scalar_evals == 1
    evaluator.condition_mask(0, m)
    assert evaluator.vector_evals == 1


def test_classifier_compile_coverage_and_fallback():
    sp = space()
    threshold = ThresholdClassifier([
        ThresholdBand("temp", safe_high=80.0, hard_high=100.0)])
    box = BoxClassifier(
        good=[BoxRegion.make("cool", temp=(0.0, 50.0))],
        bad=[BoxRegion.make("fire", temp=(120.0, None))])
    composite = CompositeClassifier([threshold, box])
    for clf in (threshold, box, composite):
        compiled = compile_safeness(clf, sp)
        m = matrix_from([{"temp": t} for t in (10.0, 90.0, 130.0)])
        scores = compiled.safeness(m.columns, m.n_rows)
        for i, vector in enumerate(m.rows()):
            assert float(scores[i]) == clf.safeness(vector)
    with pytest.raises(BatchCompileError) as excinfo:
        compile_safeness(FunctionClassifier(lambda v: 1.0), sp)
    assert excinfo.value.reason == "opaque-function"

    class Custom(ThresholdClassifier):
        def safeness(self, vector):  # overrides the semantics
            return 0.0

    with pytest.raises(BatchCompileError) as excinfo:
        compile_safeness(Custom([ThresholdBand("temp", safe_high=1.0)]), sp)
    assert excinfo.value.reason == "unsupported-classifier"


# -- decision identity over a randomized policy corpus -------------------------

VARS = ("temp", "fuel", "load")
BOUNDS = {"temp": (0.0, 150.0), "fuel": (0.0, 100.0), "load": (0.0, 1.0)}

condition_strategy = st.builds(
    lambda v, op, frac: f"{v} {op} {BOUNDS[v][0] + frac * (BOUNDS[v][1] - BOUNDS[v][0]):.3f}",
    st.sampled_from(VARS), st.sampled_from(list(VECTOR_OPS)),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False))

effect_strategy = st.builds(
    Effect,
    st.sampled_from(VARS),
    st.sampled_from(["set", "add", "scale"]),
    st.floats(min_value=-40.0, max_value=40.0, allow_nan=False,
              allow_infinity=False))

program_strategy = st.builds(
    lambda i, cond, effects: BatchProgram(f"p{i}", cond, effects),
    st.integers(min_value=0, max_value=999),
    st.one_of(condition_strategy, st.just("true"),
              st.builds(lambda a, b: f"{a} and {b}", condition_strategy,
                        condition_strategy),
              st.builds(lambda a, b: f"{a} or not ({b})", condition_strategy,
                        condition_strategy)),
    st.lists(effect_strategy, min_size=0, max_size=3))

row_strategy = st.fixed_dictionaries({
    name: st.floats(min_value=BOUNDS[name][0], max_value=BOUNDS[name][1],
                    allow_nan=False)
    for name in VARS
})


@settings(max_examples=60, deadline=None)
@given(st.lists(program_strategy, min_size=1, max_size=5),
       st.lists(row_strategy, min_size=1, max_size=12),
       st.booleans())
def test_vector_and_scalar_paths_are_decision_identical(programs, rows,
                                                        with_classifier):
    sp = space()
    classifier = ThresholdClassifier([
        ThresholdBand("temp", safe_high=80.0, hard_high=120.0),
        ThresholdBand("fuel", safe_low=10.0, hard_low=0.0),
    ]) if with_classifier else None

    vec_eval = BatchPolicyEvaluator(sp, programs, classifier=classifier)
    m_vec = matrix_from(rows)
    m_sca = matrix_from(rows)

    chosen_vec = vec_eval.select(m_vec)
    chosen_sca = vec_eval.select_scalar(m_sca)
    assert list(chosen_vec) == list(chosen_sca)

    vetoed_vec, executed_vec = vec_eval.apply(m_vec, chosen_vec)
    vetoed_sca, executed_sca = vec_eval.apply_scalar(m_sca, chosen_sca)
    assert list(vetoed_vec) == list(vetoed_sca)
    assert list(executed_vec) == list(executed_sca)
    for name in VARS:
        assert list(m_vec.columns[name]) == list(m_sca.columns[name]), name


@settings(max_examples=40, deadline=None)
@given(st.lists(row_strategy, min_size=1, max_size=16))
def test_compiled_safeness_is_bit_identical_to_scalar(rows):
    classifier = ThresholdClassifier([
        ThresholdBand("temp", safe_high=80.0, hard_high=120.0),
        ThresholdBand("fuel", safe_low=10.0, hard_low=0.0),
        ThresholdBand("load", safe_high=0.9, hard_high=1.0),
    ])
    compiled = compile_safeness(classifier, space())
    m = matrix_from(rows)
    scores = compiled.safeness(m.columns, m.n_rows)
    for i, vector in enumerate(m.rows()):
        assert float(scores[i]) == classifier.safeness(vector)


# -- StateMatrix mechanics -----------------------------------------------------


def test_state_matrix_round_trip_and_clamp():
    m = matrix_from([{"temp": 40.0, "count": 3, "armed": True,
                      "mode": "busy"}])
    row = m.row(0)
    assert row["temp"] == 40.0 and isinstance(row["temp"], float)
    assert row["count"] == 3 and isinstance(row["count"], int)
    assert row["armed"] is True
    assert row["mode"] == "busy"
    clamped = m.clamp("temp", np.array([-5.0, 200.0, 50.0]))
    assert list(clamped) == [0.0, 150.0, 50.0]
    with pytest.raises(Exception):
        m.column("ghost")
