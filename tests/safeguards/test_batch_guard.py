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

from repro.core.actions import Action, Effect
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
from repro.core.policy import Policy
from repro.core.state import StateSpace, StateVariable
from repro.errors import ConfigurationError
from repro.safeguards.batch import (
    VECTOR_OPS,
    BatchPolicyEvaluator,
    compile_condition,
)
from repro.scenarios.sharded import (
    STRIKE_INDEX,
    ShardedFleetSpec,
    fleet_classifier,
    fleet_members,
    fleet_programs,
    fleet_space,
    initial_matrix,
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


def policy(name, condition, effects):
    """A policy for the evaluator to compile (a batch has no event, so
    the pattern is never consulted)."""
    return Policy.make("tick", condition, Action(name, effects=effects),
                       policy_id=name)


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
    policies = [
        policy("ok", "temp > 50", [Effect("temp", "add", -1.0)]),
        policy("member", Comparison("mode", "in", Literal(("idle",))),
               [Effect("temp", "set", 0.0)]),
        policy("intfx", "true", [Effect("count", "add", 1)]),
        policy("boolval", "true", [Effect("temp", "set", True)]),
        policy("ghostfx", "true", [Effect("ghost", "set", 1.0)]),
        policy("refused", "true", [Effect("mode", "set", "asleep")]),
        policy("sets", "true", [Effect("count", "set", 2.7),
                                Effect("armed", "set", True),
                                Effect("mode", "set", "busy")]),
    ]
    evaluator = BatchPolicyEvaluator(space(), policies)
    reasons = evaluator.fallback_reasons
    assert reasons["in-operator"] == 1
    # add on an int target, and a set validate refuses, stay scalar
    assert reasons["non-float-effect"] == 2
    assert reasons["non-numeric-effect"] == 1     # bool *value* stays scalar
    assert reasons["unknown-variable"] == 1
    # "ok" and "sets" fully vectorize ("member"'s effects do, its
    # condition does not)
    assert evaluator.compiled_programs() == 2
    # The scalar fallbacks still *run* (and are counted at runtime).
    m = matrix_from([{"temp": 60.0}])
    evaluator.condition_mask(1, m)
    assert evaluator.scalar_evals == 1
    evaluator.condition_mask(0, m)
    assert evaluator.vector_evals == 1


def test_apply_counts_one_scalar_eval_per_fallback_program():
    evaluator = BatchPolicyEvaluator(space(), [
        policy("ok", "temp > 50", [Effect("temp", "add", -1.0)]),
        policy("intfx", "temp > 20", [Effect("count", "add", 1)]),
        policy("refused", "true", [Effect("armed", "set", 1)]),
    ])
    m = matrix_from([{"temp": 60.0}, {"temp": 30.0}, {"temp": 25.0},
                     {"temp": 5.0}])
    chosen = evaluator.select(m)
    assert list(chosen) == [0, 1, 1, 2]
    before = evaluator.scalar_evals
    evaluator.apply(m, chosen)
    # two rows on "intfx" and one on "refused": one eval per program
    assert evaluator.scalar_evals - before == 2
    assert list(m.columns["count"]) == [0, 1, 1, 0]


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


# -- the BAD mask read off the band comparisons -------------------------------

BOUND_POOL = (-5.0, 0.0, 10.0, 25.0, 80.0, 100.0, 120.0, 150.0)

bound_strategy = st.one_of(
    st.none(), st.sampled_from(BOUND_POOL),
    st.floats(min_value=-10.0, max_value=160.0, allow_nan=False))

#: Bands with and without hard bounds, hard bounds on either side of the
#: safe ones, over float and int columns.
band_strategy = st.builds(
    ThresholdBand, st.sampled_from(("temp", "fuel", "load", "count")),
    bound_strategy, bound_strategy, bound_strategy, bound_strategy)

threshold_strategy = st.builds(
    ThresholdClassifier, st.lists(band_strategy, min_size=1, max_size=3))

box_strategy = st.builds(
    lambda good, bad: BoxClassifier(
        good=[BoxRegion.make("good", temp=good)],
        bad=[BoxRegion.make("bad", fuel=bad)]),
    st.sampled_from([(0.0, 80.0), (None, 100.0), (25.0, None)]),
    st.sampled_from([(None, 10.0), (120.0, None), (0.0, 25.0)]))

classifier_strategy = st.one_of(
    threshold_strategy, threshold_strategy, box_strategy,
    st.builds(lambda a, b: CompositeClassifier([a, b]),
              threshold_strategy, st.one_of(threshold_strategy, box_strategy)))

#: Values between the pool's bounds and past them.
value_strategy = st.one_of(
    st.sampled_from(BOUND_POOL),
    st.floats(min_value=-20.0, max_value=170.0, allow_nan=False),
    st.sampled_from((-np.inf, np.inf)))


def ulps(value, k):
    """``value`` and its ``k`` nearest floats on either side."""
    out = [value]
    below = above = value
    for _ in range(k):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [float(below), float(above)]
    return out


def edge_values(classifier, bad_below) -> tuple:
    """``(bounds, exact)``: every threshold band's bounds with their float
    neighbours, and the values where a hard side's ``q`` is exactly
    ``bad_below``."""
    bands = []
    for clf in getattr(classifier, "children", [classifier]):
        bands.extend(getattr(clf, "bands", []))
    bounds, exact = set(), set()
    for band in bands:
        for bound in (band.safe_low, band.safe_high, band.hard_low,
                      band.hard_high):
            if bound is not None:
                bounds.update(ulps(bound, 1))
        high, low = band.hard_high, band.hard_low
        if band.safe_high is not None and high is not None:
            width = high - band.safe_high
            exact.update(v for v in ulps(high - bad_below * width, 8)
                         if width and (high - v) / width == bad_below)
        if band.safe_low is not None and low is not None:
            width = band.safe_low - low
            exact.update(v for v in ulps(low + bad_below * width, 8)
                         if width and (v - low) / width == bad_below)
    return sorted(bounds), sorted(exact)


@settings(max_examples=300, deadline=None)
@given(classifier_strategy, st.sampled_from((0.0, 1e-9, 0.25, 1.0, 1.5)),
       st.data())
def test_compiled_bad_mask_is_the_score_below_bad_below(classifier,
                                                        bad_below, data):
    value = st.one_of(value_strategy, *[st.sampled_from(edges) for edges
                                        in edge_values(classifier, bad_below)
                                        if edges])
    rows = data.draw(st.lists(st.tuples(
        value, value, value,
        st.one_of(st.sampled_from((-5, 0, 10, 25, 80, 100, 120, 150)),
                  st.integers(min_value=-20, max_value=170))),
        min_size=1, max_size=16))
    # Set past the constructor, which refuses a bad_below above 1.
    classifier.bad_below = bad_below
    compiled = compile_safeness(classifier, space())
    n = len(rows)
    columns = {name: np.array([row[k] for row in rows],
                              dtype=np.int64 if name == "count" else np.float64)
               for k, name in enumerate(("temp", "fuel", "load", "count"))}
    with np.errstate(all="ignore"):    # infinities and near-equal bounds
        mask = compiled.bad_mask(columns, n)
        expected = compiled.safeness(columns, n) < bad_below
    assert mask.dtype == bool
    assert mask.tobytes() == expected.tobytes()


def test_a_band_scoring_exactly_bad_below_is_not_bad():
    """(120 - 115) / 20 and (4 - 2) / 8 are exactly 0.25: not below it."""
    classifier = ThresholdClassifier([
        ThresholdBand("temp", safe_high=100.0, hard_high=120.0),
        ThresholdBand("fuel", safe_low=10.0, hard_low=2.0)])
    compiled = compile_safeness(classifier, space())
    columns = {"temp": np.array([115.0, 115.5, 50.0, 50.0]),
               "fuel": np.array([50.0, 50.0, 4.0, 3.5])}
    expected = [False, True, False, True]
    assert list(compiled.safeness(columns, 4) < 0.25) == expected
    assert list(compiled.bad_mask(columns, 4)) == expected


def test_an_infinite_bound_is_refused():
    """``(inf - v) / (inf - 50)`` is NaN, which the scalar score's ``max``
    turns into 0 and the compiled score's ``np.maximum`` keeps, so the
    two would disagree about a BAD state; the band refuses the bound."""
    with pytest.raises(ConfigurationError, match="hard_high inf is not finite"):
        ThresholdBand("temp", safe_high=50.0, hard_high=np.inf)


NON_FINITE = (np.inf, -np.inf, np.nan)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("temp", "fuel", "load", "count")),
       st.lists(bound_strategy, min_size=4, max_size=4),
       st.lists(st.sampled_from(NON_FINITE), min_size=1, max_size=4),
       st.permutations(range(4)))
def test_a_non_finite_bound_is_always_refused(variable, bounds, bad, slots):
    for value, slot in zip(bad, slots):
        bounds[slot] = value
    with pytest.raises(ConfigurationError, match="is not finite"):
        ThresholdBand(variable, *bounds)


def test_a_band_whose_width_overflows_is_refused():
    """At -9e307, past a safe high of -1e308, the band's term is
    ``(1e308 + 9e307) / (1e308 + 1e308)``, ``inf / inf``: the scalar
    score's ``max`` turns the NaN into 0 (BAD), and the compiled
    comparison calls no NaN BAD.  The band is refused."""
    with pytest.raises(ConfigurationError,
                       match="hard_high - safe_high is inf, not finite"):
        ThresholdBand("temp", safe_high=-1e308, hard_high=1e308)
    with pytest.raises(ConfigurationError,
                       match="safe_low - hard_low is inf, not finite"):
        ThresholdBand("temp", safe_low=1e308, hard_low=-1e308)


#: Finite bounds and values out to the edge of the float range, where a
#: band's width or ``hard - value`` can overflow.
huge = st.one_of(
    st.floats(min_value=-1.7e308, max_value=1.7e308),
    st.sampled_from((-1.7e308, -1e308, -9e307, 0.0, 9e307, 1e308, 1.7e308)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.none(), huge), min_size=4, max_size=4),
       st.lists(huge, min_size=1, max_size=8))
def test_every_accepted_band_vetoes_as_the_scalar_score(bounds, values):
    try:
        band = ThresholdBand("x", *bounds)
    except ConfigurationError:
        return
    classifier = ThresholdClassifier([band])
    sp = StateSpace([StateVariable("x", "float", 0.0)])
    with np.errstate(all="ignore"):    # hard - value may overflow
        mask = compile_safeness(classifier, sp).bad_mask(
            {"x": np.array(values, dtype=np.float64)}, len(values))
    assert mask.tolist() == [classifier.is_bad({"x": v}) for v in values]


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
    lambda i, cond, effects: policy(f"p{i}", cond, effects),
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


@settings(max_examples=80, deadline=None)
@given(st.lists(program_strategy, min_size=1, max_size=6),
       st.lists(st.tuples(row_strategy, st.booleans()), min_size=1,
                max_size=12))
def test_select_stops_once_every_active_row_is_chosen(programs, cases):
    rows = [row for row, _ in cases]
    active = np.array([flag for _, flag in cases], dtype=bool)
    kept = active.copy()
    evaluator = BatchPolicyEvaluator(space(), programs)
    chosen = evaluator.select(matrix_from(rows), active=active)
    assert (active == kept).all()         # the caller's mask is not consumed
    assert list(chosen) == list(
        evaluator.select_scalar(matrix_from(rows), active=active))
    # Program k is evaluated only while some active row is unchosen
    # after programs 0..k-1.
    picked = chosen[active]
    if not picked.size:
        expected = 0
    elif (picked < 0).any():
        expected = len(programs)
    else:
        expected = int(picked.max()) + 1
    assert evaluator.vector_evals == expected


@pytest.mark.parametrize("count, dtype", [
    (1, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16),
    (32768, np.int32)])
def test_select_code_is_the_narrowest_signed_dtype(count, dtype):
    """The code holds ``-1 ... count - 1`` and, before its final ``-1``,
    ``count`` itself."""
    evaluator = BatchPolicyEvaluator(space(),
                                     [policy("never", "false", [])] * count)
    chosen = evaluator.select(matrix_from([{}]))
    assert chosen.dtype == dtype and list(chosen) == [-1]


def test_select_widens_past_127_programs():
    """Program ``k`` matches ``fuel == k / 2``: rows pick indices on both
    sides of int8's limit, one row matches nothing and one is inactive."""
    programs = [policy(f"p{k}", f"fuel == {k / 2}", []) for k in range(200)]
    evaluator = BatchPolicyEvaluator(space(), programs)
    fuels = [0.0, 63.5, 64.0, 64.5, 99.5, 0.25, 70.0]
    active = np.array([True] * 6 + [False])
    matrix = matrix_from([{"fuel": fuel} for fuel in fuels])
    chosen = evaluator.select(matrix, active=active)
    expected = [0, 127, 128, 129, 199, -1, -1]
    assert list(chosen) == expected
    assert list(evaluator.select_scalar(matrix, active=active)) == expected
    assert chosen.dtype == np.int16
    # A ControlPlane-style lookup: the trailing None is what -1 picks.
    ids = np.array([p.policy_id for p in programs] + [None], dtype=object)
    assert ids[chosen].tolist() == ["p0", "p127", "p128", "p129", "p199",
                                    None, None]
    vetoed, executed = evaluator.apply(matrix, chosen)
    assert list(executed) == [True] * 5 + [False] * 2 and not vetoed.any()


def test_fleet_tick_never_evaluates_the_worms_payload():
    """``strike`` (``false``) follows the catch-all ``idle`` (``true``)
    in the fleet's programs, so a tick evaluates five conditions."""
    spec = ShardedFleetSpec(n_devices=64)
    programs = fleet_programs(spec)
    assert [p.policy_id for p in programs][-2:] == ["idle", "strike"]
    assert STRIKE_INDEX == len(programs) - 1
    evaluator = BatchPolicyEvaluator(fleet_space(), programs,
                                     classifier=fleet_classifier())
    matrix = initial_matrix(spec, fleet_space(), fleet_members(spec))
    chosen = evaluator.select(matrix, active=matrix.columns["alive"])
    assert (chosen >= 0).all() and (chosen != STRIKE_INDEX).all()
    assert evaluator.vector_evals == 5


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


def test_clamp_keeps_signed_zero_like_the_scalar_form():
    # 0.0 * -1.0 is -0.0; the scalar ``new < low`` test leaves it alone,
    # so the vector clamp must too.
    m = matrix_from([{"temp": 0.0}])
    clamped = m.clamp("temp", np.array([-0.0, 0.0]))
    assert clamped.tobytes() == np.array([-0.0, 0.0]).tobytes()
    evaluator = BatchPolicyEvaluator(
        space(), [policy("flip", "true", [Effect("temp", "scale", -1.0)])])
    vector, scalar = matrix_from([{"temp": 0.0}]), matrix_from([{"temp": 0.0}])
    chosen = evaluator.select(vector)
    evaluator.apply(vector, chosen)
    evaluator.apply_scalar(scalar, chosen)
    assert vector.columns["temp"].tobytes() == scalar.columns["temp"].tobytes()


# -- per-program row subsets against the full-width apply ----------------------


def full_width_apply(evaluator, matrix, chosen, guard_exempt=None):
    """The full-width ``apply`` kept as a reference: every program predicts,
    classifies and writes back all ``n`` rows, masked by ``np.where``."""
    n = matrix.n_rows
    vetoed = np.zeros(n, dtype=bool)
    executed = np.zeros(n, dtype=bool)
    if guard_exempt is None:
        guard_exempt = np.zeros(n, dtype=bool)
    for index, program in enumerate(evaluator.programs):
        rows = chosen == index
        if not rows.any():
            continue
        if evaluator._effect_plans[index] is None:
            evaluator._apply_rows_scalar(matrix, np.nonzero(rows)[0], program,
                                         guard_exempt, vetoed)
            executed = executed | (rows & ~vetoed)
            continue
        if not program.effects:
            executed = executed | rows
            continue
        work = {}
        for effect in program.effects:
            name = effect.variable
            col = work.get(name)
            if col is None:
                col = matrix.columns[name].copy()
            if effect.op == "set":
                value = effect.value
                if matrix.space.variable(name).kind != "float":
                    # int, bool and str columns take the value the scalar
                    # twin resolves (clamped, truncated on an int column)
                    value = evaluator._resolve_row({}, [effect])[name]
                col = np.full(n, value, dtype=matrix.columns[name].dtype)
            elif effect.op == "add":
                col = col + effect.value
            else:
                col = col * effect.value
            work[name] = col
        predicted = dict(matrix.columns)
        for name, col in work.items():
            if matrix.space.variable(name).kind == "float":
                col = matrix.clamp(name, col)
            predicted[name] = col
        bad = evaluator._bad_rows(predicted, n)
        veto_rows = rows & bad & ~guard_exempt
        apply_rows = rows & ~veto_rows
        vetoed = vetoed | veto_rows
        executed = executed | apply_rows
        for name in {effect.variable for effect in program.effects}:
            col = matrix.columns[name]
            col[:] = np.where(apply_rows, predicted[name], col)
    return vetoed, executed


def _threshold_bands():
    return [ThresholdBand("temp", safe_high=80.0, hard_high=120.0),
            ThresholdBand("fuel", safe_low=10.0, hard_low=0.0)]


def make_classifier(kind):
    if kind == "threshold":
        return ThresholdClassifier(_threshold_bands())
    if kind == "function":
        # Same scores as the threshold classifier, but opaque: the
        # evaluator cannot compile it and classifies row by row.
        return FunctionClassifier(ThresholdClassifier(_threshold_bands()).safeness)
    return None


subset_program_strategy = st.one_of(
    program_strategy,
    st.builds(lambda cond: policy("noop", cond, []),
              st.one_of(condition_strategy, st.just("true"))),
    st.builds(lambda cond, effects: policy("nonfloat", cond, effects),
              st.one_of(condition_strategy, st.just("true")),
              st.lists(st.sampled_from([
                  Effect("count", "add", 1),        # stays scalar
                  Effect("count", "set", 7),
                  Effect("count", "set", 2.7),      # truncated to 2
                  Effect("count", "set", -3.5),     # clamped to 0
                  Effect("count", "set", 150.9),    # clamped to 100
                  Effect("armed", "set", True),
                  Effect("armed", "set", False),
                  Effect("mode", "set", "busy"),
                  Effect("mode", "set", "asleep"),  # validate refuses
                  Effect("armed", "set", 1),        # validate refuses
                  Effect("temp", "add", 5.0),
              ]), min_size=1, max_size=3)),
)

#: Drives temp toward the classifier's BAD band.  Appended as a
#: catch-all ("true") program, it makes vetoes — and the guard-exempt
#: rows that override them — common rather than rare.
heat_program_strategy = st.builds(
    lambda op, value: policy("heat", "true", [Effect("temp", op, value)]),
    st.sampled_from(["set", "add"]),
    st.floats(min_value=60.0, max_value=150.0))

subset_row_strategy = st.fixed_dictionaries({
    **{name: st.floats(min_value=BOUNDS[name][0], max_value=BOUNDS[name][1],
                       allow_nan=False) for name in VARS},
    "count": st.integers(min_value=0, max_value=100),
    "armed": st.booleans(),
    "mode": st.sampled_from(["idle", "busy"]),
})


@settings(max_examples=80, deadline=None)
@given(st.lists(subset_program_strategy, min_size=0, max_size=5),
       st.one_of(st.none(), heat_program_strategy),
       st.lists(st.tuples(subset_row_strategy, st.booleans(), st.booleans()),
                min_size=1, max_size=16),
       st.sampled_from(["none", "threshold", "function"]))
def test_subset_apply_matches_full_width_and_scalar(programs, catch_all,
                                                    cases, kind):
    if catch_all is not None:
        programs = programs + [catch_all]
    rows = [row for row, _, _ in cases]
    active = np.array([flag for _, flag, _ in cases], dtype=bool)
    exempt = np.array([flag for _, _, flag in cases], dtype=bool)
    sp = space()

    results = {}
    for path in ("subset", "full", "scalar"):
        evaluator = BatchPolicyEvaluator(sp, programs,
                                         classifier=make_classifier(kind))
        matrix = matrix_from(rows)
        chosen = evaluator.select(matrix, active=active)
        assert (chosen[~active] == -1).all()
        if path == "subset":
            vetoed, executed = evaluator.apply(matrix, chosen, exempt)
        elif path == "full":
            vetoed, executed = full_width_apply(evaluator, matrix, chosen,
                                                exempt)
        else:
            vetoed, executed = evaluator.apply_scalar(matrix, chosen, exempt)
        safeness = evaluator._safeness
        results[path] = {
            "chosen": chosen.tobytes(),
            "vetoed": vetoed.tobytes(),
            "executed": executed.tobytes(),
            "columns": {name: list(col) if col.dtype == object
                        else col.tobytes()
                        for name, col in matrix.columns.items()},
            "counters": (evaluator.vector_evals, evaluator.scalar_evals,
                         None if safeness is None else safeness.calls),
        }

    subset, full, scalar = results["subset"], results["full"], results["scalar"]
    for key in ("chosen", "vetoed", "executed", "columns"):
        assert subset[key] == full[key], key
        assert subset[key] == scalar[key], key
    assert subset["counters"] == full["counters"]


@settings(max_examples=80, deadline=None)
@given(st.lists(subset_program_strategy, min_size=0, max_size=5),
       st.one_of(st.none(), heat_program_strategy),
       st.lists(st.tuples(subset_row_strategy, st.booleans(), st.booleans()),
                min_size=1, max_size=16),
       st.sampled_from(["none", "threshold", "function"]))
def test_apply_derives_executed_from_the_code(programs, catch_all, cases,
                                              kind):
    """Every row that chose a program is vetoed or executed, and ``apply``
    lands on the same bytes from ``select``'s narrow code as from
    ``select_scalar``'s int64 array."""
    if catch_all is not None:
        programs = programs + [catch_all]
    rows = [row for row, _, _ in cases]
    active = np.array([flag for _, flag, _ in cases], dtype=bool)
    exempt = np.array([flag for _, _, flag in cases], dtype=bool)
    evaluator = BatchPolicyEvaluator(space(), programs,
                                     classifier=make_classifier(kind))
    narrow, wide, full = (matrix_from(rows) for _ in range(3))
    code = evaluator.select(narrow, active=active)
    index = evaluator.select_scalar(wide, active=active)
    assert code.dtype == np.int8 and index.dtype == np.int64
    assert code.tolist() == index.tolist()
    by_code = evaluator.apply(narrow, code, exempt)
    by_index = evaluator.apply(wide, index, exempt)
    # The full-width reference sets ``executed`` program by program.
    reference = full_width_apply(evaluator, full, index, exempt)
    for vetoed, executed in (by_code, by_index, reference):
        assert executed.tobytes() == ((index >= 0) & ~vetoed).tobytes()
    for mask in range(2):
        assert by_code[mask].tobytes() == by_index[mask].tobytes()
        assert by_code[mask].tobytes() == reference[mask].tobytes()
    for name, col in narrow.columns.items():
        other = wide.columns[name]
        if col.dtype == object:
            assert list(col) == list(other), name
        else:
            assert col.tobytes() == other.tobytes(), name


def test_state_matrix_from_rows_names_the_bad_cell():
    with pytest.raises(ValueError, match=r"^row 1: temp: "):
        matrix_from([{"temp": 1.0}, {"temp": "hot"}])
    with pytest.raises(ValueError, match=r"^row 0: count: "):
        matrix_from([{"count": None}])
    with pytest.raises(ValueError, match=r"^row 2: count: "):
        matrix_from([{}, {}, {"count": float("inf")}])


def test_evaluator_compiles_each_policy_in_the_given_order():
    policies = [policy("cool", "temp > 70", [Effect("temp", "add", -8.0)]),
                policy("idle", "true", [])]
    evaluator = BatchPolicyEvaluator(space(), policies)
    assert [p.name for p in evaluator.programs] == ["cool", "idle"]
    for compiled, source in zip(evaluator.programs, policies):
        assert compiled.condition is source.condition
        assert compiled.effects == source.action.effects


@pytest.mark.parametrize("rows, detail", [
    ([{}, {"mode": "asleep"}], "row 1: mode: 'asleep' not in allowed set"),
    ([{"mode": 3}], "row 0: mode: expected str, got int"),
    ([{"armed": 1}], "row 0: armed: expected bool, got int"),
    ([{"count": True}], "row 0: count: bool given for int variable"),
    ([{"count": 2 ** 70}], "row 0: count: 1180591620717411303424 above bound 100"),
    ([{}, {"temp": 1.0, "ghost": 2}], "row 1: state variable 'ghost' not declared"),
    ([{}, [("temp", 1.0)]], "row 1: expected a dict, got list"),
    # The lowest row wins; within it an undeclared name, then the first
    # bad variable in declaration order.
    ([{}, {"fuel": -1.0, "temp": "x"}, {"count": -1}],
     "row 1: temp: expected float, got str"),
    ([{"count": 5}, {"temp": 1.0, "ghost": 2, "fuel": None}, {5: 1}],
     "row 1: state variable 'ghost' not declared"),
])
def test_from_rows_refuses_what_validate_refuses(rows, detail):
    with pytest.raises(ValueError) as excinfo:
        matrix_from(rows)
    assert str(excinfo.value) == detail


def test_from_rows_refuses_infinity_where_no_bound_would():
    unbounded = StateSpace([StateVariable("x", "float", 0.0)])
    with pytest.raises(ValueError, match=r"^row 1: x: -inf is not finite$"):
        StateMatrix.from_rows(unbounded, [{"x": 1.0}, {"x": float("-inf")}])


def test_from_rows_admits_validated_subclasses():
    m = matrix_from([{"temp": np.float64(12.5), "count": 3}])
    assert m.row(0)["temp"] == 12.5 and m.row(0)["count"] == 3


def test_from_rows_asks_validate_only_about_the_bad_cell(monkeypatch):
    calls = []
    validate = StateVariable.validate

    def counting(var, value):
        calls.append((var.name, value))
        return validate(var, value)

    sp = space()        # declaring the space validates each default
    monkeypatch.setattr(StateVariable, "validate", counting)
    rows = [{"temp": 40.0, "fuel": 10.0 + i % 50, "load": 0.5, "count": i % 90,
             "armed": bool(i % 2), "mode": "busy"} for i in range(512)]
    StateMatrix.from_rows(sp, rows)
    assert calls == []
    rows[300] = dict(rows[300], fuel=140.0)
    with pytest.raises(ValueError, match=r"^row 300: fuel: 140.0 above bound"):
        StateMatrix.from_rows(sp, rows)
    assert calls == [("fuel", 140.0)]
