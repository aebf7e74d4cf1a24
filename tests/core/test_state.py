"""Unit tests for state variables, spaces, and device state."""

import pytest
from hypothesis import given, strategies as st

from repro.core.state import DeviceState, StateSpace, StateVariable, distance
from repro.errors import StateBoundsError, UnknownVariableError


class TestStateVariable:
    def test_validate_kind(self):
        var = StateVariable("x", "float", 0.0)
        var.validate(1.5)
        with pytest.raises(StateBoundsError):
            var.validate("nope")

    def test_bool_is_not_a_number(self):
        var = StateVariable("x", "float", 0.0)
        with pytest.raises(StateBoundsError):
            var.validate(True)

    def test_bounds_enforced(self):
        var = StateVariable("x", "float", 5.0, low=0.0, high=10.0)
        with pytest.raises(StateBoundsError):
            var.validate(-1.0)
        with pytest.raises(StateBoundsError):
            var.validate(11.0)

    @pytest.mark.parametrize("low, high", [(0.0, 10.0), (None, None)])
    def test_nan_is_rejected_with_or_without_bounds(self, low, high):
        var = StateVariable("x", "float", 5.0, low=low, high=high)
        with pytest.raises(StateBoundsError, match="x: NaN"):
            var.validate(float("nan"))
        state = DeviceState(StateSpace([var]))
        with pytest.raises(StateBoundsError):
            state.apply({"x": float("nan")})
        assert state.get("x") == 5.0

    @pytest.mark.parametrize("low, high, value, words", [
        (None, None, float("inf"), "^x: inf is not finite$"),
        (None, None, float("-inf"), "^x: -inf is not finite$"),
        (0.0, None, float("inf"), "^x: inf is not finite$"),
        (0.0, None, float("-inf"), "^x: -inf below bound 0.0$"),
        (None, 10.0, float("inf"), "^x: inf above bound 10.0$"),
    ])
    def test_infinity_is_rejected_past_no_bound(self, low, high, value,
                                                words):
        var = StateVariable("x", "float", 5.0, low=low, high=high)
        with pytest.raises(StateBoundsError, match=words):
            var.validate(value)
        assert StateVariable("y", "float", 0.0).validate(-1e308) == -1e308

    def test_default_must_satisfy_bounds(self):
        with pytest.raises(StateBoundsError):
            StateVariable("x", "float", 20.0, low=0.0, high=10.0)

    def test_allowed_set_for_strings(self):
        var = StateVariable("mode", "str", "a", allowed={"a", "b"})
        var.validate("b")
        with pytest.raises(StateBoundsError):
            var.validate("c")

    def test_clamp(self):
        var = StateVariable("x", "float", 5.0, low=0.0, high=10.0)
        assert var.clamp(-3.0) == 0.0
        assert var.clamp(15.0) == 10.0
        assert var.clamp(5.0) == 5.0

    def test_clamp_int_kind_returns_int(self):
        var = StateVariable("n", "int", 1, low=0, high=5)
        assert var.clamp(7.0) == 5
        assert isinstance(var.clamp(7.0), int)

    def test_unknown_kind_rejected(self):
        with pytest.raises(StateBoundsError):
            StateVariable("x", "complex", 0.0)


class TestStateSpace:
    def test_duplicate_names_rejected(self):
        with pytest.raises(StateBoundsError):
            StateSpace([StateVariable("x", "float", 0.0),
                        StateVariable("x", "float", 1.0)])

    def test_unknown_variable_raises(self):
        space = StateSpace([StateVariable("x", "float", 0.0)])
        with pytest.raises(UnknownVariableError):
            space.variable("y")

    def test_numeric_names_excludes_str_and_bool(self):
        space = StateSpace([
            StateVariable("x", "float", 0.0),
            StateVariable("n", "int", 0),
            StateVariable("flag", "bool", False),
            StateVariable("mode", "str", "a", allowed={"a"}),
        ])
        assert space.numeric_names() == ["x", "n"]

    def test_merged_spaces(self):
        a = StateSpace([StateVariable("x", "float", 0.0)])
        b = StateSpace([StateVariable("y", "float", 0.0)])
        merged = a.merged(b)
        assert set(merged.names()) == {"x", "y"}

    def test_merged_conflict_raises(self):
        a = StateSpace([StateVariable("x", "float", 0.0)])
        b = StateSpace([StateVariable("x", "float", 1.0)])
        with pytest.raises(StateBoundsError):
            a.merged(b)


class TestDeviceState:
    def space(self):
        return StateSpace([
            StateVariable("x", "float", 0.0, 0.0, 100.0),
            StateVariable("mode", "str", "idle", allowed={"idle", "busy"}),
        ])

    def test_defaults_and_initial(self):
        state = DeviceState(self.space(), {"x": 5.0})
        assert state.get("x") == 5.0
        assert state["mode"] == "idle"

    def test_apply_records_transition(self):
        state = DeviceState(self.space())
        transition = state.apply({"x": 3.0, "mode": "busy"}, time=2.0,
                                 cause="test")
        assert transition.changed == {"x": (0.0, 3.0), "mode": ("idle", "busy")}
        assert state.version == 1
        assert len(state.history()) == 1

    def test_noop_apply_does_not_bump_version(self):
        state = DeviceState(self.space())
        state.apply({"x": 0.0})
        assert state.version == 0
        assert state.history() == []

    def test_predict_does_not_mutate(self):
        state = DeviceState(self.space())
        predicted = state.predict({"x": 9.0})
        assert predicted["x"] == 9.0
        assert state.get("x") == 0.0

    def test_snapshot_is_a_copy(self):
        state = DeviceState(self.space())
        snapshot = state.snapshot()
        snapshot["x"] = 99.0
        assert state.get("x") == 0.0

    def test_bounds_enforced_on_set(self):
        state = DeviceState(self.space())
        with pytest.raises(StateBoundsError):
            state.set("x", 200.0)

    def test_clamp_changes_saturates(self):
        state = DeviceState(self.space())
        clamped = state.clamp_changes({"x": 500.0, "mode": "busy"})
        assert clamped == {"x": 100.0, "mode": "busy"}

    def test_history_limit(self):
        state = DeviceState(self.space(), history_limit=3)
        for index in range(10):
            state.set("x", float(index + 1))
        assert len(state.history()) == 3

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=100.0))
    def test_predict_then_apply_agree(self, first, second):
        state = DeviceState(self.space(), {"x": first})
        predicted = state.predict({"x": second})
        state.apply({"x": second})
        assert state.snapshot() == predicted


def test_distance_euclidean():
    assert distance({"x": 0.0, "y": 0.0}, {"x": 3.0, "y": 4.0}) == 5.0


def test_distance_ignores_non_numeric_and_missing():
    a = {"x": 1.0, "mode": "a", "only_a": 2.0}
    b = {"x": 4.0, "mode": "b"}
    assert distance(a, b) == 3.0
