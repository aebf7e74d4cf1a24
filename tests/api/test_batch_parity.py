"""`/batch` and `/evaluate` are one decision source with one admission.

The batch evaluator is compiled from the profile's own policy set, in the
engine's resolution order, and ``StateMatrix.from_rows`` refuses what
``StateVariable.validate`` refuses.  Two checks hold the endpoints to
each other:

* **Differential oracle** — a row ``/batch`` routes to policy *P* is sent
  to ``/evaluate`` on a fresh control plane with ``event.kind`` set to
  *P*'s pattern: the engine selects *P*, vetoes exactly when the batch
  did, and (with no veto) lands on the same state, float for float.
  Where the guard vetoes, ``/evaluate`` substitutes an alternative and
  ``/batch`` leaves the row unchanged; both are sec VI-B's options, so
  the post-state is compared only without a veto.
* **Refusal parity** — a bad row is refused by ``/batch`` with
  ``row {i}: `` followed by ``/evaluate``'s exact words.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.profile import default_profile
from repro.api.runtime import ManualClock
from repro.api.service import ControlPlane, ControlPlaneConfig
from repro.statespace.batch import numpy_available

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="vectorized path needs numpy")

POLICIES = default_profile().policies


def fresh_plane() -> ControlPlane:
    return ControlPlane(config=ControlPlaneConfig(workers=0,
                                                  monitor_interval=1.0),
                        clock=ManualClock())


def post_raw(path: str, body: str):
    plane = fresh_plane()
    try:
        return plane.handle_request("POST", path, body=body.encode("utf-8"))
    finally:
        plane.close()


def typed(state: dict) -> dict:
    """Float for float: the same names, types and bit patterns."""
    return {name: (type(value).__name__, repr(value))
            for name, value in state.items()}


def floats(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False)


# In-bound rows over the default profile's space; a missing name keeps
# its default on both endpoints.
row_strategy = st.fixed_dictionaries({}, optional={
    "speed": floats(0.0, 120.0),
    "heat": st.one_of(floats(0.0, 200.0), st.sampled_from([110.0, 150.0])),
    "battery": st.one_of(floats(0.0, 100.0),
                         st.sampled_from([5.0, 10.0, 15.0])),
    "civilians_near": st.integers(min_value=0, max_value=50),
    "weapon_armed": st.booleans(),
})


@settings(max_examples=250, deadline=None)
@given(row_strategy)
def test_a_batch_row_decides_like_evaluate_on_its_policys_event(row):
    batch = post_raw("/batch", json.dumps({"rows": [row]}))
    assert batch.status == 200, batch.payload
    chosen = batch.payload["chosen"][0]
    vetoed = batch.payload["vetoed"] == 1
    policy = POLICIES.get(chosen)

    evaluated = post_raw("/evaluate", json.dumps({
        "event": {"kind": policy.event_pattern}, "state": row}))
    assert evaluated.status == 200, evaluated.payload
    assert evaluated.payload["policy_id"] == chosen
    assert evaluated.payload["requested"] == policy.action.name
    assert bool(evaluated.payload["vetoes"]) == vetoed
    if not vetoed:
        assert typed(evaluated.payload["state"]) == typed(
            batch.payload["results"][0])


def test_the_compiled_order_is_the_engines_resolution_order():
    evaluator = default_profile().build_batch_evaluator()
    assert [program.name for program in evaluator.programs] == [
        policy.policy_id for policy in POLICIES.ordered()] == [
        "vent-on-overheat", "move-when-charged", "engage-when-clear",
        "hold-when-drained", "hold-near-civilians"]


@pytest.mark.parametrize("index", [0, 2])
@pytest.mark.parametrize("row", [
    '{"weapon_armed": "no"}',
    '{"weapon_armed": null}',
    '{"civilians_near": 2.7}',
    '{"heat": true}',
    '{"ghost": 1}',
    '{"speed": NaN}',
    '{"battery": NaN}',
    '{"heat": 500.0}',
    '{"speed": -1.0}',
    '{"civilians_near": 51}',
    '{"heat": 1e400}',
    '{"battery": -1e400}',
])
def test_batch_refuses_a_row_in_evaluates_words(row, index):
    evaluated = post_raw(
        "/evaluate", '{"event": {"kind": "mgmt.command.move"}, '
                     '"state": %s}' % row)
    assert (evaluated.status, evaluated.reason) == (400, "bad-request")
    rows = ["{}"] * index + [row, "{}"]
    batch = post_raw("/batch", '{"rows": [%s]}' % ", ".join(rows))
    assert (batch.status, batch.reason) == (400, "bad-request")
    assert batch.payload["detail"] == (
        f"row {index}: {evaluated.payload['detail']}")


def test_batch_stops_evaluating_once_every_row_is_chosen():
    """``hold-when-drained`` is a catch-all: ``hold-near-civilians``
    after it can never be chosen, so it is never evaluated."""
    batch = post_raw("/batch", json.dumps({"rows": [
        {"heat": 150.0}, {"battery": 5.0, "civilians_near": 2}]}))
    assert batch.status == 200
    assert batch.payload["chosen"] == ["vent-on-overheat",
                                       "hold-when-drained"]
    assert (batch.payload["vector_evals"],
            batch.payload["scalar_evals"]) == (4, 0)
