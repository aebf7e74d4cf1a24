"""Scenario-level invariants that must hold across seeds."""

import contextlib
import io
import os
import re

import pytest

from repro.scenarios.harness import SafeguardConfig
from repro.scenarios.peacekeeping import PeacekeepingScenario


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_preaction_zero_direct_harm_invariant(seed):
    """With the pre-action check on (and the harm model's sensor range
    covering the blast radius), direct harm is impossible at ANY seed —
    the sec VI-A guarantee, not a statistical tendency."""
    scenario = PeacekeepingScenario(
        seed=seed, config=SafeguardConfig.only(preaction=True),
        n_civilians=40, strike_interval=5.0,
    )
    result = scenario.run(until=150.0)
    assert result["harm_direct"] == 0


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_obligations_leave_no_open_hazards(seed):
    scenario = PeacekeepingScenario(
        seed=seed, config=SafeguardConfig.only(obligations=True),
        dig_interval=4.0,
    )
    result = scenario.run(until=150.0)
    assert result["open_hazards"] == 0


README = os.path.join(os.path.dirname(__file__), "..", "..", "README.md")


def test_quickstart_snippet_from_readme():
    """The README quickstart must keep working verbatim: the fenced
    python block under ``## Quickstart`` runs as written and prints a
    harm count of 0 last."""
    with open(README, encoding="utf-8") as handle:
        readme = handle.read()
    match = re.search(r"^## Quickstart\n.*?^```python\n(.*?)^```", readme,
                      re.DOTALL | re.MULTILINE)
    assert match, "README.md has no python block under ## Quickstart"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(match.group(1), "README.md:Quickstart", "exec"), {})
    assert out.getvalue().splitlines()[-1] == "0"
