"""Unit tests for the experiment matrix runner."""

import json
import os

from repro.scenarios.harness import SafeguardConfig, run_matrix


def fake_run(config: SafeguardConfig, seed: int) -> dict:
    return {
        "harm": 0 if config.preaction else seed,
        "label": config.label(),
        "seed": seed,
    }


def test_matrix_aggregates_per_arm():
    arms = [("baseline", SafeguardConfig.none()),
            ("guarded", SafeguardConfig.only(preaction=True))]
    aggregated = run_matrix(arms, fake_run, seeds=[1, 2, 3])
    assert aggregated["baseline"]["_n"] == 3
    assert aggregated["baseline"]["harm"][0] == 2.0   # mean of 1,2,3
    assert aggregated["guarded"]["harm"] == (0.0, 0.0)
    assert "label" not in aggregated["baseline"]      # non-numeric dropped


def test_matrix_json_export(tmp_path):
    arms = [("baseline", SafeguardConfig.none())]
    export = os.path.join(tmp_path, "results.json")
    run_matrix(arms, fake_run, seeds=[7], export_path=export)
    with open(export, encoding="utf-8") as handle:
        data = json.load(handle)
    assert data["seeds"] == [7]
    assert data["results"]["baseline"][0]["seed"] == 7


def test_matrix_with_real_scenario():
    from repro.scenarios.peacekeeping import PeacekeepingScenario

    def run(config, seed):
        return PeacekeepingScenario(seed=seed, config=config,
                                    n_drones_per_org=1,
                                    n_mules_per_org=1).run(until=30.0)

    aggregated = run_matrix(
        [("baseline", SafeguardConfig.none())], run, seeds=[1, 2],
    )
    assert aggregated["baseline"]["_n"] == 2
    assert "actions_executed" in aggregated["baseline"]


def test_matrix_auto_ingests_into_warehouse(tmp_path):
    from repro.telemetry.warehouse.store import Warehouse

    warehouse = Warehouse(str(tmp_path / "wh"))
    arms = [("baseline", SafeguardConfig.none()),
            ("guarded", SafeguardConfig.only(preaction=True))]
    run_matrix(arms, fake_run, seeds=[1, 2, 3], warehouse=warehouse,
               experiment="e10", git_rev="rev-test", tag="unit")
    assert len(warehouse) == 6            # one record per (arm, seed) cell
    assert {record.key.arm for record in warehouse.runs()} == {
        "baseline", "guarded"}
    assert warehouse.group("harm", by="arm")["baseline"]["mean"] == 2.0
    assert all(record.key.git_rev == "rev-test"
               for record in warehouse.runs())
    # Re-running the same matrix is a warehouse no-op (idempotent cells).
    run_matrix(arms, fake_run, seeds=[1, 2, 3], warehouse=warehouse,
               experiment="e10", git_rev="rev-test", tag="unit")
    assert len(warehouse) == 6


def test_matrix_without_warehouse_unchanged():
    arms = [("baseline", SafeguardConfig.none())]
    assert (run_matrix(arms, fake_run, seeds=[5])
            == run_matrix(arms, fake_run, seeds=[5], warehouse=None))
