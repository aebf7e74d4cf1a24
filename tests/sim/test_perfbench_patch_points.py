"""The names the benchmark harness patches must stay patchable.

``perfbench/layers.py`` wraps each ledger entry point by name, and
``Ledger.patch`` reads a class attribute from the owner's own
``__dict__``, so a method that moves to a base class silently drops out
of the ledger.  ``perfbench/worker.py`` replaces
``ShardHost.run_window`` and ``BarrierTiming`` before the shard
processes fork; if a window stops going through either, the
sharded-fleet timings are empty.  These tests fail instead.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(os.path.dirname(HERE)), "perfbench")
sys.path[:0] = [BENCH]

import layers  # noqa: E402

import repro.sim.sharding as sharding  # noqa: E402
from repro.scenarios.sharded import ShardedScenario  # noqa: E402


@pytest.mark.parametrize("table", ["ENTRY_POINTS", "API_ENTRY_POINTS"])
def test_every_ledger_entry_point_is_where_the_ledger_patches_it(table):
    for name, (module_name, owner_name, attr) in getattr(layers, table).items():
        module = importlib.import_module(module_name)
        if owner_name is None:
            assert callable(getattr(module, attr, None)), name
        else:
            owner = getattr(module, owner_name)
            assert attr in owner.__dict__, f"{name}: {owner_name}.{attr} is inherited"


@pytest.mark.parametrize("processes", [False, True])
def test_window_and_timing_patches_see_every_barrier_window(monkeypatch, processes):
    run_window = sharding.ShardHost.run_window
    windows: list = []

    def tagged_run_window(host, barrier, inbound):
        outbox, busy = run_window(host, barrier, inbound)
        return outbox, (busy, host.shard_index, barrier)

    class RecordingTiming(sharding.BarrierTiming):
        __slots__ = ()

        def add_window(self, busies, window_wall):
            windows.append([(shard, barrier) for _busy, shard, barrier in busies])
            super().add_window([busy for busy, _shard, _barrier in busies], window_wall)

    # The same two replacements the harness makes; forked shards inherit them.
    monkeypatch.setattr(sharding.ShardHost, "run_window", tagged_run_window)
    monkeypatch.setattr(sharding, "BarrierTiming", RecordingTiming)
    scenario = ShardedScenario(n_shards=2, processes=processes, n_devices=200)
    run = scenario.run()

    barriers = sharding.barrier_schedule(scenario.spec.horizon, scenario.spec.window)
    assert windows == [[(0, barrier), (1, barrier)] for barrier in barriers]
    assert isinstance(run.timing, RecordingTiming)
    assert run.timing.windows == len(barriers)
    assert run.perf["mode"] == ("processes" if processes else "inprocess")
