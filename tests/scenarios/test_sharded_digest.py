"""Pinned digests of the two sharded fleets (F4 and E22).

The invariance tests in ``test_sharded_scenario.py`` and
``test_reputation_scenario.py`` compare runs of the same code against
each other, so a change that shifts every shard count alike passes
them.  These digests are fixed: a refactor of the shard host, the
router, the partitioner or either fleet that changes what the fleet
does changes one of them.
"""

from __future__ import annotations

import pytest

from repro.scenarios.reputation import ReputationScenario
from repro.scenarios.sharded import ShardedScenario

#: ``ShardedScenario()`` with the default spec.
F4_DEFAULT_TRACE = "75a2513e536b20ccabc4267b249f2154e803a2b3c9e1a81574eccfb19d0e8323"
F4_DEFAULT_AUDIT = "24fa2a3776031ba935a9df4b914b0aaf6354d05fdad4295540e5da3c4d9de65c"

#: The 10k-device spec ``benchmarks/bench_f4_sharding.py`` runs in full
#: mode; equal to the trace digest committed in ``BENCH_F4.json``.
F4_BENCH_SPEC = dict(seed=7, horizon=24.0, window=4.0, n_communities=64,
                     n_devices=10000)
F4_BENCH_TRACE = "2c0b7e54fd9e9628ded6ba2b08837e8028261f38d27bdb200b623f3c7687f35b"

#: ``ReputationScenario`` trace digests per arm; the default arm's is the
#: one committed in ``BENCH_E22.json``.
E22_TRACES = {
    "default": ({}, "d81704c0bc17edf012f0239483ade212ba76b06cee7434f7d6a8c2ac6f32cbba"),
    "unweighted": ({"weighted": False},
                   "282fd913687deb2c170660ef81c7a892eece3dc5904db6b50329764ffc4abce7"),
    "unleased": ({"leased": False},
                 "a54518155889267349b3a70a9991edfd29f8fb36509d746571fd2a2fa99ee77f"),
}


def test_f4_default_spec_is_pinned():
    run = ShardedScenario().run()
    assert run.trace_digest == F4_DEFAULT_TRACE
    assert run.audit_digest == F4_DEFAULT_AUDIT


def test_f4_bench_spec_is_pinned():
    run = ShardedScenario(**F4_BENCH_SPEC).run()
    assert run.trace_digest == F4_BENCH_TRACE


@pytest.mark.parametrize("arm", sorted(E22_TRACES))
def test_e22_arm_is_pinned(arm):
    overrides, digest = E22_TRACES[arm]
    assert ReputationScenario(**overrides).run().trace_digest == digest
