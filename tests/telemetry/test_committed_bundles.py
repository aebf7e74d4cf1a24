"""Every committed telemetry bundle holds exactly the files its manifest
lists: ``write_bundle`` writes the manifest last, so a file added to the
directory afterwards is one no reader of the manifest knows about."""

from __future__ import annotations

import glob
import json
import os

import pytest

RESULTS = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "benchmarks", "results")
MANIFESTS = sorted(glob.glob(os.path.join(RESULTS, "*", "manifest.json")))


def test_the_results_hold_committed_bundles():
    assert len(MANIFESTS) >= 2


@pytest.mark.parametrize("path", MANIFESTS,
                         ids=lambda path: os.path.basename(os.path.dirname(path)))
def test_a_committed_bundle_holds_exactly_its_manifest_files(path):
    with open(path, encoding="utf-8") as handle:
        files = json.load(handle)["files"]
    assert sorted(os.listdir(os.path.dirname(path))) == sorted(files)
