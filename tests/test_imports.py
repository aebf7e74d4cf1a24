"""The package imports without networkx.

Its graphs are small dicts of sets (``net.topology``,
``statespace.preferences``), so nothing on the import path of the
library, the control plane or the sharded fleet may pull the graph
library in.  A fresh interpreter checks it, since this test process may
have imported anything.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

PROBE = """
import sys
import repro, repro.api, repro.scenarios.sharded
print(sorted(name for name in sys.modules if name.split('.')[0] == {banned!r}))
"""


def test_repro_imports_without_the_graph_library():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", PROBE.format(banned="networkx")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
