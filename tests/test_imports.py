"""What importing the package costs, and what it may pull in.

Packages hold no re-exports: every ``__init__.py`` is its docstring
alone, and callers import the module that defines a name.  So a process
loads only the mechanisms it runs: a sharded-fleet shard needs the batch
guard and the signed kill path, not governance, the chaos injector or
the confrontation scenario, and the control-plane server needs no
scenario at all.  The package's graphs are small dicts of sets
(``net.topology``, ``statespace.preferences``), so no import path may
pull the graph library in either.  The footprint checks run in a fresh interpreter,
since this test process may have imported anything.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

LOADED = """
import sys
import {module}
print("\\n".join(sorted(sys.modules)))
"""

EACH_ON_ITS_OWN = """
import importlib, sys
failed = []
for module in sys.argv[1:]:
    for name in [name for name in sys.modules if name.split('.')[0] == 'repro']:
        del sys.modules[name]
    try:
        importlib.import_module(module)
    except Exception as exc:
        failed.append(f"{module}: {type(exc).__name__}: {exc}")
print("\\n".join(failed))
"""


def _run(code, *args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def _modules():
    root = pathlib.Path(SRC)
    for path in sorted(root.joinpath("repro").rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _loaded(module):
    """The modules a fresh interpreter holds after ``import module``."""
    return set(_run(LOADED.format(module=module)).split())


def test_repro_imports_without_the_graph_library():
    loaded = _loaded("repro.api, repro.api.__main__, repro.scenarios.sharded")
    assert [name for name in loaded if name.split(".")[0] == "networkx"] == []


def test_package_inits_hold_only_their_docstring():
    for path in pathlib.Path(SRC, "repro").rglob("__init__.py"):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        assert len(body) == 1 and isinstance(body[0], ast.Expr), path
        assert isinstance(body[0].value, ast.Constant), path


def test_shard_and_server_load_only_what_they_run():
    assert _loaded("repro.scenarios.sharded") & {
        "repro.scenarios.confrontation", "repro.scenarios.reputation",
        "repro.safeguards.governance", "repro.sim.faults",
        "repro.devices.world", "repro.telemetry.health",
    } == set()
    server = _loaded("repro.api.__main__")
    assert [name for name in server if name.startswith("repro.scenarios")] == []
    assert {"repro.sim.sharding", "multiprocessing"} & server == set()


def test_explain_submodule_is_not_shadowed():
    module = importlib.import_module("repro.telemetry.explain")
    import repro.telemetry.explain as bound

    assert isinstance(module, types.ModuleType)
    assert bound is module


def test_every_module_imports_on_its_own():
    """Each module imports with no ``repro`` module loaded beforehand, so
    none relies on another import having loaded its dependency first."""
    modules = list(_modules())
    assert len(modules) > 100
    assert _run(EACH_ON_ITS_OWN, *modules).strip() == ""
