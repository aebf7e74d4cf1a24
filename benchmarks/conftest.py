"""Shared benchmark plumbing.

Benchmarks both *time* a representative unit of work (pytest-benchmark)
and *reproduce an experiment table* (the rows DESIGN.md's experiment index
promises).  Tables are registered through the ``experiment`` fixture and
printed in the terminal summary (which pytest does not capture), and also
written to ``benchmarks/results/<name>.txt`` for the record.

Bench modules import the two shared helpers below directly
(``from conftest import ...``): :func:`export_section` merges one result
section, and the gates it declares, into a ``BENCH_*.json`` document,
and :func:`best_of_interleaved` is the on/off overhead timing protocol.
"""

from __future__ import annotations

import json
import os

import pytest

_TABLES: list = []
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def experiment():
    """Returns a callable that registers an ExperimentTable for reporting."""

    def register(table) -> None:
        _TABLES.append(table)
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        safe_name = "".join(
            ch if ch.isalnum() or ch in "-_" else "_" for ch in table.title
        )[:80]
        path = os.path.join(_RESULTS_DIR, f"{safe_name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(table.render() + "\n")

    return register


def export_section(path: str, header: dict, section: str,
                   payload: dict, gates=None) -> None:
    """Merge ``payload`` as ``section`` into the JSON document at ``path``
    (tests run in any order); a new document starts from ``header``, and
    an existing one takes the header's keys anew, so a header field that
    describes the run (F4's ``quick`` and ``cores``) describes this one.

    ``gates`` declares which of the section's metrics the regression
    sentinel judges, and how: ``{key: family}`` with ``key`` the metric's
    dotted path inside ``payload`` (``"latency_ms.p99"``) and ``family``
    one of ``defense``, ``overhead``, ``throughput`` or ``latency``.  They
    land in the document's top-level ``gates`` block as
    ``"<section>.<key>"``, replacing the section's earlier declarations;
    an undeclared metric is reported, never gated.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    document = dict(header)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = {**json.load(handle), **header}
    document[section] = payload
    document["gates"] = {
        **{name: family for name, family in document.get("gates", {}).items()
           if not name.startswith(f"{section}.")},
        **{f"{section}.{key}": family for key, family in (gates or {}).items()},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")


def best_of_interleaved(run, reps: int) -> tuple:
    """Time an on/off pair: ``run(on)`` returns ``(elapsed_sec, *extras)``.

    One warm-up of each arm, then ``reps`` on/off runs back to back so
    machine drift cancels.  Returns ``(best_on, best_off, overhead_pct,
    extras)`` with ``extras`` from the last on-arm run.
    """
    run(True)
    run(False)
    on_times, off_times = [], []
    extras = []
    for _ in range(reps):
        elapsed, *extras = run(True)
        on_times.append(elapsed)
        off_times.append(run(False)[0])
    best_on, best_off = min(on_times), min(off_times)
    return best_on, best_off, (best_on - best_off) / best_off * 100.0, extras


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 74)
    terminalreporter.write_line("EXPERIMENT TABLES (paper reproduction output)")
    terminalreporter.write_line("=" * 74)
    for table in _TABLES:
        terminalreporter.write_line("")
        for line in table.render().splitlines():
            terminalreporter.write_line(line)
