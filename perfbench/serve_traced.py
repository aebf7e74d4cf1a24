"""Start the control plane with the per-layer ledger installed.

    python3 perfbench/serve_traced.py --ledger-out PATH [repro.api args]

Wraps the layer entry points (``layers.install(api=True)``), then runs
the repository's own ``python -m repro.api`` entry point.  On exit
(SIGINT) it writes the ledger rows to ``PATH.rows.json`` and the spans
to ``PATH.bin``/``PATH.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--ledger-out":
        print("usage: serve_traced.py --ledger-out PATH [repro.api args]",
              file=sys.stderr)
        return 2
    out, rest = argv[1], argv[2:]
    from layers import install
    from ledger import Ledger

    ledger = Ledger()
    install(ledger, api=True)
    from repro.api.__main__ import main as serve_main

    try:
        return serve_main(rest)
    finally:
        ledger.write(out)
        with open(out + ".rows.json", "w", encoding="utf-8") as handle:
            json.dump({"rows": ledger.rows(), "roots_s": ledger.roots_s,
                       "spans": ledger.opened}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
