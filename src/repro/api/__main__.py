"""``python -m repro.api`` — boot the always-on control plane.

Examples::

    python -m repro.api --port 8733
    python -m repro.api --api-key secret1:operator --rate 50 --burst 100
    python -m repro.api --smoke          # boot, self-exercise, exit

``--smoke`` starts the server on an ephemeral port, drives one request
through every endpoint (including a ``/jobs`` round-trip, an
``/explain`` replay of its own ``/evaluate`` trace, and two ``/batch``
rows ``/evaluate`` would refuse — one past a declared bound, one with a
string for a bool — which must be refused), prints a JSON
report, and exits non-zero on any failure — the CI smoke job's entry
point.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Optional

from repro.api.http import ServerThread, serve
from repro.api.service import ControlPlane, ControlPlaneConfig


def _parse_keys(pairs) -> Optional[dict]:
    if not pairs:
        return None
    keys = {}
    for pair in pairs:
        key, sep, principal = pair.partition(":")
        if not sep or not key or not principal:
            raise SystemExit(f"--api-key wants KEY:PRINCIPAL, got {pair!r}")
        keys[key] = principal
    return keys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description="Always-on policy control plane (E23)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8733)
    parser.add_argument("--api-key", action="append", default=[],
                        metavar="KEY:PRINCIPAL",
                        help="require x-api-key auth (repeatable)")
    parser.add_argument("--rate", type=float, default=None,
                        help="token-bucket refill, requests/s per principal")
    parser.add_argument("--burst", type=float, default=20.0,
                        help="token-bucket burst size")
    parser.add_argument("--workers", type=int, default=2,
                        help="background job worker threads")
    parser.add_argument("--queue-capacity", type=int, default=8,
                        help="bounded job queue size")
    parser.add_argument("--monitor-interval", type=float, default=1.0,
                        help="health-monitor sampling period, seconds")
    parser.add_argument("--access-log", default=None, metavar="PATH",
                        help="stream JSONL access records to PATH")
    parser.add_argument("--warehouse", default=None, metavar="DIR",
                        help="serve an E24 telemetry warehouse via /query")
    parser.add_argument("--no-observability", action="store_true",
                        help="disable spans, RED metrics, and access log")
    parser.add_argument("--smoke", action="store_true",
                        help="boot on an ephemeral port, self-test, exit")
    return parser


def plane_from_args(args) -> ControlPlane:
    config = ControlPlaneConfig(
        api_keys=_parse_keys(args.api_key),
        rate=args.rate,
        burst=args.burst,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        monitor_interval=args.monitor_interval,
        observability=not args.no_observability,
        access_log_path=args.access_log,
        warehouse_dir=args.warehouse,
    )
    return ControlPlane(config=config)


def run_smoke(plane: ControlPlane) -> int:
    """Self-exercise every endpoint over real HTTP; 0 on full success."""
    import http.client

    headers = {"Content-Type": "application/json"}
    if plane.config.api_keys:
        headers["x-api-key"] = next(iter(plane.config.api_keys))
    thread = ServerThread(plane)
    host, port = thread.start()
    report: dict = {"address": f"{host}:{port}", "checks": {}}
    ok = True

    def check(name: str, method: str, path: str, body=None,
              expect: int = 200) -> dict:
        nonlocal ok
        conn = http.client.HTTPConnection(host, port, timeout=10)
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        conn.close()
        passed = resp.status == expect
        ok = ok and passed
        try:
            data = json.loads(raw)
        except ValueError:
            data = {"raw_bytes": len(raw)}
        report["checks"][name] = {"status": resp.status, "pass": passed}
        return data if isinstance(data, dict) else {}

    try:
        evaluated = check("evaluate", "POST", "/evaluate",
                          {"event": {"kind": "mgmt.command.move"}})
        check("evaluate-state-list", "POST", "/evaluate",
              {"event": {"kind": "mgmt.command.move"},
               "state": [["heat", 120.0]]}, expect=400)
        check("health", "GET", "/health")
        check("metrics", "GET", "/metrics")
        check("batch", "POST", "/batch",
              {"rows": [{"heat": 20.0}, {"heat": 130.0}]})
        check("batch-out-of-range", "POST", "/batch",
              {"rows": [{"heat": 500.0}]}, expect=400)
        check("batch-coerced", "POST", "/batch",
              {"rows": [{"weapon_armed": "no"}]}, expect=400)
        check("audit", "GET", "/audit")
        if plane.warehouse is not None:
            check("query", "POST", "/query", {"op": "stats"})
        else:
            # No warehouse configured: the endpoint must refuse loudly
            # with the stable reason slug, not 404 or crash.
            check("query", "POST", "/query", {"op": "stats"}, expect=503)
        trace_id = evaluated.get("trace_id")
        if trace_id:
            check("explain", "GET", f"/explain?trace_id={trace_id}")
        else:
            report["checks"]["explain"] = {"status": None, "pass": False}
            ok = False
        submitted = check("jobs-submit", "POST", "/jobs",
                          {"kind": "noop"}, expect=202)
        job_id = (submitted.get("job") or {}).get("job_id")
        if job_id:
            job = plane.jobs.get(job_id)
            if job is not None:
                job.done_event.wait(10)
            check("jobs-status", "GET", f"/jobs/{job_id}")
        else:
            report["checks"]["jobs-status"] = {"status": None, "pass": False}
            ok = False
    finally:
        thread.stop()
        plane.close()
    report["ok"] = ok
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    plane = plane_from_args(args)
    if args.smoke:
        return run_smoke(plane)
    try:
        asyncio.run(serve(plane, args.host, args.port))
    except KeyboardInterrupt:
        pass
    finally:
        plane.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
