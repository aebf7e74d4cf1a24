"""The always-on policy control plane (E23).

The paper's safeguards are only meaningful if they are *always on*: a
guard that exists solely inside batch scenario runs protects nothing at
runtime.  This package wraps the guard/engine/governance stack in a
long-running, dependency-free service with end-to-end observability —
request-scoped causal spans, RED metrics with exact latency quantiles
read at each monitor tick, structured access logs, admission control
with E21-style metered rejects, a bounded background job queue, and an
E20 alert engine watching the service's own SLIs.

Modules:

* :mod:`repro.api.runtime` — :class:`ServiceRuntime`, the sim-shaped
  real-time substrate the E19/E20 instruments run on unchanged;
* :mod:`repro.api.profile` — the evaluation profile (state space +
  policies + guards) a control plane serves;
* :mod:`repro.api.auth` — API keys + token-bucket rate limiting;
* :mod:`repro.api.jobs` — bounded job queue + worker pool;
* :mod:`repro.api.accesslog` — bounded structured access-log ring;
* :mod:`repro.api.service` — :class:`ControlPlane`, the transport-
  agnostic request path and endpoint handlers;
* :mod:`repro.api.http` — the stdlib asyncio HTTP/1.1 front end;
* ``python -m repro.api`` — the CLI (see :mod:`repro.api.__main__`).
"""

from repro.api.accesslog import AccessLog
from repro.api.auth import AdmissionControl, TokenBucket
from repro.api.http import HttpServer, ServerThread, serve
from repro.api.jobs import Job, JobQueue
from repro.api.profile import EvaluationProfile, default_profile
from repro.api.runtime import ManualClock, MonotonicClock, ServiceRuntime
from repro.api.service import ApiResponse, ControlPlane, ControlPlaneConfig

__all__ = [
    "AccessLog",
    "AdmissionControl",
    "TokenBucket",
    "HttpServer",
    "ServerThread",
    "serve",
    "Job",
    "JobQueue",
    "EvaluationProfile",
    "default_profile",
    "ManualClock",
    "MonotonicClock",
    "ServiceRuntime",
    "ApiResponse",
    "ControlPlane",
    "ControlPlaneConfig",
]
