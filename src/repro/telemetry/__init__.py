"""Causal telemetry: spans, flight recorder, and metrics exposition (E19).

The paper's sec VI-B audit requirement ("the collection of comprehensive
context information") and the IST-152 explainability mandate both need
more than flat event logs: an overseer asking *why* a device was killed
needs the causal chain from the injected attack through policy
installation, message hops, and safeguard vetoes to the final
intervention.  This package provides that layer:

* :mod:`repro.telemetry.spans` — :class:`SpanContext`/:class:`Span`/
  :class:`Tracer`: causally linked spans minted at attack injection,
  policy generation, and periodic device tasks, propagated through
  message envelopes, reliable-channel retries, engine decisions, and
  journal appends;
* :mod:`repro.telemetry.explain` — :func:`explain` reconstructs and
  renders the cross-device causal chain for any trace id;
* :mod:`repro.telemetry.flight` — :class:`FlightRecorder`: bounded
  per-device ring buffers of recent spans/trace events, dumped to
  stable storage on crash or quarantine (post-mortem forensics);
* :mod:`repro.telemetry.exposition` — Prometheus text format, the one
  JSONL writer, and self-describing per-run telemetry bundles;
* :mod:`repro.telemetry.warehouse` — the E24 cross-run layer: an
  embedded append-only warehouse of ingested bundles/bench documents
  with a query API and the regression sentinel CI gates on.
"""
