"""Deterministic discrete-event simulation substrate.

Every experiment in the paper's reproduction runs on this simulator: it
provides a virtual clock, an ordered event queue, seeded randomness with
named substreams (so adding a new random consumer does not perturb others),
metric collection, and structured tracing.
"""
