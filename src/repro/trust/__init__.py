"""Trustworthy data substrate.

Section VI-B of the paper requires that "a device be able to obtain
trustworthy information concerning its own status and the environment",
protected "from deception attacks", citing Rezvani et al.'s secure
aggregation under collusion [13].  This package provides robust sensor
aggregation (iterative filtering, trimmed estimators) and a provenance /
trust-score ledger for data sources.
"""
