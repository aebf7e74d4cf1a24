"""Scenario builders and the experiment harness.

``peacekeeping`` builds the paper's sec II two-nation surveillance
scenario; ``confrontation`` the two-opposing-coalitions scenario with
threat injection; ``harness`` the configuration/metrics plumbing every
benchmark shares.
"""
