"""Core of the reproduction: the paper's device and policy model.

This package implements Figure 2 of the paper — a device is a set of
sensors and actuators with logic dictating behaviour, characterized by a
state vector — together with the event-condition-action policy machinery
of sections IV and V and the generative-policy architecture of section IV.
"""
