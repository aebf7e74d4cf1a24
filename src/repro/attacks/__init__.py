"""Threat injection substrate — the paper's sec IV malevolence channels.

Each module exercises one mechanism "by which malevolence can creep into
the system": cyber attacks and worm-style conversion of other devices,
backdoor exploitation, adversarial data poisoning, human error, and
sensor deception.  All attacks draw randomness from named simulator
substreams so experiments replay identically with safeguards on or off.
"""
