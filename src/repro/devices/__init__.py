"""Concrete device library and physical world model (paper sec II).

Drones, ground mules, base stations, mechanic (repair) devices, human
operators, coalition structure, and the simulated physical world in which
humans can actually be harmed — the substrate every experiment's harm
accounting rests on.
"""
