"""Aggregate and emergent behaviour analysis (paper sec V, VI-D, ref [16]).

"While each of the devices may individually be in a good state... the net
impact of the action may result in harm to the human" and "Modelling,
analysis and simulation methods have been used to determine whether
systems of systems would exhibit emergent behavior... e.g., rolling
blackouts in a power grid."
"""
