"""State-space analysis: classifiers, preferences, risk, break-glass, reachability.

Implements the paper's section V state model (good / neutral / bad states
with a safeness metric) and the section VI-B support machinery: state
preference ontologies (ref [14]), risk estimation, break-glass rules
(ref [12]), and next-state anticipation.
"""
