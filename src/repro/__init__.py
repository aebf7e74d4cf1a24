"""skynet-guard: policy-based autonomic device management with
Skynet-prevention safeguards.

Reproduction of Calo, Verma, Bertino, Ingham, Cirincione — "How to Prevent
Skynet From Forming (A Perspective from Policy-based Autonomic Device
Management)", ICDCS 2018.

No package re-exports anything: import each name from the module that
defines it, as the Quickstart in README.md does.  See README.md for a
tour and DESIGN.md for the full inventory.
"""
