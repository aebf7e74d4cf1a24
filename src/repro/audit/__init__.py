"""Tamper-evident auditing.

Section VI-B requires "support for audits to verify that devices did not
abuse the break-glass rules", which "in turn would require the collection
of comprehensive context information".  :class:`AuditLog` is a
hash-chained append-only record; the auditors replay it to find
break-glass abuse and safeguard-bypass anomalies.
"""
