"""Durable storage: simulated stable media, write-ahead journal, recovery.

The paper's record-keeping is only "tamper-proof" if it also survives the
substrate: a hash chain that lives in process memory is erased by the
very crash an auditor would investigate.  This package provides the
durability layer — :class:`StableStorage` (the simulated medium crashes
preserve), :class:`Journal` (CRC-framed write-ahead records with
snapshots and torn-tail-truncating replay), and :class:`DurabilityManager`
(the crash-wipe / restart-recovery orchestration the fault layer drives).
"""
