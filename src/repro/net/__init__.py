"""In-simulation network substrate.

Message passing with latency/loss, topology constraints, dynamic device
discovery (the entry point of the paper's generative-policy flow, sec IV),
and gossip-based knowledge sharing ("share the information and policies
they generate with other devices").
"""
