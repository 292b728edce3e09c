"""The served-path benchmark.

One load-generator process drives the real served path -- socket
client -> ``QueryServer`` -> ``QueryService`` -> access plane -> engine
-> backend or page cache -- with closed-loop clients, checks every
answer against a direct engine run on the same generated data, and
reports end-to-end metrics (``--trace 0``) or per-layer metrics from a
separate traced run (``--trace 1``).  Run ``python3 perfbench/run.py
--help`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics.
"""
