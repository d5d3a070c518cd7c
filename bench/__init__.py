"""The repo benchmark: wall-clock end-to-end and per-layer metrics.

Run ``python3 -m bench`` from the repository root; see ``bench/README.md``
for the workloads, the metrics and how they interact.  Importing this
package does nothing; :mod:`bench.__main__` adds ``src/`` to ``sys.path``.
"""
