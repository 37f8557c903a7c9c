"""End-to-end + per-layer benchmark of the three CLI entry points.

``python3 -m benchmarks.e2e --workload W --seed S --seconds T --trace 0|1``
measures one workload (the ``BENCHMARK.json`` contract); ``python3 -m
benchmarks.e2e --seed S`` measures all four, interleaved, and writes one
results file ``compare.py`` can diff.  See ``README.md`` in this directory
for the metric and workload glossary.
"""
