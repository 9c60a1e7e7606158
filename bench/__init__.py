"""Benchmark for sepnet: workloads, output checks and a tracing shim.

Run ``python3 bench/run.py --workload <name>`` from the repository root;
``bench/README.md`` describes the workloads and metrics.
"""
