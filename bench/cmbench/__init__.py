"""Benchmark harness for cmbrauer: seeded workloads, output checks and a
per-layer tracer that wraps the library's public functions from outside."""
