"""Benchmark of the CDRIB reproduction: workloads, load generator, tracing."""
