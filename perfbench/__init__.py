"""Benchmark of gencvx: three workloads, end-to-end metrics and per-layer traces."""
