"""Benchmark harness for cbdid; see perfbench/README.md."""
