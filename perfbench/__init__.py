"""Benchmark for the idindex command line: see ``perfbench/README.md``."""
