"""Benchmark of the come training pipeline; see README.md."""
