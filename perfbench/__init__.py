"""Benchmark of the repro DSMC package: workloads, shims and ledger."""
