"""Performance benchmarking: the measure -> label -> select trajectory.

``repro-unroll bench`` times the pipeline's expensive stages twice — once
through the seed's reference implementations, once through the optimized
engines — and emits a ``BENCH_<date>.json`` report so every PR leaves a
perf data point behind.  :func:`check_report` holds the report's
correctness invariants, written down once.
"""

from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    BenchReport,
    StageTiming,
    check_report,
    run_bench,
    write_report,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchConfig",
    "BenchReport",
    "StageTiming",
    "check_report",
    "run_bench",
    "write_report",
]
