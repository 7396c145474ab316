"""Performance benchmarking: the serve tier's timing gates.

``repro-unroll bench`` drives the serve daemon and the multi-process tier
over real sockets and emits a ``BENCH_<date>.json`` report whose
``batched_speedup`` and worker ``scaling`` CI gates on.
:func:`check_report` holds the report's correctness invariants, written
down once.
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
