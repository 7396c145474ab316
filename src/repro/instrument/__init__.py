"""Measurement accounting (unit timings, resilience events) and the raw
loop-data release format."""

from repro.instrument.report import (
    FORMAT_VERSION,
    LoopRecord,
    MeasurementRollup,
    ResilienceEvent,
    UnitTiming,
    read_records,
    write_records,
)

__all__ = [
    "FORMAT_VERSION",
    "LoopRecord",
    "MeasurementRollup",
    "ResilienceEvent",
    "UnitTiming",
    "read_records",
    "write_records",
]
