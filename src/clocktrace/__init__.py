"""Tree clocks and vector clocks over concurrent execution traces."""

from .trace import Event, Trace, TraceParseError, parse_trace, serialize_trace, validate_trace
from .vclock import ClockContractError, Epoch, VectorClock, WorkCounter, vt_join, vt_leq
from .treeclock import TreeClock
from .analyses import (
    HB,
    MAZ,
    ORDERS,
    SHB,
    AnalysisRun,
    Engine,
    RaceReport,
    run_analysis,
    race_event_indices,
)
from .metrics import verify_bounds, vtwork
from .tracegen import PATTERNS, STAR_STYLES, GenSpec, SplitMix64, generate

__all__ = [
    "Event",
    "Trace",
    "TraceParseError",
    "parse_trace",
    "serialize_trace",
    "validate_trace",
    "ClockContractError",
    "Epoch",
    "VectorClock",
    "WorkCounter",
    "vt_join",
    "vt_leq",
    "TreeClock",
    "HB",
    "SHB",
    "MAZ",
    "ORDERS",
    "AnalysisRun",
    "Engine",
    "RaceReport",
    "run_analysis",
    "race_event_indices",
    "verify_bounds",
    "vtwork",
    "PATTERNS",
    "STAR_STYLES",
    "GenSpec",
    "SplitMix64",
    "generate",
]
