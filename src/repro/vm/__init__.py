"""Tracing interpreter for the repro ISA (the study's ``pixie`` equivalent)."""

from repro.vm.fastvm import FastVM, fastvm_source, run_program
from repro.vm.machine import RETURN_SENTINEL, VM, RunResult, VMError
from repro.vm.sanitize import sanitize_trace
from repro.vm.trace import (
    NO_ADDR,
    NOT_BRANCH,
    NOT_TAKEN,
    TAKEN,
    Trace,
    TraceRecord,
)
from repro.vm.trace_io import (
    CorruptArtifactError,
    TraceChunk,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    iter_trace_chunks,
    load_trace,
    save_trace,
)

__all__ = [
    "CorruptArtifactError",
    "FastVM",
    "NO_ADDR",
    "NOT_BRANCH",
    "NOT_TAKEN",
    "RETURN_SENTINEL",
    "RunResult",
    "TAKEN",
    "Trace",
    "TraceChunk",
    "TraceFormatError",
    "TraceReader",
    "TraceRecord",
    "TraceWriter",
    "VM",
    "VMError",
    "fastvm_source",
    "iter_trace_chunks",
    "load_trace",
    "run_program",
    "sanitize_trace",
    "save_trace",
]
