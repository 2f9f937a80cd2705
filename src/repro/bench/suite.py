"""Benchmark registry — the study's 10 MiBench-like workloads.

The paper (§IV.B) uses *djpeg, search, smooth, edge, corner, sha, fft,
qsort, cjpeg, caes* from MiBench; these are scaled-down but
algorithmically faithful MiniC versions of the same kernels, compiled
from a single source per benchmark to both ISAs.
"""

from __future__ import annotations

from functools import lru_cache

from repro.bench.programs import (caes, cjpeg, corner, djpeg, edge, fft,
                                  qsort, search, sha, smooth)
from repro.isa.common import Program
from repro.lang.compiler import compile_program, compile_source

# Paper order (Figs. 2-6 x-axis).
BENCHMARKS = ("djpeg", "search", "smooth", "edge", "corner",
              "sha", "fft", "qsort", "cjpeg", "caes")

_MODULES = {m.NAME: m for m in
            (djpeg, search, smooth, edge, corner, sha, fft, qsort, cjpeg,
             caes)}


def benchmark_names() -> tuple[str, ...]:
    return BENCHMARKS


def describe(name: str) -> str:
    return _MODULES[name].DESCRIPTION


def minic_source(name: str, scale: int = 1) -> str:
    """The MiniC source of benchmark *name*."""
    if name not in _MODULES:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"available: {', '.join(BENCHMARKS)}")
    return _MODULES[name].source(scale)


@lru_cache(maxsize=None)
def assembly(name: str, isa: str, scale: int = 1) -> str:
    return compile_source(minic_source(name, scale), isa)


@lru_cache(maxsize=None)
def program(name: str, isa: str, scale: int = 1) -> Program:
    """Compiled program image for (benchmark, ISA), memoized."""
    prog = compile_program(minic_source(name, scale), isa)
    prog.name = name
    return prog
