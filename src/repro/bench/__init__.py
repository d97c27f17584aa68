"""Benchmark implementations mirroring the paper's evaluation.

* :mod:`repro.bench.pair` — the two-process harness all point-to-point
  micro-benchmarks share;
* :mod:`repro.bench.overhead` — the overhead (wire-efficiency)
  benchmark of Section V-B;
* :mod:`repro.bench.perceived` — the perceived-bandwidth benchmark of
  Section V-C;
* :mod:`repro.bench.sweep` — the Sweep3D communication pattern of
  Section V-D;
* :mod:`repro.bench.coll` — partitioned tree-collective rounds
  (allreduce over binomial trees of partitioned pairs);
* :mod:`repro.bench.reporting` — table/series formatting for the
  figure-regeneration scripts in ``benchmarks/``.
"""

from repro.bench.pair import PairBenchResult, IterationRecord, run_partitioned_pair
from repro.bench.overhead import OverheadResult, run_overhead, overhead_speedup_series
from repro.bench.perceived import PerceivedResult, run_perceived_bandwidth
from repro.bench.sweep import SweepResult, run_sweep
from repro.bench.coll import PcollResult, run_pallreduce
from repro.bench.reporting import format_table, format_speedup_series

__all__ = [
    "PairBenchResult",
    "IterationRecord",
    "run_partitioned_pair",
    "OverheadResult",
    "run_overhead",
    "overhead_speedup_series",
    "PerceivedResult",
    "run_perceived_bandwidth",
    "SweepResult",
    "run_sweep",
    "PcollResult",
    "run_pallreduce",
    "format_table",
    "format_speedup_series",
]
