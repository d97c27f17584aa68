"""The overhead (wire-efficiency) benchmark — Section V-B / Figs. 6-8.

No compute, no noise: all threads mark their partition immediately, so
the measurement isolates per-message software and hardware overheads.
Results are reported as speedup relative to the ``part_persist``
baseline at the same workload, exactly as the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.bench.pair import PairBenchResult, run_partitioned_pair
from repro.config import ClusterConfig, NIAGARA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan import ModuleChoice


@dataclass
class OverheadResult:
    """One overhead-benchmark measurement."""

    n_user: int
    total_bytes: int
    mean_time: float
    result: PairBenchResult

    @property
    def partition_size(self) -> int:
        return self.total_bytes // self.n_user


def run_overhead(
    module: ModuleChoice,
    n_user: int,
    total_bytes: int,
    iterations: int = 100,
    warmup: int = 10,
    config: Optional[ClusterConfig] = None,
    backed: bool = False,
) -> OverheadResult:
    """One overhead point: ``module`` (None = part_persist baseline)."""
    config = config if config is not None else NIAGARA
    partition_size = total_bytes // n_user
    if partition_size * n_user != total_bytes:
        raise ValueError(
            f"total {total_bytes}B not divisible by {n_user} partitions")
    if partition_size < 1:
        raise ValueError("partition size below one byte")
    result = run_partitioned_pair(
        module,
        n_user=n_user,
        partition_size=partition_size,
        compute=0.0,
        iterations=iterations,
        warmup=warmup,
        config=config,
        backed=backed,
    )
    return OverheadResult(
        n_user=n_user,
        total_bytes=total_bytes,
        mean_time=result.mean_time,
        result=result,
    )


def overhead_speedup_series(
    module: ModuleChoice,
    n_user: int,
    sizes: Sequence[int],
    iterations: int = 100,
    warmup: int = 10,
    config: Optional[ClusterConfig] = None,
    baseline_cache: Optional[dict] = None,
) -> dict[int, float]:
    """Speedup over ``part_persist`` across message sizes (a Fig. 6-8 line).

    ``baseline_cache`` (size -> mean time) lets several series share one
    baseline sweep, as the figures do.
    """
    speedups: dict[int, float] = {}
    cache = baseline_cache if baseline_cache is not None else {}
    for size in sizes:
        if size not in cache:
            cache[size] = run_overhead(
                None, n_user=n_user, total_bytes=size,
                iterations=iterations, warmup=warmup, config=config,
            ).mean_time
        ours = run_overhead(
            module, n_user=n_user, total_bytes=size,
            iterations=iterations, warmup=warmup, config=config,
        ).mean_time
        speedups[size] = cache[size] / ours
    return speedups
