"""The Sweep3D communication pattern — Section V-D / Fig. 14.

A 2-D process grid swept from the top-left corner: each rank waits for
partitioned receives from its up/left neighbours, computes with its
thread team (noise injected), then partition-sends to its down/right
neighbours.  The paper runs this on 1024 cores (16 threads x 64 nodes);
the default grid here matches (8 x 8 ranks, one per node, 16 threads).

Reported metric: *communication time* — iteration wall time minus the
wavefront's critical-path compute — and its speedup over the
``part_persist`` baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.config import ClusterConfig, NIAGARA
from repro.mem.buffer import PartitionedBuffer
from repro.mpi.cluster import Cluster
from repro.runtime import ComputePhase, SingleThreadDelay, WorkerTeam
from repro.sim.sync import SimBarrier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan import ModuleChoice


_TAG_RIGHT = 0
_TAG_DOWN = 1


@dataclass
class SweepResult:
    """Sweep benchmark outcome."""

    grid: tuple[int, int]
    n_threads: int
    total_bytes: int
    compute: float
    noise_fraction: float
    #: Wall time of each measured iteration.
    times: list[float] = field(default_factory=list)

    @property
    def critical_path_compute(self) -> float:
        px, py = self.grid
        return (px + py - 1) * self.compute

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.times))

    @property
    def mean_comm_time(self) -> float:
        """Iteration time minus critical-path compute (Fig. 14's metric)."""
        return float(np.mean(
            [t - self.critical_path_compute for t in self.times]))


def run_sweep(
    module: ModuleChoice,
    grid: tuple[int, int] = (8, 8),
    n_threads: int = 16,
    total_bytes: int = 1 << 20,
    compute: float = 1e-3,
    noise_fraction: float = 0.01,
    iterations: int = 10,
    warmup: int = 3,
    config: Optional[ClusterConfig] = None,
) -> SweepResult:
    """Run the sweep pattern (None module = part_persist baseline)."""
    from repro.plan import resolve

    config = config if config is not None else NIAGARA
    px, py = grid
    if px < 1 or py < 1:
        raise ValueError(f"bad grid {grid}")
    partition_size = total_bytes // n_threads
    if partition_size * n_threads != total_bytes:
        raise ValueError(
            f"total {total_bytes}B not divisible by {n_threads} threads")
    n_ranks = px * py
    cluster = Cluster(n_nodes=n_ranks, config=config)
    procs = cluster.ranks(n_ranks)
    cores = config.host.cores_per_node
    barrier = SimBarrier(cluster.env, parties=n_ranks)
    total_rounds = warmup + iterations
    # Per-round: barrier release time and each rank's finish time.
    round_start = [0.0] * total_rounds
    finish = np.zeros((total_rounds, n_ranks))
    phase = ComputePhase(compute=compute, noise=SingleThreadDelay(noise_fraction))

    def rank_id(i: int, j: int) -> int:
        return i * py + j

    def rank_program(proc, i: int, j: int):
        rid = rank_id(i, j)
        sends = {}
        recvs = {}
        bufs = []
        if j + 1 < py:
            buf = PartitionedBuffer(n_threads, partition_size, backed=False)
            bufs.append(buf)
            sends["right"] = proc.psend_init(
                buf, dest=rank_id(i, j + 1), tag=_TAG_RIGHT,
                module=resolve(module))
        if i + 1 < px:
            buf = PartitionedBuffer(n_threads, partition_size, backed=False)
            bufs.append(buf)
            sends["down"] = proc.psend_init(
                buf, dest=rank_id(i + 1, j), tag=_TAG_DOWN,
                module=resolve(module))
        if j - 1 >= 0:
            buf = PartitionedBuffer(n_threads, partition_size, backed=False)
            bufs.append(buf)
            recvs["left"] = proc.precv_init(
                buf, source=rank_id(i, j - 1), tag=_TAG_RIGHT,
                module=resolve(module))
        if i - 1 >= 0:
            buf = PartitionedBuffer(n_threads, partition_size, backed=False)
            bufs.append(buf)
            recvs["up"] = proc.precv_init(
                buf, source=rank_id(i - 1, j), tag=_TAG_DOWN,
                module=resolve(module))
        team = WorkerTeam(proc.env, n_threads,
                          cluster.rngs.stream(f"noise.rank{rid}"), cores=cores)
        send_reqs = list(sends.values())

        def body(tid):
            for req in send_reqs:
                yield from proc.pready(req, tid)

        for it in range(total_rounds):
            yield barrier.wait()
            if rid == 0:
                round_start[it] = proc.env.now
            for req in list(recvs.values()) + send_reqs:
                yield from proc.start(req)
            # Wavefront dependency: wait for inbound halves.
            for req in recvs.values():
                yield from proc.wait_partitioned(req)
            yield team.run_round(phase, lambda tid: body(tid))
            for req in send_reqs:
                yield from proc.wait_partitioned(req)
            finish[it, rid] = proc.env.now

    for i in range(px):
        for j in range(py):
            cluster.spawn(rank_program(procs[rank_id(i, j)], i, j))
    cluster.run()
    result = SweepResult(
        grid=grid,
        n_threads=n_threads,
        total_bytes=total_bytes,
        compute=compute,
        noise_fraction=noise_fraction,
    )
    for it in range(warmup, total_rounds):
        result.times.append(float(finish[it].max() - round_start[it]))
    return result
