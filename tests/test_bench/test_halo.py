"""Tests for the 2-D halo exchange (``ext_halo``) on the stencil driver."""

import pytest

from repro.coll import run_stencil
from repro.core import PLogGPAggregator, TimerPLogGPAggregator
from repro.ib.topology import DragonflyPlus
from repro.model.tables import NIAGARA_LOGGP
from repro.units import KiB, MiB, ms, us

FAST = dict(grid=(3, 3), n_threads=8, iterations=3, warmup=1)


def test_halo_runs_and_times():
    res = run_stencil(None, face_bytes=64 * KiB, compute=ms(1),
                      noise_fraction=0.0, **FAST)
    assert len(res.times) == 3
    assert all(t > ms(1) for t in res.times)
    assert res.mean_comm_time > 0


def test_halo_aggregation_helps_at_medium_sizes():
    base = run_stencil(None, face_bytes=256 * KiB, compute=ms(1),
                       noise_fraction=0.01, **FAST)
    agg = run_stencil(PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4)),
                      face_bytes=256 * KiB, compute=ms(1),
                      noise_fraction=0.01, **FAST)
    assert base.mean_comm_time / agg.mean_comm_time > 1.2


def test_halo_wire_bound_at_large_sizes():
    base = run_stencil(None, face_bytes=8 * MiB, compute=ms(1),
                       noise_fraction=0.01, **FAST)
    agg = run_stencil(PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4)),
                      face_bytes=8 * MiB, compute=ms(1),
                      noise_fraction=0.01, **FAST)
    speedup = base.mean_comm_time / agg.mean_comm_time
    assert 0.85 < speedup < 1.25


def test_halo_timer_design_works():
    res = run_stencil(
        TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=us(8)),
        face_bytes=256 * KiB, compute=ms(1), noise_fraction=0.04, **FAST)
    assert res.mean_comm_time > 0


def test_halo_with_topology():
    topo = DragonflyPlus(nodes_per_leaf=2, leaves_per_group=2)
    res = run_stencil(None, face_bytes=64 * KiB, compute=ms(0.5),
                      noise_fraction=0.0, topology=topo, **FAST)
    assert res.mean_comm_time > 0


def test_halo_validation():
    with pytest.raises(ValueError, match="bad grid"):
        run_stencil(None, grid=(0, 2))
    with pytest.raises(ValueError, match="not divisible"):
        run_stencil(None, face_bytes=100, n_threads=16)
