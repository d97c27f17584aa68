"""``MPI_Pready_range``: inclusive bounds, validate-then-mark, and the
same simulated run as a loop of single ``MPI_Pready`` calls."""

import numpy as np
import pytest

from repro.core import FixedAggregation, NativeSpec
from repro.errors import PartitionError, RequestError
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.mpi.persist_module import PersistSpec
from repro.units import KiB

SPECS = [
    ("persist", PersistSpec),
    ("native", lambda: NativeSpec(FixedAggregation(4, 2))),
    ("native-timer",
     lambda: NativeSpec(FixedAggregation(2, 2, timer_delta=2e-6))),
]

#: Three "threads" readying slices of 12 partitions, staggered in time.
SLICES = [(0, 3, 3e-6), (4, 7, 1e-6), (8, 11, 2e-6)]


def _run(spec_factory, form: str, rounds: int = 2):
    """Run the slices in ``form`` ("loop" or "range"); return every time
    the run produced, as float.hex strings."""
    n_parts = 12
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, 2 * KiB)
    rbuf = PartitionedBuffer(n_parts, 2 * KiB)
    times = []

    def worker(proc, req, low, high, delay):
        yield proc.env.timeout(delay)
        if form == "range":
            yield from proc.pready_range(req, low, high)
        else:
            for p in range(low, high + 1):
                yield from proc.pready(req, p)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec_factory())
        for rnd in range(rounds):
            sbuf.fill_pattern(seed=rnd)
            yield from proc.start(req)
            threads = [proc.env.process(worker(proc, req, lo, hi, d))
                       for lo, hi, d in SLICES]
            yield proc.env.all_of(threads)
            yield from proc.wait_partitioned(req)
            times.extend(req.pready_times)
            times.append(proc.env.now)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec_factory())
        for rnd in range(rounds):
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)
            assert np.array_equal(rbuf.data, rbuf.expected_pattern(
                0, rbuf.nbytes, seed=rnd))
            times.extend(req.arrival_times)
            times.append(proc.env.now)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    times.append(cluster.env.now)
    return [t.hex() for t in times]


@pytest.mark.parametrize("name,spec", SPECS, ids=[s[0] for s in SPECS])
def test_range_form_matches_loop_form_bit_for_bit(name, spec):
    assert _run(spec, "range") == _run(spec, "loop")


def _started_pair(n_parts=4):
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, 256)
    rbuf = PartitionedBuffer(n_parts, 256)
    return cluster, s_proc, r_proc, sbuf, rbuf


@pytest.mark.parametrize("low,high", [(2, 1), (-1, 2), (0, 4), (4, 4),
                                      (3, 0)])
def test_bad_range_is_rejected_before_anything_is_marked(low, high):
    cluster, s_proc, r_proc, sbuf, rbuf = _started_pair()
    seen = {}

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0,
                              module=NativeSpec(FixedAggregation(1, 1)))
        yield from proc.start(req)
        with pytest.raises(PartitionError):
            yield from proc.pready_range(req, low, high)
        seen["times"] = list(req.pready_times)
        seen["ready"] = req.module._ready_count
        # The round is untouched and still completes normally.
        yield from proc.pready_range(req, 0, 3)
        yield from proc.wait_partitioned(req)
        seen["done"] = req.done

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0,
                              module=NativeSpec(FixedAggregation(1, 1)))
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    assert seen["times"] == [None] * 4
    assert seen["ready"] == 0
    assert seen["done"]


def test_range_on_inactive_or_receive_request_is_rejected():
    cluster, s_proc, r_proc, sbuf, rbuf = _started_pair()

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        with pytest.raises(RequestError, match="Pready"):
            yield from proc.pready_range(req, 0, 1)
        assert req.pready_times == [None] * 4

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
        yield from proc.start(req)
        with pytest.raises(RequestError, match="Psend"):
            yield from proc.pready_range(req, 0, 1)

    cluster.spawn(sender(s_proc))
    p = cluster.spawn(receiver(r_proc))
    cluster.run(until=p)


def test_single_pready_is_the_one_partition_range():
    cluster, s_proc, r_proc, sbuf, rbuf = _started_pair()

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        yield from proc.start(req)
        with pytest.raises(PartitionError, match="partition 4 outside"):
            yield from proc.pready(req, 4)
        yield from proc.pready(req, 3)
        yield from proc.pready_range(req, 0, 2)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
