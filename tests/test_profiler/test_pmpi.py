"""Tests for the PMPI-style profiler."""

import pytest

from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.mpi.persist_module import PersistSpec
from repro.profiler import PMPIProfiler
from repro.units import KiB


def run_profiled(rounds=3, n_parts=4, stagger=1e-6):
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    profiler = PMPIProfiler()
    profiler.attach(s_proc)
    sbuf = PartitionedBuffer(n_parts, 1 * KiB, backed=False)
    rbuf = PartitionedBuffer(n_parts, 1 * KiB, backed=False)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        for _ in range(rounds):
            yield from proc.start(req)
            for i in range(n_parts):
                yield proc.env.timeout(stagger)
                yield from proc.pready(req, i)
            yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
        for _ in range(rounds):
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    return profiler


def test_records_one_round_per_start():
    profiler = run_profiled(rounds=3)
    assert len(profiler.rounds) == 3
    assert [r.round_index for r in profiler.rounds] == [0, 1, 2]


def test_records_all_preadys():
    profiler = run_profiled(n_parts=4)
    for record in profiler.completed_rounds():
        assert sorted(record.pready) == [0, 1, 2, 3]
        assert record.t_complete is not None
        assert record.t_complete >= max(record.pready.values())


def test_relative_times_start_from_start():
    # Skip round 0: its Start blocks on the async QP exchange, which is
    # (correctly) charged to the program's time-in-Start.
    profiler = run_profiled(rounds=2, stagger=2e-6)
    record = profiler.completed_rounds(skip=1)[0]
    rel = record.relative_pready_times()
    assert rel[0] == pytest.approx(2e-6, rel=0.5)
    # Staggered 2us apart plus per-call processing.
    for a, b in zip(rel, rel[1:]):
        assert 2e-6 <= b - a < 4e-6


def test_arrival_rounds_shape():
    profiler = run_profiled(rounds=4, n_parts=4)
    rounds = profiler.arrival_rounds(skip=1)
    assert len(rounds) == 3
    assert all(len(r) == 4 for r in rounds)


def test_attach_is_idempotent():
    cluster = Cluster(n_nodes=2)
    proc = cluster.add_process()
    profiler = PMPIProfiler()
    profiler.attach(proc)
    wrapped = proc.start
    profiler.attach(proc)
    assert proc.start is wrapped


def test_profiling_does_not_change_timing():
    t_profiled = None
    t_plain = None
    for profiled in (True, False):
        cluster = Cluster(n_nodes=2)
        s_proc, r_proc = cluster.ranks(2)
        if profiled:
            PMPIProfiler().attach(s_proc)
        sbuf = PartitionedBuffer(4, 1 * KiB, backed=False)
        rbuf = PartitionedBuffer(4, 1 * KiB, backed=False)

        def sender(proc):
            req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
            yield from proc.start(req)
            for i in range(4):
                yield from proc.pready(req, i)
            yield from proc.wait_partitioned(req)

        def receiver(proc):
            req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)

        cluster.spawn(sender(s_proc))
        cluster.spawn(receiver(r_proc))
        cluster.run()
        if profiled:
            t_profiled = cluster.env.now
        else:
            t_plain = cluster.env.now
    assert t_profiled == pytest.approx(t_plain)


# ---------------------------------------------------------------------------
# partitioned collectives
# ---------------------------------------------------------------------------


def run_coll_profiled(rounds=2, n_parts=4, world=3):
    """Profile rank 0 of a neighbor-alltoall; returns the profiler."""
    cluster = Cluster(n_nodes=world)
    procs = cluster.ranks(world)
    profiler = PMPIProfiler()
    profiler.attach(procs[0])

    def program(proc):
        others = [r for r in range(world) if r != proc.rank]
        send_bufs = {n: PartitionedBuffer(n_parts, 1 * KiB, backed=False)
                     for n in others}
        recv_bufs = {n: PartitionedBuffer(n_parts, 1 * KiB, backed=False)
                     for n in others}
        coll = proc.pneighbor_alltoall_init(send_bufs, recv_bufs, None)
        for _ in range(rounds):
            yield from proc.pcoll_start(coll)
            for p in range(n_parts):
                yield proc.env.timeout(1e-6)
                yield from proc.pcoll_pready(coll, p)
            yield from proc.pcoll_wait(coll)

    for proc in procs:
        cluster.spawn(program(proc))
    cluster.run()
    return profiler


def test_collective_rounds_recorded():
    profiler = run_coll_profiled(rounds=2)
    rounds = profiler.completed_coll_rounds()
    assert len(rounds) == 2
    assert [r.round_index for r in rounds] == [0, 1]
    assert all(r.coll_name == "coll.neighbor" for r in rounds)
    for record in rounds:
        assert sorted(record.pready) == [0, 1, 2, 3]
        assert record.t_complete >= max(record.pready.values())


def test_collective_neighbor_timelines():
    profiler = run_coll_profiled(rounds=1, world=3)
    record = profiler.completed_coll_rounds()[0]
    # Rank 0's outgoing edges: one per neighbor, each with a full
    # per-partition MPI_Pready timeline.
    assert sorted(record.neighbor_pready) == [1, 2]
    for times in record.neighbor_pready.values():
        assert len(times) == 4
        assert all(t is not None for t in times)
    spreads = record.neighbor_spread()
    assert all(s is not None and s >= 0 for s in spreads.values())


def test_collective_member_requests_also_profiled():
    """The collective's member pairs surface as point-to-point rounds."""
    profiler = run_coll_profiled(rounds=1, world=3)
    # 2 sends + 2 recvs on rank 0, one Start each.
    assert len(profiler.rounds) == 4


# ---------------------------------------------------------------------------
# ladder visibility (chaos: rung transitions show up round by round)
# ---------------------------------------------------------------------------


def test_rounds_carry_the_serving_module():
    profiler = run_profiled(rounds=2)
    for record in profiler.completed_rounds():
        assert record.module == "part_persist"
        assert record.level is None  # no ladder on this edge


def test_collective_rounds_carry_neighbor_modules():
    profiler = run_coll_profiled(rounds=1, world=3)
    record = profiler.completed_coll_rounds()[0]
    assert sorted(record.neighbor_modules) == [1, 2]
    assert set(record.neighbor_modules.values()) == {"part_persist"}
    assert set(record.neighbor_levels.values()) == {None}


def test_ladder_rounds_report_rung_and_level():
    from repro.core import FixedAggregation, NativeSpec
    from repro.mpi.channel_module import ChannelSpec
    from repro.mpi.ladder import LadderSpec

    spec = lambda: LadderSpec([NativeSpec(FixedAggregation(2, 1)),
                               ChannelSpec()])
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    profiler = PMPIProfiler()
    profiler.attach(s_proc)
    sbuf = PartitionedBuffer(4, 1 * KiB, backed=True)
    rbuf = PartitionedBuffer(4, 1 * KiB, backed=True)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec())
        yield from proc.start(req)
        for i in range(4):
            yield from proc.pready(req, i)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec())
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    record = profiler.completed_rounds()[0]
    assert record.module == "native_verbs"
    assert record.level == 0


# ---------------------------------------------------------------------------
# range calls (MPI_Pready_range) sample every partition when it is readied
# ---------------------------------------------------------------------------


def _profiled_stencil(loop_form: bool, monkeypatch):
    """A profiled 3x3 stencil; each worker readies its slice by one range
    call, or (``loop_form``) by one ``pcoll_pready`` per partition."""
    from repro.coll import run_stencil
    from repro.core import FixedAggregation, NativeSpec
    from repro.mpi.process import MPIProcess

    if loop_form:
        def pcoll_pready_range(self, coll, low, high, neighbor=None):
            for p in range(low, high + 1):
                yield from self.pcoll_pready(coll, p, neighbor)

        monkeypatch.setattr(MPIProcess, "pcoll_pready_range",
                            pcoll_pready_range)
    profilers = {}

    def planner(proc, axes):
        profilers[proc.rank] = PMPIProfiler()
        profilers[proc.rank].attach(proc)
        return lambda: NativeSpec(FixedAggregation(2, 2))

    result = run_stencil(planner=planner, grid=(3, 3), n_threads=4,
                         n_partitions=8, face_bytes=(16 * KiB, 8 * KiB),
                         compute=50e-6, iterations=2, warmup=1)
    monkeypatch.undo()
    return result, profilers


def _request_rounds(profiler):
    # request ids come from a process-wide counter; drop them.
    return [(r.round_index, r.t_start, r.pready, r.t_complete, r.module,
             r.level) for r in profiler.rounds]


def test_range_calls_profile_like_per_partition_calls(monkeypatch):
    ranged, ranged_prof = _profiled_stencil(False, monkeypatch)
    looped, looped_prof = _profiled_stencil(True, monkeypatch)
    assert ranged.times == looped.times
    assert sorted(ranged_prof) == list(range(9))
    for rank in range(9):
        a, b = ranged_prof[rank], looped_prof[rank]
        assert a.coll_rounds == b.coll_rounds
        assert _request_rounds(a) == _request_rounds(b)
    record = ranged_prof[4].completed_coll_rounds()[0]
    assert sorted(record.pready) == list(range(8))
    # Sampled per partition, not at call entry: the two partitions of
    # one worker's slice are readied at different times.
    assert any(record.pready[2 * t] != record.pready[2 * t + 1]
               for t in range(4))
    # The fan-out readies edge after edge: the collective's sample is the
    # first edge's pready time.
    for p in range(8):
        assert record.pready[p] == min(
            times[p] for times in record.neighbor_pready.values())


def test_second_profiler_on_one_process_is_rejected():
    cluster = Cluster(n_nodes=2)
    proc = cluster.add_process()
    PMPIProfiler().attach(proc)
    with pytest.raises(ValueError, match="already has a profiler"):
        PMPIProfiler().attach(proc)
