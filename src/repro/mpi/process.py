"""One MPI rank: point-to-point transport plus the partitioned API."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import MatchingError, MPIError, RequestError
from repro.ib.constants import ACCESS_LOCAL, ACCESS_REMOTE_WRITE
from repro.ib.device import Context
from repro.ib.wr import RecvWR
from repro.mem.buffer import Buffer, PartitionedBuffer
from repro.mpi.endpoint import (
    Channel,
    Header,
    MsgKind,
    _PumpItem,
    make_seq,
    ring_payload,
)
from repro.engine import CompletionRouter, ProgressEngine
from repro.mpi.request import (
    P2PRequest,
    PartitionedState,
    PrecvRequest,
    PsendRequest,
)

if TYPE_CHECKING:
    from repro.mpi.cluster import Cluster


class MPIProcess:
    """A simulated MPI process (one rank, one node in these experiments)."""

    def __init__(self, cluster: "Cluster", rank: int, node_id: int):
        self.cluster = cluster
        self.rank = rank
        self.node_id = node_id
        self.env = cluster.env
        self.config = cluster.config
        self.ib = Context(cluster.fabric, node_id)
        self.p2p_pd = self.ib.alloc_pd()
        self.p2p_cq = self.ib.create_cq(capacity=1 << 20)
        self.engine = ProgressEngine(
            self.env, self.config.host.t_poll_miss,
            idle_fallback=self.config.engine.idle_fallback)
        #: Completion router: CQ polling plus per-wr_id dispatch.  The
        #: shared p2p CQ binds here; partitioned modules bind their own
        #: CQs in setup, in registration order.
        self.router = CompletionRouter(self.engine, self.config.host,
                                       batch=self.config.engine.poll_batch)
        self.router.bind(self.p2p_cq, self._on_p2p_wc)
        #: Software-cost multiplier (>1 when threads oversubscribe cores).
        self.sw_multiplier = 1.0
        #: Per-collective epoch counters (tag namespacing across
        #: repeated/concurrent collectives; see repro.mpi.collectives).
        self._coll_epochs: dict[str, int] = {}
        # transport state
        self._channels_out: dict[int, Channel] = {}
        self._inbound_headers: dict[int, Header] = {}
        self._mr_cache: dict[int, object] = {}
        # p2p matching
        self._posted_recvs: list[P2PRequest] = []
        self._unexpected: list[tuple[Header, Optional[np.ndarray]]] = []
        self._unexpected_rts: list[Header] = []
        self._pending_rndv_sends: dict[int, tuple[P2PRequest, object]] = {}
        #: The attached :class:`~repro.profiler.PMPIProfiler`, if any.
        self.profiler = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def software_cost(self, t: float) -> float:
        """CPU cost adjusted for core oversubscription (Fig. 8 @128)."""
        return t * self.sw_multiplier

    def next_coll_epoch(self, name: str) -> int:
        """Next tag-namespacing epoch for the collective ``name``.

        Every collective implementation (the token/binomial helpers in
        :mod:`repro.mpi.collectives` and the partitioned collectives in
        :mod:`repro.coll`) draws its per-instance epoch here, so
        repeated and concurrent collectives of the same name never
        cross-match as long as all ranks issue them in the same order —
        the standard MPI collective-ordering requirement.
        """
        epoch = self._coll_epochs.get(name, 0) + 1
        self._coll_epochs[name] = epoch
        return epoch

    def channel_to(self, dest: int) -> Channel:
        """The outbound channel to ``dest`` (created and connected lazily)."""
        chan = self._channels_out.get(dest)
        if chan is None:
            peer = self.cluster.process_by_rank(dest)
            chan = Channel(self, peer)
            self._channels_out[dest] = chan
        return chan

    def _register(self, buf: Buffer, remote_write: bool = False):
        """Register (and cache) an MR for a user buffer."""
        mr = self._mr_cache.get(buf.addr)
        if mr is None or (remote_write and not (mr.access & ACCESS_REMOTE_WRITE)):
            access = ACCESS_LOCAL | (ACCESS_REMOTE_WRITE if remote_write else 0)
            mr = self.p2p_pd.reg_mr(buf, access)
            self._mr_cache[buf.addr] = mr
        return mr

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def isend(self, buf: Buffer, dest: int, tag: int,
              nbytes: Optional[int] = None, offset: int = 0) -> P2PRequest:
        """Non-blocking send through the UCX-like path."""
        if dest == self.rank:
            raise MPIError("self-sends are not supported")
        nbytes = buf.nbytes - offset if nbytes is None else nbytes
        if nbytes < 0 or offset < 0 or offset + nbytes > buf.nbytes:
            raise MPIError(f"send range [{offset}, +{nbytes}) outside buffer")
        req = P2PRequest(self, "send", buf, nbytes, dest, tag)
        ucx = self.config.ucx
        chan = self.channel_to(dest)
        mr = self._register(buf)
        gather = (mr.addr + offset, nbytes, mr.lkey) if nbytes > 0 else None
        proto = ucx.protocol_for(nbytes)
        if not proto.rendezvous:
            cost = proto.t_send
            if proto.copies:
                cost += nbytes / self.config.host.memcpy_rate
            header = Header(kind=MsgKind.EAGER, seq=make_seq(),
                            sender=self.rank, tag=tag, nbytes=nbytes,
                            ref=chan)
            chan.submit(_PumpItem(
                header=header, gather=gather, target=None,
                cpu_cost=self.software_cost(cost), gap=proto.gap,
                to_ring=True, on_sent=lambda wc: req.mark_complete()))
        else:
            self._pending_rndv_sends[req.request_id] = (req, gather)
            header = Header(kind=MsgKind.RNDV_RTS, seq=make_seq(),
                            sender=self.rank, tag=tag, nbytes=nbytes,
                            ref=req.request_id)
            chan.submit(_PumpItem(
                header=header, gather=None, target=None,
                cpu_cost=self.software_cost(proto.t_send),
                gap=ucx.gap_inline))
        return req

    def irecv(self, buf: Buffer, source: int, tag: int,
              nbytes: Optional[int] = None, offset: int = 0) -> P2PRequest:
        """Non-blocking receive (no wildcards, as in partitioned MPI)."""
        nbytes = buf.nbytes - offset if nbytes is None else nbytes
        if nbytes < 0 or offset < 0 or offset + nbytes > buf.nbytes:
            raise MPIError(f"recv range [{offset}, +{nbytes}) outside buffer")
        req = P2PRequest(self, "recv", buf, nbytes, source, tag)
        req.recv_offset = offset
        # Unexpected eager message already here?
        for i, (header, payload) in enumerate(self._unexpected):
            if header.sender == source and header.tag == tag:
                del self._unexpected[i]
                if header.nbytes > nbytes:
                    raise MatchingError(
                        f"message of {header.nbytes}B truncated to {nbytes}B")
                buf.write(offset, payload)
                req.mark_complete()
                return req
        # Unexpected rendezvous RTS?
        for i, header in enumerate(self._unexpected_rts):
            if header.sender == source and header.tag == tag:
                del self._unexpected_rts[i]
                self._reply_cts(header, req)
                return req
        self._posted_recvs.append(req)
        return req

    def _match_posted(self, header: Header) -> Optional[P2PRequest]:
        for i, req in enumerate(self._posted_recvs):
            if req.peer == header.sender and req.tag == header.tag:
                del self._posted_recvs[i]
                return req
        return None

    def _reply_cts(self, rts: Header, req: P2PRequest) -> None:
        """Answer a rendezvous RTS: expose the receive buffer."""
        if rts.nbytes > req.nbytes:
            raise MatchingError(
                f"rendezvous message of {rts.nbytes}B truncated to {req.nbytes}B")
        mr = self._register(req.buf, remote_write=True)
        offset = getattr(req, "recv_offset", 0)
        chan = self.channel_to(rts.sender)
        header = Header(kind=MsgKind.RNDV_CTS, seq=make_seq(),
                        sender=self.rank, tag=rts.tag,
                        ref=(rts.ref, req, mr.addr + offset, mr.rkey))
        chan.submit(_PumpItem(header=header, gather=None, target=None,
                              cpu_cost=self.config.ucx.t_rndv,
                              gap=self.config.ucx.gap_inline))

    def _on_p2p_wc(self, wc):
        """Dispatch one completion from the shared p2p CQ (router hook)."""
        if not wc.ok:
            yield from self._handle_p2p_failure(wc)
        elif wc.imm_data is not None:
            header = self._inbound_headers.pop(wc.imm_data, None)
            if header is None:
                raise MPIError(f"no header for seq {wc.imm_data}")
            # Replenish the consumed RQ entry.
            self.ib.nic.qps[wc.qp_num].post_recv(RecvWR(wr_id=0))
            yield from self._handle_inbound(header)
        else:
            callback = self.router.pop_success(wc.wr_id)
            self.router.pop_failure(wc.wr_id)
            if callback is not None:
                result = callback(wc)
                if result is not None and hasattr(result, "send"):
                    yield from result

    def _handle_p2p_failure(self, wc):
        """Route a failed completion to recovery, or surface it.

        With no reconnect policy armed the failure escapes as a typed
        error through whoever is driving the progress engine — the
        MPI layer never hangs on a dead channel.
        """
        from repro.ib.constants import WCStatus

        faults = self.cluster.fabric.faults
        if faults is None or not faults.schedule.allow_reconnect:
            from repro.errors import ChannelDownError, RetryExhaustedError

            nic = self.config.nic
            retries = {"retry_cnt": nic.retry_cnt,
                       "rnr_retry": nic.rnr_retry}
            if wc.status in (WCStatus.RETRY_EXC_ERR,
                             WCStatus.RNR_RETRY_EXC_ERR):
                raise RetryExhaustedError(
                    "p2p WR failed and reconnect is disabled",
                    edge=(self.rank, None), wr_id=wc.wr_id,
                    qp_num=wc.qp_num, status=wc.status.value,
                    retries=retries)
            raise ChannelDownError(
                "p2p WR flushed and reconnect is disabled",
                edge=(self.rank, None), wr_id=wc.wr_id,
                qp_num=wc.qp_num, status=wc.status.value,
                retries=retries)
        self.cluster.fabric.counters.inc("mpi.p2p_failures")
        entry = self.router.pop_failure(wc.wr_id)
        if entry is None:
            # A flushed receive prestock entry: the reconnect walk
            # restocks the RQ, nothing else to do.
            return
        chan, payload, _qp = entry
        self.router.pop_success(wc.wr_id)
        if chan is not None and getattr(payload, "on_error", None) is None:
            chan.note_failure(payload)
            return
        handler = payload.on_error if chan is not None else payload
        result = handler(wc)
        if result is not None and hasattr(result, "send"):
            yield from result
        return
        yield  # pragma: no cover - generator protocol

    def _handle_inbound(self, header: Header):
        env = self.env
        ucx = self.config.ucx
        kind = header.kind
        if kind is MsgKind.EAGER:
            proto = ucx.protocol_for(header.nbytes)
            yield proto.t_recv
            req = self._match_posted(header)
            if req is None:
                payload = ring_payload(header.ref, header)
                staged = payload.copy() if payload is not None else None
                self._unexpected.append((header, staged))
                return
            if header.nbytes > req.nbytes:
                raise MatchingError(
                    f"message of {header.nbytes}B truncated to {req.nbytes}B")
            if proto.copies and header.nbytes > 0:
                yield header.nbytes / self.config.host.memcpy_rate
            payload = ring_payload(header.ref, header)
            req.buf.write(getattr(req, "recv_offset", 0), payload)
            req.mark_complete()
        elif kind is MsgKind.RNDV_RTS:
            yield ucx.rx_rndv
            req = self._match_posted(header)
            if req is None:
                self._unexpected_rts.append(header)
                return
            self._reply_cts(header, req)
        elif kind is MsgKind.RNDV_CTS:
            yield ucx.rx_rndv
            send_req_id, recv_req, addr, rkey = header.ref
            entry = self._pending_rndv_sends.pop(send_req_id, None)
            if entry is None:
                raise MPIError(f"CTS for unknown send request {send_req_id}")
            send_req, gather = entry
            chan = self.channel_to(header.sender)
            data_header = Header(kind=MsgKind.RNDV_DATA, seq=make_seq(),
                                 sender=self.rank, tag=header.tag,
                                 nbytes=send_req.nbytes, ref=recv_req)
            chan.submit(_PumpItem(
                header=data_header, gather=gather, target=(addr, rkey),
                cpu_cost=self.config.ucx.t_rndv, gap=ucx.gap_rndv,
                on_sent=lambda wc: send_req.mark_complete()))
        elif kind is MsgKind.RNDV_DATA:
            yield ucx.rx_rndv
            header.ref.mark_complete()
        elif kind in (MsgKind.PART_DATA, MsgKind.PART_RTS, MsgKind.PART_ATS):
            module, payload = header.ref
            yield from module.handle_inbound(self, header, payload)
        else:  # pragma: no cover - all kinds handled above
            raise MPIError(f"unhandled message kind {kind}")

    # -- blocking conveniences (generators) ---------------------------------

    def wait(self, req) -> object:
        """Progress until ``req`` completes (``MPI_Wait``); yields."""
        yield from self.engine.wait_until(lambda: req.done)
        return req

    def wait_all(self, reqs) -> None:
        """Progress until every request completes; yields."""
        yield from self.engine.wait_until(lambda: all(r.done for r in reqs))

    def test(self, req):
        """One progress pass; yields, returns ``req.done`` (``MPI_Test``)."""
        yield from self.engine.progress_once()
        return req.done

    def send(self, buf: Buffer, dest: int, tag: int, **kw):
        req = self.isend(buf, dest, tag, **kw)
        yield from self.wait(req)

    def recv(self, buf: Buffer, source: int, tag: int, **kw):
        req = self.irecv(buf, source, tag, **kw)
        yield from self.wait(req)

    # -- classic persistent point-to-point -----------------------------------

    def send_init(self, buf: Buffer, dest: int, tag: int,
                  nbytes: Optional[int] = None, offset: int = 0):
        """``MPI_Send_init``: a reusable send request (non-blocking)."""
        from repro.mpi.request import PersistentP2PRequest

        nbytes = buf.nbytes - offset if nbytes is None else nbytes
        if nbytes < 0 or offset < 0 or offset + nbytes > buf.nbytes:
            raise MPIError(f"send range [{offset}, +{nbytes}) outside buffer")
        return PersistentP2PRequest(self, "send", buf, nbytes, dest, tag,
                                    offset)

    def recv_init(self, buf: Buffer, source: int, tag: int,
                  nbytes: Optional[int] = None, offset: int = 0):
        """``MPI_Recv_init``: a reusable receive request (non-blocking)."""
        from repro.mpi.request import PersistentP2PRequest

        nbytes = buf.nbytes - offset if nbytes is None else nbytes
        if nbytes < 0 or offset < 0 or offset + nbytes > buf.nbytes:
            raise MPIError(f"recv range [{offset}, +{nbytes}) outside buffer")
        return PersistentP2PRequest(self, "recv", buf, nbytes, source, tag,
                                    offset)

    def start_p2p(self, req) -> None:
        """``MPI_Start`` for a classic persistent request (non-blocking)."""
        req.start()

    def startall(self, reqs) -> None:
        """``MPI_Startall``: activate several persistent requests."""
        for req in reqs:
            req.start()

    # ------------------------------------------------------------------
    # MPI Partitioned
    # ------------------------------------------------------------------

    def psend_init(self, buf: PartitionedBuffer, dest: int, tag: int,
                   module) -> PsendRequest:
        """``MPI_Psend_init``: non-blocking persistent init (sender)."""
        req = PsendRequest(self, buf, dest, tag, module.name)
        req.module_spec = module
        self.cluster.match_partitioned(req)
        return req

    def precv_init(self, buf: PartitionedBuffer, source: int, tag: int,
                   module) -> PrecvRequest:
        """``MPI_Precv_init``: non-blocking persistent init (receiver)."""
        req = PrecvRequest(self, buf, source, tag, module.name)
        req.module_spec = module
        self.cluster.match_partitioned(req)
        return req

    def start(self, req):
        """``MPI_Start``: (re)activate a partitioned request; yields.

        On the first round this polls until the remote buffers are ready
        (the paper's stand-in for ``MPI_Pbuf_prepare``, Section IV-A).
        """
        if req.state is PartitionedState.ACTIVE:
            raise RequestError("Start on an already-active request")
        if not req.ready_event.triggered:
            yield from self.engine.wait_until(
                lambda: req.ready_event.triggered)
        req.reset_round_stats()
        req.rearm()
        if req.kind == "send":
            yield from req.module.start_send(req)
        else:
            yield from req.module.start_recv(req)

    def pready(self, req: PsendRequest, partition: int):
        """``MPI_Pready``: mark a partition ready; yields (thread context).

        The ``low == high`` case of :meth:`pready_range`.
        """
        return self.pready_range(req, partition, partition)

    def pready_range(self, req: PsendRequest, low: int, high: int):
        """``MPI_Pready_range``: mark partitions ``low..high`` ready; yields.

        Bounds are inclusive, as in MPI 4.0, and all of them are checked
        before any partition is marked.  Partitions are then readied one
        by one in index order, each with the same transport work (and
        the same simulated cost) as its own ``MPI_Pready`` call.
        """
        self.check_pready(req, low, high)
        for partition in range(low, high + 1):
            yield from self.mark_ready(req, partition)

    def check_pready(self, req: PsendRequest, low: int, high: int) -> None:
        """Validate a ``Pready``/``Pready_range`` call; marks nothing."""
        req.require_active("Pready")
        req.check_range(low, high)
        if not isinstance(req, PsendRequest):
            raise RequestError("Pready is only valid on Psend requests")

    def mark_ready(self, req: PsendRequest, partition: int):
        """Ready one validated partition: returns the module's generator.

        Records the pready time (and the attached profiler's sample)
        now, when the partition is readied, not when a range call began.
        """
        req.record_pready(partition)
        if self.profiler is not None:
            self.profiler.on_pready(self, req, partition)
        return req.module.pready(req, partition)

    def parrived(self, req: PrecvRequest, partition: int):
        """``MPI_Parrived``: yields, returns arrival of one partition.

        Checks the flag first; if unset, takes one non-blocking progress
        pass (try-lock discipline) and re-checks.
        """
        req.check_partition(partition)
        if not isinstance(req, PrecvRequest):
            raise RequestError("Parrived is only valid on Precv requests")
        if bool(req.arrived[partition]):
            return True
        yield from self.engine.progress_once()
        return bool(req.arrived[partition])

    def wait_partitioned(self, req):
        """``MPI_Wait`` on a partitioned request; yields.

        With ``part.epoch_deadline`` configured the wait is bounded:
        an epoch still incomplete after that much virtual time raises
        :class:`~repro.errors.EpochDeadlineError` instead of hanging.
        """
        deadline = self.config.part.epoch_deadline
        if deadline is not None:
            deadline = self.env.now + deadline
        yield from self.engine.wait_until(
            lambda: req.done, deadline=deadline,
            describe=f"partitioned {req.kind} round {req.round}")
        return req

    # ------------------------------------------------------------------
    # MPI Partitioned collectives (repro.coll facade)
    # ------------------------------------------------------------------
    #
    # The collective objects live in the ``repro.coll`` layer above this
    # one; these methods are the rank-local MPIX-style entry points
    # (``MPIX_Pneighbor_alltoall_init`` and friends), imported lazily so
    # the p2p/partitioned core stays importable without the coll layer.

    def pneighbor_alltoall_init(self, send_bufs, recv_bufs, module_for):
        """Persistent partitioned neighbor-alltoall init (non-blocking).

        ``send_bufs``/``recv_bufs`` map neighbor rank ->
        :class:`~repro.mem.buffer.PartitionedBuffer`; ``module_for``
        resolves each neighbor to its transport module (one aggregation
        plan per edge — see :func:`repro.coll.edge_modules`).
        """
        from repro.coll.neighbor import PneighborAlltoall

        return PneighborAlltoall(self, send_bufs, recv_bufs, module_for)

    def pbcast_init(self, buf, world: int, root: int = 0, module_for=None):
        """Persistent partitioned broadcast init over a binomial tree."""
        from repro.coll.tree import Pbcast

        return Pbcast(self, buf, world, root=root, module_for=module_for)

    def pallreduce_init(self, buf, world: int, op=None, module_for=None):
        """Persistent partitioned allreduce init (reduce + bcast trees)."""
        from repro.coll.tree import Pallreduce

        return Pallreduce(self, buf, world, op=op, module_for=module_for)

    def pcoll_start(self, coll):
        """``MPI_Start`` on a partitioned collective; yields."""
        yield from coll.start()

    def pcoll_pready(self, coll, partition: int, neighbor=None):
        """``MPI_Pready`` a partition of a collective; yields.

        ``neighbor=None`` readies the partition on every outgoing edge
        (the contribution is complete); a rank readies toward a single
        neighbor by naming it.  The ``low == high`` case of
        :meth:`pcoll_pready_range`.
        """
        return coll.pready_range(partition, partition, neighbor)

    def pcoll_pready_range(self, coll, low: int, high: int, neighbor=None):
        """``MPI_Pready_range`` on a collective: partitions ``low..high``
        (inclusive) on every outgoing edge, or toward ``neighbor``; yields.
        """
        return coll.pready_range(low, high, neighbor)

    def pcoll_parrived(self, coll, neighbor, partition: int):
        """``MPI_Parrived`` on one inbound edge of a collective; yields."""
        result = yield from coll.parrived(neighbor, partition)
        return result

    def pcoll_wait(self, coll):
        """``MPI_Wait`` on a partitioned collective; yields."""
        yield from coll.wait()
        return coll

    def __repr__(self) -> str:
        return f"<MPIProcess rank={self.rank} node={self.node_id}>"
