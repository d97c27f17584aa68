"""The per-message shortcuts keep every check they replace.

MR lookup goes through one key dict per PD, ``SendWR.total_length`` is
stored when the WR is built, and the NIC skips ``Trace.record`` while
tracing is off.  These tests pin the behaviour each shortcut must keep.
"""

import numpy as np
import pytest

from repro.errors import ProtectionError
from repro.ib.constants import Opcode, WCOpcode, WCStatus
from repro.ib.wr import SGE, RecvWR, SendWR


# -- PD key lookup ----------------------------------------------------------


def test_lookup_finds_each_key_of_its_own_kind(pair):
    pd = pair.pd0
    assert pd.find_mr_by_lkey(pair.send_mr.lkey) is pair.send_mr
    assert pd.find_mr_by_rkey(pair.send_mr.rkey) is pair.send_mr
    with pytest.raises(ProtectionError, match="lkey"):
        pd.find_mr_by_lkey(pair.send_mr.rkey)
    with pytest.raises(ProtectionError, match="rkey"):
        pd.find_mr_by_rkey(pair.send_mr.lkey)


def test_lookup_raises_after_deregister(pair):
    pair.send_mr.deregister()
    with pytest.raises(ProtectionError, match="no valid MR"):
        pair.pd0.find_mr_by_lkey(pair.send_mr.lkey)
    with pytest.raises(ProtectionError, match="no valid MR"):
        pair.pd0.find_mr_by_rkey(pair.send_mr.rkey)


def test_lookup_rejects_a_key_from_another_pd(pair):
    # recv_mr lives in pd1; pd0 must not resolve its keys.
    with pytest.raises(ProtectionError, match="no valid MR"):
        pair.pd0.find_mr_by_lkey(pair.recv_mr.lkey)
    with pytest.raises(ProtectionError, match="no valid MR"):
        pair.pd0.find_mr_by_rkey(pair.recv_mr.rkey)
    with pytest.raises(ProtectionError, match="no valid MR"):
        pair.pd0.find_mr_by_lkey(0xBAD)


def test_delivery_through_deregistered_remote_mr_raises(pair):
    pair.qp0.post_send(SendWR(
        wr_id=1, opcode=Opcode.RDMA_WRITE,
        sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr, rkey=pair.recv_mr.rkey))
    pair.recv_mr.deregister()
    with pytest.raises(ProtectionError, match="rkey"):
        pair.env.run()


# -- SendWR.total_length ----------------------------------------------------


def test_total_length_of_one_and_several_sges():
    one = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE,
                 sg_list=[SGE(0x1000, 96, 1)])
    assert one.total_length == 96
    several = SendWR(wr_id=2, opcode=Opcode.RDMA_WRITE,
                     sg_list=[SGE(0x1000, 96, 1), SGE(0x2000, 0, 1),
                              SGE(0x3000, 4000, 1)])
    assert several.total_length == 4096
    empty = SendWR(wr_id=3, opcode=Opcode.SEND, sg_list=[SGE(0, 0, 0)])
    assert empty.total_length == 0


def test_wr_without_sges_is_rejected():
    with pytest.raises(ValueError, match="at least one SGE"):
        SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, sg_list=[])


# -- tracing off costs nothing ----------------------------------------------


def test_nic_hot_path_never_records_when_tracing_is_off(pair, monkeypatch):
    trace = pair.fabric.trace
    assert trace.enabled is False
    assert all(pair.fabric.nic_at(n).trace is trace for n in (0, 1))

    def forbidden(*args, **kwargs):
        raise AssertionError("Trace.record called with tracing off")

    monkeypatch.setattr(trace, "record", forbidden)
    pair.send_buf.fill_pattern(seed=3)
    pair.qp1.post_recv(RecvWR(wr_id=5))
    pair.qp0.post_send(SendWR(
        wr_id=5, opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, 2048, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr, rkey=pair.recv_mr.rkey,
        imm_data=0x1234))
    pair.env.run()
    recv_wc, = pair.cq1.poll(4)
    send_wc, = pair.cq0.poll(4)
    assert recv_wc.status is WCStatus.SUCCESS
    assert recv_wc.opcode is WCOpcode.RECV_RDMA_WITH_IMM
    assert recv_wc.imm_data == 0x1234
    assert send_wc.status is WCStatus.SUCCESS
    assert np.array_equal(pair.recv_buf.data[:2048],
                          pair.send_buf.data[:2048])
    assert len(trace.records) == 0


def test_records_still_written_when_tracing_is_on(pair):
    pair.fabric.trace.enabled = True
    pair.qp1.post_recv(RecvWR(wr_id=5))
    pair.qp0.post_send(SendWR(
        wr_id=5, opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr, rkey=pair.recv_mr.rkey,
        imm_data=1))
    pair.env.run()
    categories = [r.category for r in pair.fabric.trace.records]
    assert "ib.wqe_start" in categories
    assert "ib.deliver" in categories

