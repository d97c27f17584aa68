"""Protection domains: the resource container of the verbs model."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ProtectionError
from repro.ib.constants import ACCESS_LOCAL
from repro.ib.mr import MemoryRegion
from repro.mem.buffer import Buffer

if TYPE_CHECKING:
    from repro.ib.device import Context


class ProtectionDomain:
    """Encapsulates MRs and QPs to prevent arbitrary cross access.

    MRs registered in one PD cannot be used by QPs of another — the
    check the real hardware enforces and tests exercise.
    """

    _next_handle = 1

    def __init__(self, context: "Context"):
        self.context = context
        self.handle = ProtectionDomain._next_handle
        ProtectionDomain._next_handle += 1
        self.mrs: list[MemoryRegion] = []
        #: Every key (lkey and rkey) of every MR registered here -> MR.
        #: Keys come from one global counter, so the two kinds never
        #: collide; lookups still check the kind and ``valid``.
        self._by_key: dict[int, MemoryRegion] = {}
        self.qps: list = []

    def reg_mr(self, buffer: Buffer, access: int = ACCESS_LOCAL) -> MemoryRegion:
        """Register ``buffer``, returning the MR (``ibv_reg_mr``)."""
        mr = MemoryRegion(self, buffer, access)
        self.mrs.append(mr)
        self._by_key[mr.lkey] = mr
        self._by_key[mr.rkey] = mr
        return mr

    def find_mr_by_lkey(self, lkey: int) -> MemoryRegion:
        mr = self._by_key.get(lkey)
        if mr is None or mr.lkey != lkey or not mr._valid:
            raise ProtectionError(
                f"no valid MR with lkey {lkey:#x} in PD {self.handle}")
        return mr

    def find_mr_by_rkey(self, rkey: int) -> MemoryRegion:
        mr = self._by_key.get(rkey)
        if mr is None or mr.rkey != rkey or not mr._valid:
            raise ProtectionError(
                f"no valid MR with rkey {rkey:#x} in PD {self.handle}")
        return mr

    def __repr__(self) -> str:
        return f"<PD handle={self.handle} mrs={len(self.mrs)} qps={len(self.qps)}>"
