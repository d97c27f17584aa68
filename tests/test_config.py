"""Tests for the configuration layer."""

import dataclasses
import pickle

import pytest

from repro.config import (
    ClusterConfig,
    HostConfig,
    LinkConfig,
    NICConfig,
    NIAGARA,
    PartitionedConfig,
    ProtocolCosts,
    UCXConfig,
)
from repro.errors import ConfigError
from repro.units import KiB


def test_default_config_validates():
    NIAGARA.validate()


def test_nic_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.nic, qp_rate=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(
            NIAGARA.nic, qp_rate=NIAGARA.nic.line_rate * 2).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.nic, mtu=64).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.nic, max_outstanding_rdma=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.nic, wire_chunk=1024).validate()


def test_link_validation():
    with pytest.raises(ConfigError):
        LinkConfig(latency=-1).validate()


def test_host_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.host, cores_per_node=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.host, memcpy_rate=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(
            NIAGARA.host, oversubscription_penalty=0.5).validate()


def test_ucx_protocol_selection():
    ucx = NIAGARA.ucx
    assert ucx.protocol_for(64).name == "inline"
    assert ucx.protocol_for(ucx.inline_max).name == "inline"
    assert ucx.protocol_for(ucx.inline_max + 1).name == "eager-bcopy"
    assert ucx.protocol_for(1 * KiB).name == "eager-bcopy"
    assert ucx.protocol_for(1 * KiB + 1).name == "eager-zcopy"
    assert ucx.protocol_for(8 * KiB).name == "eager-zcopy"
    assert ucx.protocol_for(8 * KiB + 1).name == "rndv"


def test_protocol_properties():
    ucx = NIAGARA.ucx
    assert ucx.protocol_for(512).copies          # bcopy stages
    assert not ucx.protocol_for(4 * KiB).copies  # zcopy does not
    assert ucx.protocol_for(1 << 20).rendezvous
    assert not ucx.protocol_for(64).rendezvous


def _tier_formula(ucx: UCXConfig, nbytes: int) -> ProtocolCosts:
    """The tier table, written out independently of the cached lookup."""
    if nbytes <= ucx.inline_max:
        return ProtocolCosts("inline", ucx.t_inline, ucx.gap_inline,
                             ucx.rx_inline)
    if nbytes <= ucx.eager_bcopy_max:
        return ProtocolCosts("eager-bcopy", ucx.t_eager_bcopy, ucx.gap_bcopy,
                             ucx.rx_bcopy, copies=True)
    if nbytes <= ucx.eager_zcopy_max:
        return ProtocolCosts("eager-zcopy", ucx.t_eager_zcopy, ucx.gap_zcopy,
                             ucx.rx_zcopy)
    return ProtocolCosts("rndv", ucx.t_rndv, ucx.gap_rndv, ucx.rx_rndv,
                         rendezvous=True)


@pytest.mark.parametrize("ucx", [
    NIAGARA.ucx,
    UCXConfig(inline_max=100, eager_bcopy_max=300, eager_zcopy_max=5000,
              t_rndv=1e-6, rx_bcopy=2e-7),
], ids=["niagara", "custom"])
def test_protocol_for_matches_formula_at_every_boundary(ucx):
    sizes = [0, 1]
    for edge in (ucx.inline_max, ucx.eager_bcopy_max, ucx.eager_zcopy_max):
        sizes += [edge - 1, edge, edge + 1]
    sizes.append(1 << 30)
    for nbytes in sizes:
        assert ucx.protocol_for(nbytes) == _tier_formula(ucx, nbytes), nbytes


def test_protocol_tier_cache_is_invisible():
    fresh = UCXConfig(inline_max=128)
    used = UCXConfig(inline_max=128)
    pickled_fresh = pickle.dumps(fresh)
    before = (repr(used), hash(used), dataclasses.asdict(used))
    used.protocol_for(64)
    used.protocol_for(1 << 20)
    assert used == fresh
    assert (repr(used), hash(used), dataclasses.asdict(used)) == before
    assert pickle.dumps(used) == pickled_fresh
    clone = pickle.loads(pickle.dumps(used))
    assert clone == used
    assert clone.protocol_for(64) == used.protocol_for(64)
    # Shared tiers are frozen, so a caller cannot corrupt the cache.
    with pytest.raises(dataclasses.FrozenInstanceError):
        used.protocol_for(64).t_send = 1.0


def test_replaced_config_gets_its_own_tiers():
    base = UCXConfig()
    base.protocol_for(64)
    cheaper = dataclasses.replace(base, t_inline=1e-9)
    assert cheaper.protocol_for(64).t_send == 1e-9
    assert base.protocol_for(64).t_send == base.t_inline


def test_ucx_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(
            NIAGARA.ucx, inline_max=4 * KiB, eager_bcopy_max=1024).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.ucx, n_lanes=0).validate()


def test_partitioned_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.part, default_qps=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.part, timer_poll=0).validate()


def test_cluster_validation_cascades():
    bad = NIAGARA.with_changes(
        nic=dataclasses.replace(NIAGARA.nic, mtu=1))
    with pytest.raises(ConfigError):
        bad.validate()
    with pytest.raises(ConfigError):
        NIAGARA.with_changes(seed=-1).validate()


def test_with_changes_preserves_rest():
    changed = NIAGARA.with_changes(seed=99)
    assert changed.seed == 99
    assert changed.nic == NIAGARA.nic
    assert NIAGARA.seed != 99  # original untouched


def test_configs_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        NIAGARA.seed = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        NIAGARA.nic.mtu = 1024


def test_niagara_calibration_sanity():
    """EDR-like numbers: ~12GB/s wire, ~us latency, 40 cores."""
    assert 10e9 < NIAGARA.nic.line_rate < 14e9
    assert NIAGARA.nic.qp_rate < NIAGARA.nic.line_rate
    assert 0.1e-6 < NIAGARA.link.latency < 5e-6
    assert NIAGARA.host.cores_per_node == 40
    assert NIAGARA.nic.max_outstanding_rdma == 16
    assert NIAGARA.nic.mtu == 4 * KiB
