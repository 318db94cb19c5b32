"""The runtime on non-Cori platforms.

Nothing in the stack hard-codes the paper's platform: these tests run
ensembles on the small 8-core test cluster and on custom node shapes,
checking that placement validation, contention, and the indicators all
follow the spec'd hardware.
"""

import pytest

from repro.components.analysis import EigenAnalysisModel
from repro.components.simulation import MDSimulationModel
from repro.core import IndicatorStage
from repro.dtl.dimes import InMemoryStagingDTL
from repro.platform.cache import CacheSpec
from repro.platform.cluster import Cluster
from repro.platform.node import NodeSpec
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.runner import run_ensemble
from repro.runtime.spec import EnsembleSpec, MemberSpec
from repro.util.errors import PlacementError
from repro.util.units import GIB, MIB

U, A, P = (
    IndicatorStage.USAGE,
    IndicatorStage.ALLOCATION,
    IndicatorStage.PROVISIONING,
)


def small_member(name, sim_cores=4, ana_cores=2, n_steps=4):
    sim = MDSimulationModel(
        f"{name}.sim", cores=sim_cores, natoms=10_000, stride=100
    )
    ana = EigenAnalysisModel(
        f"{name}.ana", cores=ana_cores, natoms=10_000, single_core_time=1.0
    )
    return MemberSpec(name, sim, (ana,), n_steps=n_steps)


class TestSmallCluster:
    def test_runs_on_8_core_nodes(self, small_cluster):
        spec = EnsembleSpec("small", (small_member("em1"),))
        placement = EnsemblePlacement(1, (MemberPlacement(0, (0,)),))
        result = run_ensemble(spec, placement, cluster=small_cluster)
        assert result.ensemble_makespan > 0
        assert result.objective([U, A, P]) > 0

    def test_capacity_enforced_per_spec(self, small_cluster):
        # 16-core simulation cannot fit an 8-core node
        spec = EnsembleSpec("big", (small_member("em1", sim_cores=16),))
        placement = EnsemblePlacement(1, (MemberPlacement(0, (0,)),))
        with pytest.raises(PlacementError):
            run_ensemble(spec, placement, cluster=small_cluster)

    def test_contention_reflects_small_llc(self, small_cluster):
        """On the 8 MiB-LLC test node, even the small workloads contend."""
        spec = EnsembleSpec("small", (small_member("em1"),))
        colocated = run_ensemble(
            spec,
            EnsemblePlacement(1, (MemberPlacement(0, (0,)),)),
            cluster=small_cluster,
        )
        split = run_ensemble(
            spec,
            EnsemblePlacement(2, (MemberPlacement(0, (1,)),)),
            cluster=small_cluster,
        )
        sim_colo = colocated.component_metrics["em1.sim"].llc_miss_ratio
        sim_split = split.component_metrics["em1.sim"].llc_miss_ratio
        assert sim_colo > sim_split


class TestCustomPlatform:
    def test_single_socket_fat_node(self):
        """A 1-socket 64-core node: every co-location shares one LLC."""
        spec_node = NodeSpec(
            cores=64,
            sockets=1,
            core_freq_hz=2.0e9,
            llc=CacheSpec(size_bytes=64 * MIB),
            memory_bytes=256 * GIB,
            memory_bandwidth=200e9,
        )
        cluster = Cluster(spec_node, num_nodes=1)
        dtl = InMemoryStagingDTL(
            network=cluster.network, memory_bandwidth=200e9
        )
        spec = EnsembleSpec(
            "fat",
            (small_member("em1", sim_cores=16, ana_cores=8),
             small_member("em2", sim_cores=16, ana_cores=8)),
        )
        placement = EnsemblePlacement(
            1, (MemberPlacement(0, (0,)), MemberPlacement(0, (0,)))
        )
        result = run_ensemble(spec, placement, cluster=cluster, dtl=dtl)
        # all four components share one socket: everyone contends
        for name, cm in result.component_metrics.items():
            profile_solo = (
                0.06 if name.endswith(".sim") else 0.25
            )
            assert cm.llc_miss_ratio > profile_solo
