"""Pinned digests of contention pricing on non-default platforms.

The Cori-like platform is pinned end to end by the golden store; this
module pins the node model where the golden store never looks: 1-, 2-
and 4-socket nodes, core counts that split unevenly or tie across
sockets, a small LLC, a node so starved of memory bandwidth that the
stretch rises above 1, and contention switched off. For each platform a
seeded grid of small ensembles is priced by
:func:`~repro.runtime.effective.compute_effective_stages` and by a
:class:`~repro.search.cache.StageCache`, and the SHA-256 of every float
they return (each component's stage times and every field of its
contention assessment, then each member's indicator and makespan) is
pinned, so a change to how a node's residents are priced cannot move a
single float unnoticed.
"""

import hashlib
import random

import pytest

from repro.components.analysis import EigenAnalysisModel
from repro.components.simulation import MDSimulationModel
from repro.dtl.dimes import InMemoryStagingDTL
from repro.platform.cache import CacheSpec
from repro.platform.cluster import Cluster
from repro.platform.contention import ContentionModel
from repro.platform.node import NodeSpec
from repro.runtime.effective import compute_effective_stages
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, MemberSpec
from repro.search.cache import StageCache
from repro.util.units import GIB, MIB

NODES = 3
CASES = 40

#: name -> (node spec, contention enabled)
PLATFORMS = {
    "one-socket": (
        NodeSpec(cores=8, sockets=1, llc=CacheSpec(size_bytes=8 * MIB)),
        True,
    ),
    "two-socket-8mib": (
        NodeSpec(
            cores=10,
            sockets=2,
            core_freq_hz=2.0e9,
            llc=CacheSpec(size_bytes=8 * MIB),
            memory_bytes=16 * GIB,
            memory_bandwidth=40e9,
        ),
        True,
    ),
    "four-socket": (
        NodeSpec(cores=12, sockets=4, llc=CacheSpec(size_bytes=20 * MIB)),
        True,
    ),
    "starved-bandwidth": (
        NodeSpec(
            cores=8,
            sockets=2,
            llc=CacheSpec(size_bytes=8 * MIB),
            memory_bandwidth=1e9,
        ),
        True,
    ),
    "contention-off": (
        NodeSpec(cores=10, sockets=2, llc=CacheSpec(size_bytes=8 * MIB)),
        False,
    ),
}

#: digest per platform, recorded while each node was priced by
#: allocating its residents' cores one by one on a live node object
EXPECTED = {
    "contention-off": (
        "c35e8dbe416fb96324493917002bf84a2ff32e7b963c7ee3684069b8be2329d5"
    ),
    "four-socket": (
        "f29bd4ff514a9a65607c3a62f6171688a5d2035800fada2b071a7acbf7d4e838"
    ),
    "one-socket": (
        "d5483a28c7bf357eb559e576c1c812a9f6279bda2e7a283229c7c035dbcb190e"
    ),
    "starved-bandwidth": (
        "4159170da14435d3fab5df2a84c66f54adb577259f6c49457492ee177532efea"
    ),
    "two-socket-8mib": (
        "a420e9c1d16522f9eac20352f8d419555201ca94a89ea2f8ccf6acb3af20774a"
    ),
}


def _cluster(name):
    node_spec, enabled = PLATFORMS[name]
    return Cluster(node_spec, NODES, contention=ContentionModel(enabled=enabled))


def _case(rng, capacity):
    """A seeded ensemble of 1-3 members and a placement that fits."""
    free = [capacity] * NODES
    members, placements = [], []
    for m in range(rng.randint(1, 3)):
        name = f"em{m + 1}"
        demands = [rng.randint(1, min(5, capacity))] + [
            rng.randint(1, min(3, capacity)) for _ in range(rng.randint(1, 2))
        ]
        nodes = []
        for cores in demands:
            fits = [n for n in range(NODES) if free[n] >= cores]
            if not fits:
                break
            node = rng.choice(fits)
            free[node] -= cores
            nodes.append(node)
        if len(nodes) < 2:
            break
        sim = MDSimulationModel(
            f"{name}.sim",
            cores=demands[0],
            natoms=rng.choice((20_000, 120_000, 400_000)),
            stride=rng.choice((100, 800)),
        )
        analyses = tuple(
            EigenAnalysisModel(
                f"{name}.ana{j + 1}",
                cores=cores,
                natoms=rng.choice((20_000, 250_000)),
                single_core_time=rng.choice((1.0, 12.0)),
            )
            for j, cores in enumerate(demands[1 : len(nodes)])
        )
        members.append(MemberSpec(name, sim, analyses, n_steps=5))
        placements.append(MemberPlacement(nodes[0], tuple(nodes[1:])))
    if not members:
        return _case(rng, capacity)
    return (
        EnsembleSpec("pin", tuple(members)),
        EnsemblePlacement(NODES, tuple(placements)),
    )


def digest(name):
    """SHA-256 of every float the grid of ``name`` prices."""
    rng = random.Random(f"pricing-pin/{name}")
    capacity = PLATFORMS[name][0].cores
    lines = []
    for _ in range(CASES):
        spec, placement = _case(rng, capacity)
        cluster = _cluster(name)
        dtl = InMemoryStagingDTL.for_platform(
            cluster.network, cluster.node_spec
        )
        for member in compute_effective_stages(spec, placement, cluster, dtl):
            for comp in (member.simulation, *member.analyses):
                a = comp.assessment
                lines.append(
                    " ".join(
                        [comp.name, str(comp.node)]
                        + [
                            repr(value)
                            for value in (
                                comp.compute_time,
                                comp.io_time,
                                a.llc_miss_ratio,
                                a.cpi,
                                a.dilation,
                                a.bandwidth_demand,
                                a.bandwidth_stretch,
                            )
                        ]
                    )
                )
        terms = StageCache(cluster, dtl).member_terms(spec, placement)
        lines.append(
            " ".join(repr(v) for v in (*terms.indicators, *terms.makespans))
        )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PLATFORMS))
def test_digest_is_pinned(name):
    assert digest(name) == EXPECTED[name]


def test_grid_reaches_every_regime():
    """The grid prices what it claims to: a stretch above 1 on the
    starved node, residents split unevenly across sockets, and solo
    behaviour with contention off."""
    stretched = split = 0
    rng = random.Random("pricing-pin/starved-bandwidth")
    for _ in range(CASES):
        spec, placement = _case(rng, PLATFORMS["starved-bandwidth"][0].cores)
        cluster = _cluster("starved-bandwidth")
        dtl = InMemoryStagingDTL.for_platform(cluster.network, cluster.node_spec)
        for member in spec.members:
            for model in (member.simulation, *member.analyses):
                split += model.cores % 2
        for member in compute_effective_stages(spec, placement, cluster, dtl):
            for comp in (member.simulation, *member.analyses):
                stretched += comp.assessment.bandwidth_stretch > 1.0
    assert stretched and split
    rng = random.Random("pricing-pin/contention-off")
    spec, placement = _case(rng, PLATFORMS["contention-off"][0].cores)
    cluster = _cluster("contention-off")
    dtl = InMemoryStagingDTL.for_platform(cluster.network, cluster.node_spec)
    for member in compute_effective_stages(spec, placement, cluster, dtl):
        for comp in (member.simulation, *member.analyses):
            assert comp.assessment.dilation == 1.0
