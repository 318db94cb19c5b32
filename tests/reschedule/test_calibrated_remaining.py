"""The re-planner's calibrated remaining makespan, priced on one cache.

:func:`calibrated_remaining_makespan` reads each member's stages from
the run's :class:`~repro.search.cache.StageCache` and each component's
node from the placement. The reference below is the formula as it was
first written, on the full-platform assessment
(:func:`~repro.runtime.effective.compute_effective_stages`) of every
candidate; the two must agree with ``==`` on random ensembles,
placements, slowdowns and remaining-step counts.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.dtl.dimes import InMemoryStagingDTL
from repro.dtl.pfs import ParallelFilesystemDTL
from repro.platform.specs import make_cori_like_cluster
from repro.reschedule.replanner import calibrated_remaining_makespan
from repro.runtime.effective import compute_effective_stages
from repro.runtime.spec import EnsembleSpec, default_member
from repro.scheduler.policies import RandomPolicy
from repro.search.cache import StageCache
from repro.util.errors import PlacementError


def reference_remaining(
    spec, placement, cluster, dtl, slowdown, remaining_steps
):
    """The uncached formula: one platform assessment per call."""
    effective = compute_effective_stages(spec, placement, cluster, dtl)
    worst = 0.0
    for member in effective:
        steps = remaining_steps.get(member.name, member.n_steps)
        if steps <= 0:
            continue
        sim = member.simulation
        s_cal = sim.compute_time * slowdown.get(sim.node, 1.0)
        sim_active = s_cal + sim.io_time
        ana_active = max(
            ana.io_time + ana.compute_time * slowdown.get(ana.node, 1.0)
            for ana in member.analyses
        )
        sigma = max(sim_active, ana_active)
        drain = sim_active + ana_active - sigma
        worst = max(worst, steps * sigma + drain)
    return worst


@st.composite
def members(draw, name):
    return default_member(
        name,
        num_analyses=draw(st.integers(1, 3)),
        n_steps=draw(st.integers(1, 20)),
        sim_cores=draw(st.sampled_from((8, 16))),
        ana_cores=draw(st.sampled_from((4, 8))),
        natoms=draw(st.sampled_from((150_000, 250_000, 350_000))),
    )


@st.composite
def scenarios(draw):
    spec = EnsembleSpec(
        "calibrated",
        tuple(
            draw(members(f"em{i}"))
            for i in range(draw(st.integers(1, 4)))
        ),
    )
    components = sum(1 + m.num_couplings for m in spec.members)
    num_nodes = draw(st.integers(1, components))
    try:
        placement = RandomPolicy(
            seed=draw(st.integers(0, 2**16)), max_attempts=50
        ).place(spec, num_nodes, 32)
    except PlacementError:
        assume(False)
    # a node is absent (1.0 by default), pinned at 1.0, or slowed
    slowdown = {}
    for node in range(num_nodes):
        factor = draw(
            st.one_of(
                st.none(),
                st.just(1.0),
                st.floats(1.0, 4.0, allow_nan=False),
            )
        )
        if factor is not None:
            slowdown[node] = factor
    remaining = {}
    for member in spec.members:
        steps = draw(st.one_of(st.none(), st.integers(0, 24)))
        if steps is not None:
            remaining[member.name] = steps
    return spec, placement, slowdown, remaining


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios(), pfs=st.booleans())
def test_cached_stages_price_the_reference_formula(scenario, pfs):
    spec, placement, slowdown, remaining = scenario
    cluster = make_cori_like_cluster(placement.num_nodes)
    if pfs:
        dtl = ParallelFilesystemDTL()
    else:
        dtl = InMemoryStagingDTL(
            network=cluster.network,
            memory_bandwidth=cluster.node_spec.memory_bandwidth,
        )
    cache = StageCache(cluster, dtl)
    assert calibrated_remaining_makespan(
        spec, placement, cache, slowdown, remaining
    ) == reference_remaining(
        spec, placement, cluster, dtl, slowdown, remaining
    )
