"""Seeded workload generators for the repo benchmark.

Each generator receives only the seed and a job count and returns the
job list the load generator sends: :class:`PlacementRequest` objects
for the three service workloads, integer ``base_seed`` values for the
paper-reproduction workload. The same seed always yields the same list
(``digests`` is the fingerprint the self-test compares), and only
feasible requests are generated, so no deterministic ``PlacementError``
is ever retried by a worker.

Job shapes are stratified: every seed draws the same multiset of
shapes and varies only their order and the per-component ``natoms``.
The spread between seeds then reflects the program, not which shapes
a seed happened to draw.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Tuple, Union

from repro.configs.generator import enumerate_placements
from repro.coschedule.requests import EnsembleRequest
from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.search.canonical import (
    component_core_demands,
    count_canonical_assignments,
)
from repro.search.vectorized import MIN_VECTORIZED_CANDIDATES
from repro.service.schemas import (
    CoscheduleOptions,
    PlacementRequest,
    RescheduleOptions,
    canonical_digest,
)

#: jobs run before timing starts on every cold start of the service;
#: the figures worker warms up on one reproduction instead.
SERVICE_WARMUP_JOBS = 6
#: timed jobs per round at least.
MIN_JOBS = 24

#: an integer seed, or the fixed label of the warm-up jobs.
Seed = Union[int, str]

CORES_PER_NODE = 32
NATOMS = (150_000, 350_000)
#: search spaces larger than this are left out of plan-mix so that no
#: single job dominates a run.
MAX_SEARCH_CANDIDATES = 20_000


@dataclass(frozen=True)
class Workload:
    """One traffic mix: how to build it and how long it runs.

    ``nominal_rate`` (jobs/s, measured on a 2-core x86 host) turns the
    ``--seconds`` budget into a fixed job count, so two commits always
    run the same jobs whatever their speed. ``block`` is the job count
    at which every shape deck of the mix is drawn whole; job counts are
    whole blocks, so every seed sends the same multiset of shapes.
    """

    name: str
    service: bool
    nominal_rate: float
    block: int
    generate: Callable[[Seed, int], list]

    @property
    def warmup_jobs(self) -> int:
        return SERVICE_WARMUP_JOBS if self.service else 0

    def job_count(self, seconds: float, rounds: int = 1) -> int:
        """Jobs per round: ``rounds`` rounds fill ``seconds``, with at
        least ``MIN_JOBS``, rounded up to whole blocks."""
        jobs = max(MIN_JOBS, self.nominal_rate * seconds / rounds)
        return self.block * math.ceil(jobs / self.block)


def _member(rng: random.Random, name: str, analyses: int, n_steps: int):
    return default_member(
        name,
        num_analyses=analyses,
        n_steps=n_steps,
        natoms=rng.randint(*NATOMS),
    )


def _spec(
    rng: random.Random, name: str, pattern: Tuple[int, ...], n_steps: int
) -> EnsembleSpec:
    return EnsembleSpec(
        name,
        tuple(
            _member(rng, f"{name}-m{i}", k, n_steps)
            for i, k in enumerate(pattern)
        ),
    )


@lru_cache(maxsize=None)
def search_shapes() -> Tuple[Tuple[Tuple[int, ...], int, int], ...]:
    """Every (analyses per member, nodes, canonical count) plan-mix draws.

    Members 2-4 with 1-2 analyses each on 2-8 nodes, keeping only the
    feasible spaces of 1 to ``MAX_SEARCH_CANDIDATES`` candidates. The
    members x analyses axis is the one that grows the space; past about
    six nodes the node axis adds almost nothing.
    """
    shapes = []
    for members in (2, 3, 4):
        for pattern in itertools.combinations_with_replacement(
            (1, 2), members
        ):
            probe = EnsembleSpec(
                "probe",
                tuple(
                    default_member(f"p{i}", num_analyses=k)
                    for i, k in enumerate(pattern)
                ),
            )
            cores = component_core_demands(probe)
            for nodes in range(2, 9):
                count = count_canonical_assignments(
                    cores, nodes, CORES_PER_NODE
                )
                if 1 <= count <= MAX_SEARCH_CANDIDATES:
                    shapes.append((pattern, nodes, count))
    return tuple(shapes)


def _deck(rng: random.Random, entries, count: int) -> list:
    """``count`` entries drawn as whole shuffled passes over ``entries``."""
    out: list = []
    while len(out) < count:
        block = list(entries)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _kinds(rng: random.Random, count: int, share: float) -> List[bool]:
    """Exactly ``round(share * count)`` True flags in seeded order."""
    flags = [i < round(share * count) for i in range(count)]
    rng.shuffle(flags)
    return flags


def _search_request(rng, name, shape) -> PlacementRequest:
    pattern, nodes, _ = shape
    pattern = tuple(rng.sample(pattern, len(pattern)))
    spec = _spec(rng, name, pattern, rng.randint(8, 16))
    return PlacementRequest(kind="search", spec=spec, num_nodes=nodes)


#: (ensembles in the stream, cluster nodes) of the coschedule jobs.
COSCHEDULE_SHAPES = tuple(itertools.product((3, 4, 5), (4, 5, 6, 7, 8)))


def _coschedule_request(rng, name, shape) -> PlacementRequest:
    ensembles, nodes = shape
    stream = []
    arrival = 0.0
    for e in range(ensembles):
        ensemble = f"{name}-e{e}"
        spec = _spec(
            rng, ensemble, (1,) * rng.randint(1, 2), rng.randint(8, 16)
        )
        stream.append(
            EnsembleRequest(
                name=ensemble,
                spec=spec,
                arrival_time=arrival,
                priority=rng.randint(0, 2),
            )
        )
        arrival += rng.uniform(10.0, 40.0)
    return PlacementRequest(
        kind="coschedule",
        spec=stream[0].spec,
        num_nodes=nodes,
        coschedule=CoscheduleOptions(requests=tuple(stream)),
    )


def plan_mix(seed: Seed, count: int) -> List[PlacementRequest]:
    """80% search over stratified shapes, 20% coschedule streams."""
    rng = random.Random(f"plan-mix/{seed}")
    kinds = _kinds(rng, count, 0.8)
    searches = iter(_deck(rng, search_shapes(), sum(kinds)))
    streams = iter(_deck(rng, COSCHEDULE_SHAPES, count - sum(kinds)))
    return [
        _search_request(rng, f"{seed}.s{i}", next(searches))
        if is_search
        else _coschedule_request(rng, f"{seed}.c{i}", next(streams))
        for i, is_search in enumerate(kinds)
    ]


#: (steps, trials) of the DES rank jobs; 12 candidates each, so that a
#: rank job costs about as much as a reschedule job.
RANK_SHAPES = tuple(itertools.product((37, 48), (8, 16)))
RANK_CANDIDATES = 12
#: (steps, drift magnitude) of the reschedule jobs.
RESCHEDULE_SHAPES = tuple(itertools.product((12, 14, 16), (2.0, 3.0)))


def _rank_request(rng, name, shape) -> PlacementRequest:
    n_steps, trials = shape
    spec = _spec(rng, name, (1, 1, 1), n_steps)
    pool = list(enumerate_placements(spec, 3, CORES_PER_NODE))
    picked = sorted(rng.sample(range(len(pool)), RANK_CANDIDATES))
    return PlacementRequest(
        kind="rank",
        spec=spec,
        num_nodes=3,
        candidates={f"c{i}": pool[i] for i in picked},
        robust_rate=0.08,
        rank_method="des",
        trials=trials,
        base_seed=rng.randrange(1 << 16),
    )


def _reschedule_request(rng, name, shape) -> PlacementRequest:
    n_steps, magnitude = shape
    spec = _spec(rng, name, (1, 1, 1), n_steps)
    packed = EnsemblePlacement(
        4, tuple(MemberPlacement(i, (i,)) for i in range(3))
    )
    return PlacementRequest(
        kind="reschedule",
        spec=spec,
        num_nodes=4,
        placement=packed,
        reschedule=RescheduleOptions(
            drift_node=rng.randrange(3),
            drift_magnitude=magnitude,
            drift_start=4,
            threshold=1.2,
            # one replan per job: a second one, which some jobs drew,
            # doubled their cost
            max_migrations=1,
            seed=rng.randrange(1 << 16),
        ),
    )


def des_mix(seed: Seed, count: int) -> List[PlacementRequest]:
    """Half DES robust ranking, half rescheduling under a step drift."""
    rng = random.Random(f"des-mix/{seed}")
    kinds = _kinds(rng, count, 0.5)
    ranks = iter(_deck(rng, RANK_SHAPES, sum(kinds)))
    drifts = iter(_deck(rng, RESCHEDULE_SHAPES, count - sum(kinds)))
    return [
        _rank_request(rng, f"{seed}.r{i}", next(ranks))
        if is_rank
        else _reschedule_request(rng, f"{seed}.d{i}", next(drifts))
        for i, is_rank in enumerate(kinds)
    ]


HOT_REQUESTS = 16


def hot_cache(seed: Seed, count: int) -> List[PlacementRequest]:
    """80% repeats of 16 small searches, 20% unique ~1 ms score jobs."""
    rng = random.Random(f"hot-cache/{seed}")
    hot = [
        PlacementRequest(
            kind="search",
            spec=_spec(rng, f"{seed}.h{i}", (1, 1), 8),
            num_nodes=2 + i % 3,
        )
        for i in range(HOT_REQUESTS)
    ]
    spread = EnsemblePlacement(
        2, (MemberPlacement(0, (1,)), MemberPlacement(1, (0,)))
    )
    kinds = _kinds(rng, count, 0.8)
    repeats = iter(_deck(rng, hot, sum(kinds)))
    return [
        next(repeats)
        if is_hot
        else PlacementRequest(
            kind="score",
            spec=_spec(rng, f"{seed}.u{i}", (1, 1), 8),
            num_nodes=2,
            placement=spread,
        )
        for i, is_hot in enumerate(kinds)
    ]


def paper_figures(seed: int, count: int) -> List[int]:
    """Reproduction ``i`` runs the artifact set at ``base_seed = seed + i``."""
    return [seed + i for i in range(count)]


#: the workloads; ``BENCHMARK.json`` and ``README.md`` say why each
#: exists. Blocks: plan-mix 60 search shapes + 15 coschedule shapes;
#: des-mix 12 rank jobs (3 passes over 4 shapes) + 12 reschedule jobs
#: (2 passes over 6); hot-cache 64 hot jobs (4 passes over 16) + 16
#: score jobs.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("plan-mix", True, 30.0, 75, plan_mix),
        Workload("des-mix", True, 6.0, 24, des_mix),
        Workload("hot-cache", True, 570.0, 80, hot_cache),
        Workload("paper-figures", False, 6.0, 1, paper_figures),
    )
}


def make_jobs(name: str, seed: int, count: int) -> Tuple[list, list]:
    """``(warm-up jobs, timed jobs)``.

    The warm-up jobs are the same for every seed, so set-up time does
    not move with ``--seed``; their names keep their digests apart from
    every timed job's.
    """
    workload = WORKLOADS[name]
    warmup = workload.warmup_jobs
    return (
        workload.generate("warm-up", warmup) if warmup else [],
        workload.generate(seed, count),
    )


def digests(jobs: list) -> List[str]:
    """Content fingerprint of a job list (one entry per job)."""
    return [
        canonical_digest(job)
        if isinstance(job, PlacementRequest)
        else hashlib.sha256(str(job).encode()).hexdigest()
        for job in jobs
    ]


def describe(jobs: list) -> Dict[str, object]:
    """Kind mix and the share of search jobs routed to the kernel."""
    kinds: Dict[str, int] = {}
    large = searches = 0
    for job in jobs:
        kind = job.kind if isinstance(job, PlacementRequest) else "figures"
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "search":
            searches += 1
            count = count_canonical_assignments(
                component_core_demands(job.spec),
                job.num_nodes,
                job.cores_per_node,
            )
            large += count >= MIN_VECTORIZED_CANDIDATES
    return {
        "kinds": kinds,
        "search_vectorized_share": large / searches if searches else 0.0,
    }
