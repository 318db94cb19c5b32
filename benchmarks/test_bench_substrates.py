"""Micro-benchmarks of the substrate layers.

Not paper artifacts — these track the performance of the building
blocks (DES engine, contention assessment, chunk marshaling, MD step,
eigenvalue kernel) so regressions in the substrates are visible
independently of the experiment harness.
"""

import numpy as np
import pytest

from repro.components.kernels.eigen import largest_singular_value
from repro.components.md.engine import MDEngine
from repro.components.profiles import analysis_profile, simulation_profile
from repro.des.engine import Environment
from repro.dtl.chunk import Chunk, ChunkKey
from repro.platform.specs import make_cori_like_cluster


def test_bench_des_event_throughput(benchmark):
    """One writer and two readers coupled per step, as the executor
    couples a simulation to its analyses, over 2000 steps.

    Each step is a one-shot ``written`` event the readers wait on, one
    ``read`` event per reader, and one ``all_of`` join the writer waits
    on before its next write.
    """
    steps, readers = 2000, 2

    def run():
        env = Environment()
        written = [env.event() for _ in range(steps)]
        read = [[env.event() for _ in range(readers)] for _ in range(steps)]
        joined = [env.all_of(events) for events in read]

        def writer(env):
            for i in range(steps):
                yield env.timeout(0.001)
                if i:
                    yield joined[i - 1]
                written[i].succeed(i)

        def reader(env, j):
            for i in range(steps):
                yield written[i]
                yield env.timeout(0.0005)
                read[i][j].succeed(i)

        env.process(writer(env))
        for j in range(readers):
            env.process(reader(env, j))
        env.run()
        return env.now

    now = benchmark(run)
    # the writer paces every step; the last reads end 0.5 ms after it
    assert now == pytest.approx(steps * 0.001 + 0.0005)


def test_bench_contention_assessment(benchmark):
    """Assess a fully packed node (the executor's hot path)."""
    cluster = make_cori_like_cluster(1)
    residents = [
        (simulation_profile("sim"), 16),
        (analysis_profile("ana1"), 8),
        (analysis_profile("ana2"), 8),
    ]

    out = benchmark(
        lambda: cluster.contention.assess(cluster.node_spec, residents)
    )
    assert [a.profile.name for a in out] == ["sim", "ana1", "ana2"]


def test_bench_chunk_roundtrip(benchmark):
    """Serialize + deserialize a 3 MB frame (the paper's chunk size)."""
    payload = np.random.default_rng(0).normal(size=(250_000, 3)).astype(
        np.float32
    )
    chunk = Chunk(ChunkKey("sim", 0), payload, {"atoms": 250_000})

    back = benchmark(lambda: Chunk.deserialize(chunk.serialize()))
    assert back == chunk


def test_bench_md_step(benchmark):
    """One strided MD emission (10 steps) of a 500-particle LJ system."""
    engine = MDEngine(natoms=500, stride=10, seed=0)
    engine.equilibrate(10)

    frame = benchmark(lambda: next(engine.frames(1)))
    assert frame.natoms == 500


def test_bench_eigen_kernel(benchmark):
    """Largest singular value of a 200x200 contact-like matrix."""
    rng = np.random.default_rng(1)
    matrix = 1.0 / (1.0 + np.exp(rng.normal(size=(200, 200))))

    sigma = benchmark(lambda: largest_singular_value(matrix, tol=1e-8))
    assert sigma > 0
