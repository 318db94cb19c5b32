"""Pinned digests of seeded noisy runs on every path that draws jitter.

Each executor path consumes the per-component timing-noise streams in
its own way: a plain run draws two factors per step, a congestion-aware
run draws a remote read's local share and transport separately, a
fault-injected run re-runs stages under its recovery policy, a drifted
run re-prices members after a migration, and a real-chunk run moves
payloads through the DTL in lockstep. The SHA-256 of each run's
canonical trace (and of its distilled results: steady-state stages,
makespans and the noisy synthetic counters) is pinned here, so a change
to how the streams are drawn cannot move a single float unnoticed. The
golden store pins noise on the plain path only.
"""

import hashlib

import pytest

from repro.configs.base import build_spec
from repro.configs.table2 import get_config
from repro.faults.models import RandomFailureModel
from repro.faults.recovery import (
    CheckpointRestartPolicy,
    DropAnalysisPolicy,
    RetryBackoffPolicy,
)
from repro.monitoring.traceio import tracer_to_dict
from repro.reschedule import (
    DriftEvent,
    DriftKind,
    RescheduleController,
    StaticDriftModel,
)
from repro.runtime.effective import compute_effective_stages
from repro.runtime.executor import EnsembleExecutor
from repro.verify.goldens import canonical_json

SEED = 11
NOISE = 0.02


def _faults(policy):
    return dict(
        failure_model=RandomFailureModel(rate=0.2, seed=3), recovery=policy
    )


def _drifted():
    drift = StaticDriftModel(
        (DriftEvent(node=0, kind=DriftKind.STEP, start_step=3, magnitude=2.5),)
    )
    return dict(drift=drift, rescheduler=RescheduleController())


#: path -> (configuration, steps, executor options); options are built
#: per run because models, policies and controllers carry run state.
PATHS = {
    "plain": ("C1.5", 8, dict),
    "congestion": ("C1.3", 8, lambda: dict(congestion_aware=True)),
    "faults-retry": ("C1.5", 8, lambda: _faults(RetryBackoffPolicy())),
    "faults-restart": ("C1.5", 8, lambda: _faults(CheckpointRestartPolicy())),
    "faults-degrade": ("C1.5", 8, lambda: _faults(DropAnalysisPolicy())),
    "rescheduled": ("C1.3", 12, _drifted),
    "real-chunks": ("C1.5", 8, lambda: dict(stage_real_chunks=True)),
}

#: (trace digest, results digest) per path, recorded when every stage
#: drew its own scalar factor, so they hold the vector draws to the
#: scalar draws' floats.
EXPECTED = {
    "congestion": (
        "5b5a871477e5c518dc91702ef9843ac18c2958e660be5f06d4694945396f66ba",
        "9649f57460d9f2b7696a6e6826389a1d4de77a39333959742a570c692cf80529",
    ),
    "faults-degrade": (
        "d0ba53ad6c301c9940cddd8c2c1622c319b4e5be12a486673b94af11fb8ffdf2",
        "1fba1e2035e39fdb51559e3745b0225e4f086ba3c39964f9a5640b71dd501cc7",
    ),
    "faults-restart": (
        "21294f000ff612f2b50d4a1dce0e367e36e67aaf32c0e512be38750acafe3ee7",
        "60db8138586aa4484bc807f05f572267955ea3563b1892977a2f38fa9f1f2309",
    ),
    "faults-retry": (
        "1d304bf5b44edad467ba92ca3e39e0ddb236696e99a59fd89b074b2576014044",
        "46a43a1e25b649e854db1aa8cb26233f82a3b4a67cef058b7b50beb256b15f15",
    ),
    "plain": (
        "b10a6529e27f2f952cb5253226b79dd0f6da9d62f1a754ef46de86e525a32245",
        "5a9acb12be8808bb50124e3a26a31759885695c1fb2a0340ce0d5e52330aa2dc",
    ),
    # the real data path moves no clock: same floats as the plain run
    "real-chunks": (
        "b10a6529e27f2f952cb5253226b79dd0f6da9d62f1a754ef46de86e525a32245",
        "5a9acb12be8808bb50124e3a26a31759885695c1fb2a0340ce0d5e52330aa2dc",
    ),
    "rescheduled": (
        "f00a9883b72c65ca0f81c230a1dab8f96e8e727e230ef60621ea8bff867e79c3",
        "e9ecb24edfb3d5fc6b5b46aacd4b81654ca73be6828738fd8a025303634f9ae6",
    ),
}


def _run(path):
    name, n_steps, options = PATHS[path]
    config = get_config(name)
    executor = EnsembleExecutor(
        build_spec(config, n_steps=n_steps),
        config.placement(),
        seed=SEED,
        timing_noise=NOISE,
        **options(),
    )
    return executor, executor.run()


def _results(result):
    return {
        "makespan": result.ensemble_makespan,
        "members": [
            {
                "name": m.name,
                "makespan": m.makespan,
                "efficiency": m.efficiency,
                "S": m.stages.simulation.compute,
                "W": m.stages.simulation.write,
                "RA": [[a.read, a.analyze] for a in m.stages.analyses],
            }
            for m in result.members
        ],
        "counters": {
            name: [c.instructions, c.cycles, c.llc_references, c.llc_misses]
            for name, c in result.counters.items()
        },
        "execution_times": {
            name: m.execution_time
            for name, m in result.component_metrics.items()
        },
    }


def _sha256(payload):
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def digests(path):
    """``(trace digest, results digest)`` of one path's seeded run."""
    _, result = _run(path)
    return _sha256(tracer_to_dict(result.tracer)), _sha256(_results(result))


@pytest.mark.parametrize("path", sorted(PATHS))
def test_digest_is_pinned(path):
    assert digests(path) == EXPECTED[path]


class TestPathsDrawWhatTheyName:
    """Each path really takes the branch its digest is meant to pin."""

    def test_congestion_run_has_remote_reads_with_a_local_share(self):
        executor, _ = _run("congestion")
        reads = [
            a
            for m in compute_effective_stages(
                executor.spec, executor.placement, executor.cluster,
                executor.dtl,
            )
            for a in m.analyses
        ]
        assert any(0 < a.transport_time < a.io_time for a in reads)

    @pytest.mark.parametrize(
        "path", ["faults-retry", "faults-restart", "faults-degrade"]
    )
    def test_fault_runs_inject_crashes(self, path):
        executor, _ = _run(path)
        assert any(r.kind.value == "crash" for r in executor.fault_log.records)

    def test_degraded_run_drops_an_analysis(self):
        executor, _ = _run("faults-degrade")
        assert executor.fault_log.dropped_components

    def test_drifted_run_migrates(self):
        executor, _ = _run("rescheduled")
        assert executor.migration_log
