"""Each service counts its own engine work into its ``GET /stats``.

The engine sections (``batched``, ``reschedule``, ``coschedule``)
report what one service's jobs did: a job of another service, or one
run outside any service, never shows up in them, and a job that runs
on the ``job_timeout`` deadline thread counts like any other.
"""

from __future__ import annotations

from repro.runtime.placement import EnsemblePlacement, MemberPlacement
from repro.runtime.spec import EnsembleSpec, default_member
from repro.service.schemas import PlacementRequest, RescheduleOptions
from repro.service.workers import PlacementService, execute_request

#: every engine counter at zero, in ``GET /stats`` order
ZEROS = {
    "batched": {"baseline_sims": 0, "replicas_replayed": 0},
    "reschedule": {
        "runs": 0,
        "replans_triggered": 0,
        "replans_accepted": 0,
        "migrations": 0,
        "components_moved": 0,
    },
    "coschedule": {
        "streams": 0,
        "arrivals": 0,
        "admitted": 0,
        "queued": 0,
        "rejected": 0,
        "dequeued": 0,
        "completions": 0,
        "repartitions": 0,
        "membership_events": 0,
        "migrations": 0,
    },
}


def _rank(trials: int = 3) -> PlacementRequest:
    """A DES-ranked request over two candidates."""
    return PlacementRequest(
        kind="rank",
        spec=EnsembleSpec("cnt", (default_member("em1", n_steps=2),)),
        num_nodes=2,
        candidates={
            "colocated": EnsemblePlacement(2, (MemberPlacement(0, (0,)),)),
            "split": EnsemblePlacement(2, (MemberPlacement(0, (1,)),)),
        },
        robust_rate=0.05,
        rank_method="des",
        trials=trials,
    )


def _reschedule() -> PlacementRequest:
    """Three members under drift: one re-plan moves two components."""
    return PlacementRequest(
        kind="reschedule",
        spec=EnsembleSpec(
            "cnt",
            tuple(
                default_member(f"em{i}", num_analyses=1, n_steps=12)
                for i in range(3)
            ),
        ),
        num_nodes=4,
        placement=EnsemblePlacement(
            4, tuple(MemberPlacement(i, (i,)) for i in range(3))
        ),
        reschedule=RescheduleOptions(
            drift_start=2, window=2, threshold=1.2, min_dwell=2
        ),
    )


def _engine_sections(service: PlacementService) -> dict:
    stats = service.stats()
    return {name: stats[name] for name in ZEROS}


def _run(service: PlacementService, request: PlacementRequest) -> dict:
    job = service.wait(service.submit(request).id, timeout=120.0)
    assert job.error is None
    return job.result


class TestOwnCounters:
    def test_two_services_count_only_their_own_jobs(self):
        with (
            PlacementService(workers=1) as ranking,
            PlacementService(workers=1) as rescheduling,
        ):
            _run(ranking, _rank(trials=3))
            result = _run(rescheduling, _reschedule())
            ranked = _engine_sections(ranking)
            rescheduled = _engine_sections(rescheduling)
        assert ranked == {
            **ZEROS,
            "batched": {"baseline_sims": 2, "replicas_replayed": 2 * 3},
        }
        controller = result["controller"]
        assert controller["replans_triggered"] == 1
        assert rescheduled == {
            **ZEROS,
            "reschedule": {
                "runs": 1,  # the static run has no controller
                "replans_triggered": 1,
                "replans_accepted": controller["replans_accepted"],
                "migrations": controller["migrations"],
                "components_moved": controller["components_moved"],
            },
        }

    def test_a_job_on_the_deadline_thread_counts(self):
        execute_request(_rank(trials=2))  # outside any service
        with PlacementService(workers=1, job_timeout=30.0) as service:
            _run(service, _rank(trials=2))
            counted = _engine_sections(service)
        assert counted == {
            **ZEROS,
            "batched": {"baseline_sims": 2, "replicas_replayed": 2 * 2},
        }

    def test_a_fresh_service_reads_every_counter_at_zero(self):
        with PlacementService(workers=1) as service:
            assert _engine_sections(service) == ZEROS
            assert list(service.stats())[-3:] == list(ZEROS)
