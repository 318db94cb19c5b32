"""Service determinism: pool size and submission order never matter.

The paper's provisioning study depends on placement decisions being a
pure function of (platform, ensemble, objective) — Section 2's F(P) has
no tie left to chance. The service must preserve that purity across
its concurrency machinery: the same job set submitted serially and
through an N-worker pool yields *identical* results — exact float
equality on every payload, not approximate agreement.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.service.schemas import (
    PlacementRequest,
    canonical_digest,
    score_from_dict,
)
from repro.service.workers import PlacementService, execute_request
from repro.util.errors import PlacementError
from tests.strategies import search_grids


def _requests_for(grids):
    """One search request per feasible grid draw (skip infeasible)."""
    requests = []
    for spec, num_nodes, cores_per_node in grids:
        try:
            request = PlacementRequest(
                kind="search",
                spec=spec,
                num_nodes=num_nodes,
                cores_per_node=cores_per_node,
            )
            execute_request(request)
        except PlacementError:
            continue
        requests.append(request)
    return requests


def _run_through_pool(requests, workers):
    """Submit every request to a fresh pool; results by digest."""
    with PlacementService(workers=workers) as service:
        jobs = [service.submit(r) for r in requests]
        snapshots = [service.wait(j.id, timeout=60.0) for j in jobs]
    return {j.digest: s.result for j, s in zip(jobs, snapshots)}


class TestPoolMatchesSerial:
    @settings(max_examples=5, deadline=None)
    @given(grids=st.lists(search_grids(), min_size=2, max_size=5))
    def test_n_workers_bit_identical_to_serial(self, grids):
        requests = _requests_for(grids)
        assume(requests)
        serial = {
            canonical_digest(r): execute_request(r) for r in requests
        }
        for workers in (1, 4):
            pooled = _run_through_pool(requests, workers)
            # dict equality over JSON payloads is exact float equality
            assert pooled == serial

    def test_submission_order_never_matters(self):
        from repro.runtime.spec import EnsembleSpec, default_member

        requests = [
            PlacementRequest(
                kind="search",
                spec=EnsembleSpec(
                    "order",
                    (
                        default_member(
                            "em1", num_analyses=k, n_steps=3
                        ),
                    ),
                ),
                num_nodes=n,
            )
            for k, n in ((1, 2), (2, 3), (1, 4))
        ]
        forward = _run_through_pool(requests, workers=3)
        backward = _run_through_pool(list(reversed(requests)), workers=3)
        assert forward == backward

    def test_scores_deserialize_identically(self):
        """The wire payload rebuilds the exact PlacementScore."""
        from repro.runtime.spec import EnsembleSpec, default_member

        request = PlacementRequest(
            kind="search",
            spec=EnsembleSpec(
                "exact", (default_member("em1", num_analyses=2, n_steps=4),)
            ),
            num_nodes=3,
        )
        direct = execute_request(request)
        pooled = _run_through_pool([request], workers=2)
        payload = pooled[canonical_digest(request)]
        assert payload == direct
        assert score_from_dict(payload["score"]) == score_from_dict(
            direct["score"]
        )
