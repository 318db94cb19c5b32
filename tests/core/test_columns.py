"""The column reducer equals the scalar Eqs. 1-9 bit for bit.

:func:`~repro.core.columns.score_columns` is the one array form of the
member algebra both batch engines (the search kernel and the fault
replay) score with; the scalar functions stay the reference. Every
assertion here is ``==``: over 1-12 members, so numpy's pairwise
summation of the Eq. 9 means crosses its 8-element block, K of 1-4,
single-node placements of any shape and one ``M`` per row. The moved
steady-state row estimator is held to :func:`estimate_steady_state`
the same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columns import (
    co_location_indicator,
    member_sum,
    objective_rows,
    score_columns,
)
from repro.core.indicators import (
    FINAL_STAGE_ORDER,
    MemberMeasurement,
    PlacementSets,
    apply_stages,
    placement_indicator,
)
from repro.core.insitu import member_makespan, non_overlapped_segment
from repro.core.objective import objective_function
from repro.core.stages import (
    AnalysisStages,
    MemberStages,
    SimulationStages,
    estimate_steady_state,
    steady_state_rows,
)
from repro.util.errors import ValidationError
from repro.util.stats import population_std
from tests.strategies import durations


@st.composite
def column_batches(draw, min_members=1):
    """Rows of one member layout: per row, every member's stages,
    single-node placement and the row's ``M``."""
    couplings = draw(
        st.lists(st.integers(1, 4), min_size=min_members, max_size=12)
    )
    cores = [draw(st.integers(1, 64)) for _ in couplings]
    n_steps = [draw(st.integers(1, 50)) for _ in couplings]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        members = []
        for k in couplings:
            stages = MemberStages(
                SimulationStages(draw(durations), draw(durations)),
                tuple(
                    AnalysisStages(draw(durations), draw(durations))
                    for _ in range(k)
                ),
            )
            nodes = st.integers(0, 5)
            sets = PlacementSets(
                {draw(nodes)}, tuple({draw(nodes)} for _ in range(k))
            )
            members.append((stages, sets))
        used = max(max(s.all_nodes) for _, s in members) + 1
        rows.append((members, used + draw(st.integers(0, 3))))
    return couplings, cores, n_steps, rows


def _columns(rows):
    """The reducer's inputs for ``rows`` of (stages, sets) members."""

    def table(values):
        return np.array(values, dtype=float)

    stages = [[s for s, _ in members] for members, _ in rows]
    return dict(
        compute=table([[s.simulation.compute for s in row] for row in stages]),
        write=table([[s.simulation.write for s in row] for row in stages]),
        read=table(
            [[a.read for s in row for a in s.analyses] for row in stages]
        ),
        analyze=table(
            [[a.analyze for s in row for a in s.analyses] for row in stages]
        ),
        placement=table(
            [[placement_indicator(p) for _, p in members] for members, _ in rows]
        ),
        total_nodes=[m for _, m in rows],
    )


class TestScoreColumns:
    @given(column_batches())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scalar_path(self, batch):
        self._assert_equals_scalar_path(batch)

    @given(column_batches(min_members=8))
    @settings(max_examples=50, deadline=None)
    def test_equals_the_scalar_path_past_the_pairwise_block(self, batch):
        # numpy sums 8 or more elements in unrolled blocks, so the
        # Eq. 9 means change scheme at 8 members
        self._assert_equals_scalar_path(batch)

    def _assert_equals_scalar_path(self, batch):
        couplings, cores, n_steps, rows = batch
        scores = score_columns(
            couplings=couplings, cores=cores, **_columns(rows)
        )
        for r, (members, total_nodes) in enumerate(rows):
            indicators = []
            for m, (stages, sets) in enumerate(members):
                assert scores.sigma[r, m] == non_overlapped_segment(stages)
                assert n_steps[m] * scores.sigma[r, m] == member_makespan(
                    stages, n_steps[m]
                )
                measurement = MemberMeasurement(
                    f"em{m}", stages, cores[m], sets
                )
                indicators.append(
                    apply_stages(measurement, FINAL_STAGE_ORDER, total_nodes)
                )
            assert scores.indicators[r].tolist() == indicators
            assert scores.objectives[r] == objective_function(indicators)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_single_node_eq6_equals_placement_indicator(self, couplings, data):
        remote = [data.draw(st.integers(0, k)) for k in couplings]
        for k, r in zip(couplings, remote):
            sets = PlacementSets({0}, ({0},) * (k - r) + ({1},) * r)
            assert co_location_indicator(k, r) == placement_indicator(sets)
        column = co_location_indicator(
            np.array(couplings, dtype=float), np.array(remote, dtype=float)
        )
        assert column.tolist() == [
            co_location_indicator(k, r) for k, r in zip(couplings, remote)
        ]

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=12),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_member_sum_adds_left_to_right(self, couplings, data):
        values = data.draw(
            st.lists(durations, min_size=sum(couplings), max_size=sum(couplings))
        )
        total = member_sum(np.array([values]), couplings)
        start = 0
        for m, k in enumerate(couplings):
            assert total[0, m] == sum(values[start : start + k])
            start += k

    def _layout(self):
        one = np.array([[2.0]])
        return dict(
            compute=one,
            write=one,
            read=one,
            analyze=one,
            couplings=[1],
            cores=[4],
            placement=one,
            total_nodes=1,
        )

    @pytest.mark.parametrize("column", ["compute", "write", "read", "analyze"])
    @pytest.mark.parametrize("value", [-1e-9, float("nan"), float("inf")])
    def test_a_bad_stage_raises(self, column, value):
        inputs = self._layout()
        inputs[column] = np.array([[value]])
        with pytest.raises(ValidationError, match=column):
            score_columns(**inputs)

    def test_zero_sigma_raises(self):
        zero = np.zeros((1, 1))
        inputs = dict(
            self._layout(), compute=zero, write=zero, read=zero, analyze=zero
        )
        with pytest.raises(ValidationError, match="zero-duration"):
            score_columns(**inputs)


def indicator_rows(min_members):
    """``(B, N)`` indicator arrays: 1-3 rows of ``N`` values each."""
    return st.integers(min_members, 12).flatmap(
        lambda n: st.lists(
            st.lists(
                st.floats(1e-6, 1.0, allow_nan=False), min_size=n, max_size=n
            ),
            min_size=1,
            max_size=3,
        )
    )


class TestObjectiveRows:
    """Each row's Eq. 9 equals the scalar formula, mean minus
    :func:`population_std`, bit for bit."""

    @given(indicator_rows(min_members=1))
    @settings(max_examples=200, deadline=None)
    def test_equals_mean_minus_population_std(self, rows):
        self._assert_equals_scalar_formula(rows)

    @given(indicator_rows(min_members=8))
    @settings(max_examples=50, deadline=None)
    def test_equals_it_past_the_pairwise_block(self, rows):
        self._assert_equals_scalar_formula(rows)

    def _assert_equals_scalar_formula(self, rows):
        reduced = objective_rows(np.array(rows))
        assert reduced.tolist() == [
            float(np.mean(row)) - population_std(row) for row in rows
        ]
        assert reduced.tolist() == [objective_function(row) for row in rows]


class TestSteadyStateRows:
    @given(
        st.lists(
            st.lists(durations, min_size=1, max_size=40),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scalar_estimator_row_by_row(self, samples):
        width = max(len(s) for s in samples)
        table = np.full((len(samples), width), np.nan)
        for r, row in enumerate(samples):
            table[r, : len(row)] = row
        lengths = np.array([len(s) for s in samples])
        assert steady_state_rows(table, lengths).tolist() == [
            estimate_steady_state(row) for row in samples
        ]

    def test_every_sample_count_up_to_forty(self):
        rng = np.random.default_rng(0)
        table = rng.uniform(0.5, 2.0, size=(40, 40))
        lengths = np.arange(1, 41)
        assert steady_state_rows(table, lengths).tolist() == [
            estimate_steady_state(table[r, : r + 1].tolist())
            for r in range(40)
        ]

    def test_an_empty_row_raises(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            steady_state_rows(np.ones((2, 3)), np.array([3, 0]))
