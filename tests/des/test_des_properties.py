"""Property-based tests of the DES engine's fundamental guarantees."""

from hypothesis import given, settings, strategies as st

from repro.des.engine import Environment

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=20,
)


class TestEventOrdering:
    @given(delays)
    @settings(max_examples=50)
    def test_events_fire_in_time_order(self, ds):
        env = Environment()
        fired = []

        def worker(env, delay):
            yield env.timeout(delay)
            fired.append(env.now)

        for d in ds:
            env.process(worker(env, d))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(ds)

    @given(delays)
    @settings(max_examples=50)
    def test_clock_never_goes_backwards(self, ds):
        env = Environment()
        observed = []

        def worker(env, delay):
            yield env.timeout(delay)
            observed.append(env.now)
            yield env.timeout(delay / 2 + 0.1)
            observed.append(env.now)

        for d in ds:
            env.process(worker(env, d))
        prev = -1.0
        while env.peek() != float("inf"):
            env.step()
            assert env.now >= prev
            prev = env.now


class TestHandoffInvariants:
    """The executor's per-step coupling: W_i before R_i before W_{i+1}."""

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=4,
        ),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_each_write_waits_for_every_read_of_the_last_step(
        self, steps, read_costs, write_cost
    ):
        env = Environment()
        written = [env.event() for _ in range(steps)]
        read = [[env.event() for _ in read_costs] for _ in range(steps)]
        joined = [env.all_of(events) for events in read]
        write_at, read_at = [], [[] for _ in read_costs]
        received = [[] for _ in read_costs]

        def writer(env):
            for i in range(steps):
                yield env.timeout(write_cost)
                if i:
                    yield joined[i - 1]
                write_at.append(env.now)
                written[i].succeed(i)

        def reader(env, j, cost):
            for i in range(steps):
                received[j].append((yield written[i]))
                yield env.timeout(cost)
                read_at[j].append(env.now)
                read[i][j].succeed(i)

        env.process(writer(env))
        for j, cost in enumerate(read_costs):
            env.process(reader(env, j, cost))
        env.run()
        assert len(write_at) == steps
        for j, cost in enumerate(read_costs):
            assert received[j] == list(range(steps))
            assert len(read_at[j]) == steps
            for i in range(steps):
                assert read_at[j][i] == write_at[i] + cost
                if i + 1 < steps:
                    assert write_at[i + 1] >= read_at[j][i]
