"""Property-based tests of the DES engine's core guarantees."""

from hypothesis import given, settings, strategies as st

from repro.des import Simulator, Resource


@st.composite
def timeout_schedules(draw):
    """A set of processes, each sleeping through a list of delays."""
    return draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=6,
        )
    )


class TestClockInvariants:
    @given(timeout_schedules())
    @settings(max_examples=60, deadline=None)
    def test_trace_times_never_decrease(self, schedules):
        sim = Simulator()
        log = []

        def sleeper(sim, name, delays):
            for d in delays:
                yield sim.timeout(d)
                log.append((sim.now, name))

        for i, delays in enumerate(schedules):
            sim.process(sleeper(sim, f"s{i}", delays), name=f"s{i}")
        sim.run()
        times = [t for t, _name in log]
        assert times == sorted(times)

    @given(timeout_schedules())
    @settings(max_examples=60, deadline=None)
    def test_final_time_is_max_schedule(self, schedules):
        sim = Simulator()

        def sleeper(sim, delays):
            for d in delays:
                yield sim.timeout(d)

        for delays in schedules:
            sim.process(sleeper(sim, delays))
        sim.run()
        assert sim.now == max(sum(d) for d in schedules)

    @given(timeout_schedules())
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, schedules):
        def one_run():
            sim = Simulator()
            log = []

            def sleeper(sim, name, delays):
                for d in delays:
                    yield sim.timeout(d)
                    log.append((sim.now, name))

            for i, delays in enumerate(schedules):
                sim.process(sleeper(sim, f"s{i}", delays), name=f"s{i}")
            sim.run()
            return log

        assert one_run() == one_run()


class TestResourceInvariants:
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded_and_work_conserving(self, capacity, holds):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        active = []
        max_active = []

        def worker(sim, res, hold):
            yield res.request()
            try:
                active.append(1)
                max_active.append(len(active))
                yield sim.timeout(hold)
            finally:
                active.pop()
                res.release()

        for hold in holds:
            sim.process(worker(sim, res, hold))
        sim.run()
        assert max(max_active) <= capacity
        assert res.total_grants == len(holds)
        # Work conservation: total time >= critical-path bound.
        assert sim.now >= max(holds)
        assert sim.now <= sum(holds) + 1e-9
