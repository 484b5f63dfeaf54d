"""The content-addressed result cache: keys, layers, eviction, corruption."""

import pickle

import pytest

from repro import Assignment, STAPParams
from repro.machine import ComputeRateTable, afrl_paragon
from repro.exec import (
    ResultCache,
    SimPoint,
    cache_key,
    execute_point,
    point_fingerprint,
)
from tests.exec.counting import counting

pytestmark = pytest.mark.exec

TINY_COUNTS = (2, 1, 2, 1, 1, 1, 1)


def tiny_point(name="t", num_cpis=5, **overrides):
    return SimPoint(
        STAPParams.tiny(),
        Assignment(*TINY_COUNTS, name=name),
        num_cpis=num_cpis,
        **overrides,
    )


class TestCacheKey:
    def test_stable_across_instances(self):
        assert cache_key(tiny_point()) == cache_key(tiny_point())

    def test_assignment_name_is_cosmetic(self):
        """Two differently-named but physically identical assignments share
        one key (and hence one simulation)."""
        assert cache_key(tiny_point(name="a")) == cache_key(tiny_point(name="b"))

    def test_key_covers_every_simulation_input(self):
        base = tiny_point()
        variants = [
            tiny_point(num_cpis=6),
            tiny_point(input_rate=10.0),
            tiny_point(double_buffering=False),
            tiny_point(collect_training=False),
            tiny_point(measured=True),
            tiny_point(azimuth_cycle=2),
            SimPoint(
                STAPParams.tiny().with_overrides(num_pulses=32),
                Assignment(*TINY_COUNTS, name="t"),
                num_cpis=5,
            ),
            SimPoint(
                STAPParams.tiny(),
                Assignment(2, 1, 2, 1, 1, 1, 2, name="t"),
                num_cpis=5,
            ),
        ]
        keys = {cache_key(p) for p in variants}
        assert cache_key(base) not in keys
        assert len(keys) == len(variants)

    def test_machine_calibration_in_key(self):
        base = tiny_point()
        faster = afrl_paragon(rates=ComputeRateTable().scaled(2.0))
        assert cache_key(base) != cache_key(tiny_point(machine=faster))

    def test_default_machine_fingerprints_like_explicit_paragon(self):
        """machine=None means the default Paragon; the key must agree."""
        assert cache_key(tiny_point()) == cache_key(
            tiny_point(machine=afrl_paragon())
        )

    def test_float_keyed_by_bit_pattern(self):
        a = point_fingerprint(tiny_point(input_rate=0.1))
        b = point_fingerprint(tiny_point(input_rate=0.1 + 2**-55))
        assert a["input_rate"] != b["input_rate"]

    def test_label_is_cosmetic(self):
        assert cache_key(tiny_point(label="x")) == cache_key(tiny_point(label="y"))


class TestMemoryLayer:
    def test_round_trip_and_isolation(self):
        cache = ResultCache()
        point = tiny_point()
        result = execute_point(point, cache=cache)
        again = execute_point(point, cache=cache)
        assert again.metrics == result.metrics
        # Mutating what the caller got back must not poison the cache.
        again.metrics.measured_throughput = -1.0
        third = execute_point(point, cache=cache)
        assert third.metrics == result.metrics

    def test_lru_eviction_bound(self):
        cache = ResultCache(maxsize=2)
        for cpis in (5, 6, 7):
            execute_point(tiny_point(num_cpis=cpis), cache=cache)
        assert len(cache) == 2
        # Oldest entry (5 CPIs) was evicted: fetching it simulates again.
        with counting() as delta:
            execute_point(tiny_point(num_cpis=5), cache=cache)
        assert delta["simulations_run"] == 1
        assert delta["cache_misses"] == 1


class TestDiskLayer:
    def test_survives_process_memory(self, tmp_path):
        disk = tmp_path / "cache"
        point = tiny_point()
        first = execute_point(point, cache=ResultCache(directory=disk))
        assert list(disk.glob("*.pkl")), "disk entry not written"
        # A fresh cache instance (empty memory layer) hits the disk store.
        with counting() as delta:
            second = execute_point(point, cache=ResultCache(directory=disk))
        assert delta["simulations_run"] == 0
        assert delta["cache_hits_disk"] == 1
        assert pickle.dumps(second.metrics) == pickle.dumps(first.metrics)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        disk = tmp_path / "cache"
        point = tiny_point()
        execute_point(point, cache=ResultCache(directory=disk))
        for entry in disk.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        with counting() as delta:
            result = execute_point(point, cache=ResultCache(directory=disk))
        assert delta["simulations_run"] == 1
        assert result.metrics.measured_latency > 0
