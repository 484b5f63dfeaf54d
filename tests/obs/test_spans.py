"""The span model and TraceSink: API, bounds, and the pipeline span tree."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro import Assignment, STAPParams, STAPPipeline
from repro.core.assignment import CASE3, TASK_NAMES
from repro.des import Simulator
from repro.errors import ConfigurationError
from repro.machine.network import Network
from repro.mpi import World
from repro.obs import (
    MessageRecord,
    Span,
    TraceSink,
    bucket_bounds,
    wait_bucket,
)

pytestmark = pytest.mark.obs

TINY_ASSIGNMENT = Assignment(3, 2, 2, 2, 2, 2, 2, name="obs-test")
NUM_CPIS = 2

#: Tasks whose output feeds a later CPI (TD(1,3)/TD(2,4)) and therefore
#: never sit on the latency path of equation (2).
WEIGHT_TASKS = {"easy_weight", "hard_weight"}


@pytest.fixture(scope="module")
def traced_result():
    return STAPPipeline(
        STAPParams.tiny(), TINY_ASSIGNMENT, num_cpis=NUM_CPIS, trace=True
    ).run()


# -- sink unit tests ---------------------------------------------------------------
class TestTraceSink:
    def test_add_span_and_queries(self):
        sink = TraceSink()
        parent = sink.add_span("doppler", 0, "iteration", 1.0, 4.0, rank=2)
        child = sink.add_span(
            "doppler", 0, "recv", 1.0, 2.0, rank=2, parent_id=parent.span_id
        )
        assert len(sink) == 2
        assert child.duration == pytest.approx(1.0)
        assert sink.spans_of(task="doppler", phase="recv") == [child]
        assert sink.spans_of(cpi=1) == []
        assert sink.children_of(parent) == [child]

    def test_span_context_manager_uses_bound_clock(self):
        sink = TraceSink()
        sim = Simulator()
        sink.bind(sim)

        def proc():
            with sink.span("worker", cpi=0, phase="comp", rank=1) as span:
                yield sim.timeout(2.5)
            assert span.start == pytest.approx(0.0)
            assert span.end == pytest.approx(2.5)

        sim.process(proc())
        sim.run()
        assert len(sink) == 1
        assert sink.spans[0].phase == "comp"

    def test_now_is_zero_before_bind(self):
        assert TraceSink().now() == 0.0

    def test_record_iteration_builds_phase_tree(self):
        sink = TraceSink()
        sink.record_iteration(
            "cfar", local_rank=1, world_rank=9, cpi=3,
            t0=1.0, t1=2.0, t2=3.5, t3=4.0,
        )
        assert len(sink) == 4
        (iteration,) = sink.spans_of(phase="iteration")
        children = sink.children_of(iteration)
        assert [c.phase for c in children] == ["recv", "comp", "send"]
        assert children[0].start == iteration.start == 1.0
        assert children[-1].end == iteration.end == 4.0
        # Phases tile the iteration with no gaps.
        assert children[0].end == children[1].start == 2.0
        assert children[1].end == children[2].start == 3.5
        assert all(c.rank == 9 and c.local_rank == 1 and c.cpi == 3
                   for c in children)

    def test_bounded_spans_drop_and_count(self):
        sink = TraceSink(max_spans=2)
        for i in range(5):
            sink.add_span("t", 0, "comp", float(i), float(i + 1))
        assert len(sink) == 2
        assert sink.dropped_spans == 3
        # record_iteration keeps counting drops through the same gate.
        sink.record_iteration("t", 0, 0, 0, 0.0, 1.0, 2.0, 3.0)
        assert len(sink) == 2
        assert sink.dropped_spans == 7

    def test_bounded_messages_return_none(self):
        sink = TraceSink(max_messages=1)
        assert isinstance(sink.new_message(0, 1, 5, 64, 0.0), MessageRecord)
        assert sink.new_message(1, 2, 5, 64, 1.0) is None
        assert sink.dropped_messages == 1
        assert len(sink.messages) == 1

    def test_bounded_link_intervals_keep_stats(self):
        sink = TraceSink(max_link_intervals=1)
        sink.record_link_hold("inject[0]", 0.0, 1.0, 64, wait=0.0)
        sink.record_link_hold("inject[0]", 2.0, 3.0, 64, wait=0.5)
        # Aggregate stats always accumulate; only the interval list is capped.
        assert sink.link_stats["inject[0]"].messages == 2
        assert sink.link_stats["inject[0]"].wait_seconds == pytest.approx(0.5)
        assert len(sink.link_intervals["inject[0]"]) == 1
        assert sink.dropped_link_intervals == 1


class TestWaitHistogram:
    def test_zero_wait_bucket(self):
        assert wait_bucket(0.0) == -1
        assert wait_bucket(1e-9) == -1  # below one microsecond

    def test_buckets_are_power_of_two_microseconds(self):
        assert wait_bucket(1.5e-6) == 1  # 1us -> [1, 2)
        assert wait_bucket(3e-6) == 2    # 3us -> [2, 4)
        assert wait_bucket(1e-3) == 10   # 1000us -> [512, 1024)

    def test_bucket_bounds_cover_samples(self):
        for wait in (2e-6, 7e-6, 1e-4, 3e-3):
            bucket = wait_bucket(wait)
            lo, hi = bucket_bounds(bucket)
            assert lo <= wait * 1e6 < hi


# -- pipeline span tree ------------------------------------------------------------
class TestPipelineSpanTree:
    """Golden structure of a 2-CPI tiny pipeline's span tree."""

    def test_trace_off_by_default(self):
        result = STAPPipeline(
            STAPParams.tiny(), TINY_ASSIGNMENT, num_cpis=NUM_CPIS
        ).run()
        assert result.trace is None

    def test_one_iteration_per_task_rank_cpi(self, traced_result):
        sink = traced_result.trace
        iterations = sink.spans_of(phase="iteration")
        counts = dict(zip(TASK_NAMES, TINY_ASSIGNMENT.counts()))
        expected_keys = {
            (task, rank, cpi)
            for task, nodes in counts.items()
            for rank in range(nodes)
            for cpi in range(NUM_CPIS)
        }
        got_keys = {(s.task, s.local_rank, s.cpi) for s in iterations}
        assert got_keys == expected_keys
        assert len(iterations) == len(expected_keys)  # no duplicates

    def test_every_iteration_has_recv_comp_send_children(self, traced_result):
        sink = traced_result.trace
        for iteration in sink.spans_of(phase="iteration"):
            children = sink.children_of(iteration)
            assert [c.phase for c in children] == ["recv", "comp", "send"]
            assert children[0].start == iteration.start
            assert children[-1].end == iteration.end
            for a, b in zip(children, children[1:]):
                assert a.end == b.start
            for child in children:
                assert (child.task, child.rank, child.cpi) == (
                    iteration.task, iteration.rank, iteration.cpi,
                )

    def test_phase_spans_have_no_grandchildren(self, traced_result):
        sink = traced_result.trace
        for span in sink.spans:
            if span.phase != "iteration":
                assert sink.children_of(span) == []
                assert span.parent_id is not None

    def test_weight_tasks_off_latency_path(self, traced_result):
        for span in traced_result.trace.spans:
            assert span.latency_path == (span.task not in WEIGHT_TASKS)

    def test_spans_match_collector_timings_exactly(self, traced_result):
        """The span tree carries the same t0..t3 the metrics are built on."""
        sink = traced_result.trace
        from_spans = {
            (s.task, s.cpi, s.local_rank): s
            for s in sink.spans_of(phase="iteration")
        }
        rows = 0
        for task, timings in traced_result.collector.timings.items():
            for t in timings:
                span = from_spans[(task, t.cpi_index, t.rank)]
                recv, comp, send = sink.children_of(span)
                assert (recv.start, comp.start, send.start, send.end) == (
                    t.t0, t.t1, t.t2, t.t3,
                )
                rows += 1
        assert rows == len(from_spans)


# -- message records ---------------------------------------------------------------
class TestMessageRecords:
    def test_records_complete_and_ordered(self, traced_result):
        sink = traced_result.trace
        assert sink.messages
        for record in sink.messages:
            assert record.nbytes > 0
            assert record.src != record.dst
            # A drained run leaves nothing in flight.
            assert not math.isnan(record.t_complete)
            assert not math.isnan(record.t_recv_post)
            assert record.t_match >= record.t_send_post
            assert record.t_match >= record.t_recv_post
            assert record.t_complete >= record.t_match
            assert record.match_delay >= 0.0
            assert record.transfer_time >= 0.0

    def test_message_count_matches_network_counter(self, traced_result):
        assert len(traced_result.trace.messages) == traced_result.network_messages


# -- determinism -------------------------------------------------------------------
class TestObservationIsPassive:
    def test_traced_run_bit_identical_to_untraced(self):
        """Attaching a sink must not move a single timestamp."""
        def run(trace):
            return STAPPipeline(
                STAPParams.tiny(), TINY_ASSIGNMENT, num_cpis=3, trace=trace
            ).run()

        plain, traced = run(False), run(True)
        assert repr(plain.makespan) == repr(traced.makespan)
        assert plain.network_messages == traced.network_messages
        assert plain.network_bytes == traced.network_bytes
        for task, timings in plain.collector.timings.items():
            got = traced.collector.timings[task]
            assert [repr(t.t3) for t in timings] == [repr(t.t3) for t in got]


# -- network link stats golden ---------------------------------------------------
GOLDEN_LINKS = Path(__file__).resolve().parents[1] / "data" / "golden_link_stats.json"


def _link_doc(result) -> dict:
    """A traced run's network stats in the golden file's repr-exact form."""
    sink = result.trace
    return {
        "makespan": repr(result.makespan),
        "link_stats": [
            [name, s.messages, s.nbytes, repr(s.busy_seconds), repr(s.wait_seconds)]
            for name, s in sink.link_stats.items()
        ],
        "link_intervals": [
            [name, [[repr(a), repr(b), n] for a, b, n in intervals]]
            for name, intervals in sink.link_intervals.items()
        ],
    }


class TestLinkStatsGolden:
    """Table 7 case 3, small parameters, 3 CPIs: per-port messages, busy,
    wait and bytes, and every hold interval, pinned to the values the
    reference network's observed transfer path recorded."""

    @pytest.mark.parametrize(
        "sink",
        [TraceSink(), TraceSink(max_messages=0)],
        ids=["message-records", "no-message-records"],
    )
    def test_lowered_traced_run_matches_golden(self, sink, monkeypatch):
        def refuse(*_args):
            raise AssertionError("traced run left the slot-record path")

        monkeypatch.setattr(Network, "_begin_transfer", refuse)
        golden = json.loads(GOLDEN_LINKS.read_text())
        result = STAPPipeline(
            STAPParams.small(), CASE3, num_cpis=golden["num_cpis"], trace=sink
        ).run()
        assert _link_doc(result) == {
            key: golden[key] for key in ("makespan", "link_stats", "link_intervals")
        }

    def test_traced_links_run_matches_the_reference_resources(self, monkeypatch):
        """LINKS contention, traced on the default core: one stat per port
        and route link the reference network held, each with exactly that
        ``Resource``'s grant count and total wait."""
        worlds = []
        init = World.__init__

        def recording_init(world, *args, **kwargs):
            init(world, *args, **kwargs)
            worlds.append(world)

        monkeypatch.setattr(World, "__init__", recording_init)
        STAPPipeline(
            STAPParams.small(), CASE3, num_cpis=3, contention="links",
            backend="python",
        ).run()
        network = worlds[0].network
        resources = [
            *network._inject.values(), *network._eject.values(),
            *network._links.values(),
        ]
        expected = {
            r.name: (r.total_grants, repr(r.total_wait_time)) for r in resources
        }

        def refuse(*_args):
            raise AssertionError("traced run left the slot-record path")

        monkeypatch.setattr(Network, "_begin_transfer", refuse)
        sink = STAPPipeline(
            STAPParams.small(), CASE3, num_cpis=3, contention="links",
            trace=True,
        ).run().trace
        got = {
            name: (s.messages, repr(s.wait_seconds))
            for name, s in sink.link_stats.items()
        }
        assert got == expected
        assert any(name.startswith("link[") for name in got)

    @pytest.mark.parametrize(
        "config", [{"backend": "python"}], ids=["python-backend"],
    )
    def test_traced_reference_path_is_a_configuration_error(self, config):
        pipeline = STAPPipeline(
            STAPParams.tiny(), TINY_ASSIGNMENT, num_cpis=2, trace=True, **config
        )
        with pytest.raises(ConfigurationError, match="lowered transfer path"):
            pipeline.run()


# -- metadata ----------------------------------------------------------------------
class TestRunMetadata:
    def test_meta_filled_by_pipeline(self, traced_result):
        meta = traced_result.trace.meta
        assert meta["label"] == "obs-test [modeled]"
        assert meta["num_cpis"] == NUM_CPIS
        assert meta["makespan"] == traced_result.makespan
        ranks = meta["ranks"]
        assert len(ranks) == TINY_ASSIGNMENT.total_nodes
        assert any(name.startswith("doppler[") for name in ranks.values())
