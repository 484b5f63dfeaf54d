"""Property-based tests of SimMPI matching: arbitrary traffic patterns
always deliver every message exactly once, in per-(source, tag) order."""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.des import Simulator
from repro.machine import afrl_paragon
from repro.mpi import World, ANY_SOURCE, ANY_TAG


@st.composite
def traffic_patterns(draw):
    """A random multiset of (src, dst, tag) messages among a few ranks."""
    num_ranks = draw(st.integers(min_value=2, max_value=5))
    messages = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_ranks - 1),  # src
                st.integers(min_value=0, max_value=num_ranks - 1),  # dst
                st.integers(min_value=0, max_value=3),  # tag
            ).filter(lambda m: m[0] != m[1]),
            min_size=1,
            max_size=25,
        )
    )
    return num_ranks, messages


class TestDeliveryProperties:
    @given(traffic_patterns(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_every_message_delivered_exactly_once(self, pattern, use_wildcard):
        num_ranks, messages = pattern
        sends_by_rank = defaultdict(list)
        expected_by_dst = defaultdict(list)
        for seq, (src, dst, tag) in enumerate(messages):
            sends_by_rank[src].append((dst, tag, seq))
            expected_by_dst[dst].append((src, tag, seq))

        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=num_ranks, contention="none")
        received = defaultdict(list)

        def program(ctx):
            requests = []
            for dst, tag, seq in sends_by_rank.get(ctx.rank, []):
                requests.append(ctx.isend(seq, dest=dst, tag=tag, nbytes=64))
            for src, tag, _seq in expected_by_dst.get(ctx.rank, []):
                if use_wildcard:
                    msg = yield ctx.irecv(source=ANY_SOURCE, tag=tag)
                else:
                    msg = yield ctx.irecv(source=src, tag=tag)
                received[ctx.rank].append((msg.source, msg.tag, msg.payload))
            if requests:
                yield ctx.wait_all(requests)

        world.spawn_all(program)
        sim.run()

        # Exactly-once delivery: payload seq numbers form the exact multiset.
        got = sorted(seq for msgs in received.values() for (_s, _t, seq) in msgs)
        assert got == sorted(range(len(messages)))
        assert world.outstanding_operations() == 0

    @given(traffic_patterns())
    @settings(max_examples=60, deadline=None)
    def test_non_overtaking_per_source_tag(self, pattern):
        num_ranks, messages = pattern
        sends_by_rank = defaultdict(list)
        expected_by_dst = defaultdict(list)
        for seq, (src, dst, tag) in enumerate(messages):
            sends_by_rank[src].append((dst, tag, seq))
            expected_by_dst[dst].append((src, tag, seq))

        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=num_ranks, contention="none")
        received = defaultdict(list)

        def program(ctx):
            requests = [
                ctx.isend(seq, dest=dst, tag=tag, nbytes=64)
                for dst, tag, seq in sends_by_rank.get(ctx.rank, [])
            ]
            for src, tag, _seq in expected_by_dst.get(ctx.rank, []):
                msg = yield ctx.irecv(source=src, tag=tag)
                received[ctx.rank].append((msg.source, msg.tag, msg.payload))
            if requests:
                yield ctx.wait_all(requests)

        world.spawn_all(program)
        sim.run()

        # Within one (dst, source, tag) channel, seq numbers arrive in
        # posting order (MPI's non-overtaking guarantee).
        for dst, msgs in received.items():
            per_channel = defaultdict(list)
            for source, tag, seq in msgs:
                per_channel[(source, tag)].append(seq)
            for seqs in per_channel.values():
                assert seqs == sorted(seqs)

    @given(
        traffic_patterns(),
        st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_non_overtaking_under_wildcard_interleavings(self, pattern, rank_kinds):
        """Indexed matching keeps channel order with wildcard receivers.

        Each *rank* receives with one of four patterns — exact,
        ANY_SOURCE, ANY_TAG, or both wildcards — so wildcard and exact
        matching interleave freely across the simulation.  (The kind is
        uniform per rank: mixing kinds within one rank can steal a
        message an exact receive posted later depends on, which deadlocks
        legally — that is MPI semantics, not a matcher bug.)  Whatever
        the interleaving, MPI requires: every message delivered exactly
        once, each delivery satisfying its request's pattern, and — the
        non-overtaking guarantee the exact-key queues plus the shared
        posted-order sequence numbers must preserve — payloads within one
        (source, tag) channel arriving in posting order.
        """
        num_ranks, messages = pattern
        sends_by_rank = defaultdict(list)
        expected_by_dst = defaultdict(list)
        for seq, (src, dst, tag) in enumerate(messages):
            sends_by_rank[src].append((dst, tag, seq))
            expected_by_dst[dst].append((src, tag, seq))

        sim = Simulator()
        world = World(sim, afrl_paragon(), num_ranks=num_ranks, contention="none")
        received = defaultdict(list)

        def program(ctx):
            requests = [
                ctx.isend(seq, dest=dst, tag=tag, nbytes=64)
                for dst, tag, seq in sends_by_rank.get(ctx.rank, [])
            ]
            kind = rank_kinds[ctx.rank]
            for src, tag, _seq in expected_by_dst.get(ctx.rank, []):
                want_src = ANY_SOURCE if kind in (1, 3) else src
                want_tag = ANY_TAG if kind in (2, 3) else tag
                msg = yield ctx.irecv(source=want_src, tag=want_tag)
                received[ctx.rank].append((want_src, want_tag, msg))
            if requests:
                yield ctx.wait_all(requests)

        world.spawn_all(program)
        sim.run()

        got = sorted(
            msg.payload for msgs in received.values() for (_s, _t, msg) in msgs
        )
        assert got == sorted(range(len(messages)))
        assert world.outstanding_operations() == 0
        # Drained queues are dropped, not kept empty: a finished run leaves
        # no matcher state behind, whichever match paths it took.
        assert not (world._sends_exact or world._recvs_exact
                    or world._recvs_wild or world._send_keys)

        for dst, msgs in received.items():
            per_channel = defaultdict(list)
            for want_src, want_tag, msg in msgs:
                # Each delivery satisfies the pattern of the request that
                # received it (source is reported as a communicator rank;
                # the world communicator's mapping is the identity).
                if want_src != ANY_SOURCE:
                    assert msg.source == want_src
                if want_tag != ANY_TAG:
                    assert msg.tag == want_tag
                per_channel[(msg.source, msg.tag)].append(msg.payload)
            for seqs in per_channel.values():
                assert seqs == sorted(seqs)
