"""Tests pinned to the megafan overhaul (allocation-free macro-scale fan-out).

Covers the netsim layer (link-batch delivery via ``Link.transmit_many``,
network batching regions, the refcounted ``DatagramPool``), the QUIC
preassembled-send fast path (wire identity with the general path, loss
recovery, the one-shot receive path), the MoQT fan-out fast path
(``publish_preencoded`` wire identity, shared decode memos) and the
perf-harness plumbing (``--repeat`` shapes, the regression gate).

The two headline guarantees:

* batched and unbatched delivery are *byte-identical* on the same seed
  (the determinism canary below runs a real CDN tree both ways);
* pooled datagram reuse never aliases live payloads — mutate-after-release
  must not be observable downstream (hypothesis property below).
"""

from __future__ import annotations

import json
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.moqt.datastream import (
    DataStreamParser,
    decode_complete_datastream,
    encode_subgroup_object,
    encode_subgroup_stream_chunk,
)
from repro.moqt.objectmodel import MoqtObject
from repro.netsim.link import Link, LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address, Datagram, DatagramPool
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.packet import Packet, PacketType
from repro.quic.stream import StreamDirection
from repro.relaynet import RelayTreeBuilder, RelayTreeSpec

SRC = Address("src-host", 1000)
DST = Address("dst-host", 2000)


def _make_connection(sent, handshake_complete=True, is_client=True):
    simulator = Simulator()
    connection = QuicConnection(
        simulator=simulator,
        send_datagram=lambda payload, destination: sent.append(bytes(payload)),
        local_address=Address("client", 1),
        peer_address=Address("server", 2),
        connection_id=(3 << 48) | 424242,
        is_client=is_client,
        config=ConnectionConfig(),
    )
    connection.handshake_complete = handshake_complete
    return simulator, connection


# ---------------------------------------------------------------------------
# netsim: link-batch delivery
# ---------------------------------------------------------------------------
class TestTransmitMany:
    def _links(self, simulator, count, config, delivered):
        links = []
        for index in range(count):
            links.append(
                Link(
                    simulator,
                    config,
                    lambda datagram, index=index: delivered.append((index, datagram)),
                )
            )
        return links

    def test_uniform_batch_is_one_event_with_order_preserved(self):
        simulator = Simulator()
        delivered: list[tuple[int, Datagram]] = []
        links = self._links(simulator, 8, LinkConfig(delay=0.01), delivered)
        entries = [
            (link, Datagram(SRC, DST, bytes([index]))) for index, link in enumerate(links)
        ]
        before = simulator.events_scheduled
        Link.transmit_many(simulator, entries)
        assert simulator.events_scheduled == before + 1  # one event for all 8
        simulator.run_until_idle()
        assert [index for index, _ in delivered] == list(range(8))
        assert simulator.now == pytest.approx(0.01)
        for link in links:
            assert link.statistics.datagrams_sent == 1
            assert link.statistics.datagrams_delivered == 1

    def test_mixed_delays_get_one_event_per_delay(self):
        simulator = Simulator()
        delivered: list[tuple[int, Datagram]] = []
        fast = self._links(simulator, 2, LinkConfig(delay=0.01), delivered)
        slow = self._links(simulator, 2, LinkConfig(delay=0.05), delivered)
        entries = [(link, Datagram(SRC, DST, b"x")) for link in (fast + slow)]
        before = simulator.events_scheduled
        Link.transmit_many(simulator, entries)
        assert simulator.events_scheduled == before + 2
        simulator.run_until_idle()
        assert len(delivered) == 4

    def test_constrained_links_are_batchable(self):
        # The old behaviour — bandwidth or loss forcing a silent per-datagram
        # fallback — is the bug this PR fixes: standard links are always
        # batchable now, whatever their configuration.
        simulator = Simulator()
        delivered: list[tuple[int, Datagram]] = []
        lossy = self._links(
            simulator, 1, LinkConfig(delay=0.01, bandwidth=1e6, loss_rate=0.5), delivered
        )
        assert lossy[0].batchable

    def test_non_batchable_entries_degrade_to_per_datagram_transmit(self):
        simulator = Simulator()
        delivered: list[tuple[int, Datagram]] = []
        links = self._links(simulator, 3, LinkConfig(delay=0.01), delivered)
        links[1].batchable = False  # explicit opt-out (subclass/test hook)
        entries = [(link, Datagram(SRC, DST, b"x")) for link in links]
        before = simulator.events_scheduled

        class Sink:
            link_batch_fallback_waves = 0

            def begin_batch(self):
                pass

            def end_batch(self):
                pass

        sink = Sink()
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            Link.transmit_many(simulator, entries, sink)
        # per-datagram transmit: one event per datagram instead of one wave,
        # and the degradation is observable on the sink counter
        assert simulator.events_scheduled - before == 3
        assert sum(link.statistics.datagrams_sent for link in links) == 3
        assert sink.link_batch_fallback_waves == 1

    def test_fallback_warns_once_per_process(self):
        import repro.netsim.link as link_module

        simulator = Simulator()
        delivered: list[tuple[int, Datagram]] = []
        links = self._links(simulator, 2, LinkConfig(delay=0.01), delivered)
        links[0].batchable = False
        original = link_module._fallback_warning_issued
        link_module._fallback_warning_issued = False
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                entries = [(link, Datagram(SRC, DST, b"x")) for link in links]
                Link.transmit_many(simulator, entries, None)
                entries = [(link, Datagram(SRC, DST, b"y")) for link in links]
                Link.transmit_many(simulator, entries, None)
            fallback_warnings = [
                w for w in caught if issubclass(w.category, RuntimeWarning)
            ]
            assert len(fallback_warnings) == 1
            assert "per-datagram" in str(fallback_warnings[0].message)
        finally:
            link_module._fallback_warning_issued = original

    def test_matches_sequential_transmit_behaviour(self):
        results = []
        for batched in (False, True):
            simulator = Simulator(seed=5)
            delivered = []
            links = self._links(simulator, 6, LinkConfig(delay=0.02), delivered)
            entries = [
                (link, Datagram(SRC, DST, bytes([index])))
                for index, link in enumerate(links)
            ]
            if batched:
                Link.transmit_many(simulator, entries)
            else:
                for link, datagram in entries:
                    link.transmit(datagram)
            simulator.run_until_idle()
            results.append(
                [(index, bytes(datagram.payload), simulator.now) for index, datagram in delivered]
            )
        assert results[0] == results[1]


class TestNetworkBatching:
    def _network(self):
        simulator = Simulator()
        network = Network(simulator, trace=NullTraceRecorder(simulator))
        network.add_host("a")
        network.add_host("b")
        network.add_host("c")
        network.connect("a", "b", LinkConfig(delay=0.01))
        network.connect("a", "c", LinkConfig(delay=0.01))
        return simulator, network

    def test_batch_region_collects_and_flushes_once(self):
        simulator, network = self._network()
        before = simulator.events_scheduled
        network.begin_batch()
        network.route(Datagram(Address("a", 1), Address("b", 1), b"one"))
        network.route(Datagram(Address("a", 1), Address("c", 1), b"two"))
        assert simulator.events_scheduled == before  # nothing scheduled yet
        network.end_batch()
        assert simulator.events_scheduled == before + 1
        simulator.run_until_idle()
        assert network.link("a", "b").statistics.datagrams_delivered == 1
        assert network.link("a", "c").statistics.datagrams_delivered == 1

    def test_nested_regions_flush_at_outermost_exit(self):
        simulator, network = self._network()
        network.begin_batch()
        network.begin_batch()
        network.route(Datagram(Address("a", 1), Address("b", 1), b"x"))
        network.end_batch()
        assert simulator.events_scheduled == 0
        network.end_batch()
        assert simulator.events_scheduled == 1

    def test_batching_disabled_transmits_immediately(self):
        simulator, network = self._network()
        network.batching_enabled = False
        network.begin_batch()
        network.route(Datagram(Address("a", 1), Address("b", 1), b"x"))
        assert simulator.events_scheduled == 1  # scheduled at enqueue
        network.end_batch()
        simulator.run_until_idle()
        assert network.link("a", "b").statistics.datagrams_delivered == 1


# ---------------------------------------------------------------------------
# netsim: the datagram pool
# ---------------------------------------------------------------------------
class TestDatagramPool:
    def test_shell_is_reused_after_release(self):
        pool = DatagramPool()
        first = pool.acquire(SRC, DST, b"one", "quic")
        first.release()
        second = pool.acquire(DST, SRC, b"two", "udp")
        assert second is first  # recycled shell
        assert second.payload == b"two"
        assert second.protocol == "udp"
        assert second.metadata is None
        assert pool.datagrams_allocated == 1
        assert pool.datagrams_reused == 1

    def test_retain_defers_reclaim_until_last_release(self):
        pool = DatagramPool()
        datagram = pool.acquire(SRC, DST, b"payload", "quic")
        datagram.retain()
        datagram.release()  # network's in-flight reference
        assert datagram.payload == b"payload"  # consumer still holds it
        datagram.release()
        replacement = pool.acquire(SRC, DST, b"next", "quic")
        assert replacement is datagram

    def test_plain_datagrams_ignore_refcounting(self):
        datagram = Datagram(SRC, DST, b"plain")
        datagram.retain()
        datagram.release()
        datagram.release()  # must be harmless
        assert datagram.payload == b"plain"

    def test_buffer_roundtrip_is_recycled(self):
        pool = DatagramPool()
        buffer = pool.acquire_buffer()
        buffer += b"wire-bytes"
        datagram = pool.acquire(SRC, DST, memoryview(buffer), "quic", buffer=buffer)
        datagram.release()
        again = pool.acquire_buffer()
        assert again is buffer
        assert len(again) == 0  # cleared for the next writer
        assert pool.buffers_reused == 1

    def test_buffer_with_live_export_is_abandoned_not_reused(self):
        pool = DatagramPool()
        buffer = pool.acquire_buffer()
        buffer += b"retained"
        datagram = pool.acquire(SRC, DST, memoryview(buffer), "quic", buffer=buffer)
        leaked_view = datagram.payload[0:]  # consumer keeps a sub-view, no retain()
        datagram.release()
        fresh = pool.acquire_buffer()
        assert fresh is not buffer  # abandoned, never recycled
        fresh += b"\xff" * 8
        assert bytes(leaked_view) == b"retained"  # old bytes stay observable
        assert pool.buffers_abandoned >= 1

    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_reuse_never_aliases_live_payloads(self, payloads):
        """Mutate-after-release must not be observable downstream.

        Consumers either copy (the decode paths), retain the datagram, or —
        worst case — keep a raw sub-view without retaining; in every case the
        bytes they saw must never change under later pool writes.
        """
        pool = DatagramPool()
        observed: list[tuple[bytes, memoryview]] = []
        for index, payload in enumerate(payloads):
            buffer = pool.acquire_buffer()
            buffer += payload
            datagram = pool.acquire(SRC, DST, memoryview(buffer), "quic", buffer=buffer)
            if index % 2 == 0:
                observed.append((bytes(payload), datagram.payload[0:]))
            datagram.release()
            # Next writer mutates whatever buffer the pool hands out.
            scribble = pool.acquire_buffer()
            scribble += b"\xee" * (len(payload) + 3)
            scribbled = pool.acquire(SRC, DST, memoryview(scribble), "quic", buffer=scribble)
            scribbled.release()
        for expected, view in observed:
            assert bytes(view) == expected


# ---------------------------------------------------------------------------
# QUIC: preassembled one-shot streams
# ---------------------------------------------------------------------------
class TestSendEncodedStream:
    def _chunk(self, alias=1):
        obj = MoqtObject(group_id=4, object_id=2, payload=b"fan-out-payload")
        return encode_subgroup_stream_chunk(alias, obj, encode_subgroup_object(obj))

    def test_wire_identical_to_general_stream_path(self):
        chunk = self._chunk()
        slow_sent, fast_sent = [], []
        _, slow = _make_connection(slow_sent)
        _, fast = _make_connection(fast_sent)
        stream = slow.open_stream(StreamDirection.UNIDIRECTIONAL)
        slow.send_stream_data(stream, chunk, fin=True)
        stream_id = fast.send_encoded_stream(chunk)
        assert fast_sent == slow_sent
        assert stream_id == stream.stream_id
        assert fast.statistics.packets_sent == slow.statistics.packets_sent
        assert fast.statistics.bytes_sent == slow.statistics.bytes_sent

    def test_stream_id_sequence_is_shared_with_open_stream(self):
        sent = []
        _, connection = _make_connection(sent)
        first = connection.send_encoded_stream(self._chunk())
        second = connection.open_stream(StreamDirection.UNIDIRECTIONAL).stream_id
        third = connection.send_encoded_stream(self._chunk())
        assert (first, second, third) == (2, 6, 10)  # client uni: 2, 6, 10

    def test_unacked_packet_is_retransmitted_with_identical_frames(self):
        chunk = self._chunk()
        sent = []
        simulator, connection = _make_connection(sent)
        connection.send_encoded_stream(chunk)
        first = Packet.decode(sent[0])
        simulator.run(until=connection.probe_timeout + 0.001)
        assert connection.statistics.retransmissions == 1
        retransmitted = Packet.decode(sent[1])
        assert retransmitted.packet_number > first.packet_number
        assert retransmitted.frames == first.frames
        assert retransmitted.packet_type is PacketType.ONE_RTT

    def test_falls_back_to_general_path_before_handshake(self):
        sent = []
        _, connection = _make_connection(sent, handshake_complete=False)
        connection.used_0rtt = True
        connection.early_data_accepted = True
        connection.send_encoded_stream(self._chunk())
        packet = Packet.decode(sent[-1])
        assert packet.packet_type is PacketType.ZERO_RTT


class TestOneShotReceivePath:
    def test_complete_uni_stream_needs_no_stream_state(self):
        sent = []
        received = []
        _, sender = _make_connection(sent)
        _, receiver = _make_connection([], is_client=False)
        receiver.handshake_complete = True
        receiver.on_stream_data = lambda sid, data, fin: received.append((sid, bytes(data), fin))
        sender.send_encoded_stream(b"stream-payload")
        packet = Packet.decode(sent[0])
        receiver.packet_received(packet, len(sent[0]))
        assert received == [(2, b"stream-payload", True)]
        assert 2 not in receiver.streams()  # no QuicStream materialised

    def test_retransmitted_duplicate_is_suppressed(self):
        sent = []
        received = []
        simulator, sender = _make_connection(sent)
        _, receiver = _make_connection([], is_client=False)
        receiver.handshake_complete = True
        receiver.on_stream_data = lambda sid, data, fin: received.append(bytes(data))
        sender.send_encoded_stream(b"once-only")
        simulator.run(until=sender.probe_timeout + 0.001)  # force a retransmit
        assert len(sent) == 2
        for payload in sent:
            receiver.packet_received(Packet.decode(payload), len(payload))
        assert received == [b"once-only"]


# ---------------------------------------------------------------------------
# MoQT: fan-out fast path and shared decode memos
# ---------------------------------------------------------------------------
class TestPublishPreencodedWireIdentity:
    def _session_pair(self):
        """A publisher-side session whose connection records what it sends."""
        from repro.moqt.session import MoqtSession, PublisherSubscription

        sent = []
        _, connection = _make_connection(sent, is_client=False)
        session = MoqtSession(connection, is_client=False)
        subscription = PublisherSubscription(request_id=1, track_alias=7, full_track_name=TRACK)
        return session, subscription, sent

    def test_matches_publish_byte_for_byte(self):
        obj = MoqtObject(group_id=3, object_id=1, payload=b"record-update")
        body = encode_subgroup_object(obj)
        chunk = encode_subgroup_stream_chunk(7, obj, body)

        slow_session, slow_subscription, slow_sent = self._session_pair()
        slow_session.publish(slow_subscription, obj, body)
        fast_session, fast_subscription, fast_sent = self._session_pair()
        fast_session.publish_preencoded(fast_subscription, obj, chunk)

        assert fast_sent == slow_sent
        assert (
            fast_session.statistics.objects_sent == slow_session.statistics.objects_sent == 1
        )
        assert fast_subscription.objects_sent == slow_subscription.objects_sent == 1

    def test_respects_forward_flag(self):
        obj = MoqtObject(group_id=3, object_id=1, payload=b"x")
        chunk = encode_subgroup_stream_chunk(7, obj, encode_subgroup_object(obj))
        session, subscription, sent = self._session_pair()
        subscription.forward = False
        session.publish_preencoded(subscription, obj, chunk)
        assert sent == []
        assert session.statistics.objects_sent == 0


class TestDecodeMemos:
    def test_complete_datastream_matches_parser(self):
        obj = MoqtObject(group_id=9, object_id=4, payload=b"memo-me", extensions=b"ee")
        chunk = encode_subgroup_stream_chunk(3, obj, encode_subgroup_object(obj))
        header, objects = decode_complete_datastream(chunk)
        parser = DataStreamParser()
        parsed = parser.feed(chunk, fin=True)
        assert header == parser.header
        assert list(objects) == parsed

    def test_identical_bytes_share_one_decode(self):
        obj = MoqtObject(group_id=9, object_id=5, payload=b"shared")
        chunk = encode_subgroup_stream_chunk(3, obj, encode_subgroup_object(obj))
        first = decode_complete_datastream(chunk)
        second = decode_complete_datastream(bytes(chunk))
        assert second[1][0] is first[1][0]  # same immutable object instance

    def test_truncated_stream_yields_no_header(self):
        header, objects = decode_complete_datastream(b"")
        assert header is None and objects == ()

    def test_control_message_memo_shares_instances(self):
        from repro.moqt.messages import Subscribe, decode_control_message

        message = Subscribe(request_id=0, track_alias=1, full_track_name=TRACK)
        wire = message.encode()
        first, _ = decode_control_message(wire)
        second, _ = decode_control_message(bytes(wire))
        assert first == message
        assert second is first


# ---------------------------------------------------------------------------
# determinism canary: batched vs unbatched delivery
# ---------------------------------------------------------------------------
def _run_canary_tree(batching: bool):
    simulator = Simulator(seed=11)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    network.batching_enabled = batching
    publisher = build_origin(network)
    tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(
        RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
    )
    tree.attach_subscribers(25)
    sequences: dict[int, list[tuple[int, int]]] = {index: [] for index in range(25)}
    tree.subscribe_all(
        TRACK,
        on_object=lambda subscriber, obj: sequences[subscriber.index].append(
            (obj.group_id, obj.object_id)
        ),
    )
    simulator.run(until=simulator.now + 3.0)
    for update in range(4):
        publisher.push(
            MoqtObject(group_id=update + 2, object_id=0, payload=b"canary" * 20)
        )
        simulator.run(until=simulator.now + 0.25)
    simulator.run(until=simulator.now + 3.0)
    return sequences, network.total_link_statistics(), simulator.now


class TestBatchedDeliveryDeterminismCanary:
    def test_batched_and_unbatched_runs_are_byte_identical(self):
        batched_sequences, batched_stats, batched_now = _run_canary_tree(True)
        plain_sequences, plain_stats, plain_now = _run_canary_tree(False)
        assert batched_sequences == plain_sequences
        assert any(batched_sequences.values()), "sequences were recorded"
        assert batched_stats == plain_stats  # same bytes on every link
        assert batched_now == plain_now

    def test_batching_collapses_the_event_count(self):
        batched = _run_canary_events(True)
        unbatched = _run_canary_events(False)
        # Even at 25 subscribers the batch form halves the event count; the
        # collapse grows with fan-out (10x at 10k subscribers).
        assert batched * 2 < unbatched


def _run_canary_events(batching: bool) -> int:
    simulator = Simulator(seed=11)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    network.batching_enabled = batching
    publisher = build_origin(network)
    tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(
        RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
    )
    tree.attach_subscribers(25)
    tree.subscribe_all(TRACK)
    simulator.run(until=simulator.now + 3.0)
    for update in range(4):
        publisher.push(MoqtObject(group_id=update + 2, object_id=0, payload=b"x" * 100))
        simulator.run(until=simulator.now + 0.25)
    simulator.run(until=simulator.now + 3.0)
    return simulator.events_scheduled


# ---------------------------------------------------------------------------
# simulator counters and harness plumbing
# ---------------------------------------------------------------------------
class TestSimulatorCounters:
    def test_events_scheduled_counts_every_call_at(self):
        simulator = Simulator()
        assert simulator.events_scheduled == 0
        simulator.call_later(0.1, lambda: None)
        simulator.call_soon(lambda: None)
        assert simulator.events_scheduled == 2
        simulator.run_until_idle()
        assert simulator.events_scheduled == 2  # running does not schedule

    def test_compactions_counter_tracks_heap_rebuilds(self):
        simulator = Simulator()
        events = [simulator.call_later(1.0, lambda: None) for _ in range(200)]
        assert simulator.compactions == 0
        for event in events[:150]:
            event.cancel()
        assert simulator.compactions >= 1


class TestPerfHarness:
    def _import_harness(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "perf"))
        import perf_fastpath

        return perf_fastpath

    def test_repeated_reports_min_and_median(self):
        harness = self._import_harness()
        calls = iter([0.5, 0.3, 0.4])

        def fake_bench(**kwargs):
            return {"seconds": next(calls), "ops_per_second": 1}

        result = harness.repeated(fake_bench, 3)
        assert result["repeat"] == 3
        assert result["seconds"] == 0.3  # headline comes from the fastest run
        assert result["seconds_min"] == 0.3
        assert result["seconds_median"] == 0.4
        assert result["seconds_all"] == [0.5, 0.3, 0.4]

    def test_repeated_single_run_keeps_plain_shape(self):
        harness = self._import_harness()
        result = harness.repeated(lambda **kwargs: {"seconds": 1.0}, 1)
        assert result == {"seconds": 1.0}

    def test_event_loop_churn_reports_compactions(self):
        harness = self._import_harness()
        result = harness.bench_event_loop_churn(events=2_000)
        assert result["compactions"] >= 1
        assert result["timer_fired"] == 1

    def test_check_against_reference_gates_on_throughput(self, tmp_path):
        harness = self._import_harness()
        reference = {
            "benchmarks": {
                "event_loop_churn": {"events_per_second": 1000},
                "varint_roundtrip": {"ops_per_second": 1000},
            }
        }
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(reference))
        good = {
            "benchmarks": {
                "event_loop_churn": {"events_per_second": 900},
                "varint_roundtrip": {"ops_per_second": 700},
            }
        }
        assert harness.check_against_reference(good, path) == []
        bad = {
            "benchmarks": {
                "event_loop_churn": {"events_per_second": 640},  # > 35% down
                "varint_roundtrip": {"ops_per_second": 700},
            }
        }
        failures = harness.check_against_reference(bad, path)
        assert len(failures) == 1
        assert "event_loop_churn" in failures[0]

    def test_check_skips_benchmarks_missing_from_either_side(self, tmp_path):
        harness = self._import_harness()
        path = tmp_path / "ref.json"
        path.write_text(json.dumps({"benchmarks": {}}))
        document = {"benchmarks": {"event_loop_churn": {"events_per_second": 1}}}
        assert harness.check_against_reference(document, path) == []
