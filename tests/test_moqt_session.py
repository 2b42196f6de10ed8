"""Tests for MoQT sessions: setup, subscribe, fetch, publish, relays."""

from __future__ import annotations

import pytest

from repro.moqt.errors import ProtocolViolation, SubscribeErrorCode
from repro.moqt.messages import (
    MOQT_VERSION_DRAFT_12,
    ControlStreamParser,
    FilterType,
    ServerSetup,
)
from repro.moqt.objectmodel import Location, MoqtObject, TrackState
from repro.moqt.relay import MoqtRelay
from repro.moqt.session import (
    FetchResult,
    MoqtSession,
    MoqtSessionConfig,
    SubscribeResult,
)
from repro.moqt.track import FullTrackName
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

PUBLISHER = "9.9.9.9"
SUBSCRIBER = "10.0.0.1"
RELAY = "5.5.5.5"
RTT = 0.05
TRACK = FullTrackName.of(["dns", "a"], b"example")


class RecordingPublisher:
    """A publisher delegate serving one in-memory track."""

    def __init__(self, defer: bool = False) -> None:
        self.state = TrackState(TRACK)
        self.state.publish(MoqtObject(group_id=1, object_id=0, payload=b"v1"))
        self.subscribes = []
        self.fetches = []
        self.defer = defer
        self.accept = True

    def handle_subscribe(self, session, message):
        self.subscribes.append((session, message))
        if self.defer:
            return None
        if not self.accept:
            return SubscribeResult(
                ok=False, error_code=SubscribeErrorCode.TRACK_DOES_NOT_EXIST, reason="nope"
            )
        return SubscribeResult(ok=True, largest=self.state.largest)

    def handle_fetch(self, session, message, full_track_name):
        self.fetches.append((session, message, full_track_name))
        if self.defer:
            return None
        return FetchResult(ok=True, objects=self.state.latest_objects(1), largest=self.state.largest)


def _build(publisher_delegate=None, session_config=None):
    simulator = Simulator(seed=21)
    network = Network(simulator)
    network.add_host(PUBLISHER)
    network.add_host(SUBSCRIBER)
    network.connect(PUBLISHER, SUBSCRIBER, LinkConfig(delay=RTT / 2))
    publisher_sessions = []
    delegate = publisher_delegate if publisher_delegate is not None else RecordingPublisher()

    def on_connection(connection):
        publisher_sessions.append(
            MoqtSession(
                connection,
                is_client=False,
                config=session_config or MoqtSessionConfig(),
                publisher_delegate=delegate,
            )
        )

    QuicEndpoint(
        network.host(PUBLISHER),
        port=4443,
        server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
        on_connection=on_connection,
    )
    client_endpoint = QuicEndpoint(network.host(SUBSCRIBER))
    connection = client_endpoint.connect(
        Address(PUBLISHER, 4443), ConnectionConfig(alpn_protocols=("moq-00",))
    )
    client_session = MoqtSession(
        connection, is_client=True, config=session_config or MoqtSessionConfig()
    )
    return simulator, client_session, publisher_sessions, delegate


class TestSessionSetup:
    def test_session_ready_after_two_rtts(self):
        simulator, session, publisher_sessions, _ = _build()
        simulator.run(until=2.0)
        assert session.ready
        assert session.ready_at == pytest.approx(2 * RTT)
        assert publisher_sessions[0].ready
        assert session.selected_version is not None

    def test_alpn_version_negotiation_makes_client_ready_immediately(self):
        simulator, session, _, _ = _build(
            session_config=MoqtSessionConfig(alpn_version_negotiation=True)
        )
        assert session.ready
        assert session.ready_at == 0.0

    def test_requests_queued_until_ready_are_sent(self):
        simulator, session, _, delegate = _build()
        responses = []
        session.subscribe(TRACK, on_response=lambda s: responses.append(s.state))
        simulator.run(until=2.0)
        assert responses == ["active"]
        assert len(delegate.subscribes) == 1


class TestSubscribeAndFetch:
    def test_subscribe_fetch_and_push(self):
        simulator, session, publisher_sessions, delegate = _build()
        pushed = []
        fetched = []
        subscription = session.subscribe(TRACK, on_object=lambda obj: pushed.append(obj))
        session.joining_fetch(subscription, 1, on_complete=lambda f: fetched.append(f))
        simulator.run(until=2.0)
        assert subscription.is_active
        assert fetched[0].succeeded
        assert [obj.payload for obj in fetched[0].objects] == [b"v1"]
        assert subscription.largest == Location(1, 0)

        publisher_subscription = publisher_sessions[0].publisher_subscriptions()[0]
        update = MoqtObject(group_id=2, object_id=0, payload=b"v2")
        delegate.state.publish(update)
        publisher_sessions[0].publish(publisher_subscription, update)
        simulator.run(until=4.0)
        assert [obj.payload for obj in pushed] == [b"v2"]
        assert subscription.objects_received == 1
        assert session.statistics.objects_received == 2  # fetch object + push

    def test_subscribe_error_propagates(self):
        delegate = RecordingPublisher()
        delegate.accept = False
        simulator, session, _, _ = _build(publisher_delegate=delegate)
        states = []
        session.subscribe(TRACK, on_response=lambda s: states.append((s.state, s.error_code)))
        simulator.run(until=2.0)
        assert states == [("error", int(SubscribeErrorCode.TRACK_DOES_NOT_EXIST))]

    def test_deferred_completion(self):
        delegate = RecordingPublisher(defer=True)
        simulator, session, publisher_sessions, _ = _build(publisher_delegate=delegate)
        states = []
        fetch_results = []
        subscription = session.subscribe(TRACK, on_response=lambda s: states.append(s.state))
        session.joining_fetch(subscription, 1, on_complete=lambda f: fetch_results.append(f.succeeded))
        simulator.run(until=2.0)
        assert states == [] and fetch_results == []
        publisher = publisher_sessions[0]
        sub_request = delegate.subscribes[0][1]
        fetch_request = delegate.fetches[0][1]
        publisher.complete_subscribe(
            sub_request.request_id, SubscribeResult(ok=True, largest=Location(1, 0))
        )
        publisher.complete_fetch(
            fetch_request.request_id,
            FetchResult(ok=True, objects=[MoqtObject(group_id=1, object_id=0, payload=b"v1")]),
        )
        simulator.run(until=4.0)
        assert states == ["active"]
        assert fetch_results == [True]

    def test_standalone_fetch_range(self):
        delegate = RecordingPublisher()
        delegate.state.publish(MoqtObject(group_id=2, object_id=0, payload=b"v2"))
        simulator, session, _, _ = _build(publisher_delegate=delegate)
        done = []
        session.fetch(TRACK, Location(1, 0), Location(2, 0), on_complete=done.append)
        simulator.run(until=2.0)
        assert done[0].succeeded
        assert done[0].objects  # publisher returns its latest object

    def test_unsubscribe_sends_done(self):
        simulator, session, publisher_sessions, _ = _build()
        subscription = session.subscribe(TRACK)
        simulator.run(until=2.0)
        assert publisher_sessions[0].publisher_subscriptions()
        session.unsubscribe(subscription)
        simulator.run(until=4.0)
        assert subscription.state == "done"
        assert publisher_sessions[0].publisher_subscriptions() == []

    def test_unsubscribe_releases_subscriber_side_state(self):
        # A long-lived session that churns through subscribe/unsubscribe
        # cycles (a relay's upstream session) must not accumulate dead
        # subscription entries (§5.1).
        simulator, session, publisher_sessions, delegate = _build()
        received = []
        for _ in range(5):
            subscription = session.subscribe(TRACK, on_object=received.append)
            simulator.run(until=simulator.now + 2.0)
            session.unsubscribe(subscription)
            simulator.run(until=simulator.now + 2.0)
        assert session.subscriptions() == []
        # Objects pushed after the teardown do not reach dead callbacks.
        update = MoqtObject(group_id=9, object_id=0, payload=b"late")
        delegate.state.publish(update)
        for publisher_subscription in publisher_sessions[0].publisher_subscriptions():
            publisher_sessions[0].publish(publisher_subscription, update)
        simulator.run(until=simulator.now + 2.0)
        assert received == []

    def test_fetch_error_when_no_publisher(self):
        simulator, session, publisher_sessions, _ = _build()
        simulator.run(until=1.0)
        publisher_sessions[0].publisher_delegate = None
        results = []
        subscription = session.subscribe(TRACK, on_response=lambda s: results.append(s.state))
        simulator.run(until=3.0)
        assert results == ["error"]

    def test_datagram_object_delivery(self):
        simulator, session, publisher_sessions, delegate = _build(
            session_config=MoqtSessionConfig(use_datagrams=True)
        )
        pushed = []
        session.subscribe(TRACK, on_object=lambda obj: pushed.append(obj.payload))
        simulator.run(until=2.0)
        publisher = publisher_sessions[0]
        publisher_subscription = publisher.publisher_subscriptions()[0]
        publisher.publish(publisher_subscription, MoqtObject(group_id=3, object_id=0, payload=b"dg"))
        simulator.run(until=3.0)
        assert pushed == [b"dg"]

    def test_goaway_recorded(self):
        simulator, session, publisher_sessions, _ = _build()
        simulator.run(until=1.0)
        publisher_sessions[0].goaway("moqt://elsewhere")
        simulator.run(until=2.0)
        assert session.goaway_uri == "moqt://elsewhere"

    def test_session_close_propagates(self):
        simulator, session, publisher_sessions, _ = _build()
        simulator.run(until=1.0)
        closed = []
        publisher_sessions[0].on_closed = lambda s, reason: closed.append(reason)
        session.close("finished")
        simulator.run(until=2.0)
        assert session.closed
        assert publisher_sessions[0].closed
        assert closed


class TestRelay:
    def _build_relay_chain(self):
        simulator = Simulator(seed=31)
        network = Network(simulator)
        for host in (PUBLISHER, RELAY, SUBSCRIBER):
            network.add_host(host)
        network.connect(PUBLISHER, RELAY, LinkConfig(delay=0.02))
        network.connect(RELAY, SUBSCRIBER, LinkConfig(delay=0.01))

        delegate = RecordingPublisher()
        origin_sessions = []

        def on_connection(connection):
            origin_sessions.append(
                MoqtSession(connection, is_client=False, publisher_delegate=delegate)
            )

        QuicEndpoint(
            network.host(PUBLISHER),
            port=4443,
            server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
            on_connection=on_connection,
        )
        relay = MoqtRelay(network.host(RELAY), upstream=Address(PUBLISHER, 4443))

        def subscriber(host_address: str):
            endpoint = QuicEndpoint(network.host(host_address))
            connection = endpoint.connect(
                Address(RELAY, 4443), ConnectionConfig(alpn_protocols=("moq-00",))
            )
            return MoqtSession(connection, is_client=True)

        return simulator, delegate, origin_sessions, relay, subscriber

    def test_relay_aggregates_subscriptions_and_forwards_objects(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        first = make_subscriber(SUBSCRIBER)
        second = make_subscriber(SUBSCRIBER)
        received_first, received_second = [], []
        first.subscribe(TRACK, on_object=lambda obj: received_first.append(obj.payload))
        second.subscribe(TRACK, on_object=lambda obj: received_second.append(obj.payload))
        simulator.run(until=3.0)
        # Two downstream subscriptions, one upstream subscription.
        assert relay.statistics.downstream_subscribes == 2
        assert relay.statistics.upstream_subscribes == 1
        assert delegate.subscribes and len(delegate.subscribes) == 1

        update = MoqtObject(group_id=2, object_id=0, payload=b"v2")
        delegate.state.publish(update)
        origin = origin_sessions[0]
        origin.publish(origin.publisher_subscriptions()[0], update)
        simulator.run(until=6.0)
        assert received_first == [b"v2"]
        assert received_second == [b"v2"]
        assert relay.statistics.objects_forwarded == 2

    def test_relay_serves_fetch_from_cache_after_first_object(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        subscriber = make_subscriber(SUBSCRIBER)
        subscription = subscriber.subscribe(TRACK)
        simulator.run(until=3.0)
        update = MoqtObject(group_id=2, object_id=0, payload=b"v2")
        delegate.state.publish(update)
        origin = origin_sessions[0]
        origin.publish(origin.publisher_subscriptions()[0], update)
        simulator.run(until=5.0)

        fetches = []
        late = make_subscriber(SUBSCRIBER)
        late_subscription = late.subscribe(TRACK)
        late.joining_fetch(late_subscription, 1, on_complete=lambda f: fetches.append(f))
        simulator.run(until=8.0)
        assert fetches and fetches[0].succeeded
        assert [obj.payload for obj in fetches[0].objects] == [b"v2"]
        assert relay.statistics.fetches_served_from_cache == 1

    def test_relay_tears_down_upstream_when_last_subscriber_unsubscribes(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        first = make_subscriber(SUBSCRIBER)
        second = make_subscriber(SUBSCRIBER)
        first_subscription = first.subscribe(TRACK)
        second_subscription = second.subscribe(TRACK)
        simulator.run(until=3.0)
        assert origin_sessions[0].publisher_subscriptions()

        first.unsubscribe(first_subscription)
        simulator.run(until=5.0)
        # One subscriber remains: the upstream subscription must survive.
        assert relay.statistics.upstream_unsubscribes == 0
        assert origin_sessions[0].publisher_subscriptions()

        second.unsubscribe(second_subscription)
        simulator.run(until=7.0)
        # Last subscriber gone: the relay must not leak its upstream
        # subscription (§5.1 state clean-up).
        assert relay.statistics.downstream_unsubscribes == 2
        assert relay.statistics.upstream_unsubscribes == 1
        assert relay.tracks()[TRACK].upstream_subscription is None
        assert origin_sessions[0].publisher_subscriptions() == []

        # A new subscriber re-creates the upstream subscription.
        third = make_subscriber(SUBSCRIBER)
        states = []
        third.subscribe(TRACK, on_response=lambda s: states.append(s.state))
        simulator.run(until=10.0)
        assert states == ["active"]
        assert relay.statistics.upstream_subscribes == 2

    def test_unsubscribe_racing_a_deferred_subscribe_still_tears_down(self):
        # The relay defers the first SUBSCRIBE until the upstream answers; an
        # UNSUBSCRIBE arriving within that window must not leave a ghost
        # subscriber that the late upstream response resurrects.
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        subscriber = make_subscriber(SUBSCRIBER)
        received = []
        subscription = subscriber.subscribe(TRACK, on_object=lambda obj: received.append(obj))
        subscriber.unsubscribe(subscription)  # before the upstream ever answers
        simulator.run(until=5.0)
        assert relay.statistics.downstream_unsubscribes == 1
        assert relay.tracks()[TRACK].downstream == []
        assert relay.tracks()[TRACK].upstream_subscription is None
        assert origin_sessions[0].publisher_subscriptions() == []

        update = MoqtObject(group_id=2, object_id=0, payload=b"v2")
        delegate.state.publish(update)
        for publisher_subscription in origin_sessions[0].publisher_subscriptions():
            origin_sessions[0].publish(publisher_subscription, update)
        simulator.run(until=8.0)
        assert received == [], "no objects reach an unsubscribed session"

    def test_upstream_rejection_releases_relay_track_state(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        delegate.accept = False
        subscriber = make_subscriber(SUBSCRIBER)
        states = []
        subscriber.subscribe(TRACK, on_response=lambda s: states.append(s.state))
        simulator.run(until=3.0)
        assert states == ["error"]
        # The failed attempt must not pin the track: no ghost downstream
        # entry, no dead upstream subscription blocking future retries, and
        # no dead entry lingering in the upstream session's routing maps.
        assert relay.tracks()[TRACK].downstream == []
        assert relay.tracks()[TRACK].upstream_subscription is None
        assert relay._upstream_session.subscriptions() == []

        delegate.accept = True
        retry_states = []
        retry = make_subscriber(SUBSCRIBER)
        retry.subscribe(TRACK, on_response=lambda s: retry_states.append(s.state))
        simulator.run(until=6.0)
        assert retry_states == ["active"], "a later subscriber retries upstream"
        assert relay.statistics.upstream_subscribes == 2

    def test_upstream_rejection_errors_every_waiter_including_late_joiners(self):
        # A second subscriber arriving while the upstream subscribe is still
        # in flight must share the upstream's outcome — not be answered
        # ok=True optimistically and then stranded on a dead track.
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        delegate.accept = False
        first = make_subscriber(SUBSCRIBER)
        second = make_subscriber(SUBSCRIBER)
        first_states, second_states = [], []
        first.subscribe(TRACK, on_response=lambda s: first_states.append(s.state))
        second.subscribe(TRACK, on_response=lambda s: second_states.append(s.state))
        simulator.run(until=4.0)
        assert first_states == ["error"]
        assert second_states == ["error"]
        assert relay.tracks()[TRACK].downstream == []
        assert relay.tracks()[TRACK].awaiting_upstream == []
        assert relay.tracks()[TRACK].upstream_subscription is None

    def test_stale_upstream_response_does_not_consume_replacement_waiters(self):
        # A's upstream subscription is torn down while the origin's answer is
        # in flight; B's replacement subscription is pending.  The stale
        # answer crossing the UNSUBSCRIBE must not be delivered to B.
        delegate = RecordingPublisher(defer=True)
        simulator = Simulator(seed=41)
        network = Network(simulator)
        for host in (PUBLISHER, RELAY, SUBSCRIBER):
            network.add_host(host)
        network.connect(PUBLISHER, RELAY, LinkConfig(delay=0.02))
        network.connect(RELAY, SUBSCRIBER, LinkConfig(delay=0.01))
        origin_sessions = []
        QuicEndpoint(
            network.host(PUBLISHER),
            port=4443,
            server_tls=ServerTlsContext(alpn_protocols=("moq-00",)),
            on_connection=lambda conn: origin_sessions.append(
                MoqtSession(conn, is_client=False, publisher_delegate=delegate)
            ),
        )
        relay = MoqtRelay(network.host(RELAY), upstream=Address(PUBLISHER, 4443))

        def make_subscriber():
            endpoint = QuicEndpoint(network.host(SUBSCRIBER))
            connection = endpoint.connect(
                Address(RELAY, 4443), ConnectionConfig(alpn_protocols=("moq-00",))
            )
            return MoqtSession(connection, is_client=True)

        first, second = make_subscriber(), make_subscriber()
        subscription_a = first.subscribe(TRACK)
        simulator.run(until=2.0)
        assert len(delegate.subscribes) == 1  # sub1 deferred at the origin

        # Same instant: A leaves (UNSUBSCRIBE departs relay-wards), B joins,
        # and the origin answers sub1 with an error — messages cross.
        first.unsubscribe(subscription_a)
        b_states = []
        second.subscribe(TRACK, on_response=lambda s: b_states.append(s.state))
        origin = origin_sessions[0]
        origin.complete_subscribe(
            delegate.subscribes[0][1].request_id,
            SubscribeResult(
                ok=False, error_code=SubscribeErrorCode.TRACK_DOES_NOT_EXIST, reason="stale"
            ),
        )
        simulator.run(until=4.0)
        assert b_states == [], "B must not receive sub1's stale error"
        assert len(delegate.subscribes) == 2  # B's replacement reached the origin

        origin.complete_subscribe(
            delegate.subscribes[1][1].request_id,
            SubscribeResult(ok=True, largest=Location(1, 0)),
        )
        simulator.run(until=6.0)
        assert b_states == ["active"]
        track = relay.tracks()[TRACK]
        assert len(track.downstream) == 1
        assert track.upstream_subscription is not None
        assert track.upstream_subscription.is_active

    def test_joiners_during_upstream_round_trip_become_active_on_success(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        first = make_subscriber(SUBSCRIBER)
        second = make_subscriber(SUBSCRIBER)
        states = []
        first.subscribe(TRACK, on_response=lambda s: states.append(("first", s.state)))
        second.subscribe(TRACK, on_response=lambda s: states.append(("second", s.state)))
        simulator.run(until=4.0)
        assert sorted(states) == [("first", "active"), ("second", "active")]
        assert relay.statistics.upstream_subscribes == 1
        assert len(relay.tracks()[TRACK].downstream) == 2

    def test_relay_tears_down_upstream_when_last_subscriber_disconnects(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        subscriber = make_subscriber(SUBSCRIBER)
        subscriber.subscribe(TRACK)
        simulator.run(until=3.0)
        assert relay.tracks()[TRACK].downstream
        subscriber.close("gone")
        simulator.run(until=5.0)
        assert relay.tracks()[TRACK].downstream == []
        assert relay.tracks()[TRACK].upstream_subscription is None
        assert origin_sessions[0].publisher_subscriptions() == []

    def test_relay_forwards_fetch_upstream_on_cache_miss(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = self._build_relay_chain()
        subscriber = make_subscriber(SUBSCRIBER)
        fetches = []
        subscription = subscriber.subscribe(TRACK)
        subscriber.joining_fetch(subscription, 1, on_complete=lambda f: fetches.append(f))
        simulator.run(until=5.0)
        assert fetches and fetches[0].succeeded
        assert [obj.payload for obj in fetches[0].objects] == [b"v1"]
        assert relay.statistics.fetches_forwarded_upstream == 1


#: A FETCH_OK (type 0x18) whose GroupOrder byte is the invalid 0xbd.
MALFORMED_FETCH_OK = bytes.fromhex("18000600bd00000000")


class TestHostileControlStream:
    def test_malformed_control_message_is_a_protocol_violation(self):
        with pytest.raises(ProtocolViolation, match="malformed FetchOk: 189 is not a valid"):
            ControlStreamParser().feed(MALFORMED_FETCH_OK)

    def test_malformed_message_closes_only_its_session(self):
        simulator, session, publisher_sessions, _ = _build()
        simulator.run(until=1.0)
        server = publisher_sessions[0]
        session.connection.send_stream_data(session._control_stream, MALFORMED_FETCH_OK)
        simulator.run(until=2.0)
        assert server.closed and server.statistics.protocol_violations == 1
        assert session.closed and session.statistics.protocol_violations == 0

    def test_out_of_place_message_from_handler_closes_the_session(self):
        simulator, session, publisher_sessions, _ = _build()
        simulator.run(until=1.0)
        server = publisher_sessions[0]
        stray = ServerSetup(selected_version=MOQT_VERSION_DRAFT_12).encode()
        session.connection.send_stream_data(session._control_stream, stray)
        simulator.run(until=2.0)
        assert server.closed and server.statistics.protocol_violations == 1

    def test_relay_keeps_serving_the_other_downstream_session(self):
        simulator, delegate, origin_sessions, relay, make_subscriber = (
            TestRelay()._build_relay_chain()
        )
        hostile = make_subscriber(SUBSCRIBER)
        healthy = make_subscriber(SUBSCRIBER)
        received = []
        healthy.subscribe(TRACK, on_object=lambda obj: received.append(obj.group_id))
        simulator.run(until=3.0)
        relay_sessions = relay.downstream_sessions()
        hostile.connection.send_stream_data(hostile._control_stream, MALFORMED_FETCH_OK)
        simulator.run(until=4.0)
        origin = origin_sessions[0]
        for group_id in (2, 3):
            update = MoqtObject(group_id=group_id, object_id=0, payload=b"v%d" % group_id)
            delegate.state.publish(update)
            origin.publish(origin.publisher_subscriptions()[0], update)
            simulator.run(until=simulator.now + 0.5)
        assert received == [2, 3]
        assert hostile.closed and not healthy.closed
        assert sorted(
            (session.closed, session.statistics.protocol_violations)
            for session in relay_sessions
        ) == [(False, 0), (True, 1)]
