"""The MoQT session: setup handshake, subscriptions, fetches and publishing.

A :class:`MoqtSession` runs on top of one :class:`~repro.quic.connection.QuicConnection`.
The client opens the bidirectional control stream and sends ``CLIENT_SETUP``;
the server answers with ``SERVER_SETUP``.  Only then may requests be issued —
this is the extra round trip the paper's §5.2 attributes to MoQT session
establishment.  Setting
:attr:`MoqtSessionConfig.alpn_version_negotiation` models the future
optimisation the paper mentions (version negotiation moved into the QUIC/TLS
ALPN), which lets the client send requests immediately after the QUIC
handshake (or in 0-RTT data).

Both endpoints of a session can act as publisher and subscriber:

* the *subscriber* API is :meth:`MoqtSession.subscribe`,
  :meth:`MoqtSession.fetch` (standalone) and :meth:`MoqtSession.joining_fetch`;
* the *publisher* API is a :class:`PublisherDelegate` that decides how to
  answer SUBSCRIBE/FETCH, plus :meth:`MoqtSession.publish` to push objects to
  an accepted subscription.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.moqt.datastream import (
    DataStreamParser,
    FetchStreamHeader,
    SubgroupStreamHeader,
    decode_complete_datastream,
    encode_fetch_object,
    encode_object_datagram,
    encode_subgroup_stream_chunk,
    decode_object_datagram,
)
from repro.moqt.errors import (
    FetchErrorCode,
    MoqtError,
    ProtocolViolation,
    SessionTerminated,
    SubscribeErrorCode,
)
from repro.moqt.messages import (
    Announce,
    AnnounceOk,
    ClientSetup,
    ControlMessage,
    ControlStreamParser,
    Fetch,
    FetchCancel,
    FetchError,
    FetchOk,
    FetchType,
    FilterType,
    Goaway,
    GroupOrder,
    MaxRequestId,
    MessageType,
    MOQT_VERSION_DRAFT_12,
    ServerSetup,
    Subscribe,
    SubscribeDone,
    SubscribeError,
    SubscribeOk,
    SUPPORTED_VERSIONS,
    Unsubscribe,
)
from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.track import FullTrackName
from repro.quic.connection import QuicConnection
from repro.quic.stream import QuicStream, StreamDirection

#: ALPN identifier for MoQT.
MOQT_ALPN = "moq-00"


@dataclass
class MoqtSessionConfig:
    """Per-session knobs."""

    max_request_id: int = 1 << 20
    alpn_version_negotiation: bool = False
    use_datagrams: bool = False


@dataclass
class SubscribeResult:
    """Publisher delegate's answer to a SUBSCRIBE.

    ``retry_after_ms`` only matters on the rejection path: a non-zero value
    rides the SUBSCRIBE_ERROR as an admission-control hint telling the
    subscriber how long to back off before retrying.
    """

    ok: bool
    largest: Location | None = None
    expires_ms: int = 0
    error_code: SubscribeErrorCode = SubscribeErrorCode.INTERNAL_ERROR
    reason: str = ""
    retry_after_ms: int = 0


@dataclass
class FetchResult:
    """Publisher delegate's answer to a FETCH."""

    ok: bool
    objects: list[MoqtObject] = field(default_factory=list)
    largest: Location | None = None
    error_code: FetchErrorCode = FetchErrorCode.INTERNAL_ERROR
    reason: str = ""


class PublisherDelegate(Protocol):
    """The application-side publisher logic attached to a session.

    Both handlers may answer immediately by returning a result, or defer by
    returning ``None`` and later calling
    :meth:`MoqtSession.complete_subscribe` /
    :meth:`MoqtSession.complete_fetch` with the same request ID.  Deferral is
    how the recursive resolver answers a stub's FETCH only after it has
    itself subscribed and fetched upstream (Fig. 2 of the paper).
    """

    def handle_subscribe(
        self, session: "MoqtSession", message: Subscribe
    ) -> SubscribeResult | None:
        """Decide whether to accept a subscription (or ``None`` to defer)."""

    def handle_fetch(
        self,
        session: "MoqtSession",
        message: Fetch,
        full_track_name: FullTrackName | None,
    ) -> FetchResult | None:
        """Produce the objects for a fetch (``full_track_name`` resolved for
        joining fetches), or ``None`` to defer."""

    # Delegates may additionally implement
    # ``handle_unsubscribe(session, request_id)``; when present it is invoked
    # after an UNSUBSCRIBE tears down the publisher-side subscription, so
    # aggregating publishers (relays) can release per-subscriber state and
    # propagate the teardown upstream (§5.1 state clean-up).


@dataclass(slots=True)
class Subscription:
    """Subscriber-side state of one subscription."""

    request_id: int
    track_alias: int
    full_track_name: FullTrackName
    on_object: Callable[[MoqtObject], None] | None = None
    on_response: Callable[["Subscription"], None] | None = None
    state: str = "pending"
    largest: Location | None = None
    error_code: int = 0
    error_reason: str = ""
    retry_after_ms: int = 0
    expires_ms: int = 0
    content_exists: bool = False
    created_at: float = 0.0
    responded_at: float | None = None
    last_object_at: float | None = None
    objects_received: int = 0

    @property
    def is_active(self) -> bool:
        """Whether the publisher accepted the subscription."""
        return self.state == "active"


@dataclass(slots=True)
class FetchRequest:
    """Subscriber-side state of one fetch."""

    request_id: int
    full_track_name: FullTrackName | None
    on_object: Callable[[MoqtObject], None] | None = None
    on_complete: Callable[["FetchRequest"], None] | None = None
    state: str = "pending"
    objects: list[MoqtObject] = field(default_factory=list)
    largest: Location | None = None
    error_code: int = 0
    error_reason: str = ""
    created_at: float = 0.0
    responded_at: float | None = None
    completed_at: float | None = None
    stream_finished: bool = False
    ok_received: bool = False

    @property
    def succeeded(self) -> bool:
        """Whether the fetch completed successfully."""
        return self.state == "complete"


@dataclass(slots=True)
class PublisherSubscription:
    """Publisher-side state of a downstream subscription."""

    request_id: int
    track_alias: int
    full_track_name: FullTrackName
    subscriber_priority: int = 128
    forward: bool = True
    accepted_at: float = 0.0
    objects_sent: int = 0


@dataclass(slots=True)
class SessionStatistics:
    """Counters kept by a session."""

    control_messages_sent: int = 0
    control_messages_received: int = 0
    objects_sent: int = 0
    objects_received: int = 0
    object_bytes_sent: int = 0
    object_bytes_received: int = 0
    subscribes_sent: int = 0
    subscribes_received: int = 0
    fetches_sent: int = 0
    fetches_received: int = 0
    #: Malformed or out-of-place control messages; each closed the session.
    protocol_violations: int = 0


class MoqtSession:
    """One endpoint of a MoQT session over a QUIC connection.

    Slotted: the macro-scale runs hold one session per subscriber per side,
    so per-instance dict overhead is paid 2×10⁵ times at 100k subscribers.
    """

    __slots__ = (
        "connection",
        "is_client",
        "config",
        "publisher_delegate",
        "on_ready",
        "on_closed",
        "on_liveness",
        "statistics",
        "_simulator",
        "ready",
        "ready_at",
        "created_at",
        "selected_version",
        "goaway_uri",
        "closed",
        "_control_parser",
        "_control_stream",
        "_control_stream_id",
        "_next_request_id",
        "_next_track_alias",
        "_subscriptions",
        "_subscriptions_by_alias",
        "_fetches",
        "_pending_until_ready",
        "_publisher_subscriptions",
        "_pending_incoming_subscribes",
        "_pending_incoming_fetches",
        "_stream_parsers",
    )

    def __init__(
        self,
        connection: QuicConnection,
        *,
        is_client: bool,
        config: MoqtSessionConfig | None = None,
        publisher_delegate: PublisherDelegate | None = None,
        on_ready: Callable[["MoqtSession"], None] | None = None,
        on_closed: Callable[["MoqtSession", str], None] | None = None,
        on_liveness: Callable[["MoqtSession", str, str], None] | None = None,
    ) -> None:
        self.connection = connection
        self.is_client = is_client
        self.config = config if config is not None else MoqtSessionConfig()
        self.publisher_delegate = publisher_delegate
        self.on_ready = on_ready
        self.on_closed = on_closed
        #: Observer of the transport's in-band liveness transitions
        #: (``on_liveness(session, old_state, new_state)``); see
        #: :attr:`repro.quic.connection.QuicConnection.on_liveness`.  May be
        #: (re)assigned after construction — transitions are only ever
        #: delivered from inside the event loop.
        self.on_liveness = on_liveness
        self.statistics = SessionStatistics()
        self._simulator = connection._simulator  # noqa: SLF001 - same package family

        self.ready = False
        self.ready_at: float | None = None
        self.created_at = self._simulator.now
        self.selected_version: int | None = None
        self.goaway_uri: str | None = None
        self.closed = False

        self._control_parser = ControlStreamParser()
        self._control_stream: QuicStream | None = None
        #: Mirror of ``_control_stream.stream_id`` so the per-frame dispatch
        #: in :meth:`_on_stream_data` is one int compare, not two attribute
        #: chains.
        self._control_stream_id: int | None = None
        self._next_request_id = 0 if is_client else 1
        self._next_track_alias = 1

        # Subscriber-side state.
        self._subscriptions: dict[int, Subscription] = {}
        self._subscriptions_by_alias: dict[int, Subscription] = {}
        self._fetches: dict[int, FetchRequest] = {}
        self._pending_until_ready: list[Callable[[], None]] = []

        # Publisher-side state.
        self._publisher_subscriptions: dict[int, PublisherSubscription] = {}
        self._pending_incoming_subscribes: dict[int, Subscribe] = {}
        self._pending_incoming_fetches: dict[int, Fetch] = {}

        # Incoming data-stream reassembly.
        self._stream_parsers: dict[int, DataStreamParser] = {}

        connection.on_stream_data = self._on_stream_data
        connection.on_datagram = self._on_datagram
        connection.on_closed = self._on_connection_closed
        connection.on_liveness = self._on_connection_liveness

        if is_client:
            self._start_client()
        # The server side waits for the client's control stream.

    # ----------------------------------------------------------------- setup
    def _start_client(self) -> None:
        self._control_stream = self.connection.open_stream(StreamDirection.BIDIRECTIONAL)
        self._control_stream_id = self._control_stream.stream_id
        setup = ClientSetup(supported_versions=SUPPORTED_VERSIONS)
        self._send_control(setup)
        if self.config.alpn_version_negotiation:
            # Future MoQT: the version is negotiated in ALPN, so the client
            # may send requests without waiting for SERVER_SETUP.
            self._mark_ready(MOQT_VERSION_DRAFT_12)

    def _mark_ready(self, version: int) -> None:
        if self.ready:
            return
        self.ready = True
        self.ready_at = self._simulator.now
        self.selected_version = version
        if self.on_ready is not None:
            self.on_ready(self)
        pending, self._pending_until_ready = self._pending_until_ready, []
        for action in pending:
            action()

    # --------------------------------------------------------------- plumbing
    def _require_open(self) -> None:
        if self.closed:
            raise SessionTerminated("session is closed")

    def _allocate_request_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id += 2
        return request_id

    def _send_control(self, message: ControlMessage) -> None:
        self._require_open()
        if self._control_stream is None:
            # Server side: the control stream is the peer's stream 0.
            self._control_stream = self.connection.get_or_create_stream(0)
            self._control_stream_id = 0
        self.statistics.control_messages_sent += 1
        self.connection.send_stream_data(self._control_stream, message.encode())

    def _when_ready(self, action: Callable[[], None]) -> None:
        if self.ready:
            action()
        else:
            self._pending_until_ready.append(action)

    # ------------------------------------------------------------- subscriber
    def subscribe(
        self,
        full_track_name: FullTrackName,
        on_object: Callable[[MoqtObject], None] | None = None,
        on_response: Callable[[Subscription], None] | None = None,
        filter_type: FilterType = FilterType.LATEST_OBJECT,
        subscriber_priority: int = 128,
    ) -> Subscription:
        """Subscribe to future objects of a track.

        The SUBSCRIBE message is sent once the session is ready; callbacks
        fire when the publisher answers and whenever an object arrives.
        """
        self._require_open()
        request_id = self._allocate_request_id()
        track_alias = self._next_track_alias
        self._next_track_alias += 1
        subscription = Subscription(
            request_id=request_id,
            track_alias=track_alias,
            full_track_name=full_track_name,
            on_object=on_object,
            on_response=on_response,
            created_at=self._simulator.now,
        )
        self._subscriptions[request_id] = subscription
        self._subscriptions_by_alias[track_alias] = subscription
        message = Subscribe(
            request_id=request_id,
            track_alias=track_alias,
            full_track_name=full_track_name,
            subscriber_priority=subscriber_priority,
            filter_type=filter_type,
        )
        self.statistics.subscribes_sent += 1
        self._when_ready(lambda: self._send_control(message))
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Tear down a subscription (§4.4 clean-up).

        The subscription is dropped from the session's routing maps
        immediately: late in-flight objects for the dead track alias are
        discarded, and long-lived sessions that churn through
        subscribe/unsubscribe cycles (a relay's upstream session) do not
        accumulate dead entries — the §5.1 state argument depends on this.
        """
        self._require_open()
        if subscription.request_id not in self._subscriptions:
            return
        subscription.state = "done"
        self._subscriptions.pop(subscription.request_id, None)
        self._subscriptions_by_alias.pop(subscription.track_alias, None)
        self._when_ready(lambda: self._send_control(Unsubscribe(subscription.request_id)))

    def fetch(
        self,
        full_track_name: FullTrackName,
        start: Location,
        end: Location,
        on_object: Callable[[MoqtObject], None] | None = None,
        on_complete: Callable[[FetchRequest], None] | None = None,
    ) -> FetchRequest:
        """Standalone fetch of an absolute object range."""
        self._require_open()
        request_id = self._allocate_request_id()
        fetch_request = FetchRequest(
            request_id=request_id,
            full_track_name=full_track_name,
            on_object=on_object,
            on_complete=on_complete,
            created_at=self._simulator.now,
        )
        self._fetches[request_id] = fetch_request
        message = Fetch(
            request_id=request_id,
            fetch_type=FetchType.STANDALONE,
            full_track_name=full_track_name,
            start_group=start.group_id,
            start_object=start.object_id,
            end_group=end.group_id,
            end_object=end.object_id,
        )
        self.statistics.fetches_sent += 1
        self._when_ready(lambda: self._send_control(message))
        return fetch_request

    def joining_fetch(
        self,
        subscription: Subscription,
        joining_start: int = 1,
        on_object: Callable[[MoqtObject], None] | None = None,
        on_complete: Callable[[FetchRequest], None] | None = None,
    ) -> FetchRequest:
        """Relative joining fetch: objects starting ``joining_start`` groups
        before the subscription's start (§4.1 uses an offset of one to get the
        current record version)."""
        self._require_open()
        request_id = self._allocate_request_id()
        fetch_request = FetchRequest(
            request_id=request_id,
            full_track_name=subscription.full_track_name,
            on_object=on_object,
            on_complete=on_complete,
            created_at=self._simulator.now,
        )
        self._fetches[request_id] = fetch_request
        message = Fetch(
            request_id=request_id,
            fetch_type=FetchType.RELATIVE_JOINING,
            joining_request_id=subscription.request_id,
            joining_start=joining_start,
        )
        self.statistics.fetches_sent += 1
        self._when_ready(lambda: self._send_control(message))
        return fetch_request

    def subscriptions(self) -> list[Subscription]:
        """All subscriber-side subscriptions."""
        return list(self._subscriptions.values())

    # -------------------------------------------------------------- publisher
    def publisher_subscriptions(self) -> list[PublisherSubscription]:
        """All downstream subscriptions accepted by this session."""
        return list(self._publisher_subscriptions.values())

    def publish(
        self,
        subscription: PublisherSubscription,
        obj: MoqtObject,
        cached_encoding: bytes | None = None,
    ) -> None:
        """Push one object to a downstream subscription.

        The paper's prototype sends every object on its own unidirectional
        stream (one group per stream, streams not datagrams); with
        ``use_datagrams`` enabled the object is sent unreliably instead, which
        the ablation benchmark compares.

        ``cached_encoding`` is the object-body encoding from
        :func:`~repro.moqt.datastream.encode_subgroup_object` (stream mode) or
        :func:`~repro.moqt.datastream.encode_object_datagram_body` (datagram
        mode).  Fan-out publishers (relays) encode each object once and pass
        the bytes to every downstream publish; only the per-subscriber stream
        header is serialised per call, and the wire bytes are identical to an
        uncached publish.
        """
        self._require_open()
        if not subscription.forward:
            return
        self.statistics.objects_sent += 1
        self.statistics.object_bytes_sent += obj.size
        subscription.objects_sent += 1
        if self.config.use_datagrams:
            payload = encode_object_datagram(subscription.track_alias, obj, cached_encoding)
            self.connection.send_datagram_frame(payload)
            return
        stream = self.connection.open_stream(StreamDirection.UNIDIRECTIONAL)
        self.connection.send_stream_data(
            stream,
            encode_subgroup_stream_chunk(subscription.track_alias, obj, cached_encoding),
            fin=True,
        )

    def publish_preencoded(
        self, subscription: PublisherSubscription, obj: MoqtObject, chunk: bytes
    ) -> None:
        """Push one object whose subgroup-stream chunk is already encoded.

        The fan-out fast path under :meth:`publish`: ``chunk`` is the complete
        stream payload from
        :func:`~repro.moqt.datastream.encode_subgroup_stream_chunk` for this
        subscription's track alias, so relays fanning one object to thousands
        of same-alias subscribers serialise it once and every per-subscriber
        send is a QUIC-header patch into a pooled buffer
        (:meth:`~repro.quic.connection.QuicConnection.send_encoded_stream`).
        Wire bytes and statistics are identical to :meth:`publish`; sessions
        in datagram mode must keep using :meth:`publish`.
        """
        self._require_open()
        if not subscription.forward:
            return
        self.statistics.objects_sent += 1
        self.statistics.object_bytes_sent += obj.size
        subscription.objects_sent += 1
        self.connection.send_encoded_stream(chunk)

    def _send_fetch_objects(self, request_id: int, objects: list[MoqtObject]) -> None:
        stream = self.connection.open_stream(StreamDirection.UNIDIRECTIONAL)
        payload = FetchStreamHeader(request_id=request_id).encode()
        for obj in objects:
            payload += encode_fetch_object(obj)
            self.statistics.objects_sent += 1
            self.statistics.object_bytes_sent += obj.size
        self.connection.send_stream_data(stream, payload, fin=True)

    # ------------------------------------------------------------- goaway/close
    def goaway(self, new_session_uri: str = "") -> None:
        """Ask the peer to migrate to a different session."""
        self._send_control(Goaway(new_session_uri))

    def close(self, reason: str = "") -> None:
        """Close the session and the underlying connection."""
        if self.closed:
            return
        self.closed = True
        if not self.connection.closed:
            self.connection.close(reason=reason)
        self._fail_pending_fetches(reason)
        if self.on_closed is not None:
            self.on_closed(self, reason)

    def _on_connection_closed(self, code: int, reason: str) -> None:
        if self.closed:
            return
        self.closed = True
        self._fail_pending_fetches(reason)
        if self.on_closed is not None:
            self.on_closed(self, reason)

    @property
    def liveness(self) -> str:
        """The transport's in-band liveness state (healthy/suspect/dead)."""
        return self.connection.liveness

    def _on_connection_liveness(self, connection: QuicConnection, old: str, new: str) -> None:
        """Surface transport-detected liveness transitions to the delegate.

        Fires *before* any close teardown: a ``dead`` observer (a relay
        failing over its uplink, E13) reacts while subscriptions and pending
        requests are still intact, so it can transplant them instead of
        watching them error.
        """
        if self.on_liveness is not None:
            self.on_liveness(self, old, new)

    def _fail_pending_fetches(self, reason: str) -> None:
        """Error every fetch still in flight when the session dies.

        A fetch whose transport is gone can never complete, so callers
        waiting on ``on_complete`` — a relay that forwarded a downstream
        FETCH over this (upstream) session, the forwarder's lookup path —
        would otherwise hang forever.  Failing them here turns a dead
        session into an ordinary fetch error the existing error paths
        already handle.
        """
        pending = [
            fetch for fetch in self._fetches.values() if fetch.state in ("pending", "ok")
        ]
        self._fetches.clear()
        message = f"session closed: {reason}" if reason else "session closed"
        for fetch_request in pending:
            fetch_request.state = "error"
            fetch_request.responded_at = self._simulator.now
            fetch_request.error_code = int(FetchErrorCode.INTERNAL_ERROR)
            fetch_request.error_reason = message
            if fetch_request.on_complete is not None:
                fetch_request.on_complete(fetch_request)

    # --------------------------------------------------------------- dispatch
    def _on_stream_data(self, stream_id: int, data: bytes, fin: bool) -> None:
        if stream_id == 0 or stream_id == self._control_stream_id:
            try:
                for message in self._control_parser.feed(data):
                    self._handle_control_message(message)
            except ProtocolViolation as error:
                # A peer's malformed or out-of-place control message ends
                # this session only; every other session on the host keeps
                # running.
                self.statistics.protocol_violations += 1
                self.close(f"protocol violation: {error}")
            return
        parser = self._stream_parsers.get(stream_id)
        if parser is None:
            if fin:
                # The stream arrived whole in its first chunk — the fan-out
                # data path.  Decode through the process-wide memo (sibling
                # subscribers receive byte-identical payloads) and skip the
                # per-stream parser state entirely.
                header, objects = decode_complete_datastream(data)
                if header is None:
                    return
                if isinstance(header, SubgroupStreamHeader):
                    track_alias = header.track_alias
                    for obj in objects:
                        self._deliver_subscribed_object(track_alias, obj)
                else:
                    self._deliver_fetch_objects(header.request_id, list(objects), True)
                return
            parser = DataStreamParser()
            self._stream_parsers[stream_id] = parser
        objects = parser.feed(data, fin)
        header = parser.header
        if header is None:
            return
        if isinstance(header, SubgroupStreamHeader):
            for obj in objects:
                self._deliver_subscribed_object(header.track_alias, obj)
        else:
            self._deliver_fetch_objects(header.request_id, objects, parser.finished)
        if fin:
            self._stream_parsers.pop(stream_id, None)

    def _on_datagram(self, data: bytes) -> None:
        try:
            track_alias, obj = decode_object_datagram(data)
        except MoqtError:
            return
        self._deliver_subscribed_object(track_alias, obj)

    def _deliver_subscribed_object(self, track_alias: int, obj: MoqtObject) -> None:
        subscription = self._subscriptions_by_alias.get(track_alias)
        if subscription is None:
            return
        self.statistics.objects_received += 1
        self.statistics.object_bytes_received += obj.size
        subscription.objects_received += 1
        subscription.last_object_at = self._simulator.now
        if subscription.largest is None or obj.location > subscription.largest:
            subscription.largest = obj.location
        if subscription.on_object is not None:
            subscription.on_object(obj)

    def _deliver_fetch_objects(
        self, request_id: int, objects: list[MoqtObject], finished: bool
    ) -> None:
        fetch_request = self._fetches.get(request_id)
        if fetch_request is None:
            return
        for obj in objects:
            self.statistics.objects_received += 1
            self.statistics.object_bytes_received += obj.size
            fetch_request.objects.append(obj)
            if fetch_request.largest is None or obj.location > fetch_request.largest:
                fetch_request.largest = obj.location
            if fetch_request.on_object is not None:
                fetch_request.on_object(obj)
        if finished:
            fetch_request.stream_finished = True
            self._maybe_complete_fetch(fetch_request)

    def _maybe_complete_fetch(self, fetch_request: FetchRequest) -> None:
        if fetch_request.state == "complete":
            return
        if fetch_request.stream_finished and fetch_request.ok_received:
            fetch_request.state = "complete"
            fetch_request.completed_at = self._simulator.now
            if fetch_request.on_complete is not None:
                fetch_request.on_complete(fetch_request)

    # ------------------------------------------------------- control handling
    def _handle_control_message(self, message: ControlMessage) -> None:
        self.statistics.control_messages_received += 1
        if isinstance(message, ClientSetup):
            self._handle_client_setup(message)
        elif isinstance(message, ServerSetup):
            self._handle_server_setup(message)
        elif isinstance(message, Subscribe):
            self._handle_subscribe(message)
        elif isinstance(message, SubscribeOk):
            self._handle_subscribe_ok(message)
        elif isinstance(message, SubscribeError):
            self._handle_subscribe_error(message)
        elif isinstance(message, Unsubscribe):
            self._handle_unsubscribe(message)
        elif isinstance(message, SubscribeDone):
            self._handle_subscribe_done(message)
        elif isinstance(message, Fetch):
            self._handle_fetch(message)
        elif isinstance(message, FetchOk):
            self._handle_fetch_ok(message)
        elif isinstance(message, FetchError):
            self._handle_fetch_error(message)
        elif isinstance(message, FetchCancel):
            pass  # nothing to cancel once objects have been sent
        elif isinstance(message, Announce):
            self._send_control(AnnounceOk(request_id=message.request_id))
        elif isinstance(message, (AnnounceOk, MaxRequestId)):
            pass
        elif isinstance(message, Goaway):
            self.goaway_uri = message.new_session_uri
        else:  # pragma: no cover - defensive
            raise ProtocolViolation(f"unhandled control message {message!r}")

    def _handle_client_setup(self, message: ClientSetup) -> None:
        if self.is_client:
            raise ProtocolViolation("client received CLIENT_SETUP")
        if MOQT_VERSION_DRAFT_12 not in message.supported_versions:
            self.close("no common MoQT version")
            return
        self._send_control(ServerSetup(selected_version=MOQT_VERSION_DRAFT_12))
        self._mark_ready(MOQT_VERSION_DRAFT_12)

    def _handle_server_setup(self, message: ServerSetup) -> None:
        if not self.is_client:
            raise ProtocolViolation("server received SERVER_SETUP")
        self._mark_ready(message.selected_version)

    # Publisher side of SUBSCRIBE / FETCH --------------------------------------
    def _handle_subscribe(self, message: Subscribe) -> None:
        self.statistics.subscribes_received += 1
        if self.publisher_delegate is None:
            self._send_control(
                SubscribeError(
                    request_id=message.request_id,
                    error_code=int(SubscribeErrorCode.NOT_SUPPORTED),
                    reason="no publisher attached",
                    track_alias=message.track_alias,
                )
            )
            return
        self._pending_incoming_subscribes[message.request_id] = message
        result = self.publisher_delegate.handle_subscribe(self, message)
        if result is not None:
            self.complete_subscribe(message.request_id, result)

    def complete_subscribe(self, request_id: int, result: SubscribeResult) -> PublisherSubscription | None:
        """Answer a (possibly deferred) incoming SUBSCRIBE.

        Returns the publisher-side subscription when the subscribe was
        accepted, so the caller can start publishing to it.
        """
        message = self._pending_incoming_subscribes.pop(request_id, None)
        if message is None or self.closed:
            return None
        if not result.ok:
            self._send_control(
                SubscribeError(
                    request_id=message.request_id,
                    error_code=int(result.error_code),
                    reason=result.reason,
                    track_alias=message.track_alias,
                    retry_after_ms=result.retry_after_ms,
                )
            )
            return None
        publisher_subscription = PublisherSubscription(
            request_id=message.request_id,
            track_alias=message.track_alias,
            full_track_name=message.full_track_name,
            subscriber_priority=message.subscriber_priority,
            forward=message.forward,
            accepted_at=self._simulator.now,
        )
        self._publisher_subscriptions[message.request_id] = publisher_subscription
        self._send_control(
            SubscribeOk(
                request_id=message.request_id,
                expires_ms=result.expires_ms,
                content_exists=result.largest is not None,
                largest_group_id=result.largest.group_id if result.largest else 0,
                largest_object_id=result.largest.object_id if result.largest else 0,
            )
        )
        return publisher_subscription

    def publisher_subscription(self, request_id: int) -> PublisherSubscription | None:
        """Look up an accepted downstream subscription by request ID."""
        return self._publisher_subscriptions.get(request_id)

    def _handle_fetch(self, message: Fetch) -> None:
        self.statistics.fetches_received += 1
        if self.publisher_delegate is None:
            self._send_control(
                FetchError(
                    request_id=message.request_id,
                    error_code=int(FetchErrorCode.NOT_SUPPORTED),
                    reason="no publisher attached",
                )
            )
            return
        full_track_name = message.full_track_name
        if message.fetch_type != FetchType.STANDALONE:
            joined = self._publisher_subscriptions.get(message.joining_request_id)
            if joined is None:
                joined_pending = self._pending_incoming_subscribes.get(message.joining_request_id)
                if joined_pending is None:
                    self._send_control(
                        FetchError(
                            request_id=message.request_id,
                            error_code=int(FetchErrorCode.INVALID_RANGE),
                            reason="joining fetch references unknown subscription",
                        )
                    )
                    return
                full_track_name = joined_pending.full_track_name
            else:
                full_track_name = joined.full_track_name
        self._pending_incoming_fetches[message.request_id] = message
        result = self.publisher_delegate.handle_fetch(self, message, full_track_name)
        if result is not None:
            self.complete_fetch(message.request_id, result)

    def complete_fetch(self, request_id: int, result: FetchResult) -> None:
        """Answer a (possibly deferred) incoming FETCH."""
        message = self._pending_incoming_fetches.pop(request_id, None)
        if message is None or self.closed:
            return
        if not result.ok:
            self._send_control(
                FetchError(
                    request_id=message.request_id,
                    error_code=int(result.error_code),
                    reason=result.reason,
                )
            )
            return
        largest = result.largest
        if largest is None and result.objects:
            largest = max(obj.location for obj in result.objects)
        self._send_control(
            FetchOk(
                request_id=message.request_id,
                end_of_track=False,
                largest_group_id=largest.group_id if largest else 0,
                largest_object_id=largest.object_id if largest else 0,
            )
        )
        self._send_fetch_objects(message.request_id, result.objects)

    def _handle_unsubscribe(self, message: Unsubscribe) -> None:
        # The subscribe being unsubscribed may still be deferred (the
        # delegate has not answered yet).  Dropping the pending entry keeps a
        # late complete_subscribe from resurrecting the departed subscriber.
        pending = self._pending_incoming_subscribes.pop(message.request_id, None)
        subscription = self._publisher_subscriptions.pop(message.request_id, None)
        if subscription is not None:
            self._send_control(
                SubscribeDone(
                    request_id=message.request_id,
                    status_code=0,
                    stream_count=subscription.objects_sent,
                    reason="unsubscribed",
                )
            )
        if pending is not None or subscription is not None:
            handler = getattr(self.publisher_delegate, "handle_unsubscribe", None)
            if handler is not None:
                handler(self, message.request_id)

    # Subscriber side of responses ---------------------------------------------
    def _handle_subscribe_ok(self, message: SubscribeOk) -> None:
        subscription = self._subscriptions.get(message.request_id)
        if subscription is None:
            return
        subscription.state = "active"
        subscription.responded_at = self._simulator.now
        subscription.expires_ms = message.expires_ms
        subscription.content_exists = message.content_exists
        if message.content_exists:
            subscription.largest = Location(message.largest_group_id, message.largest_object_id)
        if subscription.on_response is not None:
            subscription.on_response(subscription)

    def _handle_subscribe_error(self, message: SubscribeError) -> None:
        subscription = self._subscriptions.get(message.request_id)
        if subscription is None:
            return
        subscription.state = "error"
        subscription.responded_at = self._simulator.now
        subscription.error_code = message.error_code
        subscription.error_reason = message.reason
        subscription.retry_after_ms = message.retry_after_ms
        # A rejected subscription is as dead as an unsubscribed one: drop it
        # from the routing maps so retry churn cannot accumulate state.
        self._subscriptions.pop(message.request_id, None)
        self._subscriptions_by_alias.pop(subscription.track_alias, None)
        if subscription.on_response is not None:
            subscription.on_response(subscription)

    def _handle_subscribe_done(self, message: SubscribeDone) -> None:
        subscription = self._subscriptions.get(message.request_id)
        if subscription is None:
            return
        subscription.state = "done"

    def _handle_fetch_ok(self, message: FetchOk) -> None:
        fetch_request = self._fetches.get(message.request_id)
        if fetch_request is None:
            return
        fetch_request.ok_received = True
        fetch_request.responded_at = self._simulator.now
        if fetch_request.state == "pending":
            fetch_request.state = "ok"
        if message.largest_group_id or message.largest_object_id:
            fetch_request.largest = Location(message.largest_group_id, message.largest_object_id)
        self._maybe_complete_fetch(fetch_request)

    def _handle_fetch_error(self, message: FetchError) -> None:
        fetch_request = self._fetches.get(message.request_id)
        if fetch_request is None:
            return
        fetch_request.state = "error"
        fetch_request.responded_at = self._simulator.now
        fetch_request.error_code = message.error_code
        fetch_request.error_reason = message.reason
        if fetch_request.on_complete is not None:
            fetch_request.on_complete(fetch_request)
