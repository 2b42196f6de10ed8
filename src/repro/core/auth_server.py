"""The DNS-over-MoQT authoritative nameserver.

The server exposes one or more zones over MoQT (§4.1/§4.2 of the paper):

* A resolver subscribes to the track derived from its DNS question (Fig. 3)
  and issues a joining fetch with offset 1; the server answers the fetch with
  the current answer for that question, encapsulated per Fig. 4 with the
  group ID set to the zone's version number.
* Whenever the zone changes, the version number (the SOA serial) increases
  and the server re-answers the subscribed tracks the change can affect:
  those whose last lookup read the changed owner name.  Tracks whose answer
  actually changed get a new object pushed to all their subscribers with the
  new version as the group ID.

The paper names endpoint state management as the main cost of pub/sub DNS.
To keep a zone change O(tracks it affects) rather than O(subscribed tracks),
the server keeps a read index: owner name -> tracks whose last lookup read
it (:attr:`repro.dns.zone.LookupResult.reads`).  A lookup is a pure function
of the zone content at the names it read, so a track missing from the index
entry of the changed name keeps its answer.

The same host can also run a classic :class:`repro.dns.server.AuthoritativeServer`
next to this one to support the incremental-deployment story of §4.5; the
topology helpers in :mod:`repro.experiments` do exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.core.encapsulation import encapsulate_response
from repro.core.mapping import DnsQuestionKey, track_to_question
from repro.core.errors import MappingError
from repro.dns.message import Flags, Header, Message, Question
from repro.dns.name import Name
from repro.dns.types import MOQT_PORT, RecordType
from repro.dns.zone import LookupResult, Zone, ZoneChange
from repro.moqt.errors import FetchErrorCode, SubscribeErrorCode
from repro.moqt.messages import Fetch, Subscribe
from repro.moqt.objectmodel import Location
from repro.moqt.session import (
    MOQT_ALPN,
    FetchResult,
    MoqtSession,
    MoqtSessionConfig,
    PublisherSubscription,
    SubscribeResult,
)
from repro.moqt.track import FullTrackName
from repro.netsim.node import Host
from repro.netsim.packet import Address
from repro.quic.connection import QuicConnection
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext


@dataclass(eq=False)
class _TrackSubscribers:
    """Server-side bookkeeping for one subscribed DNS track.

    ``order`` is the track's position in first-subscribe order; ``reads`` are
    the owner names its last lookup read, as entered in the read index.
    """

    key: DnsQuestionKey
    zone: Zone
    order: int
    subscribers: list[tuple[MoqtSession, int]] = field(default_factory=list)
    last_answer_fingerprint: tuple[str, ...] | None = None
    reads: tuple[Name, ...] = ()


_BY_ORDER = attrgetter("order")


@dataclass
class AuthServerStatistics:
    """Counters kept by the MoQT authoritative server."""

    sessions_accepted: int = 0
    subscribes_accepted: int = 0
    subscribes_rejected: int = 0
    fetches_served: int = 0
    fetches_rejected: int = 0
    updates_published: int = 0
    update_bytes_published: int = 0
    zone_changes_seen: int = 0
    tracks_reanswered: int = 0


class MoqAuthoritativeServer:
    """Serves DNS zones over MoQT with push updates.

    Parameters
    ----------
    host:
        The simulated host to run on.
    zones:
        Zones to serve; each zone's SOA serial is used as the MoQT group ID
        for updates to records in that zone.
    port:
        QUIC/MoQT port (4443 by default).
    """

    def __init__(
        self,
        host: Host,
        zones: list[Zone] | None = None,
        port: int = MOQT_PORT,
        session_config: MoqtSessionConfig | None = None,
    ) -> None:
        self.host = host
        self.simulator = host.simulator
        self.session_config = session_config if session_config is not None else MoqtSessionConfig()
        self.statistics = AuthServerStatistics()
        self._zones: dict[Name, Zone] = {}
        self._tracks: dict[DnsQuestionKey, _TrackSubscribers] = {}
        # Read index: owner name -> tracks whose last lookup read it.
        self._readers: dict[Name, set[_TrackSubscribers]] = {}
        self._sessions: list[MoqtSession] = []
        self.endpoint = QuicEndpoint(
            host,
            port=port,
            server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
            on_connection=self._on_connection,
        )
        for zone in zones or []:
            self.add_zone(zone)

    @property
    def address(self) -> Address:
        """The MoQT address resolvers connect to."""
        return self.endpoint.address

    # -------------------------------------------------------------------- zones
    def add_zone(self, zone: Zone) -> None:
        """Serve a zone and react to its future changes.

        A track keeps the zone that answered its first subscribe, so add
        every zone before the server takes subscriptions.
        """
        self._zones[zone.origin] = zone
        zone.subscribe_changes(self._on_zone_change)

    def zone_for(self, qname: Name) -> Zone | None:
        """The most specific zone containing ``qname``."""
        best: Zone | None = None
        for origin, zone in self._zones.items():
            if qname.is_subdomain_of(origin) and (best is None or len(origin) > len(best.origin)):
                best = zone
        return best

    def zones(self) -> list[Zone]:
        """All zones served."""
        return list(self._zones.values())

    # ----------------------------------------------------------------- sessions
    def _on_connection(self, connection: QuicConnection) -> None:
        session = MoqtSession(
            connection,
            is_client=False,
            config=self.session_config,
            publisher_delegate=_AuthDelegate(self),
        )
        self._sessions.append(session)
        self.statistics.sessions_accepted += 1

    def sessions(self) -> list[MoqtSession]:
        """All MoQT sessions accepted so far."""
        return list(self._sessions)

    def subscriber_count(self) -> int:
        """Total number of live downstream subscriptions across all tracks."""
        return sum(len(track.subscribers) for track in self._tracks.values())

    # ------------------------------------------------------------ DNS answering
    def answer_question(self, key: DnsQuestionKey) -> tuple[Message, Zone] | None:
        """Build the authoritative response for a question key.

        Returns ``None`` when no served zone covers the name.  For a
        subscribed track this refreshes the track's read-index entries.
        """
        state = self._tracks.get(key)
        if state is not None:
            return self._answer_track(state), state.zone
        zone = self.zone_for(key.qname)
        if zone is None:
            return None
        return self._result_to_message(key, zone.lookup(key.qname, key.qtype)), zone

    def _answer_track(self, state: _TrackSubscribers) -> Message:
        """Answer a track's question and re-index the names its lookup read."""
        key = state.key
        result = state.zone.lookup(key.qname, key.qtype)
        if result.reads != state.reads:
            self._reindex(state, result.reads)
        return self._result_to_message(key, result)

    def _reindex(self, state: _TrackSubscribers, reads: tuple[Name, ...]) -> None:
        readers = self._readers
        for name in state.reads:
            tracks = readers.get(name)  # already gone if the name repeats
            if tracks is not None:
                tracks.discard(state)
                if not tracks:
                    del readers[name]
        for name in reads:
            tracks = readers.get(name)
            if tracks is None:
                readers[name] = {state}
            else:
                tracks.add(state)
        state.reads = reads

    def _result_to_message(self, key: DnsQuestionKey, result: LookupResult) -> Message:
        flags = Flags(qr=True, aa=not result.is_referral, rd=key.recursion_desired,
                      cd=key.checking_disabled)
        header = Header(message_id=0, flags=flags, opcode=key.opcode, rcode=result.rcode)
        return Message(
            header=header,
            questions=[key.to_question()],
            answers=list(result.answers),
            authorities=list(result.authorities),
            additionals=list(result.additionals),
        )

    @staticmethod
    def _fingerprint(message: Message) -> tuple[str, ...]:
        """A content fingerprint of a response, ignoring the version/serial.

        SOA records are excluded because bumping the serial alone must not
        count as a record change (the paper pushes updates only for changed
        answers).
        """
        lines = [
            record.to_text()
            for record in message.records()
            if record.rdtype != RecordType.SOA
        ]
        lines.append(f"rcode={int(message.rcode)}")
        return tuple(sorted(lines))

    # ------------------------------------------------------------- subscriptions
    @staticmethod
    def _live(session: MoqtSession, request_id: int) -> PublisherSubscription | None:
        """The downstream subscription, or ``None`` once it is closed or gone."""
        if session.closed:
            return None
        return session.publisher_subscription(request_id)

    def handle_subscribe(self, session: MoqtSession, message: Subscribe) -> SubscribeResult:
        """Accept subscriptions for questions inside the served zones."""
        try:
            key = track_to_question(message.full_track_name)
        except MappingError as error:
            self.statistics.subscribes_rejected += 1
            return SubscribeResult(
                ok=False, error_code=SubscribeErrorCode.TRACK_DOES_NOT_EXIST, reason=str(error)
            )
        state = self._tracks.get(key)
        if state is None:
            zone = self.zone_for(key.qname)
            if zone is None:
                self.statistics.subscribes_rejected += 1
                return SubscribeResult(
                    ok=False,
                    error_code=SubscribeErrorCode.TRACK_DOES_NOT_EXIST,
                    reason=f"not authoritative for {key.qname}",
                )
            state = _TrackSubscribers(key=key, zone=zone, order=len(self._tracks))
            self._tracks[key] = state
        response = self._answer_track(state)
        # Zone changes skip a track without subscribers, so a drained track's
        # fingerprint may be stale: restart it from the answer just computed.
        if not any(self._live(session, request_id) for session, request_id in state.subscribers):
            state.last_answer_fingerprint = self._fingerprint(response)
        state.subscribers.append((session, message.request_id))
        self.statistics.subscribes_accepted += 1
        return SubscribeResult(ok=True, largest=Location(state.zone.serial, 0))

    def handle_fetch(
        self, session: MoqtSession, message: Fetch, full_track_name: FullTrackName | None
    ) -> FetchResult:
        """Answer a (joining) fetch with the current version of the record."""
        if full_track_name is None:
            self.statistics.fetches_rejected += 1
            return FetchResult(
                ok=False,
                error_code=FetchErrorCode.TRACK_DOES_NOT_EXIST,
                reason="fetch without a track name",
            )
        try:
            key = track_to_question(full_track_name)
        except MappingError as error:
            self.statistics.fetches_rejected += 1
            return FetchResult(
                ok=False, error_code=FetchErrorCode.TRACK_DOES_NOT_EXIST, reason=str(error)
            )
        answer = self.answer_question(key)
        if answer is None:
            self.statistics.fetches_rejected += 1
            return FetchResult(
                ok=False,
                error_code=FetchErrorCode.TRACK_DOES_NOT_EXIST,
                reason=f"not authoritative for {key.qname}",
            )
        response, zone = answer
        obj = encapsulate_response(response, zone.serial)
        self.statistics.fetches_served += 1
        return FetchResult(ok=True, objects=[obj], largest=obj.location)

    # ------------------------------------------------------------ push updates
    def _on_zone_change(self, change: ZoneChange) -> None:
        """React to a zone mutation: push new objects for the tracks it changed.

        Only the tracks whose last lookup read ``change.name`` are re-answered;
        every other track's answer cannot have changed.  They are re-answered
        in first-subscribe order, never in set order, so pushes leave in the
        same order as a rescan of every subscribed track would send them.
        """
        self.statistics.zone_changes_seen += 1
        readers = self._readers.get(change.name)
        if not readers:
            return
        # sorted() copies: re-answering a track re-indexes it.
        for state in sorted(readers, key=_BY_ORDER):
            if not state.subscribers:
                continue
            self.statistics.tracks_reanswered += 1
            response = self._answer_track(state)
            fingerprint = self._fingerprint(response)
            if fingerprint == state.last_answer_fingerprint:
                continue
            state.last_answer_fingerprint = fingerprint
            self._publish_update(state, response, state.zone.serial)

    def _publish_update(
        self, state: _TrackSubscribers, response: Message, version: int
    ) -> None:
        obj = encapsulate_response(response, version)
        live: list[tuple[MoqtSession, int]] = []
        for session, request_id in state.subscribers:
            publisher_subscription = self._live(session, request_id)
            if publisher_subscription is None:
                continue
            session.publish(publisher_subscription, obj)
            self.statistics.updates_published += 1
            self.statistics.update_bytes_published += obj.size
            live.append((session, request_id))
        state.subscribers = live

    def force_publish(self, key: DnsQuestionKey) -> int:
        """Re-publish the current answer for a track regardless of changes.

        Returns the number of subscribers the object was pushed to.  Used by
        tests and by the periodic-refresh compatibility mode.
        """
        state = self._tracks.get(key)
        if state is None or not state.subscribers:
            return 0
        response = self._answer_track(state)
        state.last_answer_fingerprint = self._fingerprint(response)
        count = len(state.subscribers)
        self._publish_update(state, response, state.zone.serial)
        return count


class _AuthDelegate:
    """Adapter exposing the server's publisher logic to each MoQT session."""

    def __init__(self, server: MoqAuthoritativeServer) -> None:
        self._server = server

    def handle_subscribe(self, session: MoqtSession, message: Subscribe) -> SubscribeResult:
        return self._server.handle_subscribe(session, message)

    def handle_fetch(
        self, session: MoqtSession, message: Fetch, full_track_name: FullTrackName | None
    ) -> FetchResult:
        return self._server.handle_fetch(session, message, full_track_name)
