"""The recursive DNS-over-MoQT resolver (Fig. 2 and §4/§5 of the paper).

The resolver keeps the recursive nature of DNS resolution but replaces
request/response with MoQT subscribe + joining-fetch at every level of the
hierarchy:

1. Ask a root server for the nameservers of the top-level domain by
   subscribing to the ``NS`` track of the TLD and fetching the current
   version.
2. Follow the referral: ask the TLD server for the nameservers of the
   second-level zone the same way.
3. Ask the authoritative server the original question (subscribe + fetch).

All upstream sessions are obtained from an
:class:`~repro.core.session_manager.UpstreamSessionManager`, so connections
and MoQT sessions are reused across lookups and 0-RTT is used when a session
ticket exists (§5.2).  Pushed objects arriving on any upstream subscription
update the resolver's record store and are forwarded to downstream
subscribers of the same question (the resolver acts as a relay for DNS
tracks).

Downstream, the resolver serves:

* MoQT sessions from stub resolvers/forwarders (subscribe + fetch), and
* classic DNS over UDP, for unmodified stubs.

For authoritative servers that do not support MoQT, the resolver runs the
§4.5 compatibility path: a happy-eyeballs race between the MoQT attempt and
a classic UDP query, after which it either declines downstream subscriptions
or keeps them alive by re-fetching the record every TTL
(:class:`~repro.core.compatibility.RefreshScheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.compatibility import (
    CapabilityMemo,
    CompatibilityMode,
    HappyEyeballsConfig,
    RefreshScheduler,
    UpstreamCapability,
)
from repro.core.encapsulation import decapsulate_response, encapsulate_response
from repro.core.mapping import DnsQuestionKey, question_to_track, track_to_question
from repro.core.errors import MappingError
from repro.core.session_manager import SessionManagerConfig, UpstreamSessionManager
from repro.core.subscription import SubscriptionRegistry, TeardownPolicy
from repro.dns.message import Message, make_response
from repro.dns.name import Name
from repro.dns.transport import DnsUdpEndpoint
from repro.dns.types import DNS_UDP_PORT, MOQT_PORT, Rcode, RecordType
from repro.moqt.errors import FetchErrorCode, SubscribeErrorCode
from repro.moqt.messages import Fetch, Subscribe
from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.session import (
    MOQT_ALPN,
    FetchResult,
    MoqtSession,
    MoqtSessionConfig,
    SubscribeResult,
)
from repro.moqt.track import FullTrackName
from repro.netsim.node import Host
from repro.netsim.packet import Address
from repro.netsim.simulator import Timer
from repro.quic.connection import QuicConnection
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

MAX_RESOLUTION_STEPS = 12


@dataclass
class ResolverConfig:
    """Behavioural knobs of the recursive MoQT resolver."""

    serve_moqt: bool = True
    serve_udp: bool = True
    moqt_port: int = MOQT_PORT
    udp_port: int = DNS_UDP_PORT
    happy_eyeballs: HappyEyeballsConfig = field(default_factory=HappyEyeballsConfig)
    compatibility_mode: CompatibilityMode = CompatibilityMode.PERIODIC_REFRESH
    default_negative_ttl: float = 60.0
    session_manager: SessionManagerConfig = field(default_factory=SessionManagerConfig)
    moqt_session: MoqtSessionConfig = field(default_factory=MoqtSessionConfig)
    #: QUIC parameters applied to *downstream* (stub-facing) connections.
    #: Long-delay deployments (deep space) raise the idle timeout and the
    #: initial RTT here so accepted connections survive the path delay.
    downstream_connection: "ConnectionConfig | None" = None


@dataclass
class RecordEntry:
    """The resolver's knowledge about one DNS question."""

    key: DnsQuestionKey
    message: Message
    version: int
    updated_at: float
    ttl: float
    subscribed: bool = False
    via_moqt: bool = True
    pushed_updates: int = 0

    def is_fresh(self, now: float) -> bool:
        """Subscribed entries are always fresh; others respect the TTL."""
        if self.subscribed:
            return True
        return now < self.updated_at + self.ttl

    def age(self, now: float) -> float:
        """Seconds since the entry was last updated."""
        return now - self.updated_at


@dataclass
class MoqResolveOutcome:
    """Result of a recursive MoQT resolution handed to callbacks."""

    key: DnsQuestionKey
    message: Message | None
    version: int = 0
    rcode: Rcode = Rcode.SERVFAIL
    from_cache: bool = False
    via_moqt: bool = True
    upstream_operations: int = 0
    duration: float = 0.0

    @property
    def is_success(self) -> bool:
        """Whether an answer (possibly negative) was obtained."""
        return self.message is not None and self.rcode in (Rcode.NOERROR, Rcode.NXDOMAIN)


@dataclass
class RecursiveStatistics:
    """Counters kept by the recursive resolver."""

    client_queries_udp: int = 0
    client_subscribes: int = 0
    client_fetches: int = 0
    lookups: int = 0
    cache_hits: int = 0
    upstream_subscribe_fetch: int = 0
    upstream_udp_queries: int = 0
    udp_fallbacks: int = 0
    pushes_received: int = 0
    pushes_forwarded: int = 0
    subscriptions_declined: int = 0
    refresh_republishes: int = 0
    failures: int = 0


class MoqRecursiveResolver:
    """A recursive resolver speaking MoQT upstream and MoQT/UDP downstream."""

    def __init__(
        self,
        host: Host,
        root_servers: list[Address],
        config: ResolverConfig | None = None,
        teardown_policy: TeardownPolicy | None = None,
    ) -> None:
        if not root_servers:
            raise ValueError("at least one root server address is required")
        self.host = host
        self.simulator = host.simulator
        self.config = config if config is not None else ResolverConfig()
        self.root_servers = list(root_servers)
        self.statistics = RecursiveStatistics()
        self.capabilities = CapabilityMemo()
        self.registry = SubscriptionRegistry(teardown_policy)
        self.refresher = RefreshScheduler(host.simulator)
        self.sessions = UpstreamSessionManager(
            host,
            config=self.config.session_manager,
            session_config=self.config.moqt_session,
        )
        self._records: dict[DnsQuestionKey, RecordEntry] = {}
        self._fallback_versions: dict[DnsQuestionKey, int] = {}
        self._downstream: dict[DnsQuestionKey, list[tuple[MoqtSession, int]]] = {}
        self._upstream_tracks: dict[DnsQuestionKey, bool] = {}
        self._in_flight: dict[DnsQuestionKey, list[Callable[[MoqResolveOutcome], None]]] = {}

        self._udp_client = DnsUdpEndpoint(host)
        self._udp_server: DnsUdpEndpoint | None = None
        if self.config.serve_udp:
            self._udp_server = DnsUdpEndpoint(
                host, port=self.config.udp_port, handler=self._handle_udp_query
            )
        self._moqt_endpoint: QuicEndpoint | None = None
        self._downstream_sessions: list[MoqtSession] = []
        if self.config.serve_moqt:
            self._moqt_endpoint = QuicEndpoint(
                host,
                port=self.config.moqt_port,
                server_config=self.config.downstream_connection,
                server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
                on_connection=self._on_downstream_connection,
            )

    # ------------------------------------------------------------- public API
    @property
    def udp_address(self) -> Address | None:
        """Address for classic DNS clients (None when UDP serving is off)."""
        return self._udp_server.address if self._udp_server is not None else None

    @property
    def moqt_address(self) -> Address | None:
        """Address for MoQT clients (None when MoQT serving is off)."""
        return self._moqt_endpoint.address if self._moqt_endpoint is not None else None

    def record(self, key: DnsQuestionKey) -> RecordEntry | None:
        """The resolver's current entry for a question, if any."""
        return self._records.get(key)

    def records(self) -> dict[DnsQuestionKey, RecordEntry]:
        """All known records."""
        return dict(self._records)

    def state_summary(self) -> dict[str, int]:
        """State-overhead accounting (§5.1): sessions, subscriptions, records."""
        summary = self.sessions.state_summary()
        summary["tracked_questions"] = self.registry.state_size()
        summary["records"] = len(self._records)
        summary["downstream_subscribers"] = sum(len(v) for v in self._downstream.values())
        return summary

    def run_teardown(self) -> int:
        """Apply the teardown policy to tracked subscriptions (§4.4).

        Returns the number of subscriptions dropped.  Unsubscribing from
        upstream tracks is modelled by forgetting the local state; the next
        lookup for a dropped question re-subscribes and resumes from the last
        known group ID kept by the registry.
        """
        victims = self.registry.collect_victims(self.simulator.now)
        for victim in victims:
            entry = self._records.get(victim.key)
            if entry is not None:
                entry.subscribed = False
            self._upstream_tracks.pop(victim.key, None)
        return len(victims)

    def resolve(
        self,
        key: DnsQuestionKey,
        callback: Callable[[MoqResolveOutcome], None],
    ) -> None:
        """Resolve a question, preferring fresh local state over the network."""
        self.statistics.lookups += 1
        self.registry.record_lookup(key, self.simulator.now)
        entry = self._records.get(key)
        if entry is not None and entry.is_fresh(self.simulator.now):
            self.statistics.cache_hits += 1
            callback(
                MoqResolveOutcome(
                    key=key,
                    message=entry.message,
                    version=entry.version,
                    rcode=entry.message.rcode,
                    from_cache=True,
                    via_moqt=entry.via_moqt,
                )
            )
            return
        waiters = self._in_flight.get(key)
        if waiters is not None:
            waiters.append(callback)
            return
        self._in_flight[key] = [callback]
        task = _ResolutionTask(self, key)
        task.start()

    # ----------------------------------------------------- resolution plumbing
    def _finish_resolution(self, key: DnsQuestionKey, outcome: MoqResolveOutcome) -> None:
        if not outcome.is_success:
            self.statistics.failures += 1
        callbacks = self._in_flight.pop(key, [])
        for callback in callbacks:
            callback(outcome)

    def _store_answer(
        self,
        key: DnsQuestionKey,
        message: Message,
        version: int,
        subscribed: bool,
        via_moqt: bool,
    ) -> RecordEntry:
        ttl = self._answer_ttl(message)
        entry = RecordEntry(
            key=key,
            message=message,
            version=version,
            updated_at=self.simulator.now,
            ttl=ttl,
            subscribed=subscribed,
            via_moqt=via_moqt,
        )
        self._records[key] = entry
        return entry

    def _answer_ttl(self, message: Message) -> float:
        answer_ttls = [record.ttl for record in message.answers]
        if answer_ttls:
            return float(min(answer_ttls))
        soa_minimums = [
            min(record.ttl, record.rdata.minimum)  # type: ignore[attr-defined]
            for record in message.authorities
            if record.rdtype == RecordType.SOA
        ]
        if soa_minimums:
            return float(min(soa_minimums))
        return self.config.default_negative_ttl

    # ------------------------------------------------ upstream subscribe+fetch
    def moqt_subscribe_fetch(
        self,
        server: Address,
        key: DnsQuestionKey,
        callback: Callable[[Message | None, int], None],
    ) -> None:
        """One Fig. 2 step: subscribe to a question track and fetch the record.

        The callback receives the decoded DNS response and the version
        (group ID), or ``(None, 0)`` if the server declined or timed out.
        """
        self.statistics.upstream_subscribe_fetch += 1
        session = self.sessions.get_session(server)
        track = question_to_track(key)
        finished = {"done": False}
        timeout = Timer(self.simulator, lambda: complete(None, 0))

        def complete(message: Message | None, version: int) -> None:
            if finished["done"]:
                return
            finished["done"] = True
            timeout.stop()
            if message is not None:
                self.capabilities.note_moqt_success(server.host)
            callback(message, version)

        def on_push(obj: MoqtObject) -> None:
            self._on_upstream_push(key, obj)

        def on_sub_response(subscription) -> None:
            if subscription.state == "error":
                complete(None, 0)

        subscription = session.subscribe(track, on_object=on_push, on_response=on_sub_response)

        def on_fetch_complete(fetch_request) -> None:
            if not fetch_request.succeeded or not fetch_request.objects:
                complete(None, 0)
                return
            obj = fetch_request.objects[-1]
            try:
                message = decapsulate_response(obj)
            except MappingError:
                complete(None, 0)
                return
            self._upstream_tracks[key] = True
            self.registry.record_update(key, self.simulator.now, obj.group_id)
            complete(message, obj.group_id)

        session.joining_fetch(subscription, 1, on_complete=on_fetch_complete)
        timeout.start(self.config.happy_eyeballs.moqt_timeout)

    def udp_query(
        self,
        server: Address,
        key: DnsQuestionKey,
        callback: Callable[[Message | None], None],
    ) -> None:
        """Classic DNS-over-UDP query used by the §4.5 fallback."""
        from repro.dns.message import make_query

        self.statistics.upstream_udp_queries += 1
        query = make_query(key.qname, key.qtype, recursion_desired=False)
        udp_server = Address(server.host, DNS_UDP_PORT)
        self._udp_client.query(query, udp_server, callback)

    def lookup_step(
        self,
        server: Address,
        key: DnsQuestionKey,
        callback: Callable[[Message | None, int, bool], None],
    ) -> None:
        """Query one upstream server, racing MoQT against UDP when needed.

        The callback receives ``(message, version, via_moqt)``.
        """
        capability = self.capabilities.get(server.host)
        if capability is UpstreamCapability.UDP_ONLY:
            self.statistics.udp_fallbacks += 1
            self.udp_query(server, key, lambda message: callback(message, 0, False))
            return
        if capability is UpstreamCapability.MOQT or not self.config.happy_eyeballs.enabled:
            def moqt_done(message: Message | None, version: int) -> None:
                if message is None and capability is UpstreamCapability.UNKNOWN:
                    # MoQT failed on an unknown server: fall back to UDP.
                    self.capabilities.note_udp_only(server.host)
                    self.statistics.udp_fallbacks += 1
                    self.udp_query(server, key, lambda m: callback(m, 0, False))
                    return
                callback(message, version, message is not None)

            self.moqt_subscribe_fetch(server, key, moqt_done)
            return

        # Happy eyeballs: race MoQT against UDP (§4.5).
        finished = {"done": False}

        def finish(message: Message | None, version: int, via_moqt: bool) -> None:
            if finished["done"]:
                return
            if message is None and not finished.get("other_failed"):
                # First failure: wait for the other attempt.
                finished["other_failed"] = True
                return
            finished["done"] = True
            callback(message, version, via_moqt)

        def moqt_done(message: Message | None, version: int) -> None:
            if message is None and self.capabilities.get(server.host) is UpstreamCapability.UNKNOWN:
                self.capabilities.note_udp_only(server.host)
            if message is not None and finished["done"]:
                # The UDP answer already won the race, but the MoQT attempt
                # succeeded: the upstream subscription is established, so
                # upgrade the stored record to the subscribed/push-fed state.
                self._store_answer(key, message, version, subscribed=True, via_moqt=True)
                return
            finish(message, version, True)

        def udp_done(message: Message | None) -> None:
            finish(message, 0, False)

        self.moqt_subscribe_fetch(server, key, moqt_done)
        if self.config.happy_eyeballs.udp_head_start > 0:
            self.simulator.call_later(
                self.config.happy_eyeballs.udp_head_start,
                lambda: None if finished["done"] else self.udp_query(server, key, udp_done),
            )
        else:
            self.udp_query(server, key, udp_done)

    # --------------------------------------------------------- pushed updates
    def _on_upstream_push(self, key: DnsQuestionKey, obj: MoqtObject) -> None:
        """An authoritative server pushed a new version of a record."""
        self.statistics.pushes_received += 1
        try:
            message = decapsulate_response(obj)
        except MappingError:
            return
        entry = self._records.get(key)
        if entry is not None and obj.group_id <= entry.version and entry.via_moqt:
            return
        entry = self._store_answer(key, message, obj.group_id, subscribed=True, via_moqt=True)
        entry.pushed_updates += 1
        self.registry.record_update(key, self.simulator.now, obj.group_id)
        self._forward_downstream(key, obj)

    def _forward_downstream(self, key: DnsQuestionKey, obj: MoqtObject) -> None:
        subscribers = self._downstream.get(key, [])
        live: list[tuple[MoqtSession, int]] = []
        for session, request_id in subscribers:
            if session.closed:
                continue
            publisher_subscription = session.publisher_subscription(request_id)
            if publisher_subscription is None:
                continue
            session.publish(publisher_subscription, obj)
            self.statistics.pushes_forwarded += 1
            live.append((session, request_id))
        if key in self._downstream:
            self._downstream[key] = live

    # --------------------------------------------------- downstream: classic UDP
    def _handle_udp_query(self, query: Message, source: Address, respond) -> None:
        self.statistics.client_queries_udp += 1
        if not query.questions:
            respond(make_response(query, rcode=Rcode.FORMERR))
            return
        key = DnsQuestionKey.from_message(query)

        def finished(outcome: MoqResolveOutcome) -> None:
            if outcome.message is None:
                respond(make_response(query, rcode=Rcode.SERVFAIL, recursion_available=True))
                return
            respond(
                make_response(
                    query,
                    answers=outcome.message.answers,
                    authorities=outcome.message.authorities,
                    additionals=outcome.message.additionals,
                    rcode=outcome.rcode,
                    recursion_available=True,
                )
            )

        self.resolve(key, finished)

    # ------------------------------------------------------ downstream: MoQT
    def _on_downstream_connection(self, connection: QuicConnection) -> None:
        session = MoqtSession(
            connection,
            is_client=False,
            config=self.config.moqt_session,
            publisher_delegate=_ResolverDelegate(self),
        )
        self._downstream_sessions.append(session)

    def downstream_sessions(self) -> list[MoqtSession]:
        """MoQT sessions accepted from stubs/forwarders."""
        return list(self._downstream_sessions)

    def _handle_downstream_subscribe(
        self, session: MoqtSession, message: Subscribe
    ) -> SubscribeResult | None:
        self.statistics.client_subscribes += 1
        try:
            key = track_to_question(message.full_track_name)
        except MappingError as error:
            return SubscribeResult(
                ok=False, error_code=SubscribeErrorCode.TRACK_DOES_NOT_EXIST, reason=str(error)
            )

        def finished(outcome: MoqResolveOutcome) -> None:
            if outcome.message is None:
                self.statistics.subscriptions_declined += 1
                session.complete_subscribe(
                    message.request_id,
                    SubscribeResult(
                        ok=False,
                        error_code=SubscribeErrorCode.TRACK_DOES_NOT_EXIST,
                        reason="resolution failed",
                    ),
                )
                return
            if not outcome.via_moqt:
                self._handle_fallback_subscription(session, message, key, outcome)
                return
            self._downstream.setdefault(key, []).append((session, message.request_id))
            session.complete_subscribe(
                message.request_id,
                SubscribeResult(ok=True, largest=Location(outcome.version, 0)),
            )

        self.resolve(key, finished)
        return None

    def _handle_fallback_subscription(
        self,
        session: MoqtSession,
        message: Subscribe,
        key: DnsQuestionKey,
        outcome: MoqResolveOutcome,
    ) -> None:
        """§4.5: the authoritative server does not support MoQT."""
        if self.config.compatibility_mode is CompatibilityMode.DECLINE_SUBSCRIPTION:
            self.statistics.subscriptions_declined += 1
            session.complete_subscribe(
                message.request_id,
                SubscribeResult(
                    ok=False,
                    error_code=SubscribeErrorCode.NOT_SUPPORTED,
                    reason="authoritative server does not support MoQT",
                ),
            )
            return
        # Periodic-refresh mode: accept and keep the record fresh by polling.
        self._downstream.setdefault(key, []).append((session, message.request_id))
        session.complete_subscribe(
            message.request_id,
            SubscribeResult(ok=True, largest=Location(outcome.version, 0)),
        )
        entry = self._records.get(key)
        interval = entry.ttl if entry is not None and entry.ttl > 0 else self.config.default_negative_ttl
        if not self.refresher.is_scheduled(key):
            self.refresher.schedule(key, interval, self._refresh_fallback_record)

    def _refresh_fallback_record(self, key: DnsQuestionKey) -> None:
        """Re-query a non-MoQT upstream and push downstream if the record changed."""
        entry = self._records.get(key)
        if entry is None or not self._downstream.get(key):
            self.refresher.cancel(key)
            return
        auth_server = self._auth_server_for(key)
        if auth_server is None:
            return

        def on_response(message: Message | None) -> None:
            if message is None:
                return
            old_fingerprint = _answer_fingerprint(entry.message)
            new_fingerprint = _answer_fingerprint(message)
            version = self._fallback_versions.get(key, entry.version)
            if new_fingerprint != old_fingerprint:
                version += 1
                self._fallback_versions[key] = version
                new_entry = self._store_answer(
                    key, message, version, subscribed=True, via_moqt=False
                )
                new_entry.pushed_updates = entry.pushed_updates + 1
                obj = encapsulate_response(message, version)
                self.statistics.refresh_republishes += 1
                self._forward_downstream(key, obj)
            else:
                entry.updated_at = self.simulator.now

        self.udp_query(auth_server, key, on_response)

    def _auth_server_for(self, key: DnsQuestionKey) -> Address | None:
        """Best-known authoritative server address for a question's zone.

        Derived from cached NS/A referral data collected during resolution.
        """
        ancestors = key.qname.ancestors()
        for ancestor in ancestors:
            ns_key = DnsQuestionKey(
                qname=ancestor,
                qtype=RecordType.NS,
                qclass=key.qclass,
                opcode=key.opcode,
                recursion_desired=False,
                checking_disabled=key.checking_disabled,
            )
            entry = self._records.get(ns_key)
            if entry is None:
                continue
            address = _extract_server_address(entry.message)
            if address is not None:
                return address
        return None

    def _handle_downstream_fetch(
        self, session: MoqtSession, message: Fetch, full_track_name: FullTrackName | None
    ) -> FetchResult | None:
        self.statistics.client_fetches += 1
        if full_track_name is None:
            return FetchResult(
                ok=False,
                error_code=FetchErrorCode.TRACK_DOES_NOT_EXIST,
                reason="fetch without a resolvable track name",
            )
        try:
            key = track_to_question(full_track_name)
        except MappingError as error:
            return FetchResult(
                ok=False, error_code=FetchErrorCode.TRACK_DOES_NOT_EXIST, reason=str(error)
            )

        def finished(outcome: MoqResolveOutcome) -> None:
            if outcome.message is None:
                session.complete_fetch(
                    message.request_id,
                    FetchResult(
                        ok=False,
                        error_code=FetchErrorCode.TRACK_DOES_NOT_EXIST,
                        reason="resolution failed",
                    ),
                )
                return
            obj = encapsulate_response(outcome.message, outcome.version)
            session.complete_fetch(
                message.request_id,
                FetchResult(ok=True, objects=[obj], largest=obj.location),
            )

        self.resolve(key, finished)
        return None


def _answer_fingerprint(message: Message) -> tuple[str, ...]:
    """Content fingerprint of the answer section (order-insensitive)."""
    return tuple(sorted(record.to_text() for record in message.answers))


def _extract_server_address(message: Message) -> Address | None:
    """Pull a nameserver address out of a referral/NS response."""
    ns_targets = [
        record.rdata.target  # type: ignore[attr-defined]
        for record in [*message.answers, *message.authorities]
        if record.rdtype == RecordType.NS
    ]
    if not ns_targets:
        return None
    for record in message.additionals:
        if record.rdtype in (RecordType.A, RecordType.AAAA) and record.name in ns_targets:
            return Address(record.rdata.to_text(), MOQT_PORT)
    return None


class _ResolutionTask:
    """One recursive resolution following the Fig. 2 sequence."""

    def __init__(self, resolver: MoqRecursiveResolver, key: DnsQuestionKey) -> None:
        self._resolver = resolver
        self._key = key
        self._started_at = resolver.simulator.now
        self._operations = 0
        self._steps = 0
        self._servers: list[Address] = list(resolver.root_servers)
        # Parent chain to walk: for www.example.com -> [com., example.com.]
        ancestors = [name for name in key.qname.ancestors() if not name.is_root]
        ancestors.reverse()
        self._delegation_chain: list[Name] = ancestors[:-1] if len(ancestors) > 1 else []
        self._chain_index = 0
        self._via_moqt = True

    # ------------------------------------------------------------------ driver
    def start(self) -> None:
        """Resolve cached delegations first, then walk the remaining chain."""
        self._skip_cached_delegations()
        self._next_step()

    def _skip_cached_delegations(self) -> None:
        """Use cached NS entries to start as deep in the hierarchy as possible."""
        while self._chain_index < len(self._delegation_chain):
            zone_name = self._delegation_chain[self._chain_index]
            ns_key = self._ns_key(zone_name)
            entry = self._resolver.record(ns_key)
            if entry is None or not entry.is_fresh(self._resolver.simulator.now):
                return
            address = _extract_server_address(entry.message)
            if address is None:
                return
            self._servers = [address]
            self._chain_index += 1

    def _ns_key(self, zone_name: Name) -> DnsQuestionKey:
        return DnsQuestionKey(
            qname=zone_name,
            qtype=RecordType.NS,
            qclass=self._key.qclass,
            opcode=self._key.opcode,
            recursion_desired=False,
            checking_disabled=self._key.checking_disabled,
        )

    def _next_step(self) -> None:
        self._steps += 1
        if self._steps > MAX_RESOLUTION_STEPS:
            self._fail()
            return
        if not self._servers:
            self._fail()
            return
        server = self._servers[0]
        if self._chain_index < len(self._delegation_chain):
            zone_name = self._delegation_chain[self._chain_index]
            step_key = self._ns_key(zone_name)
            self._operations += 1
            self._resolver.lookup_step(
                server, step_key, lambda m, v, moqt: self._on_delegation(step_key, m, v, moqt)
            )
        else:
            self._operations += 1
            self._resolver.lookup_step(server, self._key, self._on_final)

    # ----------------------------------------------------------------- handlers
    def _on_delegation(
        self, step_key: DnsQuestionKey, message: Message | None, version: int, via_moqt: bool
    ) -> None:
        if message is None:
            self._servers.pop(0)
            self._next_step()
            return
        if not via_moqt:
            self._via_moqt = False
        self._resolver._store_answer(  # noqa: SLF001 - task is an extension of the resolver
            step_key, message, version, subscribed=via_moqt, via_moqt=via_moqt
        )
        address = _extract_server_address(message)
        if address is None:
            # No delegation found: the current server is authoritative for
            # deeper names as well; go straight to the final question there.
            self._chain_index = len(self._delegation_chain)
            self._next_step()
            return
        self._servers = [address]
        self._chain_index += 1
        self._next_step()

    def _on_final(self, message: Message | None, version: int, via_moqt: bool) -> None:
        if message is None:
            self._servers.pop(0)
            self._next_step()
            return
        if not via_moqt:
            self._via_moqt = False
        # A referral at the final step means there is a deeper zone cut than
        # the delegation chain anticipated: follow it.
        if not message.answers and any(
            record.rdtype == RecordType.NS for record in message.authorities
        ) and message.rcode == Rcode.NOERROR and not _is_authoritative_nodata(message):
            address = _extract_server_address(message)
            if address is not None:
                # Remember the delegation under the child zone's NS question
                # so later lookups (and the periodic-refresh fallback) know
                # which server is authoritative for it.
                ns_owner = next(
                    record.name
                    for record in message.authorities
                    if record.rdtype == RecordType.NS
                )
                self._resolver._store_answer(  # noqa: SLF001
                    self._ns_key(ns_owner), message, version, subscribed=via_moqt, via_moqt=via_moqt
                )
                self._servers = [address]
                self._next_step()
                return
        entry = self._resolver._store_answer(  # noqa: SLF001
            self._key, message, version, subscribed=via_moqt, via_moqt=via_moqt
        )
        outcome = MoqResolveOutcome(
            key=self._key,
            message=message,
            version=version,
            rcode=message.rcode,
            via_moqt=entry.via_moqt,
            upstream_operations=self._operations,
            duration=self._resolver.simulator.now - self._started_at,
        )
        self._resolver._finish_resolution(self._key, outcome)  # noqa: SLF001

    def _fail(self) -> None:
        outcome = MoqResolveOutcome(
            key=self._key,
            message=None,
            rcode=Rcode.SERVFAIL,
            via_moqt=self._via_moqt,
            upstream_operations=self._operations,
            duration=self._resolver.simulator.now - self._started_at,
        )
        self._resolver._finish_resolution(self._key, outcome)  # noqa: SLF001


def _is_authoritative_nodata(message: Message) -> bool:
    """Whether a NOERROR response is an authoritative empty answer (has SOA)."""
    return any(record.rdtype == RecordType.SOA for record in message.authorities)


class _ResolverDelegate:
    """Publisher delegate adapter for downstream MoQT sessions."""

    def __init__(self, resolver: MoqRecursiveResolver) -> None:
        self._resolver = resolver

    def handle_subscribe(self, session: MoqtSession, message: Subscribe) -> SubscribeResult | None:
        return self._resolver._handle_downstream_subscribe(session, message)

    def handle_fetch(
        self, session: MoqtSession, message: Fetch, full_track_name: FullTrackName | None
    ) -> FetchResult | None:
        return self._resolver._handle_downstream_fetch(session, message, full_track_name)
