"""MoQT relays: fan-out, subscription aggregation and object caching.

Relays are MoQT endpoints that neither produce nor consume objects; they
forward objects from publishers to subscribers without looking at payloads
(§3 of the paper).  Because objects carrying DNS responses are opaque to
them, a generic relay can distribute DNS record updates from an
authoritative server to many resolvers, which is what the CDN and deep-space
use cases in §5.3 rely on.

The relay implemented here:

* accepts downstream MoQT sessions on a QUIC server endpoint;
* aggregates subscriptions — the first downstream SUBSCRIBE for a track
  creates a single upstream subscription, later ones share it;
* caches objects per track so FETCH requests can be answered locally once at
  least one object has been seen, and forwards FETCHes upstream otherwise;
* forwards every received object to all downstream subscribers of the track;
* tears the upstream subscription down again once the last downstream
  subscriber has unsubscribed or disconnected, so no per-track state leaks
  (§5.1);
* chains: because a relay's upstream may itself be a relay, trees of relays
  compose — each tier aggregates its subtree into a single upstream
  subscription, which is the fan-out structure §3 and the §5.3 CDN /
  deep-space use cases rely on.  :mod:`repro.relaynet` builds and measures
  such multi-tier hierarchies declaratively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.relaynet.admission import AdmissionController, AdmissionPolicy

from repro.moqt.datastream import (
    encode_object_datagram_body,
    encode_subgroup_object,
    encode_subgroup_stream_chunk,
)
from repro.moqt.errors import FetchErrorCode, SubscribeErrorCode
from repro.moqt.messages import Fetch, FetchType, Subscribe
from repro.moqt.objectmodel import Location, MoqtObject, TrackState
from repro.moqt.session import (
    MOQT_ALPN,
    FetchResult,
    MoqtSession,
    MoqtSessionConfig,
    PublisherSubscription,
    SubscribeResult,
    Subscription,
)
from repro.moqt.track import FullTrackName
from repro.netsim.node import Host
from repro.netsim.packet import Address
from repro.quic.connection import ConnectionConfig, QuicConnection
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

DEFAULT_MOQT_PORT = 4443

#: FETCH range end meaning "everything the cache has" (a group id far beyond
#: any experiment's horizon; ranges are inclusive).
OPEN_RANGE_END = Location(1 << 40, 0)

#: Dedupe sets are pruned once they exceed this size; locations older than
#: the group horizon go first, newest-first truncation caps the rest.
DEDUPE_PRUNE_THRESHOLD = 4096
DEDUPE_GROUP_HORIZON = 64


def prune_seen_locations(seen: set[Location], largest: Location) -> set[Location]:
    """Shrink a delivered-locations dedupe set to a bounded window.

    Drops locations older than :data:`DEDUPE_GROUP_HORIZON` groups behind
    ``largest``; if everything is recent (many objects per group), keeps the
    newest half of :data:`DEDUPE_PRUNE_THRESHOLD` so the set stays bounded
    and pruning does not re-trigger on every insert.
    """
    horizon = largest.group_id - DEDUPE_GROUP_HORIZON
    pruned = {location for location in seen if location.group_id >= horizon}
    if len(pruned) > DEDUPE_PRUNE_THRESHOLD:
        pruned = set(sorted(pruned)[-DEDUPE_PRUNE_THRESHOLD // 2 :])
    return pruned


class RecoveryBuffer:
    """Holds live objects back while a gap FETCH is outstanding.

    One instance per recovering receiver: the relay's upstream-switch
    recovery (per :class:`RelayTrack`) and the subscriber's re-attach
    recovery (:mod:`repro.relaynet.topology`) share this class so the
    buffer-until-gap-delivered semantics cannot diverge between the two
    layers.  ``release`` always disarms, delivers in location order, and is
    safe to call on an idle buffer.
    """

    __slots__ = ("active", "buffered")

    def __init__(self) -> None:
        self.active = False
        self.buffered: list[MoqtObject] = []

    def arm(self) -> None:
        """Start intercepting live objects until :meth:`release`."""
        self.active = True

    def intercept(self, obj: MoqtObject) -> bool:
        """Buffer ``obj`` when armed; False means deliver it normally."""
        if not self.active:
            return False
        self.buffered.append(obj)
        return True

    def release(self, deliver: Callable[[MoqtObject], None]) -> None:
        """Disarm and hand the buffered objects to ``deliver`` in order."""
        self.active = False
        buffered, self.buffered = self.buffered, []
        for obj in sorted(buffered, key=lambda o: o.location):
            deliver(obj)


@dataclass(slots=True)
class _DownstreamSubscriber:
    """One downstream subscription attached to a relayed track."""

    session: MoqtSession
    request_id: int
    #: The session's accepted publisher-side subscription, resolved lazily on
    #: first forward so the fan-out loop skips one dict lookup per subscriber
    #: per object.  Lives exactly as long as this entry: unsubscribes and
    #: session closes remove the whole ``_DownstreamSubscriber`` from the
    #: track, so the cache can never outlive the subscription it mirrors.
    publisher_subscription: "PublisherSubscription | None" = None


@dataclass
class RelayTrack:
    """Relay state for one full track name."""

    full_track_name: FullTrackName
    cache: TrackState
    upstream_subscription: Subscription | None = None
    downstream: list[_DownstreamSubscriber] = field(default_factory=list)
    #: Downstream subscribes deferred until the upstream answers; they all
    #: share the upstream subscription's outcome.
    awaiting_upstream: list[_DownstreamSubscriber] = field(default_factory=list)
    objects_forwarded: int = 0
    #: Locations already forwarded downstream.  After an upstream switch the
    #: new parent re-sends objects the old parent already delivered; this set
    #: is what keeps re-parenting duplicate-free without touching the wire
    #: format (dedupe is receive-side only).
    forwarded: set[Location] = field(default_factory=set)
    #: Largest location ever forwarded downstream — the resume point a
    #: post-switch recovery FETCH starts from.
    largest_forwarded: Location | None = None
    #: While a recovery FETCH against the new parent is outstanding, live
    #: objects are buffered here so the gap is delivered first and the
    #: downstream object order survives the switch.
    recovery: RecoveryBuffer = field(default_factory=RecoveryBuffer)


@dataclass
class RelayStatistics:
    """Counters kept by a relay."""

    downstream_sessions: int = 0
    downstream_subscribes: int = 0
    downstream_unsubscribes: int = 0
    upstream_subscribes: int = 0
    upstream_unsubscribes: int = 0
    objects_received: int = 0
    objects_forwarded: int = 0
    fetches_served_from_cache: int = 0
    fetches_forwarded_upstream: int = 0
    upstream_switches: int = 0
    duplicate_objects_dropped: int = 0
    recovery_fetches: int = 0
    recovered_objects: int = 0
    #: Uplink failures noticed through the transport's liveness machinery
    #: (PTO suspicion or idle/PTO death) rather than an announced close.
    uplink_failures_detected: int = 0
    #: SUBSCRIBEs rejected by the token-bucket rate limit (each one answered
    #: with SUBSCRIBE_ERROR(TOO_MANY_SUBSCRIBERS, retry_after)).
    admission_rejections: int = 0
    #: SUBSCRIBEs rejected because the pending-subscribe queue hit its bound.
    admission_queue_rejections: int = 0
    #: SUBSCRIBEs that bypassed admission control on subscriber priority.
    admission_priority_bypasses: int = 0
    #: Deepest the pending-subscribe queue (downstream subscribes deferred
    #: awaiting the upstream answer) ever got — the quantity an unlimited
    #: policy lets grow linearly with storm size (the E16 baseline
    #: pathology) and a bounded policy caps.
    pending_subscribe_high_water: int = 0


class MoqtRelay:
    """A caching, aggregating MoQT relay.

    Parameters
    ----------
    host:
        The simulated host the relay runs on.
    upstream:
        Address of the upstream MoQT endpoint (origin publisher or another
        relay — relays compose into trees).
    port:
        Port to accept downstream sessions on.
    tier:
        Optional label naming the relay's tier in a hierarchy (e.g. ``"edge"``
        or ``"mid"``); purely informational, used by
        :class:`repro.relaynet.RelayNetStats` to aggregate counters per tier.
    upstream_connection:
        QUIC connection configuration for the uplink.  Deployments that rely
        on in-band failure detection (E13) enable keepalives and tune the
        idle timeout here; the default is the plain MoQT-ALPN configuration
        the static experiments have always used (wire-identical).
    downstream_connection:
        QUIC connection configuration applied to every *accepted* downstream
        connection.  This is where a congestion controller for the loss-
        facing fan-out side is installed (the edge relay is the sender on
        constrained access links); ``None`` keeps the historical default
        configuration, wire-identical to pre-congestion-control builds.
    """

    def __init__(
        self,
        host: Host,
        upstream: Address,
        port: int = DEFAULT_MOQT_PORT,
        session_config: MoqtSessionConfig | None = None,
        tier: str = "",
        upstream_connection: ConnectionConfig | None = None,
        downstream_connection: ConnectionConfig | None = None,
        admission: "AdmissionPolicy | None" = None,
    ) -> None:
        self.host = host
        self.simulator = host.simulator
        self.upstream_address = upstream
        self.tier = tier
        self.session_config = session_config if session_config is not None else MoqtSessionConfig()
        self.upstream_connection_config = upstream_connection
        #: Hook a topology controller installs to learn, in-band, that this
        #: relay's uplink is dying: ``on_uplink_dying(relay, cause)`` with
        #: ``cause`` one of the transport's liveness causes (``"pto-suspect"``,
        #: ``"idle-timeout"``, ``"pto-give-up"``).  Fires once per dying
        #: uplink session, before the session's close teardown, so the
        #: controller can switch the uplink while pending subscribes are
        #: still transplantable.
        self.on_uplink_dying: Callable[["MoqtRelay", str], None] | None = None
        #: Admission controller, present only when a *limited* policy was
        #: given: the default (None) is the historical admit-everything
        #: relay, with zero per-subscribe overhead and unchanged wire bytes.
        #: The import is deferred to keep moqt free of a load-time
        #: dependency on relaynet (which imports this module).
        self.admission: "AdmissionController | None" = None
        if admission is not None and admission.limited:
            from repro.relaynet.admission import AdmissionController

            self.admission = AdmissionController(admission)
        self.statistics = RelayStatistics()
        self._tracks: dict[FullTrackName, RelayTrack] = {}
        self._downstream_sessions: list[MoqtSession] = []
        #: Which track each downstream subscription belongs to, grouped by
        #: session — unsubscribes touch only their own track and session
        #: closes only their own subscriptions, with no scanning either way.
        self._downstream_index: dict[MoqtSession, dict[int, RelayTrack]] = {}
        self._upstream_session: MoqtSession | None = None
        #: Uplink session whose failure has already been reported (resets on
        #: recovery), so one dying uplink raises exactly one report.
        self._uplink_failure_reported: MoqtSession | None = None

        self._server_endpoint = QuicEndpoint(
            host,
            port=port,
            server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
            server_config=downstream_connection,
            on_connection=self._on_downstream_connection,
        )
        self._client_endpoint = QuicEndpoint(host)

    @property
    def address(self) -> Address:
        """The address downstream subscribers connect to."""
        return self._server_endpoint.address

    @property
    def server_tls(self) -> ServerTlsContext:
        """The downstream server endpoint's TLS context (ticket issuance)."""
        return self._server_endpoint.server_tls

    # ----------------------------------------------------------- downstream side
    def _on_downstream_connection(self, connection: QuicConnection) -> None:
        session = MoqtSession(
            connection,
            is_client=False,
            config=self.session_config,
            publisher_delegate=_RelayDelegate(self),
            on_closed=self._on_downstream_closed,
        )
        self._downstream_sessions.append(session)
        self.statistics.downstream_sessions += 1

    def downstream_sessions(self) -> list[MoqtSession]:
        """All downstream sessions accepted so far."""
        return list(self._downstream_sessions)

    def _on_downstream_closed(self, session: MoqtSession, reason: str) -> None:
        """Drop every subscription a departed downstream session held."""
        if session in self._downstream_sessions:
            self._downstream_sessions.remove(session)
        if self.admission is not None:
            # A rejected session that leaves (spillover, give-up) abandons
            # its token reservation instead of leaking a table entry.
            self.admission.forget(session)
        for request_id in list(self._downstream_index.get(session, {})):
            self._remove_downstream(session, request_id)

    # ------------------------------------------------------------- upstream side
    def _ensure_upstream_session(self) -> MoqtSession:
        if self._upstream_session is not None and not self._upstream_session.closed:
            return self._upstream_session
        config = self.upstream_connection_config
        if config is None:
            config = ConnectionConfig(alpn_protocols=(MOQT_ALPN,))
        connection = self._client_endpoint.connect(self.upstream_address, config)
        self._upstream_session = MoqtSession(
            connection,
            is_client=True,
            config=self.session_config,
            on_closed=self._on_upstream_closed,
            on_liveness=self._on_upstream_liveness,
        )
        return self._upstream_session

    @property
    def upstream_session(self) -> MoqtSession | None:
        """The current uplink session, if one has been opened."""
        return self._upstream_session

    @property
    def upstream_quic_connection(self) -> QuicConnection | None:
        """The QUIC connection under the current uplink session, if any."""
        if self._upstream_session is None:
            return None
        return self._upstream_session.connection

    def _on_upstream_liveness(self, session: MoqtSession, old: str, new: str) -> None:
        """React to in-band liveness transitions of the uplink transport.

        Only the *current* uplink matters — transitions of sessions an
        earlier :meth:`switch_upstream` already replaced are stale.  A
        recovery (suspect → healthy) needs no action; suspicion or death is
        reported to the topology controller via :attr:`on_uplink_dying`,
        which typically re-parents this relay while the dying session's
        state (pending subscribes included) is still intact.
        """
        if session is not self._upstream_session:
            return
        if new == "healthy":
            self._uplink_failure_reported = None
            return
        if session is self._uplink_failure_reported:
            # One incident, one report: a suspect session that nobody
            # replaced (e.g. no failover target exists) later going dead is
            # still the same dying uplink.
            return
        self._uplink_failure_reported = session
        self.statistics.uplink_failures_detected += 1
        if self.on_uplink_dying is not None:
            self.on_uplink_dying(self, session.connection.liveness_cause)

    def _on_upstream_closed(self, session: MoqtSession, reason: str) -> None:
        """Fail every subscription riding the dead upstream session.

        Without this, a lost uplink would wedge its tracks permanently:
        ``upstream_subscription`` would stay 'pending' forever, every later
        downstream SUBSCRIBE would be deferred into ``awaiting_upstream`` with
        no answer, and recovery could never start.  Clearing the state errors
        the waiters and lets the next subscriber retry over a fresh session.

        FETCHes forwarded over the dying session need no handling here: the
        session fails its own pending fetch requests when it closes, which
        fires their ``on_complete`` error paths and answers the downstream
        FETCH with a FETCH_ERROR (so waiters unblock instead of hanging).
        """
        if session is not self._upstream_session:
            return
        result = SubscribeResult(
            ok=False,
            error_code=SubscribeErrorCode.INTERNAL_ERROR,
            reason=f"upstream session closed: {reason}" if reason else "upstream session closed",
        )
        for track in self._tracks.values():
            # An armed recovery buffer is deliberately *not* released here:
            # releasing would advance ``largest_forwarded`` past the gap the
            # in-flight FETCH was recovering, so a later switch (or the next
            # downstream subscriber) could never fetch it again.  The buffer
            # is carried until the next upstream attach, which re-arms it
            # with a fresh gap FETCH (:meth:`_resubscribe_track`) or
            # releases it when there is nothing to recover.
            if track.upstream_subscription is None:
                continue
            track.upstream_subscription = None
            waiting, track.awaiting_upstream = track.awaiting_upstream, []
            for waiter in waiting:
                if waiter in track.downstream:
                    track.downstream.remove(waiter)
                    self._drop_index_entry(waiter.session, waiter.request_id)
                if waiter.session.closed:
                    continue
                waiter.session.complete_subscribe(waiter.request_id, result)

    # ------------------------------------------------------------ live failover
    def switch_upstream(
        self,
        new_upstream: Address,
        recover: bool = True,
        on_track_reattached: Callable[[RelayTrack], None] | None = None,
    ) -> None:
        """Re-point the relay's uplink at a new parent on live tracks.

        Established downstream subscribers keep their sessions and
        subscriptions; every track that still has (or awaits) downstream
        interest is re-subscribed through the new parent.  With ``recover``
        the gap between the last object forwarded downstream and the first
        live object from the new parent is filled with a FETCH against the
        new parent's cache (forwarded further upstream on a cold cache), and
        live objects are buffered until the fetch answer has been delivered
        so the downstream object order survives the switch.  Objects the old
        parent already delivered are deduplicated by (group, object) ID.

        ``on_track_reattached`` fires once per re-subscribed track when the
        new parent accepts the subscription — topology controllers use it to
        measure re-attach latency.
        """
        old_session = self._upstream_session
        self._upstream_session = None
        self.upstream_address = new_upstream
        self.statistics.upstream_switches += 1
        if old_session is not None and not old_session.closed:
            # Close the old uplink *before* re-subscribing: failing its
            # pending fetches now (including a stale recovery FETCH from an
            # earlier switch) cannot clobber the recovery state the new
            # subscriptions are about to arm.
            old_session.close("switching upstream")
        for track in self._tracks.values():
            if not (track.downstream or track.awaiting_upstream):
                track.upstream_subscription = None
                self._flush_recovery(track)
                continue
            self._resubscribe_track(track, recover=recover, on_reattached=on_track_reattached)

    def _resubscribe_track(
        self,
        track: RelayTrack,
        recover: bool,
        on_reattached: Callable[[RelayTrack], None] | None = None,
    ) -> None:
        old_subscription = track.upstream_subscription
        upstream = self._ensure_upstream_session()
        self.statistics.upstream_subscribes += 1
        resume_from = self._resume_point(track, old_subscription) if recover else None
        if resume_from is not None:
            track.recovery.arm()
        else:
            # No gap to fetch (nothing delivered and no known live position,
            # or recovery disabled): a buffer armed by an earlier switch must
            # not stay armed — no FETCH will ever release it.
            self._flush_recovery(track)
        track.upstream_subscription = upstream.subscribe(
            track.full_track_name,
            on_object=lambda obj, t=track: self._on_upstream_object(t, obj),
            on_response=lambda subscription, t=track: self._on_switch_response(
                t, subscription, resume_from, on_reattached
            ),
        )

    @staticmethod
    def _resume_point(track: RelayTrack, old_subscription: Subscription | None) -> Location | None:
        """Where the post-switch recovery FETCH should start.

        Prefer the last location actually forwarded downstream — the FETCH
        range is inclusive, and the duplicate filter drops the boundary
        object.  A track that never forwarded anything falls back to the
        old subscription's live position (the largest the old parent
        advertised or delivered): anything *after* it is gap, anything at
        or before it is pre-join history that must not be replayed, so the
        resume point moves one object past it.
        """
        if track.largest_forwarded is not None:
            return track.largest_forwarded
        if old_subscription is not None and old_subscription.largest is not None:
            previous = old_subscription.largest
            return Location(previous.group_id, previous.object_id + 1)
        return None

    def _on_switch_response(
        self,
        track: RelayTrack,
        subscription: Subscription,
        resume_from: Location | None,
        on_reattached: Callable[[RelayTrack], None] | None,
    ) -> None:
        current = track.upstream_subscription is subscription
        self._on_upstream_response(track, subscription)
        if not current:
            return
        if not subscription.is_active:
            self._flush_recovery(track)
            return
        if on_reattached is not None:
            on_reattached(track)
        if resume_from is None or not track.recovery.active:
            return
        # Fill the gap between the last forwarded object and the live stream
        # from the new parent's cache.  The resume point itself rides along
        # (ranges are inclusive) and is dropped by the duplicate filter.
        self.statistics.recovery_fetches += 1
        upstream = self._ensure_upstream_session()
        upstream.fetch(
            track.full_track_name,
            resume_from,
            OPEN_RANGE_END,
            on_complete=lambda fetch_request, t=track, s=upstream: self._on_recovery_fetched(
                t, fetch_request, s
            ),
        )

    def _on_recovery_fetched(self, track: RelayTrack, fetch_request, session: MoqtSession) -> None:
        if session is not self._upstream_session:
            # A newer switch owns the recovery buffer: this completion (most
            # likely the old session failing its fetches on close) must not
            # release it — the new parent's gap FETCH will.
            return
        if not fetch_request.succeeded and session.closed:
            # The fetch failed *because the uplink itself died* (the session
            # fails its pending fetches on close) while it is still the
            # current one.  Flushing here would deliver the buffered live
            # tail and advance ``largest_forwarded`` past the unrecovered
            # gap, so the next switch's resume point would skip it forever.
            # Leave the buffer armed: it is carried until the next upstream
            # attach — :meth:`switch_upstream` / :meth:`_resubscribe_track`,
            # or the recovery branch of :meth:`_handle_downstream_subscribe`
            # — which re-fetches the gap and releases it coherently.
            return
        if fetch_request.succeeded:
            for obj in sorted(fetch_request.objects, key=lambda o: o.location):
                if obj.location not in track.forwarded:
                    self.statistics.recovered_objects += 1
                self._deliver_upstream_object(track, obj)
        # Delivered or genuinely refused by a live parent: release the
        # buffered live stream; on refusal the gap stays lost but delivery
        # resumes (availability over completeness).
        self._flush_recovery(track)

    def _flush_recovery(self, track: RelayTrack) -> None:
        track.recovery.release(lambda obj: self._deliver_upstream_object(track, obj))

    def abandon_upstream(self, reason: str = "no surviving parent") -> None:
        """Tear the uplink down with *no* replacement: fail waiters cleanly.

        The terminal counterpart of :meth:`switch_upstream`, used by the
        topology when a failover finds nowhere alive to re-attach (the
        structured ``NoSurvivingParentError`` path): the dying session is
        closed locally — which fails its pending subscribes and fetches back
        downstream instead of leaving them wedged — and no new upstream is
        opened.  Armed recovery buffers are flushed: with no future attach
        coming, holding buffered live objects would stall delivery forever.
        """
        session = self._upstream_session
        if session is not None and not session.closed:
            # Closing while still the current uplink routes through
            # _on_upstream_closed, which errors every pending waiter.
            session.close(reason)
        self._upstream_session = None
        for track in self._tracks.values():
            self._flush_recovery(track)

    def shutdown(self, reason: str = "relay shutting down") -> None:
        """Close every session and release the relay's ports.

        Used by :class:`repro.relaynet.RelayTopology` both for graceful
        leaves and (with an appropriate ``reason``) to simulate a crash:
        downstream sessions observe the close and the topology re-homes the
        orphaned subtree.
        """
        if self._upstream_session is not None and not self._upstream_session.closed:
            self._upstream_session.close(reason)
        self._server_endpoint.close()
        self._client_endpoint.close()

    def crash(self) -> None:
        """Vanish without a trace: no close frames, no callbacks, no bytes.

        The silent counterpart of :meth:`shutdown`, used as the fault
        injector for in-band failure detection (E13): downstream sessions and
        the uplink are abandoned mid-flight, the ports unbind, and every peer
        is left to notice through its own QUIC liveness machinery (probe
        timeouts or idle expiry) that this relay no longer exists.
        """
        if self._upstream_session is not None:
            self._upstream_session.closed = True
        for session in self._downstream_sessions:
            session.closed = True
        self._server_endpoint.abandon()
        self._client_endpoint.abandon()

    def _track_for(self, full_track_name: FullTrackName) -> RelayTrack:
        track = self._tracks.get(full_track_name)
        if track is None:
            track = RelayTrack(
                full_track_name=full_track_name, cache=TrackState(full_track_name)
            )
            self._tracks[full_track_name] = track
        return track

    def tracks(self) -> dict[FullTrackName, RelayTrack]:
        """All relayed tracks."""
        return dict(self._tracks)

    # ------------------------------------------------------------- subscription
    def pending_subscribe_count(self) -> int:
        """Downstream subscribes currently deferred awaiting an upstream answer."""
        return sum(len(track.awaiting_upstream) for track in self._tracks.values())

    def _handle_downstream_subscribe(
        self, session: MoqtSession, message: Subscribe
    ) -> SubscribeResult | None:
        self.statistics.downstream_subscribes += 1
        admission = self.admission
        if admission is not None:
            # The gate runs before *any* registration: a rejected SUBSCRIBE
            # never creates a _DownstreamSubscriber or an index entry, so
            # there is nothing to clean up when the error goes out.  It also
            # only ever polices arrivals — established subscriptions are
            # structurally beyond its reach (never shed to admit new ones).
            policy = admission.policy
            threshold = policy.priority_admit_threshold
            if threshold is not None and message.subscriber_priority <= threshold:
                self.statistics.admission_priority_bypasses += 1
            decision = admission.decide(
                session,
                self.simulator.now,
                self.pending_subscribe_count(),
                message.subscriber_priority,
            )
            if not decision.admitted:
                if decision.cause == "queue":
                    self.statistics.admission_queue_rejections += 1
                else:
                    self.statistics.admission_rejections += 1
                return SubscribeResult(
                    ok=False,
                    error_code=SubscribeErrorCode.TOO_MANY_SUBSCRIBERS,
                    reason=f"admission: {decision.cause} limit",
                    retry_after_ms=decision.retry_after_ms,
                )
        track = self._track_for(message.full_track_name)
        subscriber = _DownstreamSubscriber(session, message.request_id)
        track.downstream.append(subscriber)
        self._downstream_index.setdefault(session, {})[message.request_id] = track
        if track.upstream_subscription is None:
            # First subscriber for this track: aggregate into one upstream
            # subscription and answer the downstream once it is accepted.
            self._defer_awaiting_upstream(track, subscriber)
            if track.recovery.active:
                # The previous uplink died with a gap recovery in flight
                # (its armed buffer was carried, not dropped): re-attach
                # through the switch path so the gap is re-fetched and the
                # buffer released coherently.
                self._resubscribe_track(track, recover=True)
                return None
            upstream = self._ensure_upstream_session()
            self.statistics.upstream_subscribes += 1
            track.upstream_subscription = upstream.subscribe(
                message.full_track_name,
                on_object=lambda obj, t=track: self._on_upstream_object(t, obj),
                on_response=lambda subscription, t=track: self._on_upstream_response(
                    t, subscription
                ),
            )
            return None
        if track.upstream_subscription.state == "pending":
            # Joiners during the upstream round trip must share its outcome —
            # answering ok optimistically would strand them on a dead track
            # if the upstream rejects.
            self._defer_awaiting_upstream(track, subscriber)
            return None
        return SubscribeResult(ok=True, largest=track.cache.largest)

    def _defer_awaiting_upstream(
        self, track: RelayTrack, subscriber: _DownstreamSubscriber
    ) -> None:
        """Queue a downstream subscribe behind the in-flight upstream answer,
        tracking the queue's high-water mark (the overload signal bounded
        admission policies cap and the E16 baseline shows growing with storm
        size)."""
        track.awaiting_upstream.append(subscriber)
        pending = self.pending_subscribe_count()
        if pending > self.statistics.pending_subscribe_high_water:
            self.statistics.pending_subscribe_high_water = pending

    def _on_upstream_response(self, track: RelayTrack, subscription: Subscription) -> None:
        if track.upstream_subscription is not subscription:
            # Stale answer: this upstream subscription was already torn down
            # (its last subscriber left while the answer was in flight).  Any
            # current waiters belong to a replacement subscription and will be
            # answered by *its* response.
            return
        waiting, track.awaiting_upstream = track.awaiting_upstream, []
        if subscription.is_active:
            result = SubscribeResult(ok=True, largest=subscription.largest)
        else:
            # The upstream rejected the track: release the errored upstream
            # subscription and every waiting downstream entry, so a later
            # subscriber retries upstream instead of being served from a
            # permanently dead track.
            result = SubscribeResult(
                ok=False,
                error_code=SubscribeErrorCode(subscription.error_code)
                if subscription.error_code in SubscribeErrorCode._value2member_map_
                else SubscribeErrorCode.INTERNAL_ERROR,
                reason=subscription.error_reason,
            )
            track.upstream_subscription = None
        for waiter in waiting:
            if not subscription.is_active and waiter in track.downstream:
                track.downstream.remove(waiter)
                self._drop_index_entry(waiter.session, waiter.request_id)
            if waiter.session.closed:
                continue  # downstream left before the upstream answered
            waiter.session.complete_subscribe(waiter.request_id, result)

    def _handle_downstream_unsubscribe(self, session: MoqtSession, request_id: int) -> None:
        """Release the downstream subscription and the upstream one if idle."""
        self.statistics.downstream_unsubscribes += 1
        self._remove_downstream(session, request_id)

    def _drop_index_entry(self, session: MoqtSession, request_id: int) -> RelayTrack | None:
        """Remove one index entry, pruning the session's dict when empty."""
        requests = self._downstream_index.get(session)
        if requests is None:
            return None
        track = requests.pop(request_id, None)
        if not requests:
            del self._downstream_index[session]
        return track

    def _remove_downstream(self, session: MoqtSession, request_id: int) -> None:
        """Drop one downstream subscription from its track (index-guided)."""
        track = self._drop_index_entry(session, request_id)
        if track is None:
            return
        track.awaiting_upstream = [
            sub
            for sub in track.awaiting_upstream
            if not (sub.session is session and sub.request_id == request_id)
        ]
        track.downstream = [
            sub
            for sub in track.downstream
            if not (sub.session is session and sub.request_id == request_id)
        ]
        self._teardown_upstream_if_idle(track)

    def _teardown_upstream_if_idle(self, track: RelayTrack) -> None:
        """Unsubscribe upstream once no downstream subscriber needs the track.

        Without this, every track a subscriber ever asked for would keep one
        upstream subscription alive forever — exactly the state leak §5.1
        warns about.  The cached objects are kept so a returning subscriber's
        FETCH can still be served locally.
        """
        if track.downstream or track.upstream_subscription is None:
            return
        subscription = track.upstream_subscription
        track.upstream_subscription = None
        self.statistics.upstream_unsubscribes += 1
        if self._upstream_session is not None and not self._upstream_session.closed:
            self._upstream_session.unsubscribe(subscription)

    def _on_upstream_object(self, track: RelayTrack, obj: MoqtObject) -> None:
        self.statistics.objects_received += 1
        # While a recovery FETCH is outstanding, hold live objects back so
        # the gap is delivered first and downstream order survives the switch.
        if track.recovery.intercept(obj):
            return
        self._deliver_upstream_object(track, obj)

    def _deliver_upstream_object(self, track: RelayTrack, obj: MoqtObject) -> None:
        """Cache and forward one upstream object, dropping duplicates.

        After an upstream switch the new parent's live stream and the
        recovery FETCH both re-cover territory the old parent already
        delivered; anything already forwarded downstream is dropped here so
        subscribers see every (group, object) ID exactly once.
        """
        if obj.location in track.forwarded:
            self.statistics.duplicate_objects_dropped += 1
            return
        track.cache.publish(obj)
        self._record_forwarded(track, obj.location)
        self._forward_to_downstream(track, obj)

    def _record_forwarded(self, track: RelayTrack, location: Location) -> None:
        track.forwarded.add(location)
        if track.largest_forwarded is None or location > track.largest_forwarded:
            track.largest_forwarded = location
        if len(track.forwarded) > DEDUPE_PRUNE_THRESHOLD:
            # Keep the dedupe window bounded so long-lived tracks do not
            # accumulate unbounded state (§5.1).
            track.forwarded = prune_seen_locations(track.forwarded, track.largest_forwarded)

    def _forward_to_downstream(self, track: RelayTrack, obj: MoqtObject) -> None:
        # Encode-once fan-out: the object body does not depend on the
        # receiving subscription, so it is serialised a single time and the
        # cached bytes ride every downstream publish (§3's fan-out efficiency
        # argument, applied to CPU rather than links).  In stream mode the
        # full subgroup chunk (header + body) is additionally cached per track
        # alias — subscribers overwhelmingly share one alias, so the whole
        # stream payload is typically encoded once for the entire tier — and
        # the per-subscriber sends are collected into one link-batch event by
        # the network's batching region.
        use_datagrams = self.session_config.use_datagrams
        if use_datagrams:
            cached_encoding = encode_object_datagram_body(obj)
            chunk_by_alias = None
        else:
            cached_encoding = encode_subgroup_object(obj)
            chunk_by_alias = {}
        network = self.host.network
        # Span tracing (one record per relay per object, before the fan-out
        # loop): purely observational — no events, no RNG, no wire bytes.
        telemetry = getattr(network, "telemetry", None)
        if telemetry is not None and telemetry.spans is not None:
            telemetry.spans.record_hop(
                obj.location,
                self.tier,
                self.host.address,
                self.upstream_address.host,
                self.simulator.now,
            )
        batching = network is not None and hasattr(network, "begin_batch")
        if batching:
            network.begin_batch()
        try:
            for subscriber in list(track.downstream):
                session = subscriber.session
                if session.closed:
                    track.downstream.remove(subscriber)
                    self._drop_index_entry(session, subscriber.request_id)
                    self._teardown_upstream_if_idle(track)
                    continue
                publisher_subscription = subscriber.publisher_subscription
                if publisher_subscription is None:
                    publisher_subscription = session.publisher_subscription(
                        subscriber.request_id
                    )
                    if publisher_subscription is None:
                        continue
                    # Intern the track name: every downstream SUBSCRIBE decoded
                    # its own FullTrackName; pointing the retained state at the
                    # relay's canonical instance shares one across the tier.
                    publisher_subscription.full_track_name = track.full_track_name
                    subscriber.publisher_subscription = publisher_subscription
                if use_datagrams:
                    session.publish(publisher_subscription, obj, cached_encoding)
                else:
                    alias = publisher_subscription.track_alias
                    chunk = chunk_by_alias.get(alias)
                    if chunk is None:
                        chunk = encode_subgroup_stream_chunk(alias, obj, cached_encoding)
                        chunk_by_alias[alias] = chunk
                    session.publish_preencoded(publisher_subscription, obj, chunk)
                track.objects_forwarded += 1
                self.statistics.objects_forwarded += 1
        finally:
            if batching:
                network.end_batch()

    # -------------------------------------------------------------------- fetch
    def _handle_downstream_fetch(
        self,
        session: MoqtSession,
        message: Fetch,
        full_track_name: FullTrackName | None,
    ) -> FetchResult | None:
        if full_track_name is None:
            return FetchResult(
                ok=False,
                error_code=FetchErrorCode.TRACK_DOES_NOT_EXIST,
                reason="fetch without a resolvable track name",
            )
        track = self._track_for(full_track_name)
        if len(track.cache):
            self.statistics.fetches_served_from_cache += 1
            objects = self._cached_objects_for(track, message)
            return FetchResult(ok=True, objects=objects, largest=track.cache.largest)
        # Cache miss: forward the fetch upstream and answer when it completes.
        self.statistics.fetches_forwarded_upstream += 1
        upstream = self._ensure_upstream_session()

        def on_complete(fetch_request) -> None:
            if fetch_request.succeeded:
                for obj in fetch_request.objects:
                    track.cache.publish(obj)
                session.complete_fetch(
                    message.request_id,
                    FetchResult(
                        ok=True, objects=list(fetch_request.objects), largest=track.cache.largest
                    ),
                )
            else:
                session.complete_fetch(
                    message.request_id,
                    FetchResult(
                        ok=False,
                        error_code=FetchErrorCode(fetch_request.error_code)
                        if fetch_request.error_code in FetchErrorCode._value2member_map_
                        else FetchErrorCode.INTERNAL_ERROR,
                        reason=fetch_request.error_reason,
                    ),
                )

        start = Location(message.start_group, message.start_object)
        end = Location(message.end_group, message.end_object)
        if message.fetch_type != FetchType.STANDALONE or end == Location(0, 0):
            # Joining fetches (or open ranges) map onto "everything so far".
            start = Location(0, 0)
            end = OPEN_RANGE_END
        upstream.fetch(full_track_name, start, end, on_complete=on_complete)
        return None

    def _cached_objects_for(self, track: RelayTrack, message: Fetch) -> list[MoqtObject]:
        if message.fetch_type == FetchType.STANDALONE:
            start = Location(message.start_group, message.start_object)
            end = Location(message.end_group, message.end_object)
            if end == Location(0, 0):
                end = None
            return track.cache.objects_in_range(start, end)
        # Joining fetch: return the most recent ``joining_start`` groups.
        count = max(1, message.joining_start)
        return track.cache.latest_objects(count)


class _RelayDelegate:
    """Publisher delegate adapter binding relay logic to a downstream session."""

    def __init__(self, relay: MoqtRelay) -> None:
        self._relay = relay

    def handle_subscribe(self, session: MoqtSession, message: Subscribe) -> SubscribeResult | None:
        return self._relay._handle_downstream_subscribe(session, message)

    def handle_fetch(
        self, session: MoqtSession, message: Fetch, full_track_name: FullTrackName | None
    ) -> FetchResult | None:
        return self._relay._handle_downstream_fetch(session, message, full_track_name)

    def handle_unsubscribe(self, session: MoqtSession, request_id: int) -> None:
        self._relay._handle_downstream_unsubscribe(session, request_id)
