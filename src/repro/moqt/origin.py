"""The origin publisher: the MoQT server at the root of a relay tree.

The origin is a moqt-layer component so an origin *instance* can exist
more than once per network — an active publisher and its warm standbys
(:mod:`repro.relaynet.origincluster`).  The relay experiments build it
through :mod:`repro.experiments.tree_run`.

An :class:`OriginPublisher` is a publisher delegate plus the track state it
serves:

* SUBSCRIBEs are always accepted, answering with the track's largest
  location;
* FETCHes are served from the track state — standalone fetches honour their
  requested range (a promoted standby answers the tier-0 relays' gap FETCH
  from its cache), joining fetches return the latest group as before;
* :meth:`OriginPublisher.push` records an object and fans it out to every
  direct subscriber with the encode-once / chunk-cached / link-batched fast
  path.

A standby's publisher is created with ``seed_initial=False`` and its state
is filled by a live subscription to the active origin, so at promotion time
``state.largest`` *is* the cached high-water mark the resumed sequence
continues from.
"""

from __future__ import annotations

from repro.moqt.datastream import encode_subgroup_object, encode_subgroup_stream_chunk
from repro.moqt.messages import FetchType
from repro.moqt.objectmodel import Location, MoqtObject, TrackState
from repro.moqt.session import MOQT_ALPN, FetchResult, MoqtSession, SubscribeResult
from repro.moqt.track import FullTrackName
from repro.netsim.network import Network
from repro.quic.endpoint import QuicEndpoint
from repro.quic.tls import ServerTlsContext

TRACK = FullTrackName.of(["dns", "a"], b"cdn.example")
ORIGIN_HOST = "origin"
ORIGIN_PORT = 4443


class OriginPublisher:
    """Origin publisher delegate serving one DNS track to the top tier.

    Parameters
    ----------
    network:
        The network the origin host lives on, when known — enables the
        batched, chunk-cached fan-out fast path in :meth:`push`.
    track:
        The full track name this origin serves.
    seed_initial:
        Publish the historical initial object (group 1, ``b"v1"``) into the
        track state.  Standby origins pass False: their state is warmed by a
        live subscription to the active origin instead, so the cache holds
        exactly what the active published.
    """

    def __init__(
        self,
        network: Network | None = None,
        track: FullTrackName = TRACK,
        seed_initial: bool = True,
    ) -> None:
        self.state = TrackState(track)
        if seed_initial:
            self.state.publish(MoqtObject(group_id=1, object_id=0, payload=b"v1"))
        self.sessions: list[MoqtSession] = []
        self.network = network

    @property
    def high_water(self) -> Location | None:
        """Largest location the publisher's state holds (resume point)."""
        return self.state.largest

    def handle_subscribe(self, session, message):
        return SubscribeResult(ok=True, largest=self.state.largest)

    def handle_fetch(self, session, message, full_track_name):
        if message.fetch_type == FetchType.STANDALONE:
            start = Location(message.start_group, message.start_object)
            end = Location(message.end_group, message.end_object)
            if start != Location(0, 0) or end != Location(0, 0):
                # Ranged standalone fetch: a promoted standby serves the
                # tier-0 relays' gap FETCH from its warm cache, exactly like
                # a relay's cache would (inclusive range, open end allowed).
                return FetchResult(
                    ok=True,
                    objects=self.state.objects_in_range(
                        start, end if end != Location(0, 0) else None
                    ),
                    largest=self.state.largest,
                )
        return FetchResult(
            ok=True, objects=self.state.latest_objects(1), largest=self.state.largest
        )

    def push(self, obj: MoqtObject) -> None:
        """Record and push one update to every direct (top-tier) subscriber."""
        self.state.publish(obj)
        cached_encoding = encode_subgroup_object(obj)
        chunk_by_alias: dict[int, bytes] = {}
        network = self.network
        if network is not None:
            spans = network.telemetry.spans
            if spans is not None:
                # Span root: every tier hop and delivery of this object is
                # measured from this virtual-time instant.
                spans.record_push(obj.location, network.simulator.now)
            network.begin_batch()
        try:
            for session in self.sessions:
                if session.closed:
                    continue
                for subscription in session.publisher_subscriptions():
                    if session.config.use_datagrams:
                        session.publish(subscription, obj, cached_encoding)
                        continue
                    alias = subscription.track_alias
                    chunk = chunk_by_alias.get(alias)
                    if chunk is None:
                        chunk = encode_subgroup_stream_chunk(alias, obj, cached_encoding)
                        chunk_by_alias[alias] = chunk
                    session.publish_preencoded(subscription, obj, chunk)
        finally:
            if network is not None:
                network.end_batch()

    @property
    def objects_sent(self) -> int:
        """Objects the origin pushed over all its sessions."""
        return sum(session.statistics.objects_sent for session in self.sessions)


def build_origin_endpoint(
    host, publisher: OriginPublisher, port: int = ORIGIN_PORT
) -> QuicEndpoint:
    """Bind a MoQT server endpoint on ``host`` serving ``publisher``."""
    return QuicEndpoint(
        host,
        port=port,
        server_tls=ServerTlsContext(alpn_protocols=(MOQT_ALPN,)),
        on_connection=lambda connection: publisher.sessions.append(
            MoqtSession(connection, is_client=False, publisher_delegate=publisher)
        ),
    )


def build_origin(network: Network, publisher: OriginPublisher | None = None) -> OriginPublisher:
    """Create the origin host with a MoQT server wired to ``publisher``."""
    host = network.add_host(ORIGIN_HOST)
    if publisher is None:
        publisher = OriginPublisher(network)
    elif publisher.network is None:
        publisher.network = network
    build_origin_endpoint(host, publisher)
    return publisher
