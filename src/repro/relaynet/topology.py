"""Live relay topology: membership, failover and load-aware placement.

PR 1 built relay trees once and never touched them again; real CDN edges
join, leave and crash mid-stream.  :class:`RelayTopology` is the membership
registry a running tree lives in:

* :meth:`RelayTopology.add_relay` grows a tier while traffic flows — the new
  relay attaches below the least-loaded parent and starts aggregating as
  soon as its first subscriber arrives;
* :meth:`RelayTopology.remove_relay` drains a relay gracefully: its subtree
  is re-homed first (children switch their uplink, subscribers re-attach),
  then the relay shuts down;
* :meth:`RelayTopology.kill_relay` simulates a crash with a control-plane
  oracle: the relay vanishes silently and the topology re-homes every
  orphan in the same instant through a pluggable :class:`FailoverPolicy` —
  the least-loaded *sibling* of the dead relay by default, its
  *grandparent* (or the origin) when no sibling survives;
* :meth:`RelayTopology.crash_relay` is the oracle-free fault injector: the
  relay vanishes and *nobody is told*.  Failover waits until some orphan's
  QUIC transport notices — consecutive probe timeouts on a keepalive'd
  uplink, or an idle expiry on a receive-only subscriber session — and the
  wired liveness handlers call :meth:`RelayTopology.report_failure`, the
  in-band entry point to the same evacuation machinery (E13).

Re-homed relays keep their established downstream subscriptions: the MoQT
layer (:meth:`repro.moqt.relay.MoqtRelay.switch_upstream`) re-subscribes
each live track through the new parent, fills the gap between the last
delivered and the first live object with a FETCH against the new parent's
cache, and deduplicates by (group, object) ID so subscribers observe a
gapless, duplicate-free sequence across the failure.  Orphaned subscribers
get the same treatment one layer down: a fresh session to the least-loaded
surviving leaf, a re-subscribe, and a gap FETCH.

Subscriber placement is load-aware: :meth:`RelayTopology.attach_subscribers`
assigns each new subscriber to the least-loaded alive leaf (ties broken by
relay age), which degenerates to PR 1's round-robin while all leaves live —
the static-tree wire trace is unchanged — but steers load away from hot or
dying edges the moment the tree stops being static.

Every failover produces a :class:`FailoverEvent` whose per-orphan
:class:`FailoverRecord` timestamps measure re-attach latency; the E12 churn
experiment (:mod:`repro.experiments.relay_churn`) reports them per tier and
checks them against the closed-form model in :mod:`repro.analysis.churn`.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

from repro.moqt.errors import AdmissionRejectedError, SubscribeErrorCode
from repro.moqt.objectmodel import Location, MoqtObject
from repro.moqt.relay import (
    DEDUPE_PRUNE_THRESHOLD,
    DEFAULT_MOQT_PORT,
    OPEN_RANGE_END,
    MoqtRelay,
    RecoveryBuffer,
    prune_seen_locations,
)
from repro.moqt.session import MOQT_ALPN, MoqtSession, MoqtSessionConfig, Subscription
from repro.moqt.track import FullTrackName
from repro.netsim.network import Network
from repro.netsim.node import Host
from repro.netsim.packet import Address
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.relaynet.admission import AdmissionPolicy, RetryPolicy
from repro.relaynet.aggregate import AggregateLeaf, plan_leaf_assignments
from repro.relaynet.spec import RelayTreeSpec

if TYPE_CHECKING:
    from repro.relaynet.origincluster import OriginCluster


@dataclass(eq=False)
class RelayNode:
    """One relay in a live topology."""

    tier_index: int
    tier_name: str
    index: int
    host: Host
    relay: MoqtRelay
    parent: "RelayNode | None"
    #: False once the relay has left (gracefully or by crash); dead nodes
    #: stay listed so indices and history remain stable, but they are never
    #: chosen as parents or leaves again.
    alive: bool = True
    #: Direct downstream attachments (child relays + subscribers) — the
    #: quantity load-aware placement minimises.
    load: int = 0
    #: When :meth:`RelayTopology.crash_relay` silently crashed this node
    #: (None for announced leaves/kills) — the reference point in-band
    #: detection latency is measured from.
    crashed_at: float | None = None
    #: The failover event that evacuated this node's subtree, once one ran
    #: (makes :meth:`RelayTopology.report_failure` idempotent when several
    #: orphans detect the same death).
    failure_event: "FailoverEvent | None" = None

    @property
    def address(self) -> Address:
        """Address downstream sessions (children or subscribers) connect to."""
        return self.relay.address

    @property
    def upstream_host(self) -> str:
        """Host address of the node's parent (origin for tier 0)."""
        return self.relay.upstream_address.host


@dataclass(slots=True)
class _SubscriberTrack:
    """One track a subscriber follows, with dedupe and re-attach state."""

    full_track_name: FullTrackName
    on_object: Callable[[MoqtObject], None] | None
    subscription: Subscription | None = None
    seen: set[Location] = field(default_factory=set)
    largest: Location | None = None
    #: Monotonic count of distinct objects handed to the application (the
    #: ``seen`` dedupe set is pruned, so its size is not a delivery count).
    delivered: int = 0
    duplicates_dropped: int = 0
    #: While a gap FETCH is outstanding after a re-attach, live objects are
    #: buffered so the recovered gap is delivered first, in order (same
    #: machinery as the relay's upstream-switch recovery).
    recovery: RecoveryBuffer = field(default_factory=RecoveryBuffer)


@dataclass(eq=False, slots=True)
class TreeSubscriber:
    """A leaf MoQT client attached below an edge relay.

    The subscriber owns the client-side half of churn tolerance: it dedupes
    deliveries by (group, object) ID, and after a re-attach it buffers the
    new leaf's live stream until the gap FETCH has been delivered, so the
    application callback observes every object exactly once, in order, no
    matter how many relays died in between.
    """

    index: int
    host: Host
    session: MoqtSession
    leaf: RelayNode
    config: MoqtSessionConfig | None = None
    tracks: list[_SubscriberTrack] = field(default_factory=list)
    reattach_count: int = 0
    gap_fetches: int = 0
    #: How many subscribers this object stands in for.  1 for every dense
    #: subscriber; an aggregate-leaf representative carries its group's
    #: member count, and every statistic collectors read off it (bytes,
    #: objects, QUIC counters) is multiplied by this at collection time.
    multiplicity: int = 1

    # ---------------------------------------------------------- subscriptions
    def subscribe_track(
        self,
        full_track_name: FullTrackName,
        on_object: Callable[[MoqtObject], None] | None = None,
        on_response: Callable[[Subscription], None] | None = None,
    ) -> Subscription:
        """Subscribe to a track with duplicate-free delivery to ``on_object``.

        ``on_response`` fires with the answered subscription — the hook the
        topology's admission retry-with-backoff machinery hangs off.
        """
        track = _SubscriberTrack(full_track_name=full_track_name, on_object=on_object)
        self.tracks.append(track)
        track.subscription = self.session.subscribe(
            full_track_name,
            on_object=lambda obj, t=track: self.deliver(t, obj),
            on_response=on_response,
        )
        return track.subscription

    # --------------------------------------------------------------- delivery
    def deliver(self, track: _SubscriberTrack, obj: MoqtObject) -> None:
        if track.recovery.intercept(obj):
            return
        self._deliver_now(track, obj)

    def _deliver_now(self, track: _SubscriberTrack, obj: MoqtObject) -> None:
        if obj.location in track.seen:
            track.duplicates_dropped += 1
            return
        track.seen.add(obj.location)
        track.delivered += 1
        if track.largest is None or obj.location > track.largest:
            track.largest = obj.location
        if len(track.seen) > DEDUPE_PRUNE_THRESHOLD:
            track.seen = prune_seen_locations(track.seen, track.largest)
        # Span tracing (delivery leg): observational only.  getattr guards
        # stub hosts/networks used by unit tests.
        host = self.host
        network = host.network if host is not None else None
        telemetry = getattr(network, "telemetry", None)
        if telemetry is not None and telemetry.spans is not None:
            telemetry.spans.record_delivery(
                obj.location,
                self.leaf.host.address,
                self.index,
                host.simulator.now,
            )
        if track.on_object is not None:
            track.on_object(obj)

    def flush_track(self, track: _SubscriberTrack) -> None:
        """Release buffered live objects (ordered, deduplicated)."""
        track.recovery.release(lambda obj: self._deliver_now(track, obj))

    def finish_gap_fetch(
        self, track: _SubscriberTrack, fetch_request, session: MoqtSession | None = None
    ) -> None:
        """Deliver a completed gap FETCH, then the buffered live stream.

        ``session`` is the session the fetch was issued on.  A fetch that
        *failed because that session died* (closed mid-flight, or already
        replaced by a newer re-attach) must not release the recovery buffer:
        flushing would advance the dedupe high-water mark past the
        unrecovered gap and the next re-attach's resume point would skip it
        forever.  The next re-attach re-arms or flushes the buffer itself.
        """
        if (
            not fetch_request.succeeded
            and session is not None
            and (session.closed or session is not self.session)
        ):
            return
        if fetch_request.succeeded:
            for obj in sorted(fetch_request.objects, key=lambda o: o.location):
                self._deliver_now(track, obj)
        self.flush_track(track)

    # ------------------------------------------------------------- statistics
    @property
    def duplicates_dropped(self) -> int:
        """Duplicate deliveries suppressed across all tracks."""
        return sum(track.duplicates_dropped for track in self.tracks)

    @property
    def objects_delivered(self) -> int:
        """Distinct objects handed to application callbacks."""
        return sum(track.delivered for track in self.tracks)


# ------------------------------------------------------------------- failover
class FailoverPolicy(Protocol):
    """Chooses the new parent for a relay orphaned by a failed node.

    Returning ``None`` delegates to the structural fallback: the dead
    relay's own parent (the orphan's grandparent), or the origin when the
    dead relay sat directly below it.
    """

    def choose_parent(
        self, topology: "RelayTopology", orphan: RelayNode, dead: RelayNode
    ) -> RelayNode | None:
        """Pick a new parent for ``orphan`` after ``dead`` failed."""


class SiblingFailover:
    """Re-home orphans under the least-loaded surviving sibling of the dead
    relay (same tier), falling back to the grandparent when the whole tier
    is gone.  Keeps the tree's depth — and therefore its fan-out arithmetic —
    intact across failures."""

    def choose_parent(
        self, topology: "RelayTopology", orphan: RelayNode, dead: RelayNode
    ) -> RelayNode | None:
        siblings = [
            node
            for node in topology.tiers[dead.tier_index]
            if node.alive and node is not dead
        ]
        if not siblings:
            return None
        return min(siblings, key=lambda node: (node.load, node.index))


class GrandparentFailover:
    """Always re-home orphans under the dead relay's own parent (or the
    origin).  Shortens the orphan's path at the price of concentrating load
    one tier up — the policy to compare sibling failover against."""

    def choose_parent(
        self, topology: "RelayTopology", orphan: RelayNode, dead: RelayNode
    ) -> RelayNode | None:
        return None


@dataclass
class FailoverRecord:
    """One orphan's journey to its new parent."""

    kind: str  # "relay" | "subscriber"
    name: str
    tier: str
    new_parent: str
    detached_at: float
    reattached_at: float | None = None

    def mark_reattached(self, now: float) -> None:
        """Record the first successful re-subscription (idempotent)."""
        if self.reattached_at is None:
            self.reattached_at = now

    @property
    def reattach_latency(self) -> float | None:
        """Seconds from failure to an accepted re-subscription."""
        if self.reattached_at is None:
            return None
        return self.reattached_at - self.detached_at


@dataclass
class FailoverEvent:
    """Everything one join/leave/kill/detected-failure did to the tree."""

    cause: str  # "kill" | "leave" | "detected"
    node: str
    tier: str
    at: float
    records: list[FailoverRecord] = field(default_factory=list)
    #: Operator-supplied diagnostic for announced kills/leaves (a silent
    #: crash sends no reason anywhere — that is its defining property).
    reason: str = ""
    #: How the failure surfaced when ``cause == "detected"``: the transport
    #: liveness cause of the first orphan to notice (``"pto-suspect"``,
    #: ``"idle-timeout"`` or ``"pto-give-up"``).
    detected_via: str = ""
    #: Seconds from the silent crash (:attr:`RelayNode.crashed_at`) to the
    #: first in-band report; None for control-plane-announced events.
    detection_latency: float | None = None
    #: Structured terminal failure, when the evacuation could not re-home
    #: every orphan: ``"no-surviving-parent"`` (relay orphans with a dead
    #: origin as the only fallback, or subscribers with no alive leaf) or
    #: ``"no-surviving-origin"`` (an origin death with no standby left).
    #: Stranded orphans carry an empty ``new_parent`` in their records.
    error: str = ""
    #: The origin-cluster epoch this event promoted *to*, for origin-tier
    #: events that elected a successor; None everywhere else.
    epoch: int | None = None

    @property
    def complete(self) -> bool:
        """Whether every orphan has re-attached."""
        return all(record.reattached_at is not None for record in self.records)

    def orphans(self, kind: str | None = None) -> list[FailoverRecord]:
        """All orphan records, optionally filtered by kind."""
        if kind is None:
            return list(self.records)
        return [record for record in self.records if record.kind == kind]

    def latencies_by_tier(self) -> dict[str, list[float]]:
        """Re-attach latencies grouped by the orphan's tier."""
        grouped: dict[str, list[float]] = {}
        for record in self.records:
            latency = record.reattach_latency
            if latency is None:
                continue
            grouped.setdefault(record.tier, []).append(latency)
        return grouped


class NoSurvivingParentError(RuntimeError):
    """A failover found orphans with nowhere alive to re-attach.

    Raised by :meth:`RelayTopology.report_failure` /
    :meth:`RelayTopology.report_origin_failure` *after* the failover event
    has been fully recorded: ``event.error`` names the condition and each
    stranded orphan has a :class:`FailoverRecord` with an empty
    ``new_parent``, so the terminal state is observable whether or not the
    caller can propagate the exception.  The wired in-band liveness handlers
    swallow it — a transport callback must never unwind the event loop —
    which is why the event, not the exception, is the source of truth.
    """

    def __init__(self, message: str, event: FailoverEvent) -> None:
        super().__init__(message)
        self.event = event


# ------------------------------------------------------------------- admission
@dataclass
class AdmissionRecord:
    """One flash-crowd subscriber's journey through admission control.

    The admission-side sibling of :class:`FailoverRecord`: joined/admitted
    timestamps bracket the join latency, and the retry schedule (absolute
    simulator times each retry was scheduled for) is what the determinism
    property tests compare across seeded replays.
    """

    name: str
    leaf: str
    joined_at: float
    attempts: int = 0
    rejections: int = 0
    queue_rejections: int = 0
    spillovers: int = 0
    #: Absolute simulator times retries were scheduled to fire at, in order.
    retry_schedule: list[float] = field(default_factory=list)
    admitted_at: float | None = None
    #: True once the retry budget ran out: this subscriber will never be
    #: admitted and :meth:`FlashCrowdStorm.raise_for_failures` reports it.
    terminal: bool = False

    def mark_admitted(self, now: float) -> None:
        """Record the first accepted SUBSCRIBE (idempotent)."""
        if self.admitted_at is None:
            self.admitted_at = now

    @property
    def join_latency(self) -> float | None:
        """Seconds from the join to an accepted subscription."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.joined_at


@dataclass
class FlashCrowdStorm:
    """Everything one :meth:`RelayTopology.flash_crowd` injection produced."""

    count: int
    window: float
    started_at: float
    full_track_name: FullTrackName
    records: list[AdmissionRecord] = field(default_factory=list)
    subscribers: list[TreeSubscriber] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        """Stormers whose subscription was eventually accepted."""
        return sum(1 for record in self.records if record.admitted_at is not None)

    @property
    def rejections(self) -> int:
        """Total SUBSCRIBE_ERROR(TOO_MANY_SUBSCRIBERS) answers observed."""
        return sum(record.rejections + record.queue_rejections for record in self.records)

    @property
    def retries(self) -> int:
        """Total retry SUBSCRIBEs issued (attempts beyond each first try)."""
        return sum(max(0, record.attempts - 1) for record in self.records)

    @property
    def spillovers(self) -> int:
        """Total sibling-leaf re-routes performed before admission."""
        return sum(record.spillovers for record in self.records)

    @property
    def complete(self) -> bool:
        """Whether every stormer has been admitted."""
        return self.admitted == len(self.records)

    @property
    def completion_time(self) -> float | None:
        """Seconds from storm start to the last admission (None while open)."""
        if not self.records or not self.complete:
            return None
        return max(record.admitted_at for record in self.records) - self.started_at

    def join_latencies(self) -> list[float]:
        """Per-stormer join latencies, in join order (admitted only)."""
        return [
            record.join_latency
            for record in self.records
            if record.join_latency is not None
        ]

    def raise_for_failures(self) -> None:
        """Surface the first terminal rejection as an exception.

        Retry exhaustion is detected inside transport callbacks, which must
        never unwind the event loop (the :class:`NoSurvivingParentError`
        precedent), so the terminal state lands on the record; callers
        invoke this after the simulation settles to turn it into a raised
        :class:`~repro.moqt.errors.AdmissionRejectedError`.
        """
        for record in self.records:
            if record.terminal:
                raise AdmissionRejectedError(self.full_track_name, record.attempts)


# ------------------------------------------------------------------- topology
class RelayTopology:
    """The live membership view of a relay hierarchy.

    Owns the tiers, the parent/child structure, subscriber placement and
    failover.  :class:`~repro.relaynet.builder.RelayTree` and
    :class:`~repro.relaynet.builder.RelayTreeBuilder` are thin construction
    fronts over this class.

    Parameters
    ----------
    network:
        The network relay hosts and links live on.
    origin:
        Address of the origin MoQT publisher; its host must already exist.
    spec:
        The declarative shape to instantiate initially.
    session_config:
        MoQT session configuration shared by relays (and, by default, by
        subscribers attached later).
    port:
        Port every relay accepts downstream sessions on.
    failover_policy:
        How orphans pick a new parent; :class:`SiblingFailover` by default.
    uplink_connection:
        QUIC configuration for every relay's uplink.  In-band failure
        detection (E13) enables keepalives here so a silently crashed parent
        is noticed through probe timeouts; the default (None) keeps the
        historical wire-identical configuration.
    subscriber_connection:
        QUIC configuration for subscriber sessions; E13 shortens the idle
        timeout here so orphaned subscribers notice a dead leaf in-band.
    downstream_connection:
        QUIC configuration applied to every relay's *accepted* downstream
        connections — the sender side of each fan-out hop.  E15 installs a
        NewReno congestion controller here so constrained, lossy access
        links are driven with a real window; the default (None) keeps the
        historical wire-identical configuration.
    origin_cluster:
        The replicated origin this tree hangs off, when the origin is a
        :class:`~repro.relaynet.origincluster.OriginCluster` rather than a
        singleton.  Tier-0 relays get pre-established links to every
        standby (links only — no traffic, so a never-failing run stays
        wire-identical), and a tier-0 uplink death is routed through
        :meth:`report_origin_failure` instead of being unreportable.
    """

    def __init__(
        self,
        network: Network,
        origin: Address,
        spec: RelayTreeSpec,
        session_config: MoqtSessionConfig | None = None,
        port: int = DEFAULT_MOQT_PORT,
        failover_policy: FailoverPolicy | None = None,
        uplink_connection: ConnectionConfig | None = None,
        subscriber_connection: ConnectionConfig | None = None,
        downstream_connection: ConnectionConfig | None = None,
        origin_cluster: "OriginCluster | None" = None,
        aggregate_leaves: bool = False,
        admission: AdmissionPolicy | None = None,
    ) -> None:
        self.network = network
        self.origin = origin
        self.origin_cluster = origin_cluster
        self.spec = spec
        self.session_config = session_config if session_config is not None else MoqtSessionConfig()
        self.port = port
        self.failover_policy = failover_policy if failover_policy is not None else SiblingFailover()
        self.uplink_connection = uplink_connection
        self.subscriber_connection = subscriber_connection
        self.downstream_connection = downstream_connection
        #: Admission policy installed on every relay (each relay gets its own
        #: controller state).  None — the default — is the historical
        #: admit-everything behaviour with zero overhead and unchanged wire
        #: bytes; flash-crowd deployments pass a limited policy here.
        self.admission = admission
        #: When True, :meth:`attach_subscribers` collapses each leaf's
        #: homogeneous population into one counted representative
        #: (:mod:`repro.relaynet.aggregate`); span-sampled indices and
        #: churned members still run dense.
        self.aggregate_leaves = aggregate_leaves
        self.tiers: list[list[RelayNode]] = []
        self.subscribers: list[TreeSubscriber] = []
        #: Aggregate groups created by counted attaches (dissolved groups
        #: stay listed, inert, so split history remains inspectable).
        self.aggregates: list[AggregateLeaf] = []
        #: Fired as ``hook(member, representative)`` the moment an
        #: aggregated member is materialised, before it sees any new
        #: traffic — experiments use it to copy per-subscriber accumulator
        #: state (delivery sequences) from the representative.
        self.on_subscriber_split: Callable[[TreeSubscriber, TreeSubscriber], None] | None = None
        #: Every join/leave/kill/detected failover applied to the tree, in order.
        self.events: list[FailoverEvent] = []
        self._tier_created: list[int] = []
        self._subscribers_created = 0
        self._nodes_by_relay: dict[MoqtRelay, RelayNode] = {}
        self._groups_by_rep: dict[TreeSubscriber, AggregateLeaf] = {}
        # Fail fast if the origin host is missing rather than at first subscribe.
        network.host(origin.host)
        self._build(spec)

    # ------------------------------------------------------------ construction
    def _build(self, spec: RelayTreeSpec) -> None:
        """Instantiate the initial tree (identical wiring order to PR 1's
        builder, so seeded runs stay bit-identical on the wire)."""
        for tier_index, tier_spec in enumerate(spec.tiers):
            hosts = self.network.add_hosts(
                f"{spec.host_prefix}-{tier_spec.name}", tier_spec.relays
            )
            if tier_index == 0:
                # The whole top tier hangs off the origin: a star.
                self.network.connect_star(self.origin.host, hosts, tier_spec.uplink)
            nodes: list[RelayNode] = []
            self.tiers.append(nodes)
            self._tier_created.append(0)
            for host in hosts:
                self._add_node(tier_index, host, parent=None, connect=tier_index > 0)

    def _add_node(
        self,
        tier_index: int,
        host: Host,
        parent: RelayNode | None,
        connect: bool,
    ) -> RelayNode:
        tier_spec = self.spec.tiers[tier_index]
        if tier_index == 0:
            parent = None
            upstream = self.origin
            self._prewire_standby_links(host, tier_spec.uplink)
        else:
            if parent is None:
                parent = self._pick_parent(tier_index)
            upstream = parent.address
        if connect:
            anchor = parent.host if parent is not None else self.network.host(self.origin.host)
            self.network.connect(anchor, host, tier_spec.uplink)
        relay = MoqtRelay(
            host,
            upstream=upstream,
            port=self.port,
            session_config=self.session_config,
            tier=tier_spec.name,
            upstream_connection=self.uplink_connection,
            downstream_connection=self.downstream_connection,
            admission=self.admission,
        )
        relay.on_uplink_dying = self._on_relay_uplink_dying
        index = self._tier_created[tier_index]
        self._tier_created[tier_index] = index + 1
        node = RelayNode(
            tier_index=tier_index,
            tier_name=tier_spec.name,
            index=index,
            host=host,
            relay=relay,
            parent=parent,
        )
        if parent is not None:
            parent.load += 1
        self.tiers[tier_index].append(node)
        self._nodes_by_relay[relay] = node
        return node

    def _prewire_standby_links(self, host: Host, uplink) -> None:
        """Pre-establish links from a tier-0 relay host to every standby.

        Links only — no connections, no traffic, no scheduled events — so a
        cluster that never fails adds zero wire bytes; but when a promotion
        re-points tier-0 uplinks at a standby, the path already exists and
        the re-attach pays pure handshake RTTs, exactly like a relay-tier
        failover.
        """
        if self.origin_cluster is None:
            return
        for origin in self.origin_cluster.origins:
            if origin.index == 0:
                continue  # the initial active is linked by connect_star
            if not self.network.has_link(origin.host.address, host.address):
                self.network.connect(origin.host, host, uplink)

    # -------------------------------------------------------------- structure
    def nodes(self) -> list[RelayNode]:
        """Every relay node ever created, top tier first (including dead)."""
        return [node for tier in self.tiers for node in tier]

    def alive_nodes(self) -> list[RelayNode]:
        """Every relay currently part of the tree."""
        return [node for node in self.nodes() if node.alive]

    def leaves(self) -> list[RelayNode]:
        """The relays subscribers attach to (the last tier)."""
        return list(self.tiers[-1])

    def alive_leaves(self) -> list[RelayNode]:
        """Last-tier relays still accepting subscribers."""
        return [node for node in self.tiers[-1] if node.alive]

    def tier(self, name: str) -> list[RelayNode]:
        """All nodes of the tier with the given name."""
        for tier_spec, nodes in zip(self.spec.tiers, self.tiers):
            if tier_spec.name == name:
                return list(nodes)
        raise KeyError(f"no tier named {name!r}")

    def children(self, node: RelayNode) -> list[RelayNode]:
        """Alive child relays currently attached below ``node``."""
        if node.tier_index + 1 >= len(self.tiers):
            return []
        return [
            child
            for child in self.tiers[node.tier_index + 1]
            if child.alive and child.parent is node
        ]

    @property
    def relay_count(self) -> int:
        """Total number of relays ever built (including departed ones)."""
        return sum(len(tier) for tier in self.tiers)

    @property
    def alive_relay_count(self) -> int:
        """Relays currently part of the tree."""
        return len(self.alive_nodes())

    def _tier_index(self, tier: str | int) -> int:
        if isinstance(tier, int):
            if not 0 <= tier < len(self.tiers):
                raise IndexError(f"no tier {tier}")
            return tier
        for index, tier_spec in enumerate(self.spec.tiers):
            if tier_spec.name == tier:
                return index
        raise KeyError(f"no tier named {tier!r}")

    # --------------------------------------------------------------- placement
    def _pick_parent(self, tier_index: int) -> RelayNode:
        """Least-loaded alive relay in the tier above (ties: oldest first)."""
        candidates = [node for node in self.tiers[tier_index - 1] if node.alive]
        if not candidates:
            raise RuntimeError(
                f"tier {self.spec.tiers[tier_index - 1].name!r} has no alive relays"
            )
        return min(candidates, key=lambda node: (node.load, node.index))

    def _pick_leaf(self) -> RelayNode:
        """Least-loaded alive leaf (ties: oldest first).

        With every leaf alive and subscribers only ever added, this is
        exactly round-robin — the static fan-out experiments keep their
        wire-identical placement — but it skips dead leaves and absorbs
        imbalance the moment the tree churns.
        """
        candidates = self.alive_leaves()
        if not candidates:
            raise RuntimeError("no alive leaf relays to attach subscribers to")
        return min(candidates, key=lambda node: (node.load, node.index))

    # ------------------------------------------------------------- subscribers
    def attach_subscribers(
        self,
        count: int,
        session_config: MoqtSessionConfig | None = None,
        host_prefix: str = "sub",
    ) -> list[TreeSubscriber]:
        """Create ``count`` subscriber hosts below the leaf tier.

        Each subscriber lands on the least-loaded alive leaf and opens an
        MoQT session to it immediately.  Call repeatedly to grow the
        population; host names continue from the total ever created.

        With :attr:`aggregate_leaves` set, the same placement runs counted:
        one representative per leaf group, dense materialisation only for
        span-sampled indices (see :meth:`_attach_subscribers_aggregate`).
        """
        config = session_config if session_config is not None else self.session_config
        if self.aggregate_leaves:
            return self._attach_subscribers_aggregate(count, config, host_prefix)
        created: list[TreeSubscriber] = []
        # One batching region around the whole population: every subscriber's
        # first handshake flight collapses into one link-batch event instead
        # of one heap event per subscriber (the replies batch recursively).
        self.network.begin_batch()
        try:
            for _ in range(count):
                index = self._subscribers_created
                self._subscribers_created += 1
                leaf = self._pick_leaf()
                host = self.network.add_host(f"{host_prefix}-{index}")
                self.network.connect(leaf.host, host, self.spec.subscriber_link)
                session = self._open_subscriber_session(host, leaf, config)
                subscriber = TreeSubscriber(
                    index=index, host=host, session=session, leaf=leaf, config=config
                )
                self._watch_subscriber_session(subscriber)
                leaf.load += 1
                created.append(subscriber)
        finally:
            self.network.end_batch()
        self.subscribers.extend(created)
        return created

    def _attach_subscribers_aggregate(
        self, count: int, config: MoqtSessionConfig, host_prefix: str
    ) -> list[TreeSubscriber]:
        """Counted attach: identical placement, one connection per leaf group.

        Placement is planned with the same (load, index) least-loaded rule
        the dense loop applies sequentially, so per-leaf populations — and
        therefore every multiplied statistic — match the dense run exactly.
        Span-sampled indices (``index % subscriber_sample_every == 0`` under
        an active tracer) are materialised dense immediately so latency
        breakdowns keep real per-subscriber delivery timestamps; everyone
        else rides a representative with ``multiplicity = group size``.
        Connection IDs come from index-derived private RNG streams, leaving
        the global seeded stream untouched (creating 1M subscribers or 26
        stand-ins draws the same zero values from it).
        """
        leaves = self.alive_leaves()
        if not leaves:
            raise RuntimeError("no alive leaf relays to attach subscribers to")
        telemetry = getattr(self.network, "telemetry", None)
        stride = 0
        if telemetry is not None and telemetry.spans is not None:
            stride = telemetry.spans.subscriber_sample_every
        start = self._subscribers_created
        assignments = plan_leaf_assignments(leaves, count, start)
        self._subscribers_created += count
        # Per-index plan built ascending so self.subscribers keeps the dense
        # run's ordering (ascending by index).
        plan: dict[int, tuple[RelayNode, AggregateLeaf | None]] = {}
        for leaf, indices in zip(leaves, assignments):
            if not indices:
                continue
            leaf.load += len(indices)
            sampled = [i for i in indices if stride and i % stride == 0]
            counted = [i for i in indices if not (stride and i % stride == 0)]
            for index in sampled:
                plan[index] = (leaf, None)
            group = None
            if len(counted) == 1:
                plan[counted[0]] = (leaf, None)
            elif counted:
                group = AggregateLeaf(
                    leaf=leaf, member_indices=counted, host_prefix=host_prefix
                )
                plan[counted[0]] = (leaf, group)
            # Dense-identical TLS ticket issuance.  The dense run hands this
            # leaf's k-th arriving subscriber ticket id base+k; reserve
            # exactly those ids for the connections that really open here
            # (ascending index = per-leaf arrival order) and jump the
            # counter past the whole population so post-churn reconnects
            # also draw dense-identical ids.  The ids are decimal strings
            # on the wire, so the width difference between the counted
            # members' dense tickets and the representative's — the one
            # per-member heterogeneity in an otherwise replicated handshake
            # — is recorded as this group's exact byte deficit.
            context = leaf.relay.server_tls
            base = context.next_ticket_id - 1
            dense_ticket = {
                index: base + position + 1 for position, index in enumerate(indices)
            }
            real = sorted(sampled + counted[:1])
            context.queue_ticket_ids(
                [dense_ticket[index] for index in real], base + len(indices) + 1
            )
            if group is not None:
                rep_width = len(str(dense_ticket[counted[0]]))
                group.handshake_byte_deficit = sum(
                    len(str(dense_ticket[index])) for index in counted
                ) - len(counted) * rep_width
        created: list[TreeSubscriber] = []
        self.network.begin_batch()
        try:
            for index in sorted(plan):
                leaf, group = plan[index]
                host = self.network.add_host(f"{host_prefix}-{index}")
                self.network.connect(leaf.host, host, self.spec.subscriber_link)
                session = self._open_subscriber_session(
                    host, leaf, config, rng=random.Random(index)
                )
                multiplicity = group.multiplicity if group is not None else 1
                subscriber = TreeSubscriber(
                    index=index,
                    host=host,
                    session=session,
                    leaf=leaf,
                    config=config,
                    multiplicity=multiplicity,
                )
                self._watch_subscriber_session(subscriber)
                if group is not None:
                    group.representative = subscriber
                    self.aggregates.append(group)
                    self._groups_by_rep[subscriber] = group
                    downlink = self.network.link(leaf.host.address, host.address)
                    downlink.multiplicity = multiplicity
                    # ServerHellos flow leaf -> subscriber, so the ticket-id
                    # width correction lands on the downlink only.
                    downlink.extra_bytes = group.handshake_byte_deficit
                    self.network.link(host.address, leaf.host.address).multiplicity = multiplicity
                created.append(subscriber)
        finally:
            self.network.end_batch()
        self.subscribers.extend(created)
        return created

    @property
    def subscriber_population(self) -> int:
        """Total subscribers represented (dense count plus multiplicities)."""
        return sum(subscriber.multiplicity for subscriber in self.subscribers)

    def split_subscriber(self, subscriber_index: int) -> TreeSubscriber:
        """Materialise one aggregated member as a live dense subscriber.

        The member gets its own host, session (index-derived connection-ID
        stream) and cloned dedupe/recovery state, re-subscribes to every
        live track with the standard resume-and-gap-FETCH machinery, and is
        inserted into :attr:`subscribers` at its index position.  Raises
        ``ValueError`` for indices that are not currently aggregated.
        """
        for group in self.aggregates:
            if group.dissolved or subscriber_index not in group.member_indices:
                continue
            member = group.split(self, subscriber_index, connect=True)
            insort(self.subscribers, member, key=lambda s: s.index)
            return member
        raise ValueError(f"subscriber {subscriber_index} is not aggregated")

    def _open_subscriber_session(
        self,
        host: Host,
        leaf: RelayNode,
        config: MoqtSessionConfig,
        rng: random.Random | None = None,
    ) -> MoqtSession:
        endpoint = QuicEndpoint(host, rng=rng)
        connection_config = self.subscriber_connection
        if connection_config is None:
            connection_config = ConnectionConfig(alpn_protocols=(MOQT_ALPN,))
        connection = endpoint.connect(leaf.address, connection_config)
        return MoqtSession(connection, is_client=True, config=config)

    def _watch_subscriber_session(self, subscriber: TreeSubscriber) -> None:
        """Surface the subscriber session's in-band liveness to the topology."""
        subscriber.session.on_liveness = (
            lambda session, old, new, sub=subscriber: self._on_subscriber_liveness(
                sub, session, new
            )
        )

    def subscribe_all(
        self,
        full_track_name: FullTrackName,
        on_object: Callable[[TreeSubscriber, MoqtObject], None] | None = None,
        subscribers: list[TreeSubscriber] | None = None,
    ) -> list[Subscription]:
        """Subscribe every (given or attached) subscriber to one track."""
        targets = subscribers if subscribers is not None else self.subscribers
        subscriptions: list[Subscription] = []
        self.network.begin_batch()
        try:
            for subscriber in targets:
                callback = None
                if on_object is not None:
                    callback = lambda obj, sub=subscriber: on_object(sub, obj)
                subscriptions.append(subscriber.subscribe_track(full_track_name, callback))
                group = self._groups_by_rep.get(subscriber)
                if group is not None:
                    # Remember the raw two-arg callback so a member
                    # materialised later delivers to the same application
                    # hook the dense subscriber would have.
                    group.record_track_callback(len(subscriber.tracks) - 1, on_object)
        finally:
            self.network.end_batch()
        return subscriptions

    # -------------------------------------------------------------- flash crowd
    def flash_crowd(
        self,
        count: int,
        window: float,
        full_track_name: FullTrackName,
        on_object: Callable[[TreeSubscriber, MoqtObject], None] | None = None,
        session_config: MoqtSessionConfig | None = None,
        host_prefix: str = "storm",
        retry: RetryPolicy | None = None,
        leaf: "RelayNode | None" = None,
    ) -> FlashCrowdStorm:
        """Inject a subscribe storm: ``count`` joins inside ``window`` seconds.

        Join ``i`` fires at ``now + (i * window) / count`` (evenly spaced,
        all strictly inside the window); each join creates a host below the
        least-loaded alive leaf — or below ``leaf`` when one is pinned,
        modelling the geographically concentrated crowd that slams a single
        edge relay — opens a session and subscribes to ``full_track_name``
        under the admission retry contract:

        * a ``TOO_MANY_SUBSCRIBERS`` rejection waits the advertised
          ``retry_after`` (the relay's reservation makes exactly one retry
          sufficient) or, absent a hint, a jittered exponential backoff
          drawn from the seeded simulator RNG;
        * before retrying the original leaf, the subscriber spills to the
          least-loaded *non-saturated* sibling leaf (bounded by
          ``retry.max_spillovers``), turning local overload into tree-wide
          load spreading;
        * ``retry.max_attempts`` rejections turn the record terminal —
          :meth:`FlashCrowdStorm.raise_for_failures` surfaces
          :class:`~repro.moqt.errors.AdmissionRejectedError` after the run.

        Returns immediately with the (empty) storm object; run the
        simulator to let the joins fire and drain.
        """
        if count < 1:
            raise ValueError(f"flash crowd needs at least one subscriber: {count}")
        if window < 0:
            raise ValueError(f"storm window must be non-negative: {window}")
        simulator = self.network.simulator
        config = session_config if session_config is not None else self.session_config
        policy = retry if retry is not None else RetryPolicy()
        storm = FlashCrowdStorm(
            count=count,
            window=window,
            started_at=simulator.now,
            full_track_name=full_track_name,
        )
        for index in range(count):
            simulator.call_later(
                (index * window) / count,
                self._storm_join,
                storm,
                config,
                host_prefix,
                on_object,
                policy,
                leaf,
            )
        return storm

    def _storm_join(
        self,
        storm: FlashCrowdStorm,
        config: MoqtSessionConfig,
        host_prefix: str,
        on_object: Callable[[TreeSubscriber, MoqtObject], None] | None,
        retry: RetryPolicy,
        pinned_leaf: "RelayNode | None" = None,
    ) -> None:
        """One storm participant arrives: host, link, session, subscribe."""
        index = self._subscribers_created
        self._subscribers_created += 1
        leaf = pinned_leaf if pinned_leaf is not None else self._pick_leaf()
        host = self.network.add_host(f"{host_prefix}-{index}")
        self.network.connect(leaf.host, host, self.spec.subscriber_link)
        session = self._open_subscriber_session(host, leaf, config)
        subscriber = TreeSubscriber(
            index=index, host=host, session=session, leaf=leaf, config=config
        )
        self._watch_subscriber_session(subscriber)
        leaf.load += 1
        self.subscribers.append(subscriber)
        storm.subscribers.append(subscriber)
        record = AdmissionRecord(
            name=host.address,
            leaf=leaf.host.address,
            joined_at=self.network.simulator.now,
        )
        storm.records.append(record)
        callback = None
        if on_object is not None:
            callback = lambda obj, sub=subscriber: on_object(sub, obj)
        self._admission_subscribe(subscriber, storm, record, callback, retry)

    def _admission_subscribe(
        self,
        subscriber: TreeSubscriber,
        storm: FlashCrowdStorm,
        record: AdmissionRecord,
        on_object: Callable[[MoqtObject], None] | None,
        retry: RetryPolicy,
    ) -> None:
        """Subscribe with the bounded retry / spillover admission contract."""
        simulator = self.network.simulator
        track = _SubscriberTrack(
            full_track_name=storm.full_track_name, on_object=on_object
        )
        subscriber.tracks.append(track)

        def attempt() -> None:
            record.attempts += 1
            # Always subscribe on the *current* session — spillover swaps it.
            track.subscription = subscriber.session.subscribe(
                storm.full_track_name,
                on_object=lambda obj, t=track: subscriber.deliver(t, obj),
                on_response=on_response,
            )

        def on_response(subscription: Subscription) -> None:
            if subscription.is_active:
                record.leaf = subscriber.leaf.host.address
                record.mark_admitted(simulator.now)
                return
            if subscription.error_code != int(SubscribeErrorCode.TOO_MANY_SUBSCRIBERS):
                # A hard (non-admission) refusal: no amount of backoff will
                # change the answer, so the record turns terminal at once.
                record.terminal = True
                return
            if "queue" in subscription.error_reason:
                record.queue_rejections += 1
            else:
                record.rejections += 1
            if record.attempts >= retry.max_attempts:
                record.terminal = True
                return
            if record.spillovers < retry.max_spillovers:
                target = self._pick_spillover_leaf(subscriber.leaf)
                if target is not None:
                    # Re-route to a sibling with headroom before retrying
                    # the original: the new session's handshake provides the
                    # natural pacing, no timer needed.
                    record.spillovers += 1
                    self._spill_subscriber(subscriber, target)
                    attempt()
                    return
            if subscription.retry_after_ms > 0:
                delay = subscription.retry_after_ms / 1000.0
            else:
                rejections = record.rejections + record.queue_rejections
                delay = retry.backoff_delay(rejections, simulator.rng)
            record.retry_schedule.append(simulator.now + delay)
            simulator.call_later(delay, attempt)

        attempt()

    def _pick_spillover_leaf(self, current: RelayNode) -> RelayNode | None:
        """Least-loaded alive sibling leaf that would admit a fresh arrival.

        Saturation is a pure peek at each candidate's admission controller
        (no token consumed, no reservation made); leaves without admission
        control are never saturated.  Returns None when every sibling is
        saturated — the caller falls back to backoff on the current leaf.
        """
        now = self.network.simulator.now
        candidates = []
        for node in self.alive_leaves():
            if node is current:
                continue
            controller = node.relay.admission
            if controller is not None and controller.saturated(
                now, node.relay.pending_subscribe_count()
            ):
                continue
            candidates.append(node)
        if not candidates:
            return None
        return min(candidates, key=lambda node: (node.load, node.index))

    def _spill_subscriber(self, subscriber: TreeSubscriber, target: RelayNode) -> None:
        """Move a not-yet-admitted subscriber under another leaf.

        The admission sibling of :meth:`_reattach_subscriber`: the old
        session closes (releasing its token reservation at the old leaf —
        the relay forgets reservations on session close), the link to the
        new leaf is created on first use, and loads move with the
        subscriber.  No track re-subscription happens here — the caller
        retries the SUBSCRIBE itself on the fresh session.
        """
        old_leaf = subscriber.leaf
        if not subscriber.session.closed:
            subscriber.session.close("admission spillover")
        old_leaf.load -= 1
        if not self.network.has_link(target.host.address, subscriber.host.address):
            self.network.connect(target.host, subscriber.host, self.spec.subscriber_link)
        config = subscriber.config if subscriber.config is not None else self.session_config
        subscriber.session = self._open_subscriber_session(subscriber.host, target, config)
        self._watch_subscriber_session(subscriber)
        subscriber.leaf = target
        target.load += 1

    # -------------------------------------------------------------- membership
    def add_relay(self, tier: str | int, parent: RelayNode | None = None) -> RelayNode:
        """Grow a tier by one relay while the tree runs.

        The new relay hangs below ``parent`` (least-loaded alive relay in
        the tier above when omitted) and aggregates lazily: it subscribes
        upstream when its first downstream subscriber arrives, so joining is
        free until the relay is actually used.
        """
        tier_index = self._tier_index(tier)
        tier_spec = self.spec.tiers[tier_index]
        if parent is not None:
            if tier_index == 0:
                raise ValueError("tier-0 relays attach to the origin, not a parent relay")
            if not parent.alive:
                raise ValueError(f"parent {parent.host.address} is not alive")
            if parent.tier_index != tier_index - 1:
                raise ValueError(
                    f"parent {parent.host.address} is in tier {parent.tier_name!r}, "
                    f"not the tier above {tier_spec.name!r}"
                )
        number = self._tier_created[tier_index]
        host = self.network.add_host(f"{self.spec.host_prefix}-{tier_spec.name}-{number}")
        return self._add_node(tier_index, host, parent=parent, connect=True)

    def remove_relay(self, node: RelayNode, reason: str = "relay leaving") -> FailoverEvent:
        """Gracefully drain a relay out of the tree.

        Its subtree migrates first — child relays switch their uplink,
        subscribers re-attach — while the relay still answers, then the
        relay closes its sessions and releases its ports.
        """
        self._check_alive(node)
        node.alive = False
        event = self._evacuate(node, cause="leave")
        event.reason = reason
        node.failure_event = event
        node.relay.shutdown(reason)
        return event

    def kill_relay(self, node: RelayNode, reason: str = "relay crashed") -> FailoverEvent:
        """Crash a relay mid-stream and fail its subtree over immediately.

        The crash itself is silent — the relay vanishes without a close
        frame, exactly like :meth:`crash_relay` — but this method doubles as
        the control-plane oracle the E12 churn experiment measures: the
        topology re-homes every orphan in the same instant, so the measured
        re-attach latency is the pure 3-RTT floor with zero detection cost.
        Use :meth:`crash_relay` (fault injection only) plus in-band liveness
        reporting (:meth:`report_failure`) when detection itself is under
        test (E13).  ``reason`` is recorded on the returned event — the
        crash itself is silent, so no reason ever reaches the wire.
        """
        self._check_alive(node)
        node.alive = False
        node.crashed_at = self.network.simulator.now
        node.relay.crash()
        event = self._evacuate(node, cause="kill")
        event.reason = reason
        node.failure_event = event
        return event

    def crash_relay(self, node: RelayNode) -> None:
        """Silently crash a relay *without telling the topology controller*.

        Pure fault injection: the node's process vanishes (no close frames,
        no callbacks, ports unbound) and no failover runs.  Recovery happens
        only when some orphan's transport notices — consecutive probe
        timeouts or an idle expiry — and calls :meth:`report_failure`, which
        is the E13 in-band detection path.  ``node.alive`` deliberately stays
        True: the controller does not know yet.
        """
        if node.crashed_at is not None or not node.alive:
            raise ValueError(f"relay {node.host.address} already left the tree")
        node.crashed_at = self.network.simulator.now
        node.relay.crash()

    def _check_alive(self, node: RelayNode) -> None:
        if not node.alive:
            raise ValueError(f"relay {node.host.address} already left the tree")

    # ------------------------------------------------------ in-band detection
    def _on_relay_uplink_dying(self, relay: MoqtRelay, cause: str) -> None:
        node = self._nodes_by_relay.get(relay)
        if node is None:
            return
        # The dead node is resolved *now*, at signal time: once the failover
        # has reparented this relay, any straggling liveness signal from the
        # replaced session is filtered at the relay layer, and the new
        # parent must never be blamed for the old one's death.  A terminal
        # no-surviving-parent outcome is recorded on the event before the
        # structured error is raised, so it is swallowed here: a transport
        # callback must never unwind the event loop.
        try:
            if node.parent is None:
                if self.origin_cluster is not None:
                    self.report_origin_failure(node, via=cause)
                # Without a replicated origin, nodes hanging directly off it
                # have no stand-in to fail over to; the relay's own error
                # paths handle the dead uplink.
                return
            self.report_failure(node.parent, via=cause)
        except NoSurvivingParentError:
            pass

    def _on_subscriber_liveness(
        self, subscriber: TreeSubscriber, session: MoqtSession, new: str
    ) -> None:
        if session is not subscriber.session or new == "healthy":
            return
        try:
            self.report_failure(subscriber.leaf, via=session.connection.liveness_cause)
        except NoSurvivingParentError:
            pass

    def report_failure(self, dead: RelayNode, via: str = "") -> FailoverEvent | None:
        """Some orphan's transport says ``dead`` is gone: run the failover.

        This is the in-band entry point to the same evacuation machinery the
        control-plane :meth:`kill_relay` oracle uses, minus the oracle: a
        relay whose uplink went suspect/dead, or a subscriber whose leaf
        session idled out, names the parent it lost (the wired liveness
        handlers resolve it at signal time) and the whole subtree of that
        parent is re-homed through the failover policy — pending subscribes
        included, which are re-issued through the new parent instead of
        erroring back.  Idempotent per dead node: the first report
        evacuates, later reporters get the same event back.

        The transport is trusted over the membership view: the controller
        may still believe the node is alive (that is the point of in-band
        detection), but an orphan that timed out on it knows better.  A
        false report against a healthy relay therefore *does* evacuate it —
        the inherent cost of oracle-free detection, bounded by choosing
        suspicion thresholds and idle timeouts well above healthy-path
        silence.
        """
        if dead.failure_event is not None:
            return dead.failure_event
        now = self.network.simulator.now
        dead.alive = False
        event = self._evacuate(dead, cause="detected")
        event.detected_via = via
        if dead.crashed_at is not None:
            event.detection_latency = now - dead.crashed_at
        dead.failure_event = event
        if event.error:
            # The evacuation stranded orphans (recorded on the event, which
            # never raises mid-teardown); surface the terminal outcome as a
            # structured error rather than returning as if re-homed.
            raise NoSurvivingParentError(
                f"failover of {dead.host.address} stranded orphans: {event.error}",
                event,
            )
        return event

    def report_origin_failure(
        self, reporter: RelayNode, via: str = ""
    ) -> FailoverEvent | None:
        """A tier-0 relay's transport says its *origin* is gone: promote.

        The origin-tier twin of :meth:`report_failure`, with the same
        determinism contract:

        * **first detector wins** — the first report deposes the dead
          active, elects the lowest-index alive standby, increments the
          cluster epoch and re-points every tier-0 uplink (pending
          subscribes transplant exactly as in a relay-tier switch);
        * **idempotent** — later reporters of the same death get the
          recorded event back;
        * **stale reports from an old epoch are ignored** — a reporter
          naming an origin that is no longer the active (its death has
          already been promoted around) gets that origin's recorded event
          and triggers nothing.

        The reporter names the origin through its own uplink address,
        resolved at signal time, so a relay already switched to the new
        active can never depose it with a straggling signal.  Raises
        :class:`NoSurvivingParentError` (after recording the terminal
        event) when no standby survives to promote.
        """
        cluster = self.origin_cluster
        if cluster is None:
            raise RuntimeError("report_origin_failure needs an origin cluster")
        dead = cluster.origin_at(reporter.relay.upstream_address)
        if dead is None:
            return None
        if dead is not cluster.active or dead.failure_event is not None:
            # Already promoted around (stale epoch) or already being handled
            # by the first detector: hand back the recorded event.
            return dead.failure_event
        now = self.network.simulator.now
        event = FailoverEvent(
            cause="detected", node=dead.host.address, tier="origin", at=now
        )
        event.detected_via = via
        if dead.crashed_at is not None:
            event.detection_latency = now - dead.crashed_at
        # Recorded before the election runs: a re-entrant report from
        # another tier-0 relay noticing the same death mid-promotion hits
        # the idempotency guard above.
        dead.failure_event = event
        self.events.append(event)
        dead_address = dead.address
        promotion = cluster.promote(via=via, detection_latency=event.detection_latency)
        if promotion is None:
            event.error = "no-surviving-origin"
            self._strand_origin_orphans(dead_address, event, now)
            raise NoSurvivingParentError(
                f"origin {dead.host.address} died with no surviving standby",
                event,
            )
        event.epoch = promotion.epoch
        # The topology's origin pointer follows the election: later tier-0
        # joins and grandparent fallbacks anchor on the *current* active.
        self.origin = cluster.address
        for node in self.tiers[0]:
            if not node.alive or node.relay.upstream_address != dead_address:
                continue
            record = FailoverRecord(
                kind="relay",
                name=node.host.address,
                tier=node.tier_name,
                new_parent=cluster.active.host.address,
                detached_at=now,
            )
            event.records.append(record)
            has_live_tracks = any(
                track.downstream or track.awaiting_upstream
                for track in node.relay.tracks().values()
            )
            node.relay.switch_upstream(
                self.origin,
                on_track_reattached=lambda track, r=record: r.mark_reattached(
                    self.network.simulator.now
                ),
            )
            if not has_live_tracks:
                record.mark_reattached(now)
        return event

    def _strand_origin_orphans(
        self, dead_address: Address, event: FailoverEvent, now: float
    ) -> None:
        """Record and cleanly terminate tier-0 relays with no origin left."""
        for node in self.tiers[0]:
            if not node.alive or node.relay.upstream_address != dead_address:
                continue
            event.records.append(
                FailoverRecord(
                    kind="relay",
                    name=node.host.address,
                    tier=node.tier_name,
                    new_parent="",
                    detached_at=now,
                )
            )
            # Fail the relay's pending subscribes/fetches back downstream
            # instead of leaving them wedged on a session nobody will ever
            # answer: subscribers observe clean terminal errors, not hangs.
            node.relay.abandon_upstream("no surviving origin")

    # ---------------------------------------------------------------- failover
    def _evacuate(self, node: RelayNode, cause: str) -> FailoverEvent:
        now = self.network.simulator.now
        event = FailoverEvent(
            cause=cause, node=node.host.address, tier=node.tier_name, at=now
        )
        if node.parent is not None and node.parent.alive:
            node.parent.load -= 1
        if self.aggregates:
            # A dying leaf stops being homogeneous: dissolve its aggregate
            # groups *before* orphan re-homing, so every member fails over
            # individually (ascending by index — the exact order the dense
            # run's subscriber list yields) through the standard path below.
            self._dissolve_aggregates_on(node)
        if node.tier_index + 1 < len(self.tiers):
            for child in self.tiers[node.tier_index + 1]:
                if child.alive and child.parent is node:
                    self._reparent_relay(child, node, event, now)
        for subscriber in self.subscribers:
            if subscriber.leaf is node:
                self._failover_subscriber(subscriber, event, now)
        self.events.append(event)
        return event

    def _dissolve_aggregates_on(self, node: RelayNode) -> None:
        """Materialise every member aggregated on ``node`` (it is dying)."""
        members: list[TreeSubscriber] = []
        for group in self.aggregates:
            representative = group.representative
            if group.dissolved or representative is None or representative.leaf is not node:
                continue
            members.extend(group.dissolve(self))
        if members:
            self.subscribers.extend(members)
            self.subscribers.sort(key=lambda subscriber: subscriber.index)

    def _reparent_relay(
        self, child: RelayNode, dead: RelayNode, event: FailoverEvent, now: float
    ) -> None:
        new_parent = self.failover_policy.choose_parent(self, child, dead)
        if new_parent is None and dead.parent is not None and dead.parent.alive:
            new_parent = dead.parent
        if new_parent is not None:
            upstream = new_parent.address
            anchor: Host = new_parent.host
            parent_name = new_parent.host.address
            new_parent.load += 1
        else:
            # No surviving relay above: attach straight to the origin — but
            # only to an origin that is actually there.  With a replicated
            # origin whose last member is gone, "attach to the origin" would
            # silently wire orphans to a dead address; record the stranded
            # orphan (the structured NoSurvivingParentError is raised by
            # report_failure once the event is complete) and terminate the
            # child's uplink cleanly instead.
            origin_anchor = self._origin_anchor()
            if origin_anchor is None:
                event.error = event.error or "no-surviving-parent"
                event.records.append(
                    FailoverRecord(
                        kind="relay",
                        name=child.host.address,
                        tier=child.tier_name,
                        new_parent="",
                        detached_at=now,
                    )
                )
                child.relay.abandon_upstream("no surviving parent")
                return
            upstream = self.origin
            anchor = origin_anchor
            parent_name = self.origin.host
        if not self.network.has_link(anchor.address, child.host.address):
            self.network.connect(anchor, child.host, self.spec.tiers[child.tier_index].uplink)
        child.parent = new_parent
        record = FailoverRecord(
            kind="relay",
            name=child.host.address,
            tier=child.tier_name,
            new_parent=parent_name,
            detached_at=now,
        )
        event.records.append(record)
        has_live_tracks = any(
            track.downstream or track.awaiting_upstream
            for track in child.relay.tracks().values()
        )
        child.relay.switch_upstream(
            upstream,
            on_track_reattached=lambda track, r=record: r.mark_reattached(
                self.network.simulator.now
            ),
        )
        if not has_live_tracks:
            # A lazy relay with nothing subscribed has no SUBSCRIBE_OK to
            # wait for: re-pointing its uplink completes the failover.
            record.mark_reattached(now)

    def _origin_anchor(self) -> Host | None:
        """The origin host orphans may fall back to — None when it is gone.

        Without a replicated origin the singleton is assumed reachable:
        nothing in the topology can ever report it dead, so the historical
        attach-to-origin fallback stands.  With a cluster, the *membership
        view* decides (``alive``), not the crash oracle: a silently crashed
        but not-yet-detected active is still attached to — exactly as a
        not-yet-detected relay would be — and the subsequent in-band origin
        report re-homes those orphans through the promoted standby.  Only
        when the cluster's active has been deposed with no successor is
        there genuinely no origin left.
        """
        cluster = self.origin_cluster
        if cluster is None:
            return self.network.host(self.origin.host)
        if not cluster.active.alive:
            return None
        return cluster.active.host

    def _failover_subscriber(
        self, subscriber: TreeSubscriber, event: FailoverEvent, now: float
    ) -> None:
        if not self.alive_leaves():
            # Nowhere left to re-home: record the stranded orphan (the event
            # honestly reads incomplete) instead of raising mid-evacuation
            # with the dead relay already torn down.
            event.error = event.error or "no-surviving-parent"
            event.records.append(
                FailoverRecord(
                    kind="subscriber",
                    name=subscriber.host.address,
                    tier="subscribers",
                    new_parent="",
                    detached_at=now,
                )
            )
            return
        new_leaf = self._pick_leaf()
        record = FailoverRecord(
            kind="subscriber",
            name=subscriber.host.address,
            tier="subscribers",
            new_parent=new_leaf.host.address,
            detached_at=now,
        )
        event.records.append(record)
        self._reattach_subscriber(subscriber, new_leaf, record)

    def _reattach_subscriber(
        self, subscriber: TreeSubscriber, new_leaf: RelayNode, record: FailoverRecord
    ) -> None:
        """Move a subscriber to a new leaf: fresh session, re-subscribe every
        track, and fill the delivery gap with a FETCH from the leaf's cache."""
        if not subscriber.session.closed:
            subscriber.session.close("leaf relay lost")
        if not self.network.has_link(new_leaf.host.address, subscriber.host.address):
            self.network.connect(new_leaf.host, subscriber.host, self.spec.subscriber_link)
        config = subscriber.config if subscriber.config is not None else self.session_config
        subscriber.session = self._open_subscriber_session(subscriber.host, new_leaf, config)
        self._watch_subscriber_session(subscriber)
        subscriber.leaf = new_leaf
        subscriber.reattach_count += 1
        new_leaf.load += 1
        restored = 0
        for track in subscriber.tracks:
            if track.subscription is not None and track.subscription.state == "done":
                continue  # the application unsubscribed; nothing to restore
            self._resubscribe_subscriber_track(subscriber, track, record)
            restored += 1
        if restored == 0:
            # Nothing to re-subscribe: the re-homing itself completes the
            # failover (otherwise the record would wait on a SUBSCRIBE_OK
            # that will never come and the event would never read complete).
            record.mark_reattached(self.network.simulator.now)

    def _resubscribe_subscriber_track(
        self,
        subscriber: TreeSubscriber,
        track: _SubscriberTrack,
        record: FailoverRecord | None,
    ) -> None:
        # Resume from the last delivered object (inclusive — the dedupe set
        # drops the boundary).  A subscriber that never received anything
        # falls back to the old subscription's advertised live position:
        # later objects are gap, earlier ones are pre-join history.
        resume_from = track.largest
        if (
            resume_from is None
            and track.subscription is not None
            and track.subscription.largest is not None
        ):
            previous = track.subscription.largest
            resume_from = Location(previous.group_id, previous.object_id + 1)
        if resume_from is not None:
            track.recovery.arm()
        else:
            subscriber.flush_track(track)

        def on_response(
            subscription: Subscription,
            sub: TreeSubscriber = subscriber,
            t: _SubscriberTrack = track,
            resume: Location | None = resume_from,
            rec: FailoverRecord | None = record,
        ) -> None:
            if not subscription.is_active:
                sub.flush_track(t)
                return
            if rec is not None:
                rec.mark_reattached(self.network.simulator.now)
            if resume is None or not t.recovery.active:
                return
            # The resume point rides along (inclusive range) and is dropped
            # by the subscriber's duplicate filter.
            sub.gap_fetches += 1
            issued_on = sub.session
            issued_on.fetch(
                t.full_track_name,
                resume,
                OPEN_RANGE_END,
                on_complete=lambda fetch_request, s=sub, tr=t, sess=issued_on: s.finish_gap_fetch(
                    tr, fetch_request, sess
                ),
            )

        track.subscription = subscriber.session.subscribe(
            track.full_track_name,
            on_object=lambda obj, s=subscriber, t=track: s.deliver(t, obj),
            on_response=on_response,
        )
