"""The relay-run kernel shared by the relay experiments E11–E16.

Every relay experiment runs the same skeleton; only its fault schedule,
its closed-form comparison and its result rows differ.  :class:`TreeRun`
owns the skeleton:

* **build** — a seeded :class:`~repro.netsim.simulator.Simulator`, a
  network with a null trace recorder (the experiments read link
  statistics, never traces), the origin (an
  :class:`~repro.relaynet.origincluster.OriginCluster` when
  ``spec.origins > 1``), the :class:`~repro.relaynet.topology.RelayTopology`,
  the subscribers with one subscription each, and a settle run;
* **push** — numbered record updates from group 2 onward (the origin seeds
  group 1), one every :data:`UPDATE_INTERVAL` of virtual time;
* **tally** — per-subscriber delivery sequences (expanded over counted
  aggregate leaves), gapless and delivered counts, the relays' and
  subscribers' duplicate and recovery counters, false-positive and
  control-plane failovers, and the end-of-run telemetry scrape.

The build order is the one every experiment has always used: seeded RNG
draws and event order depend on it, and the contract digests in the test
suite pin the outputs.  Telemetry is observational only: the span tracer is
cleared first (one tracer can serve several seeded runs) and records
timestamps without scheduling events or drawing randomness.

The detection and re-attach closed forms E12–E14 compare against are built
here too (:func:`detection_models`, :func:`recovery_models`), because
several experiments share them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.churn import RecoveryModel, recovery_model
from repro.analysis.detection import DetectionModel
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder
from repro.quic.connection import ConnectionConfig
from repro.relaynet import OriginCluster, RelayNetStats, RelayTreeSpec, expand_member_sequences
from repro.relaynet.admission import AdmissionPolicy
from repro.relaynet.topology import FailoverPolicy, RelayTopology
from repro.telemetry import Telemetry
from repro.telemetry.collect import collect_run

#: Virtual time between pushed updates (keeps pushes distinguishable in
#: traces without affecting byte counts on links without a bandwidth limit).
UPDATE_INTERVAL = 0.25

#: Floating-point slack when comparing simulator timestamps against a
#: closed-form model (the simulator and the model associate the same sums
#: differently).
MODEL_TOLERANCE = 1e-9


def update_payload(group_id: int, payload_size: int) -> bytes:
    """The payload of update ``group_id``: a repeated stem cut to size."""
    stem = f"update-{group_id}-".encode()
    return (stem * (payload_size // len(stem) + 1))[:payload_size]


@dataclass
class Window:
    """What one measured update window (push, then drain) saw."""

    #: Statistics delta over the window (setup traffic excluded).
    delta: RelayNetStats
    #: Objects the origin pushed during the window.
    origin_objects: int
    #: Objects delivered to subscriber callbacks during the window.
    delivered: int


@dataclass
class Tally:
    """Delivery and recovery totals after the final drain."""

    #: Updates pushed over the whole run.
    updates: int
    #: Per-subscriber delivered group sequences, keyed by subscriber index.
    sequences: dict[int, list[int]]
    #: Subscribers whose sequence is exactly the published one (gapless,
    #: duplicate-free, in order).
    gapless: int
    delivered: int
    expected: int
    #: Duplicates suppressed below the application: at re-homed relays and
    #: at re-attached subscribers (the FETCH/live overlap).
    relay_duplicates: int
    subscriber_duplicates: int
    recovery_fetches: int
    recovered_objects: int
    subscriber_gap_fetches: int
    uplink_failures_detected: int
    #: Failover events whose node was never crashed.
    false_positives: int
    #: Failovers that ran through the announced control-plane paths.
    control_plane_kills: int


class TreeRun:
    """One seeded relay-tree run, built and settled on construction.

    ``sequences`` keeps every subscriber's delivered group ids (E12–E14);
    ``timestamps`` keeps every delivery's virtual time per group (E15).
    Either way :attr:`delivered` counts deliveries, each once per
    subscriber the receiving object stands in for (multiplicity is 1
    everywhere in dense mode).
    """

    def __init__(
        self,
        spec: RelayTreeSpec,
        subscribers: int,
        seed: int,
        *,
        settle: float = 3.0,
        payload_size: int = 300,
        telemetry: Telemetry | None = None,
        aggregate_leaves: bool = False,
        failover_policy: FailoverPolicy | None = None,
        uplink_connection: ConnectionConfig | None = None,
        subscriber_connection: ConnectionConfig | None = None,
        downstream_connection: ConnectionConfig | None = None,
        admission: AdmissionPolicy | None = None,
        sequences: bool = False,
        timestamps: bool = False,
    ) -> None:
        self.population = subscribers
        self.payload_size = payload_size
        self.telemetry = telemetry
        self.simulator = Simulator(seed=seed)
        self.network = Network(
            self.simulator, trace=NullTraceRecorder(self.simulator), telemetry=telemetry
        )
        if telemetry is not None and telemetry.spans is not None:
            telemetry.spans.clear()
        self.cluster: OriginCluster | None = None
        if spec.origins > 1:
            self.cluster = OriginCluster(
                self.network, origins=spec.origins, standby_link=spec.tiers[0].uplink
            )
            self.publisher = self.cluster.publisher
            self._push = self.cluster.push
        else:
            self.publisher = build_origin(self.network)
            self._push = self.publisher.push
        self.topology = RelayTopology(
            self.network,
            Address(ORIGIN_HOST, ORIGIN_PORT),
            spec,
            failover_policy=failover_policy,
            uplink_connection=uplink_connection,
            subscriber_connection=subscriber_connection,
            downstream_connection=downstream_connection,
            origin_cluster=self.cluster,
            aggregate_leaves=aggregate_leaves,
            admission=admission,
        )
        self.topology.attach_subscribers(subscribers)
        self.delivered = 0
        self.sequences: dict[int, list[int]] | None = None
        if sequences:
            self.sequences = {sub.index: [] for sub in self.topology.subscribers}
            if aggregate_leaves:
                # A materialised member inherits its representative's
                # delivery history — under the aggregate invariant that
                # history *is* the member's own.  Copied before the member
                # sees any new traffic.
                self.topology.on_subscriber_split = self._copy_sequence
        self.delivery_times: dict[int, list[float]] | None = {} if timestamps else None
        self.topology.subscribe_all(TRACK, on_object=self._on_object)
        self.next_group = 2
        #: Virtual time of every push, in push order.
        self.push_times: list[float] = []
        self.advance(settle)

    def _copy_sequence(self, member, representative) -> None:
        self.sequences[member.index] = list(self.sequences[representative.index])

    def _on_object(self, subscriber, obj: MoqtObject) -> None:
        self.delivered += subscriber.multiplicity
        if self.sequences is not None:
            self.sequences[subscriber.index].append(obj.group_id)
        if self.delivery_times is not None:
            self.delivery_times.setdefault(obj.group_id, []).append(self.simulator.now)

    # ------------------------------------------------------------------ drive
    def advance(self, seconds: float) -> None:
        """Run the simulator ``seconds`` of virtual time forward."""
        self.simulator.run(until=self.simulator.now + seconds)

    def push(self, count: int) -> None:
        """Push ``count`` updates, one every :data:`UPDATE_INTERVAL`."""
        for _ in range(count):
            group_id = self.next_group
            self.push_times.append(self.simulator.now)
            self._push(
                MoqtObject(
                    group_id=group_id,
                    object_id=0,
                    payload=update_payload(group_id, self.payload_size),
                )
            )
            self.next_group += 1
            self.advance(UPDATE_INTERVAL)

    def measure(self, updates: int, drain: float = 3.0) -> Window:
        """Push ``updates`` objects, drain, and measure the window."""
        before = RelayNetStats.collect(self.topology)
        origin_before = self.publisher.objects_sent
        delivered_before = self.delivered
        self.push(updates)
        self.advance(drain)
        return Window(
            delta=RelayNetStats.collect(self.topology).delta(before),
            origin_objects=self.publisher.objects_sent - origin_before,
            delivered=self.delivered - delivered_before,
        )

    # ------------------------------------------------------------------ tally
    def collect_telemetry(self) -> None:
        """Scrape the run's metrics into the telemetry registry, if any."""
        if self.telemetry is not None:
            collect_run(
                self.telemetry.metrics, self.network, self.topology, origin_cluster=self.cluster
            )

    def tally(self, crashed: set[str] = frozenset()) -> Tally:
        """Count deliveries and recovery work after the final drain.

        ``crashed`` names the nodes the fault schedule took down; a
        failover event for any other node is a false positive.
        """
        topology = self.topology
        received = self.sequences
        if topology.aggregate_leaves:
            received = expand_member_sequences(topology, received)
        updates = self.next_group - 2
        expected_sequence = list(range(2, self.next_group))
        nodes = topology.nodes()
        subscribers = topology.subscribers
        self.collect_telemetry()
        return Tally(
            updates=updates,
            sequences=received,
            gapless=sum(1 for groups in received.values() if groups == expected_sequence),
            delivered=sum(len(groups) for groups in received.values()),
            expected=self.population * updates,
            relay_duplicates=sum(node.relay.statistics.duplicate_objects_dropped for node in nodes),
            subscriber_duplicates=sum(
                sub.duplicates_dropped * sub.multiplicity for sub in subscribers
            ),
            recovery_fetches=sum(node.relay.statistics.recovery_fetches for node in nodes),
            recovered_objects=sum(node.relay.statistics.recovered_objects for node in nodes),
            subscriber_gap_fetches=sum(sub.gap_fetches * sub.multiplicity for sub in subscribers),
            uplink_failures_detected=sum(
                node.relay.statistics.uplink_failures_detected for node in nodes
            ),
            false_positives=sum(1 for event in topology.events if event.node not in crashed),
            # Measured, not asserted: any failover that ran through the
            # announced control-plane paths (kill/leave) shows up here.
            control_plane_kills=sum(
                1 for event in topology.events if event.cause in ("kill", "leave")
            ),
        )


# ------------------------------------------------------------- closed forms
def recovery_models(
    spec: RelayTreeSpec, alpn_version_negotiation: bool
) -> dict[str, RecoveryModel]:
    """The 3-RTT re-attach floor per orphan tier: relays re-home over their
    own tier's uplink class, subscribers over the subscriber link."""
    models = {
        tier.name: recovery_model(tier.uplink.delay, alpn_version_negotiation)
        for tier in spec.tiers
    }
    models["subscribers"] = recovery_model(spec.subscriber_link.delay, alpn_version_negotiation)
    return models


def reattach_on_floor(
    latencies_by_tier: dict[str, list[float]], models: dict[str, RecoveryModel]
) -> bool:
    """Whether every orphan re-attached on its tier's 3-RTT floor."""
    for tier, latencies in latencies_by_tier.items():
        model = models.get(tier)
        if model is None:
            return False
        if any(abs(latency - model.reattach_latency) > MODEL_TOLERANCE for latency in latencies):
            return False
    return True


def detection_model_for_connection(connection, crashed_at: float) -> DetectionModel:
    """Snapshot a live connection's detector inputs at crash time.

    The bridge between the implementation-independent closed forms in
    :mod:`repro.analysis.detection` and a running
    :class:`~repro.quic.connection.QuicConnection`: the transport's timer
    deadlines, probe timeout and liveness constants become the model's
    inputs (a test pins the analysis-side default constants to the
    transport's, so drift between model and implementation stays visible).
    """
    idle_deadline = connection.idle_deadline
    if idle_deadline is None:
        raise ValueError("connection is closed; nothing left to detect with")
    return DetectionModel(
        crashed_at=crashed_at,
        probe_timeout=connection.probe_timeout,
        next_send_at=connection.keepalive_deadline,
        idle_deadline=idle_deadline,
        suspect_after=connection.LIVENESS_SUSPECT_AFTER,
        backoff_cap=connection.PTO_BACKOFF_EXPONENT_CAP,
        idle_timeout=connection.config.idle_timeout,
    )


def detection_models(connections, now: float) -> list[DetectionModel]:
    """Model the in-band detector of each orphan connection at crash time.

    The closed forms assume a quiescent connection (nothing already
    unacknowledged when the peer dies); the experiments schedule their
    crashes between update bursts so that holds, and fail loudly if not.
    Orphans without a transport (lazy relays that never subscribed — too
    few subscribers for the tree) have nothing to detect with and are
    skipped; at least one observable orphan is required.
    """
    models = []
    for connection in connections:
        if connection is None:
            continue
        if connection.unacked_packets:
            raise RuntimeError(
                "crash scheduled while data was in flight; the closed-form "
                "detection model does not apply"
            )
        models.append(detection_model_for_connection(connection, now))
    if not models:
        raise ValueError(
            "no orphan holds a live uplink/session to the crash victim — "
            "the tree is too sparse for in-band detection (attach more "
            "subscribers so every edge relay subscribes upstream)"
        )
    return models
