"""Dense-vs-aggregate equivalence canaries for the counted-leaf fan-out.

The aggregate-leaf representation (``repro.relaynet.aggregate``) claims
*exactness*: every statistic an experiment or collector reads from an
aggregate run — tier byte tables, origin egress, delivered objects, QUIC
and link totals, telemetry gauges, churn/detection/failover outputs — is
bit-identical to the dense run with the same seed.  These tests pin that
claim at 1k and 10k subscribers, across all four experiment batteries and
the telemetry scrape, and exercise materialise-on-demand (healthy splits
and leaf-death dissolution) directly at the topology layer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.failure_detection import run_failure_detection
from repro.experiments.origin_failover import run_origin_failover
from repro.experiments.relay_churn import run_relay_churn
from repro.experiments.relay_fanout import run_relay_fanout
from repro.experiments.tree_run import UPDATE_INTERVAL, update_payload
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.moqt.objectmodel import MoqtObject
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder
from repro.relaynet import RelayTreeBuilder, RelayTreeSpec
from repro.telemetry import MetricsRegistry, SpanTracer, Telemetry

#: Sample fields intentionally *different* under aggregation: the whole
#: point is to collapse scheduled events and pooled allocations.
_COLLAPSED_FIELDS = {"events_scheduled", "pool_counters", "compactions"}


def _assert_dataclasses_equal(dense, aggregate, skip=()):
    for field in dataclasses.fields(dense):
        if field.name in skip:
            continue
        assert getattr(dense, field.name) == getattr(aggregate, field.name), (
            f"field {field.name!r} diverged between dense and aggregate runs"
        )


# --------------------------------------------------------------------- E11
@pytest.mark.parametrize("subscribers", [1000, 10_000])
def test_fanout_identity(subscribers):
    dense = run_relay_fanout(subscriber_counts=(subscribers,)).samples[0]
    aggregate = run_relay_fanout(
        subscriber_counts=(subscribers,), aggregate_leaves=True
    ).samples[0]
    _assert_dataclasses_equal(dense, aggregate, skip=_COLLAPSED_FIELDS)
    # The collapse is the reason the mode exists: events must not scale
    # with the counted population.
    assert aggregate.events_scheduled < dense.events_scheduled / 10


def test_fanout_telemetry_gauge_identity():
    """Every exported gauge matches, with span sampling active (stride 101)."""

    def scrape(aggregate_leaves):
        telemetry = Telemetry(
            metrics=MetricsRegistry(), spans=SpanTracer(subscriber_sample_every=101)
        )
        result = run_relay_fanout(
            subscriber_counts=(1000,),
            telemetry=telemetry,
            aggregate_leaves=aggregate_leaves,
        )
        flat = {}
        for instrument in telemetry.metrics.collect():
            for child in instrument.children():
                flat[(instrument.name, child.label_values)] = child.value
        return flat, result.samples[0].latency

    dense, dense_latency = scrape(False)
    aggregate, aggregate_latency = scrape(True)
    assert dense.keys() == aggregate.keys()
    for key, value in dense.items():
        if key[0].startswith(("sim_", "pool_")):
            continue  # scheduler/pool counters collapse by design
        if key[0] == "relaynet_pending_subscribe_high_water":
            # A transient in-flight quantity, not a multiplied-out statistic:
            # a counted leaf parks ONE awaiting-upstream SUBSCRIBE where the
            # dense attach sequence parks up to N, so the high-water collapses
            # with the event count, by design.
            continue
        assert aggregate[key] == value, f"gauge {key} diverged"
    assert dense_latency == aggregate_latency


# ---------------------------------------------------------------- E12/13/14
def test_churn_identity():
    dense = run_relay_churn()
    aggregate = run_relay_churn(aggregate_leaves=True)
    _assert_dataclasses_equal(dense, aggregate, skip={"kills", "events"})
    assert dense.kills == aggregate.kills
    assert aggregate.gapless


def test_failure_detection_identity():
    dense = run_failure_detection()
    aggregate = run_failure_detection(aggregate_leaves=True)
    _assert_dataclasses_equal(dense, aggregate, skip={"samples"})
    assert dense.samples == aggregate.samples


def test_origin_failover_identity():
    dense = run_origin_failover()
    aggregate = run_origin_failover(aggregate_leaves=True)
    _assert_dataclasses_equal(dense, aggregate, skip={"promotions", "events"})


# ---------------------------------------------------------- topology layer
def _build_tree(aggregate_leaves, subscribers=1000, seed=23):
    simulator = Simulator(seed=seed)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    publisher = build_origin(network)
    builder = RelayTreeBuilder(
        network, Address(ORIGIN_HOST, ORIGIN_PORT), aggregate_leaves=aggregate_leaves
    )
    tree = builder.build(RelayTreeSpec.cdn(mid_relays=4, edge_per_mid=4))
    tree.attach_subscribers(subscribers)
    return simulator, network, publisher, tree


def test_aggregate_attach_shape():
    simulator, _, _, tree = _build_tree(True)
    # 16 leaves, 1000 subscribers, no span sampling: one representative per
    # leaf stands in for the whole leaf population.
    assert len(tree.subscribers) == 16
    assert len(tree.aggregates) == 16
    assert tree.subscriber_population == 1000
    assert sum(sub.multiplicity for sub in tree.subscribers) == 1000
    assert all(not group.dissolved for group in tree.aggregates)


def test_dense_path_untouched():
    _, _, _, tree = _build_tree(False)
    assert tree.aggregates == []
    assert len(tree.subscribers) == 1000
    assert all(sub.multiplicity == 1 for sub in tree.subscribers)
    assert tree.subscriber_population == 1000


def test_leaf_kill_splits_exactly_the_affected_members():
    """An E12-style kill dissolves only the dead leaf's group.

    Exactly its members materialise (everyone else stays counted), delivery
    stays gapless for the whole population, and the re-attach latency of
    every materialised member equals the closed-form model.
    """
    simulator, _, publisher, tree = _build_tree(True)
    received: dict[int, list[int]] = {sub.index: [] for sub in tree.subscribers}
    tree.topology.on_subscriber_split = lambda member, rep: received.__setitem__(
        member.index, list(received[rep.index])
    )
    tree.subscribe_all(
        TRACK, on_object=lambda sub, obj: received[sub.index].append(obj.group_id)
    )
    simulator.run(until=simulator.now + 3.0)
    for group_id in (2, 3, 4):
        publisher.push(
            MoqtObject(group_id=group_id, object_id=0, payload=update_payload(group_id, 300))
        )
        simulator.run(until=simulator.now + UPDATE_INTERVAL)

    victim = tree.tier("edge")[0]
    doomed = [g for g in tree.aggregates if g.representative.leaf is victim]
    assert len(doomed) == 1
    victim_members = list(doomed[0].member_indices)
    event = tree.kill_relay(victim)

    for group_id in (5, 6):
        publisher.push(
            MoqtObject(group_id=group_id, object_id=0, payload=update_payload(group_id, 300))
        )
        simulator.run(until=simulator.now + UPDATE_INTERVAL)
    simulator.run(until=simulator.now + 5.0)

    # Exactly the dead leaf's group dissolved; every other group is intact.
    assert doomed[0].dissolved
    assert sum(1 for group in tree.aggregates if group.dissolved) == 1
    dense_now = {sub.index for sub in tree.subscribers if sub.multiplicity == 1}
    assert set(victim_members) <= dense_now
    assert tree.subscriber_population == 1000

    # Gapless delivery for the whole (expanded) population.
    from repro.relaynet import expand_member_sequences

    expanded = expand_member_sequences(tree.topology, received)
    assert len(expanded) == 1000
    assert all(groups == [2, 3, 4, 5, 6] for groups in expanded.values())

    # Re-attach latency of every materialised member equals the closed-form
    # model: three round trips on the subscriber access link.
    from repro.analysis.churn import recovery_model

    spec = tree.topology.spec
    model = recovery_model(
        spec.subscriber_link.delay, tree.session_config.alpn_version_negotiation
    )
    latencies = event.latencies_by_tier()["subscribers"]
    assert len(latencies) == len(victim_members)
    assert all(latency == pytest.approx(model.reattach_latency) for latency in latencies)


def test_healthy_split_preserves_delivery():
    """A mid-run manual split keeps the member's delivery sequence exact."""
    simulator, _, publisher, tree = _build_tree(True)
    received: dict[int, list[int]] = {sub.index: [] for sub in tree.subscribers}
    tree.topology.on_subscriber_split = lambda member, rep: received.__setitem__(
        member.index, list(received[rep.index])
    )
    tree.subscribe_all(
        TRACK, on_object=lambda sub, obj: received[sub.index].append(obj.group_id)
    )
    simulator.run(until=simulator.now + 3.0)
    for group_id in (2, 3):
        publisher.push(
            MoqtObject(group_id=group_id, object_id=0, payload=update_payload(group_id, 300))
        )
        simulator.run(until=simulator.now + UPDATE_INTERVAL)

    group = tree.aggregates[0]
    target = group.member_indices[1]
    before = group.multiplicity
    member = tree.split_subscriber(target)
    assert member.index == target
    assert group.multiplicity == before - 1
    assert group.representative.multiplicity == before - 1
    simulator.run(until=simulator.now + 1.0)

    for group_id in (4, 5):
        publisher.push(
            MoqtObject(group_id=group_id, object_id=0, payload=update_payload(group_id, 300))
        )
        simulator.run(until=simulator.now + UPDATE_INTERVAL)
    simulator.run(until=simulator.now + 3.0)

    # The member saw the pre-split history (inherited) plus everything after
    # over its own connection, without duplicates.
    assert received[target] == [2, 3, 4, 5]
    assert received[group.representative.index] == [2, 3, 4, 5]


def test_split_rejects_non_member():
    _, _, _, tree = _build_tree(True)
    with pytest.raises(ValueError):
        tree.split_subscriber(10**9)
    representative = tree.aggregates[0].representative
    with pytest.raises(ValueError):
        tree.aggregates[0].split(tree.topology, representative.index)
