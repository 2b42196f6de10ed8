#!/usr/bin/env python3
"""CDN relay trees: one origin serving a thousand resolvers (§3, §5.3).

The paper's answer to "how does one authoritative server push DNS updates to
millions of resolvers?" is MoQT's relay fan-out: payload-oblivious relays
arranged in a tree, each tier aggregating its subtree into a single upstream
subscription.  This walkthrough builds the CDN shape with
``repro.relaynet`` — origin -> 4 mid relays -> 16 edge relays -> 1,000
subscribed resolvers — pushes a batch of record updates, and shows:

* per-tier link traffic, measured on the simulated links and compared with
  the closed-form model in ``repro.analysis.fanout``;
* origin egress staying at O(branching factor) while a unicast origin would
  send one copy per subscriber;
* a late resolver's FETCH being answered from an edge relay's cache without
  ever reaching the origin.

Run with:  python examples/cdn_relay_tree.py
"""

from __future__ import annotations

from repro.analysis.fanout import fanout_model
from repro.experiments.relay_fanout import run_relay_fanout
from repro.experiments.report import format_table
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.moqt.session import MOQT_ALPN, MoqtSession
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.quic.connection import ConnectionConfig
from repro.quic.endpoint import QuicEndpoint
from repro.relaynet import RelayNetStats, RelayTreeBuilder, RelayTreeSpec


def fanout_scaling() -> None:
    print("== Scaling a 3-tier CDN tree: 4 mid + 16 edge relays ==\n")
    result = run_relay_fanout(subscriber_counts=(10, 100, 1000), updates=5)
    print(format_table(result.rows()))
    last = result.samples[-1]
    print(
        f"\n  origin egress stays at {last.measured_origin_objects} objects while a"
        f" unicast origin would send {last.model.unicast_messages} —"
        f" {last.model.origin_reduction_factor:.0f}x less origin traffic\n"
    )
    print("-- Per-tier link traffic (1,000 subscribers), measured vs model --")
    print(format_table(last.tier_rows()))
    print()


def edge_cache_walkthrough() -> None:
    print("== A late resolver joins: FETCH served from the edge cache ==\n")
    simulator = Simulator(seed=11)
    network = Network(simulator)
    publisher = build_origin(network)
    spec = RelayTreeSpec.cdn(mid_relays=2, edge_per_mid=2)
    tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(spec)
    tree.attach_subscribers(8)
    tree.subscribe_all(TRACK)
    simulator.run(until=simulator.now + 2.0)
    publisher.push(MoqtObject(group_id=2, object_id=0, payload=b"192.0.2.77 via edge"))
    simulator.run(until=simulator.now + 2.0)

    # A resolver that joins now fetches the current record version; the edge
    # relay answers from its cache, so the request never travels upstream.
    edge = tree.leaves()[0]
    late_host = network.add_host("late-resolver")
    network.connect(edge.host, late_host, spec.subscriber_link)
    connection = QuicEndpoint(late_host).connect(
        edge.address, ConnectionConfig(alpn_protocols=(MOQT_ALPN,))
    )
    late = MoqtSession(connection, is_client=True)
    fetched = []
    subscription = late.subscribe(TRACK)
    late.joining_fetch(subscription, 1, on_complete=lambda f: fetched.append(f))
    simulator.run(until=simulator.now + 2.0)

    stats = RelayNetStats.collect(tree)
    payload = fetched[0].objects[-1].payload.decode()
    print(f"  late resolver fetched {payload!r} in {simulator.now:.2f}s of virtual time")
    print(f"  answered from the edge cache: hits={stats.cache_hits} misses={stats.cache_misses}")
    print(f"  (the origin still only ever saw {len(publisher.sessions)} mid-tier sessions)\n")


def million_resolver_estimate() -> None:
    print("== Extrapolating to the paper's 'millions of resolvers' ==\n")
    model = fanout_model(
        subscribers=1_000_000, updates=1, tier_sizes=(10, 1000), bytes_per_update=340
    )
    print(
        "  1M resolvers behind 1,000 edge relays: one record change costs the origin"
        f" {model.origin_messages} pushes ({model.origin_egress_bytes / 1000:.1f} kB)"
    )
    print(
        f"  unicast would need {model.unicast_messages:,} pushes"
        f" ({model.unicast_origin_bytes / 1e6:.0f} MB) — the tree absorbs"
        f" {model.origin_reduction_factor:,.0f}x"
    )


def main() -> None:
    fanout_scaling()
    edge_cache_walkthrough()
    million_resolver_estimate()


if __name__ == "__main__":
    main()
