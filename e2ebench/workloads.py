"""The benchmark's three workloads, one seeded round each.

A round generates its inputs from the seed, builds the system and lets
every client join (the timed set-up phase), then injects an open-loop input
schedule in virtual time and drains it (the timed measured phase).  It
checks the program's outputs and returns one flat result dictionary:

* ``setup_s`` / ``run_s`` — wall-clock seconds of the two phases,
  ``run_slices_s``, the measured phase's wall seconds per ``SLICE_S`` of
  virtual time, and ``probe_s``, how fast the host ran right before each
  slice (see ``run_sliced``);
* virtual-time results: update and join latency percentiles, read
  freshness, traffic per update and per delivery, delivery and failure
  counts;
* ``counters`` — per-layer work counts read from the program's own
  statistics after the round;
* ``errors`` — every correctness miss, as text (empty when correct).

Everything except the wall-clock fields is a pure function of the seed.
The sizes below set how much work one round measures; ``scale`` shrinks
them for warm-up and the determinism check.  ``branch``, when given, is
called once the set-up phase has ended; the benchmark runner uses it to
fork the measured phase off one finished set-up several times.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import replace

from repro.analysis.fanout import fanout_model
from repro.core.auth_server import MoqAuthoritativeServer
from repro.core.forwarder import MoqForwarder
from repro.core.mapping import DnsQuestionKey
from repro.core.recursive import MoqRecursiveResolver
from repro.dns.name import Name
from repro.dns.rdata import ARdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import RecordType
from repro.dns.zone import Zone
from repro.experiments.relay_fanout import calibrate_bytes_per_update
from repro.moqt.objectmodel import MoqtObject
from repro.moqt.origin import ORIGIN_HOST, ORIGIN_PORT, TRACK, build_origin
from repro.netsim.link import LinkConfig
from repro.netsim.network import Network
from repro.netsim.packet import Address
from repro.netsim.simulator import Simulator
from repro.netsim.trace import NullTraceRecorder
from repro.relaynet import RelayNetStats, RelayTreeBuilder, RelayTreeSpec
from repro.workload.change_model import ChangeModel, ChangeModelConfig
from repro.workload.queries import QueryModel, QueryModelConfig
from repro.workload.toplist import SyntheticToplist, ToplistConfig

#: Payload bytes of one pushed update on the pub/sub workloads.
PAYLOAD_SIZE = 300
#: The ``RelayTreeSpec.cdn()`` shape every workload runs on.
MID_RELAYS = 4
EDGE_PER_MID = 4
EDGES = MID_RELAYS * EDGE_PER_MID
CORE_DELAY = 0.020
METRO_DELAY = 0.010
#: One-way delay range (seconds) of client access links.  On the pub/sub
#: workloads every subscriber of one edge shares that edge's delay, so
#: fan-out batching still sees one arrival slot per edge and wave.
ACCESS_DELAY_RANGE = (0.003, 0.009)
#: Virtual seconds a round waits for its joins before the missing ones
#: count as failed.
JOIN_DEADLINE = 15.0
#: Virtual seconds per timed slice of the measured phase.
SLICE_S = 0.002


def access_delays(rng: random.Random, count: int) -> list[float]:
    """``count`` seeded access delays, one per equal stratum of the range.

    Stratifying keeps the delay distribution's quantiles — and so the
    latency percentiles built on them — steady from seed to seed, while
    every delay is still a fresh draw.
    """
    low, high = ACCESS_DELAY_RANGE
    width = (high - low) / count
    delays = [low + (stratum + rng.random()) * width for stratum in range(count)]
    rng.shuffle(delays)
    return delays


class Strata(random.Random):
    """A generator whose ``random()`` returns preset points, in order.

    Handing it to a sampler that draws by inverse CDF from one ``random()``
    call (as ``QueryModel.sample_domain`` does) turns the sampler into a
    stratified one.
    """

    def __init__(self, points: list[float]) -> None:
        super().__init__(0)
        self._points = iter(points)

    def random(self) -> float:
        return next(self._points)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``inf`` when empty)."""
    if not values:
        return math.inf
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Phases:
    """Wall-clock phase timer that also tells the tracer which phase runs,
    and calls ``branch`` when the set-up phase ends."""

    def __init__(self, tracer=None, branch=None) -> None:
        self.tracer = tracer
        self.branch = branch
        self.seconds: dict[str, float] = {}
        self._name = ""
        self._start = 0.0

    def begin(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)
        self._name = name
        self._start = time.perf_counter()

    def end(self) -> None:
        self.seconds[self._name] = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.set_phase(None)
        if self._name == "setup" and self.branch is not None:
            self.branch()

    def own(self, function):
        """Mark a benchmark callback so the tracer charges it to the benchmark."""
        return function if self.tracer is None else self.tracer.own(function)


def run_until(simulator: Simulator, done, deadline: float, step: float = 0.05) -> None:
    """Advance virtual time in ``step`` slices until ``done()`` or ``deadline``."""
    while not done() and simulator.now < deadline:
        simulator.run(until=min(deadline, simulator.now + step))


def probe() -> float:
    """Wall seconds of a fixed pure-Python loop that calls nothing in ``repro``:
    a gauge of how fast the host runs at the moment, which no change to the
    program can move."""
    table: dict[int, int] = {}
    started = time.perf_counter()
    for number in range(300):
        table[number & 63] = table.get(number & 31, 0) + number
    return time.perf_counter() - started


def run_sliced(simulator: Simulator, end: float) -> dict[str, list[float]]:
    """Advance virtual time to ``end`` in ``SLICE_S`` slices.

    Returns ``run_slices_s``, the wall seconds of each slice (rounds are
    exact replicas, so slice *k* does the same work in every round and its
    times across rounds are comparable), and ``probe_s``, the wall seconds
    of ``probe()`` timed right before each slice, outside it.  The probe
    runs twice and only the second run is kept: a busy slice evicts the
    probe's code and data, which made a probe right after it a third slower,
    so a single probe would partly measure the program.
    """
    begin = simulator.now
    walls = []
    probes = []
    for number in range(1, math.ceil((end - begin) / SLICE_S - 1e-9) + 1):
        probe()
        probes.append(probe())
        started = time.perf_counter()
        simulator.run(until=min(end, begin + number * SLICE_S))
        walls.append(time.perf_counter() - started)
    return {"run_slices_s": walls, "probe_s": probes}


class Window:
    """Counter snapshot at the start of the measured phase."""

    def __init__(self, simulator: Simulator, network: Network, tree) -> None:
        self.events = simulator.events_scheduled
        self.links = network.total_link_statistics()
        self.tree = RelayNetStats.collect(tree)


def common_counters(
    simulator: Simulator, network: Network, tree, window: Window
) -> tuple[dict[str, float], int, RelayNetStats]:
    """Per-layer counters every workload reports, plus the run's wire bytes."""
    links = network.total_link_statistics()
    after = RelayNetStats.collect(tree)
    run = after.delta(window.tree)
    pool = network.datagram_pool.counters()
    taken = pool["datagrams_allocated"] + pool["datagrams_reused"]
    fetches = after.cache_hits + after.cache_misses
    counters = {
        "run_events": simulator.events_scheduled - window.events,
        "heap_compactions": simulator.compactions,
        "run_datagrams": links["datagrams_sent"] - window.links["datagrams_sent"],
        "pool_hit_rate": pool["datagrams_reused"] / taken if taken else 0.0,
        "batch_fallback_waves": network.link_batch_fallback_waves,
        "relay_cache_hit_rate": after.cache_hits / fetches if fetches else 0.0,
        "pending_subscribe_high_water": max(
            node.relay.statistics.pending_subscribe_high_water for node in tree.nodes()
        ),
    }
    return counters, links["bytes_sent"] - window.links["bytes_sent"], run


def round_result(
    phases: Phases,
    timing: dict[str, object],
    *,
    update_latencies: list[float],
    join_latencies: list[float],
    reads: int,
    stale_reads: int,
    deliveries: int,
    attempted: int,
    failed: int,
    updates: int,
    origin_bytes: int,
    wire_bytes: int,
    counters: dict[str, float],
    errors: list[str],
) -> dict[str, object]:
    """The round's result document (see the module docstring)."""
    return {
        "setup_s": phases.seconds["setup"],
        "run_s": phases.seconds["run"],
        **timing,
        "update_samples": len(update_latencies),
        "update_latency_p50_ms": percentile(update_latencies, 0.5) * 1000.0,
        "update_latency_p999_ms": percentile(update_latencies, 0.999) * 1000.0,
        "joins": len(join_latencies),
        "join_p50_ms": percentile(join_latencies, 0.5) * 1000.0,
        "join_p99_ms": percentile(join_latencies, 0.99) * 1000.0,
        "reads": reads,
        "stale_read_ratio": stale_reads / reads if reads else math.inf,
        "deliveries": deliveries,
        "attempted": attempted,
        "failed": failed,
        "updates": updates,
        "origin_bytes_per_update": origin_bytes / updates,
        "wire_bytes_per_delivery": wire_bytes / deliveries if deliveries else math.inf,
        "counters": counters,
        "errors": errors,
    }


# ------------------------------------------------------ pub/sub on the tree
def _fanout_round(
    seed: int,
    tracer,
    branch,
    *,
    subscribers: int,
    updates: int,
    spacing: float,
    reads: int,
    join_window: float,
    drain: float,
) -> dict[str, object]:
    """Dense ``TreeSubscriber``s on one track of the CDN tree.

    Joins: every subscriber opens its session at once and sends its
    SUBSCRIBE at a seeded instant of the join window.  Measured phase:
    ``updates`` origin pushes at fixed virtual spacing and ``reads`` of a
    seeded subscriber's newest object at seeded instants, all scheduled
    before the phase starts.

    Every subscriber must receive every update exactly once and in
    publication order, and the origin's egress must equal the closed form.
    """
    rng = random.Random(seed)
    edge_delays = access_delays(rng, EDGES)
    subscribe_at = [rng.uniform(0.0, join_window) for _ in range(subscribers)]
    read_plan = [
        (rng.uniform(0.0, updates * spacing), rng.randrange(subscribers)) for _ in range(reads)
    ]
    sim_seed = rng.randrange(2**31)
    bytes_per_update = calibrate_bytes_per_update(PAYLOAD_SIZE, seed=sim_seed)

    spec = RelayTreeSpec.cdn(
        mid_relays=MID_RELAYS,
        edge_per_mid=EDGE_PER_MID,
        core_link=LinkConfig(delay=CORE_DELAY),
        metro_link=LinkConfig(delay=METRO_DELAY),
        access_link=LinkConfig(delay=edge_delays[0]),
    )

    phases = Phases(tracer, branch)
    phases.begin("setup")
    simulator = Simulator(seed=sim_seed)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    publisher = build_origin(network)
    build_start = time.perf_counter()
    tree = RelayTreeBuilder(network, Address(ORIGIN_HOST, ORIGIN_PORT)).build(spec)
    # Placement is round-robin over the edges, so attaching one subscriber at
    # a time under the matching access spec gives each edge its own delay.
    network.begin_batch()
    try:
        for index in range(subscribers):
            tree.topology.spec = replace(
                spec, subscriber_link=LinkConfig(delay=edge_delays[index % EDGES])
            )
            tree.attach_subscribers(1)
    finally:
        network.end_batch()
    build_s = time.perf_counter() - build_start

    push_time: dict[int, float] = {}
    newest = [0] * subscribers
    received: list[set[int]] = [set() for _ in range(subscribers)]
    reordered = [0]
    update_latencies: list[float] = []
    join_latencies: list[float] = []

    @phases.own
    def on_object(index: int, obj: MoqtObject) -> None:
        group = obj.group_id
        pushed = push_time.get(group)
        if pushed is None:
            return  # the origin's initial object, delivered as part of the join
        received[index].add(group)
        if group < newest[index]:
            reordered[0] += 1
        else:
            newest[index] = group
        update_latencies.append(simulator.now - pushed)

    @phases.own
    def subscribe(subscriber) -> None:
        asked = simulator.now
        index = subscriber.index
        subscriber.subscribe_track(
            TRACK,
            on_object=lambda obj: on_object(index, obj),
            on_response=phases.own(
                lambda subscription: join_latencies.append(
                    simulator.now - asked if subscription.is_active else math.inf
                )
            ),
        )

    for subscriber, at in zip(tree.subscribers, subscribe_at):
        simulator.call_at(at, subscribe, subscriber)
    run_until(simulator, lambda: len(join_latencies) == subscribers, JOIN_DEADLINE)
    phases.end()

    window = Window(simulator, network, tree)
    origin_before = publisher.objects_sent
    stale = [0]
    phases.begin("run")
    start = simulator.now + spacing

    @phases.own
    def push(group: int) -> None:
        push_time[group] = simulator.now
        payload = (f"update-{group}-".encode() * PAYLOAD_SIZE)[:PAYLOAD_SIZE]
        publisher.push(MoqtObject(group_id=group, object_id=0, payload=payload))

    @phases.own
    def read(index: int) -> None:
        if push_time and newest[index] < len(push_time) + 1:
            stale[0] += 1

    for update in range(updates):
        simulator.call_at(start + update * spacing, push, update + 2)
    for at, index in read_plan:
        simulator.call_at(start + at, read, index)
    timing = run_sliced(simulator, start + updates * spacing + drain)
    phases.end()

    counters, wire_bytes, run = common_counters(simulator, network, tree, window)
    counters["build_s"] = build_s
    counters["origin_objects"] = publisher.objects_sent - origin_before
    counters["reordered_deliveries"] = reordered[0]
    expected = subscribers * updates
    delivered = len(update_latencies)
    failed_joins = subscribers - sum(1 for value in join_latencies if value != math.inf)
    errors = []
    if delivered != expected:
        errors.append(f"delivered {delivered} of {expected} objects")
    gapped = sum(1 for groups in received if len(groups) != updates)
    if gapped:
        errors.append(f"{gapped} subscribers miss part of the update sequence")
    if reordered[0]:
        errors.append(f"{reordered[0]} deliveries arrived after a later update")
    if failed_joins:
        errors.append(f"{failed_joins} of {subscribers} SUBSCRIBEs unanswered or refused")
    model = fanout_model(subscribers, updates, spec.tier_sizes(), bytes_per_update)
    if run.origin_egress_bytes != model.origin_egress_bytes:
        errors.append(
            f"origin egress {run.origin_egress_bytes} B != closed form "
            f"{model.origin_egress_bytes} B"
        )
    return round_result(
        phases,
        timing,
        update_latencies=update_latencies,
        join_latencies=join_latencies,
        reads=reads,
        stale_reads=stale[0],
        deliveries=delivered,
        attempted=expected + subscribers,
        failed=max(0, expected - delivered) + failed_joins,
        updates=updates,
        origin_bytes=run.origin_egress_bytes,
        wire_bytes=wire_bytes,
        counters=counters,
        errors=errors,
    )


def cdn_fanout(seed: int, tracer=None, scale: float = 1.0, branch=None) -> dict[str, object]:
    """Ideal links: the transport fast path, no DNS layer involved."""
    return _fanout_round(
        seed,
        tracer,
        branch,
        subscribers=max(EDGES, int(1500 * scale)),
        # With the origin's initial object, 15 updates are the most whose
        # QUIC stream IDs all fit a one-byte varint on the origin's links:
        # the closed form's per-update wire size holds exactly only there.
        updates=max(2, int(15 * scale)),
        spacing=0.25,
        reads=int(20_000 * scale),
        join_window=1.0,
        drain=1.0,
    )


# ----------------------------------------------------------- DNS over MoQT
ZONE = "cdn.example."


def _address_set(message) -> frozenset[str]:
    return frozenset(record.rdata.to_text() for record in message.answers)


def dns_propagation(
    seed: int, tracer=None, scale: float = 1.0, branch=None
) -> dict[str, object]:
    """An authoritative DNS-over-MoQT origin, resolvers and forwarders below.

    One ``MoqRecursiveResolver`` per edge relay (that relay is its root
    server) and ``forwarders`` ``MoqForwarder``s spread over the edges.  Each
    client cold-looks-up a Zipf-drawn set of names at seeded instants (the
    joins); the measured phase is a seeded stream of popularity-skewed
    ``Zone.replace_rrset`` changes with reads through ``resolve`` between
    them.
    """
    names = 100
    per_client = 8
    forwarders = max(EDGES, int(200 * scale))
    changes = max(4, int(160 * scale))
    change_rate = 50.0
    reads = int(30_000 * scale)
    join_window = 2.0
    drain = 1.0

    rng = random.Random(seed)
    toplist = SyntheticToplist(ToplistConfig(size=names, seed=rng.randrange(2**31)))
    popularity = QueryModel(toplist, QueryModelConfig(seed=rng.randrange(2**31)))

    def popular_name() -> int:
        return popularity.sample_domain(rng).rank - 1

    clients = EDGES + forwarders
    client_names: list[list[int]] = []
    for _ in range(clients):
        chosen: list[int] = []
        while len(chosen) < per_client:
            index = popular_name()
            if index not in chosen:
                chosen.append(index)
        client_names.append(chosen)
    client_delay = access_delays(rng, clients)
    lookup_at = [[rng.uniform(0.0, join_window) for _ in chosen] for chosen in client_names]
    model = ChangeModel(ChangeModelConfig(seed=rng.randrange(2**31), dynamic_fraction_low_ttl=1.0))
    processes = [model.process_for(index, ttl=60, addresses_per_answer=2) for index in range(names)]
    initial = [process.current_addresses() for process in processes]
    # Change targets are Zipf draws too, one per equal stratum of the
    # popularity distribution: how many holders the changed names have —
    # and so the run's delivery count — then barely moves with the seed.
    strata = Strata([(stratum + rng.random()) / changes for stratum in range(changes)])
    targets = [popularity.sample_domain(strata).rank - 1 for _ in range(changes)]
    rng.shuffle(targets)
    # Change instants: one seeded instant per equal slot of the phase, so the
    # phase lasts the same virtual time on every seed and changes of a
    # popular name do not bunch up on some seeds and spread out on others.
    horizon = changes / change_rate
    instants = [(slot + rng.random()) / change_rate for slot in range(changes)]
    change_plan: list[tuple[float, int, list[str]]] = []
    for at, index in zip(instants, targets):
        while not processes[index].advance():
            pass
        change_plan.append((at, index, processes[index].current_addresses()))
    read_plan = []
    for _ in range(reads):
        client = rng.randrange(clients)
        read_plan.append((rng.uniform(0.0, horizon), client, rng.choice(client_names[client])))
    sim_seed = rng.randrange(2**31)

    owner = [Name.from_text(f"n{index}.{ZONE}") for index in range(names)]
    keys = [DnsQuestionKey(qname=name, qtype=RecordType.A) for name in owner]

    phases = Phases(tracer, branch)
    phases.begin("setup")
    simulator = Simulator(seed=sim_seed)
    network = Network(simulator, trace=NullTraceRecorder(simulator))
    auth_host = network.add_host("auth.cdn.example")
    zone = Zone(ZONE)
    for name, addresses in zip(owner, initial):
        for address in addresses:
            zone.add(name, "A", address, ttl=60, bump=False)
    parent = Zone("example.")
    parent.add(Name.from_text("example."), "NS", "ns.cdn.example.", ttl=3600, bump=False)
    auth = MoqAuthoritativeServer(auth_host, [zone, parent])
    build_start = time.perf_counter()
    tree = RelayTreeBuilder(network, auth.address).build(
        RelayTreeSpec.cdn(mid_relays=MID_RELAYS, edge_per_mid=EDGE_PER_MID)
    )
    edges = tree.tier("edge")
    build_s = time.perf_counter() - build_start
    resolvers = []
    forwarder_list = []
    for client in range(clients):
        edge = edges[client % EDGES]
        host = network.add_host(f"client-{client}")
        network.connect(host, edge.host, LinkConfig(delay=client_delay[client]))
        if client < EDGES:
            resolvers.append(MoqRecursiveResolver(host, root_servers=[edge.address]))
        else:
            forwarder_list.append(MoqForwarder(host, recursive_moqt_address=edge.address))
    endpoints = resolvers + forwarder_list

    current = [frozenset(addresses) for addresses in initial]
    change_time: dict[int, float] = {}
    update_latencies: list[float] = []
    join_latencies: list[float] = []
    joins = clients * per_client

    @phases.own
    def on_update(key, record) -> None:
        changed = change_time.get(record.version)
        if changed is not None:
            update_latencies.append(simulator.now - changed)

    for forwarder in forwarder_list:
        forwarder.on_record_updated.append(on_update)

    @phases.own
    def cold_lookup(client: int, index: int) -> None:
        asked = simulator.now
        endpoint = endpoints[client]

        @phases.own
        def answered(message) -> None:
            join_latencies.append(simulator.now - asked if message is not None else math.inf)

        if client < EDGES:
            endpoint.resolve(keys[index], lambda outcome: answered(outcome.message))
        else:
            endpoint.resolve(keys[index], lambda message, version: answered(message))

    for client, chosen in enumerate(client_names):
        for index, when in zip(chosen, lookup_at[client]):
            simulator.call_at(when, cold_lookup, client, index)
    run_until(simulator, lambda: len(join_latencies) == joins, JOIN_DEADLINE)
    phases.end()

    window = Window(simulator, network, tree)
    auth_before = auth.statistics.updates_published
    resolver_pushes_before = sum(r.statistics.pushes_received for r in resolvers)
    stale = [0]
    answered_reads = [0]
    phases.begin("run")
    start = simulator.now

    @phases.own
    def change(index: int, addresses: list[str]) -> None:
        records = [
            ResourceRecord(owner[index], RecordType.A, ARdata(address), 60)
            for address in addresses
        ]
        zone.replace_rrset(RRset(owner[index], RecordType.A, records))
        change_time[zone.serial] = simulator.now
        current[index] = frozenset(addresses)

    @phases.own
    def read(client: int, index: int) -> None:
        @phases.own
        def answered(message) -> None:
            if message is None:
                return
            answered_reads[0] += 1
            if _address_set(message) != current[index]:
                stale[0] += 1

        if client < EDGES:
            endpoints[client].resolve(keys[index], lambda outcome: answered(outcome.message))
        else:
            endpoints[client].resolve(keys[index], lambda message, version: answered(message))

    for when, index, addresses in change_plan:
        simulator.call_at(start + when, change, index, addresses)
    for when, client, index in read_plan:
        simulator.call_at(start + when, read, client, index)
    timing = run_sliced(simulator, start + horizon + drain)
    phases.end()

    counters, wire_bytes, run = common_counters(simulator, network, tree, window)
    resolver_pushes = sum(r.statistics.pushes_received for r in resolvers) - resolver_pushes_before
    forwarder_pushes = sum(f.statistics.pushes_received for f in forwarder_list)
    forwarder_applied = len(update_latencies)
    holders = [0] * names
    for chosen in client_names:
        for index in chosen:
            holders[index] += 1
    expected = sum(holders[index] for _, index, _ in change_plan)
    deliveries = forwarder_applied + resolver_pushes
    failed_joins = joins - sum(1 for value in join_latencies if value != math.inf)
    errors = []
    if deliveries != expected:
        errors.append(f"applied {deliveries} of {expected} pushed changes")
    if failed_joins:
        errors.append(f"{failed_joins} of {joins} cold lookups failed or unanswered")
    if answered_reads[0] != reads:
        errors.append(f"answered {answered_reads[0]} of {reads} reads")
    wrong = 0
    for client, chosen in enumerate(client_names):
        for index in chosen:
            record = endpoints[client].record(keys[index])
            if record is None or _address_set(record.message) != current[index]:
                wrong += 1
    if wrong:
        errors.append(f"{wrong} final client records differ from the zone")
    forwarder_stats = [forwarder.statistics for forwarder in forwarder_list]
    resolver_stats = [resolver.statistics for resolver in resolvers]
    local = sum(s.local_answers for s in forwarder_stats) + sum(s.cache_hits for s in resolver_stats)
    asked = sum(s.local_answers + s.upstream_lookups for s in forwarder_stats) + sum(
        s.lookups for s in resolver_stats
    )
    counters.update(
        build_s=build_s,
        origin_objects=auth.statistics.updates_published - auth_before,
        auth_publishes=auth.statistics.updates_published - auth_before,
        fetches_served=auth.statistics.fetches_served,
        local_answer_ratio=local / asked if asked else 0.0,
        push_discard_ratio=(
            (forwarder_pushes - forwarder_applied) / forwarder_pushes if forwarder_pushes else 0.0
        ),
        upstream_lookups=sum(s.upstream_lookups for s in forwarder_stats)
        + sum(s.upstream_subscribe_fetch for s in resolver_stats),
        failures=sum(s.failures for s in forwarder_stats) + sum(s.failures for s in resolver_stats),
    )
    return round_result(
        phases,
        timing,
        update_latencies=update_latencies,
        join_latencies=join_latencies,
        reads=reads,
        stale_reads=stale[0],
        deliveries=deliveries,
        attempted=expected + joins + reads,
        failed=max(0, expected - deliveries) + failed_joins + (reads - answered_reads[0]),
        updates=changes,
        origin_bytes=run.origin_egress_bytes,
        wire_bytes=wire_bytes,
        counters=counters,
        errors=errors,
    )


WORKLOADS = {
    "cdn_fanout": cdn_fanout,
    "dns_propagation": dns_propagation,
}
