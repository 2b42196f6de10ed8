"""Layer-boundary spans for the benchmark's traced run.

The traced run wraps the calls that cross from one package of ``repro`` into
another — public entry points and the callbacks one layer registers with
another (QUIC timer callbacks, the QUIC-to-MoQT stream-data hook, MoQT's
``on_object`` into relaynet and core, the zone-change listener into core).
Each wrapper opens a span of its layer; a layer's self time is the time its
spans run minus the time spans they cause run.  Time outside every span is
the benchmark's own.

Nothing in ``src/`` changes: :meth:`LayerTracer.install` replaces the class
attributes and module globals in place, so it must run before the objects
that capture bound methods (connections, sessions, zones) are built, and in
a process that is thrown away afterwards — the benchmark installs it in a
forked round.

Spans are not stored one by one: at a few million per round that would cost
more memory than the workload.  The tracer keeps, per phase, each layer's
summed self time and each boundary's call count.
"""

from __future__ import annotations

import sys
import time
from importlib import import_module

LAYERS = ("netsim", "quic", "moqt", "relaynet", "core", "dns")
#: Index of the benchmark's own code in the self-time vectors.
BENCH = len(LAYERS)

#: Every wrapped boundary, as ``module:Class.attribute`` or ``module:function``.
#: The span's layer is the package after ``repro.``.
BOUNDARIES = (
    "repro.netsim.simulator:Simulator.run",
    "repro.netsim.simulator:Simulator.call_at",
    "repro.netsim.simulator:Timer.start",
    "repro.netsim.node:Host.send",
    "repro.netsim.network:Network.end_batch",
    "repro.netsim.network:Network.add_host",
    "repro.netsim.network:Network.connect",
    "repro.quic.endpoint:QuicEndpoint.__init__",
    "repro.quic.endpoint:QuicEndpoint.connect",
    "repro.quic.endpoint:QuicEndpoint.datagram_received",
    "repro.quic.connection:QuicConnection.open_stream",
    "repro.quic.connection:QuicConnection.send_stream_data",
    "repro.quic.connection:QuicConnection.send_encoded_stream",
    "repro.quic.connection:QuicConnection.send_datagram_frame",
    "repro.quic.connection:QuicConnection.close",
    "repro.quic.connection:QuicConnection._on_loss_timeout",
    "repro.quic.connection:QuicConnection._on_idle_timeout",
    "repro.quic.connection:QuicConnection._on_keepalive",
    "repro.quic.packet:Packet.decode",
    "repro.moqt.session:MoqtSession.__init__",
    "repro.moqt.session:MoqtSession._on_stream_data",
    "repro.moqt.session:MoqtSession._on_datagram",
    "repro.moqt.session:MoqtSession._on_connection_closed",
    "repro.moqt.session:MoqtSession._on_connection_liveness",
    "repro.moqt.session:MoqtSession.subscribe",
    "repro.moqt.session:MoqtSession.fetch",
    "repro.moqt.session:MoqtSession.joining_fetch",
    "repro.moqt.session:MoqtSession.publish",
    "repro.moqt.session:MoqtSession.publish_preencoded",
    "repro.moqt.relay:MoqtRelay._on_downstream_connection",
    "repro.moqt.origin:OriginPublisher.push",
    "repro.relaynet.builder:RelayTreeBuilder.build",
    "repro.relaynet.builder:RelayTree.attach_subscribers",
    "repro.relaynet.topology:TreeSubscriber.subscribe_track",
    "repro.relaynet.topology:TreeSubscriber.deliver",
    "repro.relaynet.stats:RelayNetStats.collect",
    "repro.core.auth_server:MoqAuthoritativeServer.__init__",
    "repro.core.auth_server:MoqAuthoritativeServer._on_zone_change",
    "repro.core.auth_server:_AuthDelegate.handle_subscribe",
    "repro.core.auth_server:_AuthDelegate.handle_fetch",
    "repro.core.forwarder:MoqForwarder.__init__",
    "repro.core.forwarder:MoqForwarder.resolve",
    "repro.core.forwarder:MoqForwarder._on_push",
    "repro.core.recursive:MoqRecursiveResolver.__init__",
    "repro.core.recursive:MoqRecursiveResolver.resolve",
    "repro.core.recursive:MoqRecursiveResolver.moqt_subscribe_fetch",
    "repro.core.recursive:MoqRecursiveResolver._on_upstream_push",
    "repro.core.recursive:_ResolutionTask._on_delegation",
    "repro.core.recursive:_ResolutionTask._on_final",
    "repro.core.encapsulation:encapsulate_response",
    "repro.core.encapsulation:decapsulate_response",
    "repro.dns.zone:Zone.add",
    "repro.dns.zone:Zone.replace_rrset",
    "repro.dns.zone:Zone.lookup",
    "repro.dns.message:Message.to_wire",
    "repro.dns.message:Message.from_wire",
    "repro.dns.name:Name.from_text",
    "repro.dns.name:Name.is_subdomain_of",
    "repro.dns.rr:ResourceRecord.to_text",
)
#: Count slot for decoded QUIC packets that elicit no ACK (ACK-only).
ACK_ONLY = "quic.ack_only_packets"
PHASES = ("setup", "run")


class LayerTracer:
    """Per-phase layer self time and boundary call counts."""

    def __init__(self) -> None:
        self._names = [boundary.partition(":")[2] for boundary in BOUNDARIES] + [ACK_ONLY]
        slots = len(self._names)
        # Phase None collects what runs between the timed phases.
        self._self_s = {phase: [0.0] * (BENCH + 1) for phase in (*PHASES, None)}
        self._calls = {phase: [0] * slots for phase in (*PHASES, None)}
        self._times = self._self_s[None]
        self._counts = self._calls[None]
        self._layer = BENCH
        self._stack: list[int] = []
        self._mark = time.perf_counter()

    # ---------------------------------------------------------------- phases
    def set_phase(self, phase: str | None) -> None:
        """Charge the time so far to the old phase; later time to ``phase``."""
        now = time.perf_counter()
        self._times[self._layer] += now - self._mark
        self._mark = now
        self._times = self._self_s[phase]
        self._counts = self._calls[phase]

    def report(self) -> dict[str, dict[str, dict[str, float]]]:
        """``self_s[phase][layer]`` and ``calls[phase][boundary]``."""
        return {
            "self_s": {
                phase: dict(zip((*LAYERS, "bench"), self._self_s[phase])) for phase in PHASES
            },
            "calls": {phase: dict(zip(self._names, self._calls[phase])) for phase in PHASES},
        }

    # -------------------------------------------------------------- wrapping
    def own(self, function):
        """Wrap one of the benchmark's callbacks as a span of its own code."""
        return self._wrap(function, BENCH, None)

    def _wrap(self, function, layer: int, slot: int | None, observe=None):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            now = clock()
            tracer._times[tracer._layer] += now - tracer._mark
            if slot is not None:
                tracer._counts[slot] += 1
            stack.append(tracer._layer)
            tracer._layer = layer
            tracer._mark = now
            try:
                result = function(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            finally:
                now = clock()
                tracer._times[tracer._layer] += now - tracer._mark
                tracer._layer = stack.pop()
                tracer._mark = now

        return traced

    def install(self) -> None:
        """Wrap every boundary in place (irreversible for this process)."""
        ack_only = self._names.index(ACK_ONLY)

        def count_ack_only(packet) -> None:
            if not packet.is_ack_eliciting:
                self._counts[ack_only] += 1

        for slot, boundary in enumerate(BOUNDARIES):
            module_name, _, qualname = boundary.partition(":")
            layer = LAYERS.index(module_name.split(".")[1])
            module = import_module(module_name)
            observe = count_ack_only if qualname == "Packet.decode" else None
            if "." not in qualname:
                original = getattr(module, qualname)
                traced = self._wrap(original, layer, slot, observe)
                # Rebind every ``from module import name`` copy too.
                for name, loaded in list(sys.modules.items()):
                    if name.startswith("repro") and getattr(loaded, qualname, None) is original:
                        setattr(loaded, qualname, traced)
                continue
            class_name, _, attribute = qualname.partition(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, slot, observe))
            else:
                wrapped = self._wrap(raw, layer, slot, observe)
            setattr(owner, attribute, wrapped)
