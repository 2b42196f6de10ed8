"""E15 — constrained tiers: the serialisation-vs-propagation knee (§3, §5.3).

E11 charts relay fan-out on ideal links; this experiment reruns the same
CDN tree with *finite per-tier bandwidth* and charts where realism starts to
bite.  Each fan-out hop then costs ``wire_bytes * 8 / bandwidth`` of
serialisation on top of its propagation delay, and as the swept bandwidth
drops there is a knee where the serialisation sum overtakes the propagation
sum — below it, link capacity (not distance) dominates delivery latency.

Two checks make the sweep trustworthy:

* the measured push-to-delivery time of every update at every subscriber
  must equal :class:`repro.analysis.constrained.ConstrainedPathModel`'s
  closed form **bit-exactly** (the model replays the simulator's float
  fold, see the module docstring there);
* the whole sweep must run without a single ``transmit_many`` fallback
  wave — constrained links batching is the tentpole bugfix this experiment
  exists to exercise.

A separate lossy sample puts independent random loss on the access tier and
a NewReno congestion controller on every relay's downstream side
(:mod:`repro.quic.congestion`), proving the loss-repair path end to end:
all updates are delivered despite drops, retransmissions and window
reductions are observable, and the fallback counter stays zero.

:func:`run_constrained_macro` scales the lossy regime to the E11 macro
population (100k subscribers) for the perf harness.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.analysis.constrained import ConstrainedPathModel, HopSpec, knee_index
from repro.experiments.relay_fanout import calibrate_bytes_per_update
from repro.experiments.tree_run import UPDATE_INTERVAL, TreeRun
from repro.moqt.session import MOQT_ALPN
from repro.netsim.link import LinkConfig
from repro.quic.congestion import NewRenoCongestionController
from repro.quic.connection import ConnectionConfig
from repro.relaynet import RelayTreeSpec

#: Per-tier propagation delays — identical to the unconstrained E11 CDN
#: defaults, so the only variable the sweep moves is bandwidth.
CORE_DELAY = 0.020
METRO_DELAY = 0.010
ACCESS_DELAY = 0.005

#: Descending bandwidth sweep (bits/s), applied to all three hops.  With the
#: calibrated 328 B per update the serialisation sum crosses the 35 ms
#: propagation sum between 250 and 200 kbit/s, so the knee lands mid-sweep.
DEFAULT_BANDWIDTH_SWEEP = (
    10_000_000.0,
    2_000_000.0,
    1_000_000.0,
    500_000.0,
    250_000.0,
    200_000.0,
    100_000.0,
    50_000.0,
)


def _constrained_spec(
    bandwidth: float | None,
    access_loss: float = 0.0,
    mid_relays: int = 4,
    edge_per_mid: int = 4,
) -> RelayTreeSpec:
    """The E11 CDN shape with finite per-tier bandwidth (and optional loss
    on the access tier — the lossy-edge regime)."""
    return RelayTreeSpec.cdn(
        mid_relays=mid_relays,
        edge_per_mid=edge_per_mid,
        core_link=LinkConfig(delay=CORE_DELAY, bandwidth=bandwidth),
        metro_link=LinkConfig(delay=METRO_DELAY, bandwidth=bandwidth),
        access_link=LinkConfig(
            delay=ACCESS_DELAY, bandwidth=bandwidth, loss_rate=access_loss
        ),
    )


#: Consecutive probe timeouts before a lossy-edge connection suspects its
#: peer.  The stock threshold of 2 is a *double-drop* signature: at 0.5 %
#: random loss it false-fires roughly once per 10k packets, and every false
#: suspicion evacuates an entire leaf's subscriber population.  Six PTOs
#: (``loss**6`` per packet, ~1e-14) keeps in-band failure detection armed
#: while making random loss statistically invisible to it.
LOSSY_SUSPECT_AFTER = 6


def _newreno_downstream() -> ConnectionConfig:
    """Downstream (fan-out sender side) configuration with NewReno installed."""
    return ConnectionConfig(
        alpn_protocols=(MOQT_ALPN,),
        liveness_suspect_after=LOSSY_SUSPECT_AFTER,
        congestion_controller=NewRenoCongestionController,
    )


def _lossy_subscriber() -> ConnectionConfig:
    """Subscriber-side configuration for lossy access links: same transport,
    desensitised failure detector (see :data:`LOSSY_SUSPECT_AFTER`)."""
    return ConnectionConfig(
        alpn_protocols=(MOQT_ALPN,),
        liveness_suspect_after=LOSSY_SUSPECT_AFTER,
    )


def calibrate_wire_bytes(payload_size: int, updates: int = 4, seed: int = 17) -> int:
    """Exact on-the-wire bytes of one pushed update (one datagram per hop).

    Same minimal one-relay, one-subscriber calibration as E11's byte model,
    but returning the integral per-update size the serialisation model
    needs — a non-integral result would mean the framing is not constant
    per update, which would invalidate the closed form, so it raises.
    """
    value = calibrate_bytes_per_update(payload_size, updates=updates, seed=seed)
    if not float(value).is_integer():
        raise RuntimeError(f"per-update wire size is not constant: {value}")
    return int(value)


@dataclass
class ConstrainedTierSample:
    """One bandwidth sweep point: measured vs. modelled delivery latency."""

    bandwidth: float
    subscribers: int
    updates: int
    model: ConstrainedPathModel
    #: Mean measured push-to-delivery latency (identical across updates and
    #: subscribers on the symmetric tree; kept as a float for the table).
    measured_latency: float
    #: Whether every delivery time equalled the closed form bit-exactly.
    model_exact: bool
    delivered: int
    link_batch_fallback_waves: int
    events_scheduled: int

    @property
    def serialisation_seconds(self) -> float:
        """Modelled per-update serialisation total along the path."""
        return self.model.serialisation_seconds

    @property
    def propagation_seconds(self) -> float:
        """Propagation total along the path (bandwidth-independent)."""
        return self.model.propagation_seconds

    @property
    def serialisation_dominates(self) -> bool:
        """Whether this sweep point sits at or past the knee."""
        return self.model.serialisation_dominates

    def as_row(self) -> dict[str, object]:
        return {
            "bandwidth_kbps": round(self.bandwidth / 1000.0, 1),
            "latency_ms": round(self.measured_latency * 1000.0, 3),
            "model_ms": round(self.model.delivery_latency() * 1000.0, 3),
            "serialisation_ms": round(self.serialisation_seconds * 1000.0, 3),
            "propagation_ms": round(self.propagation_seconds * 1000.0, 3),
            "dominates": self.serialisation_dominates,
            "model_exact": self.model_exact,
            "delivered": self.delivered,
            "fallback_waves": self.link_batch_fallback_waves,
        }


@dataclass
class ConstrainedMacroResult:
    """One lossy constrained run: NewReno on every relay's downstream side,
    independent loss on the access links, always dense."""

    subscribers: int
    updates: int
    delivered: int
    expected: int
    #: Sender-side QUIC retransmissions across the tree's fan-out hops
    #: during the update window (loss repair at work).
    retransmissions: int
    #: NewReno window reductions across the relays' downstream connections.
    congestion_events: int
    link_batch_fallback_waves: int
    events_scheduled: int

    @property
    def repaired(self) -> bool:
        """Whether loss repair delivered every update to every subscriber."""
        return self.delivered == self.expected

    def gates(self) -> dict[str, bool]:
        """Every pass/fail condition of the run, by name."""
        return {
            "repaired_ok": self.repaired,
            "zero_fallback_waves_ok": self.link_batch_fallback_waves == 0,
            "retransmissions_seen_ok": self.retransmissions > 0,
            "congestion_events_seen_ok": self.congestion_events > 0,
        }


@dataclass
class ConstrainedLossSample(ConstrainedMacroResult):
    """The E15 lossy-edge sample: one lossy run at one sweep point."""

    bandwidth: float
    access_loss: float

    def as_row(self) -> dict[str, object]:
        return {
            "bandwidth_kbps": round(self.bandwidth / 1000.0, 1),
            "loss": self.access_loss,
            "delivered": self.delivered,
            "expected": self.expected,
            "repaired": self.repaired,
            "retransmissions": self.retransmissions,
            "congestion_events": self.congestion_events,
            "fallback_waves": self.link_batch_fallback_waves,
        }


@dataclass
class ConstrainedTiersResult:
    """The full E15 sweep plus the lossy-edge sample."""

    samples: list[ConstrainedTierSample]
    loss_sample: ConstrainedLossSample
    wire_bytes: int

    @property
    def model_knee_index(self) -> int:
        """First sweep index where the model says serialisation dominates."""
        return knee_index([sample.model for sample in self.samples])

    @property
    def measured_knee_index(self) -> int:
        """First sweep index where *measured* latency minus propagation
        meets or exceeds propagation; ``-1`` if never."""
        for index, sample in enumerate(self.samples):
            if (
                sample.measured_latency - sample.propagation_seconds
                >= sample.propagation_seconds
            ):
                return index
        return -1

    @property
    def knee_matches_model(self) -> bool:
        """Whether the measured knee lands exactly on the modelled one."""
        return self.measured_knee_index == self.model_knee_index

    @property
    def all_model_exact(self) -> bool:
        """Whether every sweep point matched the closed form bit-exactly."""
        return all(sample.model_exact for sample in self.samples)

    @property
    def total_fallback_waves(self) -> int:
        """Fallback waves across the sweep and the lossy run (must be 0)."""
        return (
            sum(sample.link_batch_fallback_waves for sample in self.samples)
            + self.loss_sample.link_batch_fallback_waves
        )

    def rows(self) -> list[dict[str, object]]:
        """Per-sweep-point table rows."""
        return [sample.as_row() for sample in self.samples]

    def gates(self) -> dict[str, bool]:
        """Every pass/fail condition of the experiment, by name."""
        return {
            "all_model_exact_ok": self.all_model_exact,
            "knee_matches_model_ok": self.knee_matches_model,
            "zero_fallback_waves_ok": self.total_fallback_waves == 0,
            "loss_repaired_ok": self.loss_sample.repaired,
            "congestion_events_seen_ok": self.loss_sample.congestion_events > 0,
        }

    def summary_row(self) -> dict[str, object]:
        return {
            "wire_bytes": self.wire_bytes,
            "model_knee": self.model_knee_index,
            "measured_knee": self.measured_knee_index,
            "knee_matches": self.knee_matches_model,
            "all_model_exact": self.all_model_exact,
            "fallback_waves": self.total_fallback_waves,
            "loss_repaired": self.loss_sample.repaired,
            "loss_retransmissions": self.loss_sample.retransmissions,
            "congestion_events": self.loss_sample.congestion_events,
        }


def run_constrained_tiers(
    bandwidths: tuple[float, ...] = DEFAULT_BANDWIDTH_SWEEP,
    subscribers: int = 100,
    updates: int = 5,
    mid_relays: int = 4,
    edge_per_mid: int = 4,
    payload_size: int = 300,
    seed: int = 7,
    access_loss: float = 0.05,
) -> ConstrainedTiersResult:
    """Run the E15 bandwidth sweep plus one lossy-edge sample.

    ``bandwidths`` must descend: the knee indices are defined as *first
    index where serialisation dominates*, which is only meaningful on a
    monotone sweep.
    """
    if list(bandwidths) != sorted(bandwidths, reverse=True):
        raise ValueError(f"bandwidth sweep must descend: {bandwidths}")
    wire_bytes = calibrate_wire_bytes(payload_size, seed=seed + 1)
    samples: list[ConstrainedTierSample] = []
    for bandwidth in bandwidths:
        model = ConstrainedPathModel(
            hops=(
                HopSpec(delay=CORE_DELAY, bandwidth=bandwidth),
                HopSpec(delay=METRO_DELAY, bandwidth=bandwidth),
                HopSpec(delay=ACCESS_DELAY, bandwidth=bandwidth),
            ),
            wire_bytes=wire_bytes,
        )
        if not model.no_queueing_below(UPDATE_INTERVAL):
            raise ValueError(
                f"bandwidth {bandwidth} backlogs the FIFO at the push "
                f"interval {UPDATE_INTERVAL}; the closed form would not apply"
            )
        run = TreeRun(
            _constrained_spec(bandwidth, mid_relays=mid_relays, edge_per_mid=edge_per_mid),
            subscribers,
            seed,
            payload_size=payload_size,
            timestamps=True,
        )
        window = run.measure(updates)
        exact = True
        latency_total = 0.0
        latency_count = 0
        for group_id, push_time in enumerate(run.push_times, start=2):
            predicted = model.delivery_time(push_time)
            for delivered_at in run.delivery_times.get(group_id, ()):
                if delivered_at != predicted:
                    exact = False
                latency_total += delivered_at - push_time
                latency_count += 1
        samples.append(
            ConstrainedTierSample(
                bandwidth=bandwidth,
                subscribers=subscribers,
                updates=updates,
                model=model,
                measured_latency=latency_total / latency_count if latency_count else 0.0,
                model_exact=exact and latency_count == subscribers * updates,
                delivered=window.delivered,
                link_batch_fallback_waves=run.network.link_batch_fallback_waves,
                events_scheduled=run.simulator.events_scheduled,
            )
        )
    loss_bandwidth = bandwidths[len(bandwidths) // 2]
    loss_run = run_constrained_macro(
        subscribers=subscribers,
        updates=updates,
        mid_relays=mid_relays,
        edge_per_mid=edge_per_mid,
        payload_size=payload_size,
        seed=seed,
        bandwidth=loss_bandwidth,
        access_loss=access_loss,
    )
    loss_sample = ConstrainedLossSample(
        bandwidth=loss_bandwidth, access_loss=access_loss, **dataclasses.asdict(loss_run)
    )
    return ConstrainedTiersResult(
        samples=samples, loss_sample=loss_sample, wire_bytes=wire_bytes
    )


def run_constrained_macro(
    subscribers: int = 100_000,
    updates: int = 5,
    mid_relays: int = 4,
    edge_per_mid: int = 4,
    payload_size: int = 300,
    seed: int = 7,
    bandwidth: float = 2_000_000.0,
    access_loss: float = 0.005,
) -> ConstrainedMacroResult:
    """E11's macro population on constrained, lossy tiers.

    Dense subscribers (counted aggregate leaves are an ideal-link construct
    and are rejected on constrained links, ``Link.extra_bytes``), finite
    bandwidth on every tier, independent loss on the access links and
    NewReno on every relay's downstream side, drained long enough for loss
    repair.  :func:`run_constrained_tiers` runs the same regime at its sweep
    scale as its lossy-edge sample.  The point here is scale: with the
    batch path bandwidth- and loss-aware this completes inside the perf
    smoke budget with the fallback-wave counter at zero — the regime the
    old silent fallback made unrunnable.
    """
    run = TreeRun(
        _constrained_spec(
            bandwidth,
            access_loss=access_loss,
            mid_relays=mid_relays,
            edge_per_mid=edge_per_mid,
        ),
        subscribers,
        seed,
        payload_size=payload_size,
        downstream_connection=_newreno_downstream(),
        subscriber_connection=_lossy_subscriber(),
    )
    window = run.measure(updates, drain=6.0)
    return ConstrainedMacroResult(
        subscribers=subscribers,
        updates=updates,
        delivered=window.delivered,
        expected=subscribers * updates,
        retransmissions=window.delta.downstream_retransmissions,
        congestion_events=window.delta.congestion_events,
        link_batch_fallback_waves=run.network.link_batch_fallback_waves,
        events_scheduled=run.simulator.events_scheduled,
    )
