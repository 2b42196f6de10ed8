#!/usr/bin/env python3
"""The repository benchmark: three seeded workloads, end-to-end and per layer.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload cdn_fanout --seed 1 --seconds 10 --trace 0

One process runs one workload.  It imports the package from ``src/``, warms
the caches with a small round, then forks one child per set-up (each child
starts from the same warmed image, so set-ups are identical in work and
their peak-RSS growth is their own).  Each set-up child in turn forks the
measured phase off its finished set-up, one grandchild after another, until
its share of ``--seconds`` is measured: most of a run is measured
phase, every measured phase starts from the same state, and ``setup_s`` is
still the median of ``SETUPS`` set-ups.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced set-ups and prints every
per-layer metric.  Each metric is printed as ``name value unit``; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any output check
fails, when rounds of one run disagree on anything but wall-clock time, or
when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Set-ups every run times; each measures its share of ``--seconds``.
SETUPS = 3
#: No new measured phase starts after this many wall seconds (keeps a run
#: < 180 s).
ROUND_DEADLINE_S = 120.0
#: Size of the in-process warm-up round, as a share of a measured round.
WARMUP_SCALE = 0.05
#: Result fields that depend on the host, not only on the seed.
WALL_FIELDS = ("setup_s", "run_s", "run_slices_s", "probe_s", "rss_growth_mib", "trace")
#: About ``workloads.probe()``'s fastest time on the host of the README's
#: baseline (Intel Xeon VM at 2.0 GHz, Python 3.11): the host speed that
#: ``deliveries_per_s`` is expressed at.
PROBE_REFERENCE_S = 3.5e-5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def memory_kib(field: str) -> int:
    """A ``VmRSS``/``VmHWM`` line of ``/proc/self/status``, in KiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


class Replicas:
    """The ``branch`` hook of a workload: forks the measured phase off the
    finished set-up, one child after another, until ``budget_s`` seconds of
    measured phase (and at least one) are done or ``deadline`` has passed.

    In the set-up process the hook never returns: it raises ``Done`` once
    every child's result is in ``results``.  In a child it returns, so the
    workload goes on with its measured phase; ``send`` then hands the
    result back.
    """

    class Done(Exception):
        pass

    def __init__(self, budget_s: float, deadline: float) -> None:
        self.budget_s = budget_s
        self.deadline = deadline
        self.results: list[dict[str, object]] = []
        self.setup_peak_kib = 0
        self._write_end: int | None = None

    def __call__(self) -> None:
        self.setup_peak_kib = memory_kib("VmHWM")
        spent = 0.0
        while not self.results or (
            spent < self.budget_s and time.perf_counter() < self.deadline
        ):
            read_end, write_end = os.pipe()
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                self._write_end = write_end
                reset_peak_memory()
                return
            os.close(write_end)
            result = collect(pid, read_end)
            spent += result["run_s"]
            self.results.append(result)
        raise Replicas.Done

    def send(self, result: dict[str, object]) -> None:
        """Hand a child's result to the set-up process and end the child."""
        status = 1
        try:
            with os.fdopen(self._write_end, "w") as stream:
                stream.write(json.dumps(result))
            status = 0
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)


def reset_peak_memory() -> None:
    """Restart the ``VmHWM`` high-water mark at the current ``VmRSS``."""
    with open("/proc/self/clear_refs", "w") as clear:
        clear.write("5")


def measured_round(
    workload, seed: int, traced: bool, budget_s: float = 0.0, deadline: float = math.inf
) -> dict[str, object]:
    """One set-up in the current (forked) process, peak RSS reset first, and
    its measured phases (see ``Replicas``): ``{"setup_s", "reps"}``."""
    tracer = None
    if traced:
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    # Everything inherited is permanent: the collector never scans it, and
    # it stays off in the round, so pauses land between rounds.
    gc.collect()
    gc.freeze()
    gc.disable()
    reset_peak_memory()
    baseline = memory_kib("VmRSS")
    replicas = Replicas(budget_s, deadline)
    try:
        result = workload(seed, tracer, branch=replicas)
    except Replicas.Done:
        return {"setup_s": replicas.results[0]["setup_s"], "reps": replicas.results}
    peak = max(replicas.setup_peak_kib, memory_kib("VmHWM"))
    result["rss_growth_mib"] = (peak - baseline) / 1024.0
    if tracer is not None:
        result["trace"] = tracer.report()
    replicas.send(result)


def forked(function, *args) -> dict[str, object]:
    """Run ``function(*args)`` in a child process and return its result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        status = 1
        try:
            os.close(read_end)
            payload = json.dumps(function(*args))
            with os.fdopen(write_end, "w") as stream:
                stream.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_end)
    return collect(pid, read_end)


def collect(pid: int, read_end: int) -> dict[str, object]:
    """Read a child's JSON result from ``read_end`` and wait for the child."""
    with os.fdopen(read_end) as stream:
        payload = stream.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"measured round failed (wait status {status})")
    return json.loads(payload)


def deterministic_part(result: dict[str, object]) -> dict[str, object]:
    """The fields a round must reproduce exactly (wall-clock ones dropped)."""
    kept = {key: value for key, value in result.items() if key not in WALL_FIELDS}
    kept["counters"] = {
        key: value for key, value in result["counters"].items() if key != "build_s"
    }
    return kept


def calibrated_run_s(rounds: list[dict[str, object]]) -> float:
    """The measured phase's wall seconds at the host speed of
    ``PROBE_REFERENCE_S``.

    This host switches between a fast and a slow state (1.7x) within
    milliseconds and drifts by a third over minutes.  The probe timed right
    before a slice shows the state that slice ran in, and no change to the
    program can move it, so each slice's time is scaled by reference over
    its probe.  Rounds are exact replicas, so slice *k* does the same work
    in each; the scaled slice is taken at its median across the rounds.
    """
    scaled = (
        [time_s * PROBE_REFERENCE_S / probe_s for time_s, probe_s in zip(r["run_slices_s"], r["probe_s"])]
        for r in rounds
    )
    return sum(statistics.median(times) for times in zip(*scaled))


def end_to_end(setups: list[float], rounds: list[dict[str, object]]) -> dict[str, float]:
    """Every end-to-end metric: wall-clock ones as medians over the set-ups
    and rounds, seed-determined ones from the (identical) rounds."""
    first = rounds[0]
    return {
        "setup_s": statistics.median(setups),
        "deliveries_per_s": first["deliveries"] / calibrated_run_s(rounds),
        "peak_rss_mb": statistics.median(r["rss_growth_mib"] for r in rounds),
        "update_latency_p50_ms": first["update_latency_p50_ms"],
        "update_latency_p999_ms": first["update_latency_p999_ms"],
        "join_p50_ms": first["join_p50_ms"],
        "join_p99_ms": first["join_p99_ms"],
        "stale_read_ratio": first["stale_read_ratio"],
        "success_ratio": 1.0 - first["failed"] / first["attempted"],
        "origin_bytes_per_update": first["origin_bytes_per_update"],
        "wire_bytes_per_delivery": first["wire_bytes_per_delivery"],
    }


def per_layer(traced: list[dict[str, object]], plain: list[dict[str, object]]) -> dict[str, float]:
    """Every per-layer metric from the traced rounds (self times as medians)."""
    from tracing import LAYERS

    first = traced[0]
    deliveries = first["deliveries"]
    updates = first["updates"]
    counters = first["counters"]
    calls = first["trace"]["calls"]

    def run_calls(*names: str) -> int:
        return sum(calls["run"][name] for name in names)

    def all_calls(name: str) -> int:
        return calls["setup"][name] + calls["run"][name]

    metrics = {}
    for layer in LAYERS:
        for phase in ("setup", "run"):
            metrics[f"{layer}.{phase}_self_s"] = statistics.median(
                r["trace"]["self_s"][phase][layer] for r in traced
            )
    decoded = run_calls("Packet.decode")
    metrics.update(
        {
            "netsim.events_per_delivery": counters["run_events"] / deliveries,
            "netsim.timer_starts_per_delivery": run_calls("Timer.start") / deliveries,
            "netsim.heap_compactions": counters["heap_compactions"],
            "netsim.datagrams_per_delivery": counters["run_datagrams"] / deliveries,
            "netsim.pool_hit_rate": counters["pool_hit_rate"],
            "netsim.batch_fallback_waves": counters["batch_fallback_waves"],
            "quic.packets_decoded_per_delivery": decoded / deliveries,
            "quic.ack_only_share": run_calls("quic.ack_only_packets") / decoded,
            "quic.handshakes": all_calls("QuicEndpoint.connect"),
            "moqt.objects_published_per_delivery": run_calls(
                "MoqtSession.publish", "MoqtSession.publish_preencoded"
            )
            / deliveries,
            "moqt.subscribes": all_calls("MoqtSession.subscribe"),
            "moqt.relay_cache_hit_rate": counters["relay_cache_hit_rate"],
            "moqt.pending_subscribe_high_water": counters["pending_subscribe_high_water"],
            "relaynet.build_s": statistics.median(r["counters"]["build_s"] for r in traced),
            "relaynet.origin_objects": counters["origin_objects"],
            "core.auth_publishes": counters.get("auth_publishes", 0),
            "core.fetches_served": counters.get("fetches_served", 0),
            "core.local_answer_ratio": counters.get("local_answer_ratio", 0.0),
            "core.push_discard_ratio": counters.get("push_discard_ratio", 0.0),
            "core.upstream_lookups": counters.get("upstream_lookups", 0),
            "core.failures": counters.get("failures", 0),
            "dns.decodes_per_delivery": run_calls("Message.from_wire") / deliveries,
            "dns.encodes_per_update": run_calls("Message.to_wire") / updates,
            "dns.zone_lookups_per_update": run_calls("Zone.lookup") / updates,
        }
    )
    metrics["trace.overhead_ratio"] = calibrated_run_s(traced) / calibrated_run_s(plain)
    covered = [
        sum(r["trace"]["self_s"][phase][layer] for phase in ("setup", "run") for layer in LAYERS)
        / (r["setup_s"] + r["run_s"])
        for r in traced
    ]
    metrics["trace.coverage"] = statistics.median(covered)
    return metrics


def load_workloads():
    """Import the workloads against this checkout's ``src/``."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no package to benchmark: {SOURCE / 'repro'} is missing")
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS

    return WORKLOADS


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = load_workloads()
    if args.workload not in workloads:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    started = time.perf_counter()
    workload(args.seed, None, scale=WARMUP_SCALE)

    # With --trace 1, traced and untraced set-ups alternate, traced first,
    # and each kind measures half of --seconds.
    kinds = [bool(args.trace) and number % 2 == 0 for number in range(SETUPS)]
    share = args.seconds / len(set(kinds))
    deadline = started + ROUND_DEADLINE_S
    setups: dict[bool, list[float]] = {True: [], False: []}
    measured: dict[bool, list[dict[str, object]]] = {True: [], False: []}
    for number, kind in enumerate(kinds):
        if time.perf_counter() >= deadline and measured[kind]:
            continue
        # Each set-up measures an equal part of what is left of its kind's share.
        spent = sum(r["run_s"] for r in measured[kind])
        budget_s = (share - spent) / kinds[number:].count(kind)
        done = forked(measured_round, workload, args.seed, kind, budget_s, deadline)
        setups[kind].append(done["setup_s"])
        measured[kind].extend(done["reps"])
    traced_rounds = measured[True]
    plain_rounds = measured[False]

    rounds = traced_rounds + plain_rounds
    errors = list(rounds[0]["errors"])
    reference = deterministic_part(rounds[0])
    for number, other in enumerate(rounds[1:], start=2):
        if deterministic_part(other) != reference:
            errors.append(f"round {number} differs from round 1 beyond wall-clock time")
    if args.trace:
        values = per_layer(traced_rounds, plain_rounds)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setups[False], plain_rounds)
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        if not math.isfinite(value):
            errors.append(f"{metric['name']} is not finite")
            value = None
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload:<16} {metric['name']:<40} {value} {metric['unit']}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(
        f"{args.workload}: {len(rounds)} rounds, {rounds[0]['deliveries']} deliveries, "
        f"{rounds[0]['update_samples']} update and {rounds[0]['joins']} join samples per round; "
        f"set-up s {[round(value, 3) for kind in (True, False) for value in setups[kind]]}, "
        f"measured s {[round(r['run_s'], 3) for r in rounds]}",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
