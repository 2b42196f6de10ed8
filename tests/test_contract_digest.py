"""Determinism contract: one pinned SHA-256 per relay experiment (E11–E16).

Each case runs a small seeded version of an experiment, serialises its
whole result (every dataclass field, recursively: delivery sequences,
tier tables, FailoverRecords, detection and promotion latencies,
admission records, knee positions, mean delivery latencies) as canonical
JSON with sorted keys, and compares the SHA-256 of that text with a value
pinned when the contract was written.

The existing determinism tests compare a run with a second run of the same
code, so a change that moves every run's output the same way passes them.
These digests catch that.  A digest may only change in a change that
deliberately alters wire bytes or seeded event order, and says so.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import pytest

from repro.experiments.constrained_tiers import run_constrained_macro, run_constrained_tiers
from repro.experiments.failure_detection import run_failure_detection
from repro.experiments.flash_crowd import run_flash_crowd
from repro.experiments.origin_failover import run_origin_failover
from repro.experiments.relay_churn import run_relay_churn
from repro.experiments.relay_fanout import calibrate_bytes_per_update, run_relay_fanout
from repro.telemetry import MetricsRegistry, SpanTracer, Telemetry
from repro.telemetry.export import spans_to_records

SMALL_TREE = dict(mid_relays=2, edge_per_mid=2)


def canon(value):
    """A JSON-ready, order-independent view of an experiment result."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canon(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(item) for item in value]
    if isinstance(value, enum.Enum):
        return canon(value.value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(document) -> str:
    text = json.dumps(canon(document), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _e11_dense():
    result = run_relay_fanout(subscriber_counts=(8, 200), updates=3, **SMALL_TREE)
    return {"result": result, "rows": result.rows(), "tiers": result.tier_rows()}


def _e11_counted_telemetry():
    telemetry = Telemetry(metrics=MetricsRegistry(), spans=SpanTracer(subscriber_sample_every=7))
    result = run_relay_fanout(
        subscriber_counts=(40,),
        updates=3,
        origins=2,
        aggregate_leaves=True,
        telemetry=telemetry,
        **SMALL_TREE,
    )
    return {
        "result": result,
        "metrics": telemetry.metrics.snapshot(),
        "spans": spans_to_records(telemetry.spans),
    }


def _e12():
    result = run_relay_churn(subscribers=120, **SMALL_TREE)
    return {"result": result, "rows": result.rows(), "summary": result.summary_row()}


def _e12_counted():
    result = run_relay_churn(subscribers=40, origins=2, aggregate_leaves=True, **SMALL_TREE)
    return {"result": result, "summary": result.summary_row()}


def _e13():
    result = run_failure_detection(subscribers=120, **SMALL_TREE)
    return {"result": result, "rows": result.rows(), "summary": result.summary_row()}


def _e13_counted():
    result = run_failure_detection(subscribers=120, origins=2, aggregate_leaves=True, **SMALL_TREE)
    return {"result": result, "summary": result.summary_row()}


def _e14():
    result = run_origin_failover(subscribers=120, **SMALL_TREE)
    return {"result": result, "rows": result.rows(), "summary": result.summary_row()}


def _e14_counted_telemetry():
    telemetry = Telemetry(metrics=MetricsRegistry())
    result = run_origin_failover(
        subscribers=120, aggregate_leaves=True, telemetry=telemetry, **SMALL_TREE
    )
    return {"result": result, "metrics": telemetry.metrics.snapshot()}


def _e15():
    result = run_constrained_tiers(
        bandwidths=(2_000_000.0, 250_000.0, 100_000.0), subscribers=12, updates=3, **SMALL_TREE
    )
    return {
        "result": result,
        "knees": [result.model_knee_index, result.measured_knee_index],
        "rows": result.rows(),
        "summary": result.summary_row(),
    }


def _e15_macro():
    return {"result": run_constrained_macro(subscribers=60, updates=3, **SMALL_TREE)}


def _e16():
    telemetry = Telemetry(metrics=MetricsRegistry())
    result = run_flash_crowd(stormers=40, baseline_stormers=(20, 80), telemetry=telemetry)
    return {
        "result": result,
        "rows": result.rows(),
        "summary": result.summary_row(),
        "metrics": telemetry.metrics.snapshot(),
    }


def _calibration():
    return {"bytes_per_update": calibrate_bytes_per_update(300)}


CASES = {
    "e11_dense": (
        _e11_dense,
        "cbe909e4b65f4b99cf7576884a880f496e58afc4a00972a7ead3fd68c5117322",
    ),
    "e11_counted_telemetry": (
        _e11_counted_telemetry,
        "eb6a2b5527bb8f174bf1e1e7f250fbeadaee24ff8e58a69b22f198c0f2c551f8",
    ),
    "e12": (
        _e12,
        "b4a4fe93d62ea37793060112d86dcb38978fb2836d425d8120ec424b3241d548",
    ),
    "e12_counted": (
        _e12_counted,
        "0ecfa27a2de7243c5e3bdad6655a8ea040d6fbabd82736604baa454a9e3bcffc",
    ),
    "e13": (
        _e13,
        "0b779e3af6611b758c9a20651b7f0a8cfae8c94dccdf65389a8a3d87af1c03c5",
    ),
    "e13_counted": (
        _e13_counted,
        "c6ce5efc4a688f84b128d023e363b2ab5ba7259c777ed3b9d989a335351f0286",
    ),
    "e14": (
        _e14,
        "b7e08419e3f1c8d6c89753a1cdb5af54c11cb0959dff975ab3421a3e1d9da874",
    ),
    "e14_counted_telemetry": (
        _e14_counted_telemetry,
        "5af33576ded12daedf7e96934520df6d54d28ca413e404c050a87159a1899ed9",
    ),
    "e15": (
        _e15,
        "a8bc3cbe20c3a898348622b4f91f54497790bc8374e504a45db3e0f05229e23f",
    ),
    "e15_macro": (
        _e15_macro,
        "6a35e32d9f4a0923e3845f307ce5a74201bd0a2946c1b42eb48e970294568151",
    ),
    "e16": (
        _e16,
        "e82afcfa7063094656bce85984c826fc769de1f4fad33d2352d84504d4af36f2",
    ),
    "calibration": (
        _calibration,
        "d0ec90cfb81fe9f97cdadf178d8a109bae4c4fd0c86b06a294a325a571ded9cf",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_matches_pinned_digest(case):
    run, pinned = CASES[case]
    assert digest(run()) == pinned


def test_canon_rejects_unknown_types():
    with pytest.raises(TypeError):
        canon(object())
