"""The relay-run kernel and the gates every relay experiment exposes."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.constrained_tiers import run_constrained_macro, run_constrained_tiers
from repro.experiments.failure_detection import run_failure_detection
from repro.experiments.flash_crowd import run_flash_crowd
from repro.experiments.origin_failover import run_origin_failover
from repro.experiments.relay_churn import run_relay_churn
from repro.experiments.relay_fanout import run_relay_fanout
from repro.experiments.tree_run import UPDATE_INTERVAL, TreeRun
from repro.relaynet import RelayTreeSpec

SMALL_TREE = dict(mid_relays=2, edge_per_mid=2)

RUNS = {
    "E11": lambda: run_relay_fanout(subscriber_counts=(8, 60), updates=3, **SMALL_TREE),
    "E12": lambda: run_relay_churn(subscribers=60, **SMALL_TREE),
    "E13": lambda: run_failure_detection(subscribers=60, **SMALL_TREE),
    "E14": lambda: run_origin_failover(subscribers=60, **SMALL_TREE),
    "E15": lambda: run_constrained_tiers(
        bandwidths=(2_000_000.0, 250_000.0, 100_000.0), subscribers=12, updates=3, **SMALL_TREE
    ),
    "E15 macro": lambda: run_constrained_macro(subscribers=60, updates=3, **SMALL_TREE),
    "E16": lambda: run_flash_crowd(stormers=40, baseline_stormers=(20, 80)),
}


def _harness():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "perf"))
    import perf_fastpath

    return perf_fastpath


@pytest.mark.parametrize("experiment", sorted(RUNS))
def test_every_gate_passes_on_a_healthy_run(experiment):
    gates = RUNS[experiment]().gates()
    assert gates and all(isinstance(ok, bool) for ok in gates.values())
    assert [name for name, ok in gates.items() if not ok] == []


def test_reattach_gate_fails_off_the_model_floor():
    result = run_relay_churn(subscribers=60, **SMALL_TREE)
    kill = result.kills[0]
    tier, latencies = next(iter(kill.latencies_by_tier.items()))
    skewed = dict(kill.latencies_by_tier, **{tier: [latencies[0] + 1e-3, *latencies[1:]]})
    result.kills[0] = dataclasses.replace(kill, latencies_by_tier=skewed)
    assert result.gates()["reattach_model_ok"] is False


def test_in_band_gates_fail_on_control_plane_kills_and_false_positives():
    result = run_failure_detection(subscribers=60, **SMALL_TREE)
    result.control_plane_kills = 1
    result.false_positive_events = 2
    gates = result.gates()
    assert not gates["zero_control_plane_kills_ok"]
    assert not gates["zero_false_positives_ok"]


def test_kernel_measures_one_copy_per_update_on_a_star():
    run = TreeRun(RelayTreeSpec.star(relays=1), 1, seed=17, timestamps=True)
    window = run.measure(4)
    assert window.delivered == 4 and window.origin_objects == 4
    assert run.next_group == 6
    assert run.push_times == [3.0 + i * UPDATE_INTERVAL for i in range(4)]
    assert sorted(run.delivery_times) == [2, 3, 4, 5]


def test_origin_failover_needs_a_standby():
    with pytest.raises(ValueError, match="standby"):
        run_origin_failover(subscribers=10, origins=1, **SMALL_TREE)


def test_harness_reports_every_false_gate_by_name():
    harness = _harness()
    document = {
        "benchmarks": {
            "event_loop_churn": {"seconds": 1.0},
            "relay_churn": {"gates": {"gapless_ok": True, "reattach_model_ok": True}},
            "flash_crowd": {"gates": {"spillovers_ok": False, "baseline_pathology_ok": True}},
        }
    }
    assert harness.failed_gates(document) == ["flash_crowd.spillovers_ok"]


def test_harness_entries_carry_the_experiment_gates():
    harness = _harness()
    entry = harness.bench_flash_crowd(stormers=40)
    assert entry["gates"] == RUNS["E16"]().gates()
    assert not [key for key in entry if key.endswith("_ok")]


def test_harness_main_fails_on_a_false_gate(tmp_path, monkeypatch, capsys):
    harness = _harness()
    document = {"benchmarks": {"relay_churn": {"gates": {"gapless_ok": False}}}}
    monkeypatch.setattr(harness, "run", lambda **kwargs: (document, []))
    assert harness.main(["--output", str(tmp_path / "bench.json")]) == 1
    assert "relay_churn.gapless_ok" in capsys.readouterr().err


def test_harness_never_overwrites_its_check_reference(tmp_path, monkeypatch):
    harness = _harness()
    reference = tmp_path / "BENCH_fastpath.json"
    reference.write_text(json.dumps({"benchmarks": {"varint_roundtrip": {"ops_per_second": 100}}}))
    before = reference.read_text()
    faster = {"benchmarks": {"varint_roundtrip": {"ops_per_second": 150}}}
    monkeypatch.setattr(harness, "run", lambda **kwargs: (faster, []))
    assert harness.main(["--output", str(reference), "--check", str(reference)]) == 0
    assert reference.read_text() == before
    slower = {"benchmarks": {"varint_roundtrip": {"ops_per_second": 10}}}
    monkeypatch.setattr(harness, "run", lambda **kwargs: (slower, []))
    assert harness.main(["--output", str(reference), "--check", str(reference)]) == 1
