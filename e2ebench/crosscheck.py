#!/usr/bin/env python3
"""Cross-check the traced run's layer split against a cProfile roll-up.

Runs one round of each workload twice in forked children: once under
``cProfile`` (each function's own time summed per ``repro`` package) and
once with the layer-boundary tracer.  Prints both splits of the measured
phase plus set-up as shares of the layer total, so a boundary that credits
one layer's work to another shows up as a gap between the two columns.

The columns are not expected to agree exactly: cProfile charges builtins
(``heapq``, ``len``, dict and bytes methods) to a column of their own and
adds its own per-call cost, while spans charge builtins to the layer that
called them; the ``varint`` helpers live in ``repro.quic`` but are called
from MoQT's codec, so cProfile counts them under quic and spans under moqt.

Usage, from the root of a checkout::

    python3 e2ebench/crosscheck.py [--scale 0.5] [--seed 1]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import re
import sys

from run import forked, load_workloads, measured_round

PACKAGE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def profiled_round(workload, seed: int, scale: float) -> dict[str, float]:
    """Own time per package for one untraced round under cProfile."""
    profiler = cProfile.Profile()
    profiler.enable()
    workload(seed, None, scale=scale)
    profiler.disable()
    totals: dict[str, float] = {}
    for (filename, _, _), (_, _, own, _, _) in pstats.Stats(profiler).stats.items():
        match = PACKAGE.search(filename)
        package = match.group(1) if match else "builtins/other"
        totals[package] = totals.get(package, 0.0) + own
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    from tracing import LAYERS

    for name, workload in load_workloads().items():
        workload(args.seed, None, scale=0.05)
        profile = forked(profiled_round, workload, args.seed, args.scale)
        traced = forked(
            lambda: measured_round(
                lambda seed, tracer, branch: workload(seed, tracer, scale=args.scale, branch=branch),
                args.seed,
                True,
            )
        )["reps"][0]
        spans = {
            layer: sum(traced["trace"]["self_s"][phase][layer] for phase in ("setup", "run"))
            for layer in LAYERS
        }
        profile_total = sum(profile.values())
        span_total = sum(spans.values())
        print(f"\n{name}: own time per layer, % of total (cProfile | spans)")
        for layer in (*LAYERS, "builtins/other"):
            profiled = 100.0 * profile.get(layer, 0.0) / profile_total
            spanned = 100.0 * spans.get(layer, 0.0) / span_total if layer in spans else 0.0
            print(f"  {layer:<15} {profiled:6.1f} | {spanned:6.1f}")
        others = sorted(set(profile) - set(LAYERS) - {"builtins/other"})
        if others:
            share = 100.0 * sum(profile[package] for package in others) / profile_total
            print(f"  {'other repro':<15} {share:6.1f} |    -   ({', '.join(others)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
