#!/usr/bin/env python3
"""Determinism check of the benchmark itself.

For every workload, at a reduced size:

* two runs with the same seed, in separate processes with different
  string-hash seeds, must give identical counts and identical virtual-time
  results (everything but wall-clock time and memory);
* a run with a second seed must pass every correctness check, so a claim
  made on the tuned seed can be confirmed on one nobody tuned against.

Usage, from the root of a checkout::

    python3 e2ebench/determinism.py [--scale 0.25] [--seeds 1,2]

Exits non-zero on any mismatch or correctness miss.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_round(workload: str, seed: int, scale: float) -> None:
    """Print one round's seed-determined result as JSON (child mode)."""
    sys.path.insert(0, str(ROOT / "src"))
    from run import deterministic_part
    from workloads import WORKLOADS

    result = WORKLOADS[workload](seed, None, scale=scale)
    print(json.dumps(deterministic_part(result), sort_keys=True))


def round_in_process(workload: str, seed: int, scale: float, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    command = [sys.executable, str(Path(__file__)), "--one", workload, str(seed), str(scale)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seeds", default="1,2", help="tuned seed, then an untuned one")
    parser.add_argument("--one", nargs=3, metavar=("WORKLOAD", "SEED", "SCALE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        one_round(args.one[0], int(args.one[1]), float(args.one[2]))
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    first_seed, second_seed = (int(seed) for seed in args.seeds.split(","))
    failures = []
    for workload in WORKLOADS:
        first = round_in_process(workload, first_seed, args.scale, hash_seed=1)
        again = round_in_process(workload, first_seed, args.scale, hash_seed=2)
        other = round_in_process(workload, second_seed, args.scale, hash_seed=3)
        differing = sorted(key for key in first if first[key] != again[key])
        if differing:
            failures.append(f"{workload}: same-seed runs differ in {differing}")
        for seed, result in ((first_seed, first), (second_seed, other)):
            if result["errors"]:
                failures.append(f"{workload} seed {seed}: {result['errors']}")
        print(
            f"{workload:<16} seed {first_seed} twice: "
            f"{'identical' if not differing else 'DIFFERENT'}; "
            f"seed {second_seed}: {'correct' if not other['errors'] else 'INCORRECT'}"
        )
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
