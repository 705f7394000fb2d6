"""Is the benchmark steady?  Two checks on one commit, no code in between.

    PYTHONPATH=src python benchmarks/e2e/repeat.py [--seed N] [--smoke] [--workload W]
    PYTHONPATH=src python benchmarks/e2e/repeat.py --spread 10 [--workload W]

Default: run two full sets with the same seed and print, per workload and
metric, both values, their relative difference and the bound.  Fails when
a timing metric differs by more than its bound, when an exact metric (gas,
bytes) differs at all, or when a deterministic digest (fabric
``state_hash``, lifecycle trail digest, DA roots, verdict sets) differs.

``--spread N``: run every workload on N different seeds and print, per
metric, the distance between the first and third quartile of its N values
as a share of their median — the number the driver holds against the
bound.  Fails when a spread exceeds its bound (``setup_s`` is reported
only, as in the driver).

Every run is a fresh ``run.py`` process, as the driver starts it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

#: Same seed, same work: these must not move at all between two sets.
EXACT = ("gas_per_audit", "onchain_bytes_per_audit", "sample_bytes_per_epoch")


def run_once(workload: str, seed: int, smoke: bool) -> dict:
    out = HERE / "results" / f"repeat_{workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", "0", "--out", str(out),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def compare_sets(workloads: list[str], bounds: dict[str, float], seed: int, smoke: bool) -> int:
    problems = 0
    for workload in workloads:
        first, second = run_once(workload, seed, smoke), run_once(workload, seed, smoke)
        print(f"\n{workload} (seed {seed})")
        print(f"  {'metric':<26}{'set 1':>16}{'set 2':>16}{'rel diff':>10}{'bound':>8}")
        for name, bound in bounds.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            diff = abs(a - b) / abs(a) if a else float(b != a)
            limit = 0.0 if name in EXACT else bound
            bad = diff > limit
            problems += bad
            print(
                f"  {name:<26}{a:>16.6g}{b:>16.6g}{diff:>10.4f}{limit:>8.2f}"
                + ("   <-- differs" if bad else "")
            )
        for name, value in first["digests"].items():
            same = second["digests"].get(name) == value
            problems += not same
            print(f"  digest {name:<19}{value[:16]:>16}  {'identical' if same else 'DIFFERS'}")
    return problems


def spread(workloads: list[str], bounds: dict[str, float], seeds: list[int], smoke: bool) -> int:
    problems = 0
    for workload in workloads:
        runs = [run_once(workload, seed, smoke) for seed in seeds]
        print(f"\n{workload} (seeds {seeds[0]}..{seeds[-1]})")
        print(f"  {'metric':<26}{'median':>16}{'IQR/median':>12}{'bound':>8}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            share = (q3 - q1) / abs(median) if median else float("inf")
            bad = share > bound and name != "setup_s"
            problems += bad
            print(
                f"  {name:<26}{median:>16.6g}{share:>12.4f}{bound:>8.2f}"
                + ("   <-- above its bound" if bad else "")
                + ("   (above a third of it)" if not bad and share > bound / 3 else "")
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spread", type=int, metavar="N", help="N seeds instead of two sets")
    args = parser.parse_args()

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in workloads:
            parser.error(f"unknown workload {args.workload!r}")
        workloads = [args.workload]

    if args.spread:
        seeds = list(range(args.seed, args.seed + args.spread))
        problems = spread(workloads, bounds, seeds, args.smoke)
    else:
        problems = compare_sets(workloads, bounds, args.seed, args.smoke)
    print(f"\n{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
