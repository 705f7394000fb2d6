"""The repo's end-to-end benchmark: five workloads, one command.

    PYTHONPATH=src python benchmarks/e2e/run.py \\
        [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out PATH]

With ``--workload`` the last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}`` — every end-to-end metric
of BENCHMARK.json untraced, every per-layer metric with ``--trace 1``.
Without it every workload runs (twice with ``--trace``: untraced for the
end-to-end metrics, traced for the layers) and the last line is the full
report: commit, host fingerprint, seed, and per workload the operations
attempted and failed, the metrics with their units, the deterministic
digests and the correctness gates.  Any failed operation or gate exits
non-zero.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
if (REPO_ROOT / "src").is_dir():
    sys.path.insert(0, str(REPO_ROOT / "src"))


def declared() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_classes() -> dict:
    from e2ebench.da_light_client import DaLightClient
    from e2ebench.lifecycle_year import LifecycleYear
    from e2ebench.rpc_service import RpcService
    from e2ebench.settle_checkpoint import SettleCheckpoint
    from e2ebench.settle_per_round import SettlePerRound

    classes = (SettleCheckpoint, SettlePerRound, RpcService, LifecycleYear, DaLightClient)
    return {cls.name: cls for cls in classes}


def with_units(metrics: dict[str, float], declared_metrics: list[dict]) -> dict:
    """Exactly the declared names, each finite, each with its unit."""
    names = [entry["name"] for entry in declared_metrics]
    if set(names) != set(metrics):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise SystemExit(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    out = {}
    for entry in declared_metrics:
        value = float(metrics[entry["name"]])
        if not math.isfinite(value):
            raise SystemExit(f"metric {entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed budget per run")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload shrunk to ~2 s")
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args(argv)

    import repro  # noqa: F401 — fail here, before any output, when src/ is absent

    from e2ebench import sizes as S
    from e2ebench.harness import git_commit, host_fingerprint, run_workload

    spec = declared()
    classes = workload_classes()
    if [w["name"] for w in spec["workloads"]] != list(classes):
        raise SystemExit("BENCHMARK.json workloads do not match the harness")
    if args.workload is not None and args.workload not in classes:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(classes)}")

    sizes = S.SMOKE if args.smoke else S.FULL
    if args.seconds is None:
        args.seconds = S.SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    repeats = 1 if args.smoke else S.SETUP_REPEATS

    def one(name: str, traced: bool):
        result = run_workload(
            classes[name], sizes, args.seed, args.seconds, traced, setup_repeats=repeats
        )
        for gate, ok in result.gates.items():
            if not ok:
                print(f"{name}: gate failed: {gate}", file=sys.stderr)
        section = spec["per_layer"] if traced else spec["end_to_end"]
        return result, with_units(result.metrics, section)

    if args.workload is not None:
        result, metrics = one(args.workload, bool(args.trace))
        line = {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }
        if args.out:
            Path(args.out).write_text(
                json.dumps({**line, "seed": args.seed, "digests": result.digests,
                            "detail": result.detail, "gates": result.gates}, indent=1) + "\n"
            )
        print(json.dumps(line))
        return 0 if result.correct else 1

    report = {
        "commit": git_commit(),
        "host": host_fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    for name in classes:
        result, metrics = one(name, False)
        entry = {
            "ops": result.attempted,
            "failed": result.failed,
            "correct": result.correct,
            "end_to_end": metrics,
            "digests": result.digests,
            "detail": result.detail,
            "gates": result.gates,
        }
        if args.trace:
            traced, layers = one(name, True)
            entry["per_layer"] = layers
            entry["ops"] += traced.attempted
            entry["failed"] += traced.failed
            entry["correct"] = entry["correct"] and traced.correct
            entry["gates"].update(traced.gates)
        report["workloads"][name] = entry
        print(f"{name}: {entry['ops']} ops, {entry['failed']} failed", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
