"""Tier-1 smoke test of the end-to-end benchmark (about ten seconds).

Runs ``run.py --smoke --trace`` once, in process, and checks that what it
emits is what BENCHMARK.json declares, and that a traced run leaves the
program exactly as it found it.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _load_run():
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # puts benchmarks/e2e on sys.path
    return module


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(report, wrapper targets as they were before the run)."""
    run = _load_run()
    from e2ebench.layers import install
    from e2ebench.spans import SpanRecorder

    probe = SpanRecorder()
    install(probe, [])
    targets = probe.patched()
    probe.restore()

    out = tmp_path_factory.mktemp("e2e") / "report.json"
    code = run.main(["--smoke", "--trace", "--seed", "3", "--out", str(out)])
    return code, json.loads(out.read_text()), targets


def test_report_carries_exactly_the_declared_workloads_and_metrics(smoke):
    code, report, _ = smoke
    assert code == 0
    assert list(report["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert report["commit"] and report["host"]["cpus"] and report["seed"] == 3
    for name, entry in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            assert set(entry[section]) == set(declared), (name, section)
            for metric, cell in entry[section].items():
                assert NAME.fullmatch(metric)
                assert cell["unit"] == declared[metric]
                assert math.isfinite(cell["value"]), (name, metric)
        assert entry["failed"] == 0 and entry["correct"], (name, entry["gates"])
        assert entry["ops"] > 0
        assert all(entry["gates"].values()), (name, entry["gates"])
        # "Choose metrics that are never 0": the driver divides by them.
        assert all(cell["value"] > 0 for cell in entry["end_to_end"].values()), name


def test_layers_are_attributed_where_the_work_is(smoke):
    _, report, _ = smoke
    layers = {
        name: {k: v["value"] for k, v in entry["per_layer"].items()}
        for name, entry in report["workloads"].items()
    }
    for name in ("settle_checkpoint", "settle_per_round", "lifecycle_year"):
        assert layers[name]["crypto.final_exp_calls"] > 0, name
    # No pairing anywhere near the DA light client.
    da = layers["da_light_client"]
    assert da["crypto.msm_calls"] == da["crypto.miller_calls"] == da["crypto.final_exp_calls"] == 0
    assert da["da.sample_s"] > 0 and da["storage.gf256_decode_s"] > 0
    assert layers["settle_per_round"]["contract.verifies"] > 0
    assert layers["rpc_service"]["rpc.dispatch_s"] > 0
    assert layers["rpc_service"]["rpc.requests"] > 0
    assert layers["lifecycle_year"]["lifecycle.persist_s"] > 0
    for name, values in layers.items():
        assert 0.5 < values["trace.coverage"] <= 1.0, (name, values["trace.coverage"])


def test_traced_run_puts_every_original_back(smoke):
    from repro.obs import HOTPATH

    _, _, targets = smoke
    assert len(targets) >= 30
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still wrapped"
    assert not HOTPATH.enabled and HOTPATH.snapshot() == {}
    assert not (HERE / "results" / "tmp").exists()
