"""``repro.scenarios`` driven directly: assertions on results, not stdout.

The CLI smoke suite checks that each subcommand prints what a user looks
for; this suite checks what the scenario functions *return*, at the same
toy sizes, and guards the property that keeps them reachable: ``cli.py``
parses and prints, and imports none of the layers a scenario composes.
"""

from __future__ import annotations

import ast
import inspect
import random
from pathlib import Path

import pytest
from setuptools import find_packages

import repro.cli
from repro import scenarios
from repro.chain import ShardedChainFabric
from repro.core import ProtocolParams
from repro.engine import AuditExecutor, EpochScheduler
from repro.lifecycle import LifecycleConfig, LifecycleEngine
from repro.randomness import HashChainBeacon
from repro.rollup import CrossShardAggregator
from state_oracles import fabric_state_hash, state_hash_v1, state_hash_v2

PARAMS = ProtocolParams(s=4, k=3)
SRC_REPRO = Path(repro.cli.__file__).parent


def _fleet(rng, files=2):
    return scenarios.build_fleet(
        PARAMS, rng, size=500, files=files, tag="scn-{file}", owner_id="scn"
    )


@pytest.mark.parametrize("lanes", [1, 2])
def test_settlement_audits_the_auditor_and_slashes_a_forgery(lanes, tmp_path):
    rng = random.Random(lanes)
    report = scenarios.run_settlement(
        _fleet(rng, files=3), PARAMS, rng, lanes=lanes, epochs=2, workers=1,
        persist=str(tmp_path / "chainstate"), fraud=True,
    )
    assert [s.epoch for s in report.settlements] == [0, 1]
    assert all(
        s.fabric.checkpoint.num_leaves == 3 and s.fabric.checkpoint.rejected == 0
        for s in report.settlements
    )
    assert report.inclusion.ok
    # Every lane checkpoint of both honest epochs replays; the forged one
    # was slashed on chain, so the replay skips it.
    lanes_used = len(report.settlements[0].lanes)
    assert 1 <= lanes_used <= lanes
    assert report.replay.consistent
    assert report.replay.checkpoints_checked == 2 * lanes_used
    assert report.replay.rounds_checked == 2 * 3
    assert report.fraud.caught and report.fraud.slashed_wei > 0
    assert "verdict-flipped" in report.fraud.reason
    assert [e["name"] for e in report.checkpoint_log].count("checkpoint_slashed") == 1
    assert report.state_hash is not None
    assert report.reopened_state_hash == report.state_hash
    assert report.ok


def test_two_lane_two_epoch_settlement_state_hash_is_the_one_captured_at_34f8142():
    """Known answer over every checkpoint-contract attribute and bond.

    ``run_settlement`` draws fresh Sigma nonces, so the pinned run is the
    same composition in the engine's deterministic mode: two lanes, two
    settled epochs and one slashed forgery.

    The literal captured at 34f8142 is a ``chain-state-v1`` digest, held
    here against the v1 oracle's whole-history walk: the state did not
    move.  ``state_hash`` itself is now ``chain-state-v2``, which folds
    sealed blocks and events into running hash chains instead of encoding
    them whole, so its literal is new; it must also equal a from-scratch
    v2 fold of the same lanes.
    """
    rng = random.Random(2)
    fabric = ShardedChainFabric(num_lanes=2)
    try:
        with AuditExecutor(_fleet(rng, files=3), workers=1) as executor:
            aggregator = CrossShardAggregator(
                fabric, executor, PARAMS, HashChainBeacon(b"scn-kat"), rng=rng,
                deterministic=True,
            )
            aggregator.run(2)
            forged = scenarios.forge_flipped_verdict(
                aggregator, min(aggregator.pipelines), 2
            )
        assert forged.caught and forged.slashed_wei == 5 * 10**16
        assert fabric_state_hash(fabric, state_hash_v1) == (
            "3666467be2a3345620fa61a4f672ea6488d02ab180be0981083721dc41649cdb"
        )
        assert fabric.state_hash() == (
            "b06149c67d06f7f23a553d02e2573279ab1e3838d4b4eb7326820b3cbb8ea4a0"
        )
        assert fabric.state_hash() == fabric_state_hash(fabric, state_hash_v2)
    finally:
        fabric.close()


def test_one_lane_and_two_lane_settlement_agree_on_verdicts():
    reports = []
    for lanes in (1, 2):
        rng = random.Random(7)
        reports.append(scenarios.run_settlement(
            _fleet(rng, files=3), PARAMS, rng, lanes=lanes, epochs=1, workers=1,
        ))
    one, two = (r.settlements[0] for r in reports)
    assert set(one.accepted_names()) == set(two.accepted_names())
    assert set(one.rejected_names()) == set(two.rejected_names())
    assert reports[0].state_hash is None and reports[0].fraud is None


def test_da_sampling_catches_withholding_and_swapped_counts():
    report = scenarios.run_da_sampling(
        lanes=2, fleet=2, epochs=1, samples=12, chunks=16, data_chunks=4,
        withhold=0.25, fraud=True, size=500, s=4, k=3, seed=0,
    )
    assert report.epoch == 0
    assert report.samples and all(s.available for s in report.samples.values())
    for lane, sample in report.samples.items():
        # O(samples) chunks, not all of them (at toy size the NMT proofs
        # outweigh the chunks, so compare the chunk payload alone).
        assert sample.chunk_bytes < report.full_chunk_bytes[lane]
    hiding = report.withholding
    assert hiding.hidden == 4
    assert not hiding.sampled.available and hiding.sampled.failures
    assert hiding.analytic_probability > 0.95
    assert 4 <= hiding.reconstruction.chunks_used <= 12   # k of the n - hidden left
    assert hiding.replay.consistent
    assert report.fraud.caught and "count-mismatch" in report.fraud.reason
    assert report.fraud.chunks_used >= 4
    assert report.ok


def test_congestion_storm_holds_the_watermark_and_flags_the_griefer():
    report = scenarios.run_congestion(
        lanes=2, blocks=4, load=1.5, storm=True, griefer=True, senders=4,
        tip=1.0, seed=1,
    )
    assert report.load == 2.0              # --storm lifts the load to 2x
    assert report.watermark_held and report.priority_inversions == 0
    assert report.decayed_to_floor
    assert max(report.peak_base_fees_wei) > 10**9
    assert report.inclusion_latency_blocks >= 1.0
    assert report.griefer_caught
    assert report.griefer.account in {row.sender for row in report.flagged}
    assert report.ok


def test_audit_service_serves_a_settled_epoch_and_tears_down():
    rng = random.Random(3)
    with scenarios.audit_service(
        _fleet(rng, files=4), PARAMS, HashChainBeacon(b"scn"), rng, lanes=2,
        metrics_port=0,
    ) as service:
        service.aggregator.run(1)
        probe = scenarios.probe_service(service)
        assert probe.ok and probe.metrics_lines > 0
        assert probe.checkpoint["epoch"] == 0
        frames = list(scenarios.top_frames(service.host, service.port, 1, 0.0))
        assert frames[0][0]["num_lanes"] == 2
    with pytest.raises(OSError):
        list(scenarios.top_frames(service.host, service.port, 1, 0.0))


def test_lifecycle_survives_the_world_seed_that_used_to_crash_it():
    """Regression (benchmarks/e2e LifecycleYear, world_seed=3).

    At epoch 38 a provider that fails its audits still holds one of a
    file's last two healthy shards, so repairing that shard finds a single
    source outside it.  That raised ``ValueError`` out of
    ``ReedSolomonCode.decode`` and killed the run.  It is a deferral: the
    file is still readable (k = 2), and later epochs repair it.
    """
    engine = LifecycleEngine(LifecycleConfig(
        years=4.0, epochs_per_year=12, files=2, file_bytes=500, erasure_n=4,
        erasure_k=2, providers=9, churn=0.4, flake_rate=0.3, lanes=2, seed=3,
        s=4, k=3,
    ))
    try:
        while engine.next_epoch <= 41:
            engine.run_epoch()
        outcome = engine.outcome()
    finally:
        engine.close()
    short = [
        e for e in outcome.trail.of_kind("deferred")
        if dict(e.detail).get("why", "").startswith("only 1 healthy shards")
    ]
    assert short and min(e.epoch for e in short) == 38
    assert not outcome.trail.of_kind("lost")
    assert outcome.files_intact


def test_lifecycle_records_real_data_loss_and_finishes():
    """Below k healthy shards anywhere: a ``lost`` event, not a traceback."""
    engine = LifecycleEngine(LifecycleConfig(
        years=0.5, epochs_per_year=4, files=1, file_bytes=400, erasure_n=3,
        erasure_k=2, providers=6, churn=0.0, flake_rate=0.0, lanes=1, seed=5,
        s=3, k=2,
    ))
    try:
        holders = [audit.provider for audit in engine._shards.values()]
        for name in holders[:2]:           # 1 of 3 shards left, k = 2
            state = engine.providers[name]
            state.dead, state.alive = True, False
            engine.cluster.remove_node(name)
        outcome = engine.run()
    finally:
        engine.close()
    lost = outcome.trail.of_kind("lost")
    assert [e.subject for e in lost] == ["archive-00"]      # said once
    assert dict(lost[0].detail) == {"healthy": "1", "needed": "2"}
    assert outcome.epochs_run == 2
    assert not outcome.files_intact


def _imports(path: Path):
    """``(lineno, dotted parts)`` of every name a file under ``src/repro``
    imports, at any nesting level (function-level imports included);
    relative imports are resolved against the file's package."""
    package = ("repro", *path.relative_to(SRC_REPRO).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = tuple(node.module.split(".")) if node.module else ()
            if node.level:
                module = package[: len(package) - (node.level - 1)] + module
            for alias in node.names:
                yield node.lineno, (*module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, tuple(alias.name.split("."))


def _repro_imports(path: Path):
    """``(lineno, top-level repro subpackage)`` of every import in a file."""
    for lineno, parts in _imports(path):
        if parts[0] == "repro" and len(parts) > 1:
            yield lineno, parts[1]


def test_cli_imports_no_layer_a_scenario_composes():
    """``cli.py`` is ``build_parser`` + call, print, exit code."""
    banned = {"chain", "engine", "rollup", "rpc", "da"}
    offenders = [
        hit for hit in _repro_imports(SRC_REPRO / "cli.py") if hit[1] in banned
    ]
    assert not offenders


@pytest.mark.parametrize(
    "package, banned",
    [
        ("chain", "engine"),
        ("lifecycle", "rpc"),
        ("lifecycle", "dsn"),
        ("lifecycle", "chain.agents"),
    ],
)
def test_lower_layers_do_not_import_the_layers_above(package, banned):
    """No module under ``chain/`` imports ``repro.engine`` and none under
    ``lifecycle/`` imports ``repro.rpc``, function-level imports included.
    The lifecycle composes storage and keys itself and deploys no Fig. 2
    contract, so nothing under it imports ``repro.dsn`` or
    ``repro.chain.agents`` either."""
    root = SRC_REPRO / package
    prefix = ("repro", *banned.split("."))
    offenders = [
        (str(path.relative_to(root)), lineno)
        for path in sorted(root.rglob("*.py"))
        for lineno, parts in _imports(path)
        if parts[: len(prefix)] == prefix
    ]
    assert not offenders


def test_installed_package_holds_no_paper_comparison_code():
    """The Groth16 strawman, the MAC / Sia-style baselines, MiMC and the
    Section V-E beacon survey live in ``benchmarks/paper``; the audit stack
    neither ships nor imports them, nor anything else from ``benchmarks``,
    and ``repro.randomness`` is the interface plus the beacon it runs."""
    moved = {"snark", "baselines", "mimc", "beacons"}
    offenders = [
        (str(path.relative_to(SRC_REPRO)), lineno)
        for path in sorted(SRC_REPRO.rglob("*.py"))
        for lineno, parts in _imports(path)
        if moved & set(parts) or parts[0] == "benchmarks"
    ]
    assert not offenders
    shipped = find_packages(str(SRC_REPRO.parent))
    assert "repro.core" in shipped
    assert not {f"repro.{name}" for name in moved} & set(shipped)
    assert sorted(path.name for path in (SRC_REPRO / "randomness").glob("*.py")) == [
        "__init__.py", "beacon.py",
    ]


def test_one_function_reads_the_owner_secret():
    """Section V-B has one owner-side signing step,
    sigma_i = (g1^{M_i(alpha)} * H(name || i))^x: under ``src/repro`` only
    ``core.authenticator.generate_authenticators`` reads ``secret.x`` or
    ``secret.alpha`` (module-level reads count, as function ``None``)."""
    readers = set()

    def visit(node, relative, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("x", "alpha")
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "secret"
        ):
            readers.add((relative, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, relative, owner)

    for path in sorted(SRC_REPRO.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(SRC_REPRO).as_posix(), None)
    assert readers == {("core/authenticator.py", "generate_authenticators")}


def test_nobody_can_choose_where_an_epoch_runs():
    """``workers`` alone decides (``CrossShardAggregator`` derives lane
    threads from it): no function under ``src/repro`` takes a ``concurrent``
    parameter, the only thread pools are the aggregator's lane threads and
    the executor's prover threads, and the CLI has no flag for it."""
    takes_concurrent = [
        (str(path.relative_to(SRC_REPRO)), node.lineno)
        for path in sorted(SRC_REPRO.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg == "concurrent"
    ]
    assert not takes_concurrent
    thread_pools = {
        str(path.relative_to(SRC_REPRO))
        for path in SRC_REPRO.rglob("*.py")
        for _lineno, parts in _imports(path)
        if parts[-1] == "ThreadPoolExecutor"
    }
    assert thread_pools == {"rollup/fabric.py", "engine/executor.py"}
    with pytest.raises(SystemExit) as refused:
        repro.cli.build_parser().parse_args(["serve", "--concurrent"])
    assert refused.value.code == 2


def test_epochs_run_through_the_aggregator_or_the_lifecycle_engine():
    """``CrossShardAggregator`` is the one epoch driver, the lifecycle
    engine's included: nothing else under ``src/repro`` builds an
    ``EpochScheduler``, the hand-built ``run_engine`` / ``EngineReport`` are
    gone by name, and the CLI settles through ``checkpoint`` alone."""
    builders = sorted({
        path.relative_to(SRC_REPRO).as_posix()
        for path in SRC_REPRO.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "EpochScheduler"
    })
    assert builders == ["rollup/fabric.py"]
    named = [
        str(path.relative_to(SRC_REPRO.parent))
        for path in sorted(SRC_REPRO.parent.rglob("*.py"))
        if any(gone in path.read_text() for gone in ("run_engine", "EngineReport"))
    ]
    assert not named
    for gone in ("engine", "shard"):
        with pytest.raises(SystemExit) as refused:
            repro.cli.build_parser().parse_args([gone])
        assert refused.value.code == 2


def test_posted_proof_bytes_are_judged_by_one_screen():
    """``core.batch.screen_proof`` is where posted bytes become a statement
    or a named rejection: under ``src/repro`` nothing else but the engine's
    own outcome type decodes a ``PrivateProof``, and the four reject codes are
    spelled only under ``core/``."""
    codes = {"pairing-mismatch", "no-proof", "malformed-proof", "replayed-proof"}

    def decodes(node):
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "from_bytes"
            and getattr(node.func.value, "id", None) == "PrivateProof"
        )

    decoders, screens, spellers = set(), set(), set()
    for path in sorted(SRC_REPRO.rglob("*.py")):
        relative = path.relative_to(SRC_REPRO).as_posix()
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if decodes(node):
                decoders.add(relative)
            elif isinstance(node, ast.Constant) and node.value in codes:
                spellers.add(relative)
            elif relative == "core/batch.py" and isinstance(node, ast.FunctionDef):
                if any(decodes(inner) for inner in ast.walk(node)):
                    screens.add(node.name)
    assert decoders == {"core/batch.py", "engine/tasks.py"}
    assert screens == {"screen_proof"}
    assert spellers and all(name.startswith("core/") for name in spellers)


def test_a_batch_verdict_is_computed_once_over_one_cache():
    """``verify_batch_grouped`` returns the finished verdict and a process
    has one ``PrecomputeCache``, built where the class is: no prover,
    verifier, contract or engine builds, takes or threads a cache, the
    cache-less spellings, the lazy localisation with its wire twin, the
    process pool with its pickled batch task and the on-disk table store are
    gone by name, nothing under ``crypto/`` unpickles, and the lifecycle
    engine builds no scheduler and posts nothing itself: it settles through
    the aggregator."""
    cache_built_in, takes_a_cache = [], []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        relative = path.relative_to(SRC_REPRO).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee == "PrecomputeCache":
                    cache_built_in.append(relative)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) and relative.startswith(
                ("core/", "engine/", "chain/", "rollup/", "lifecycle/", "adversary/")
            ):
                takes_a_cache += [
                    (relative, node.lineno)
                    for arg in (
                        *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs
                    )
                    if arg.arg in ("cache", "precompute")
                ]
    assert cache_built_in == ["crypto/bn254/precompute.py"]
    assert not takes_a_cache
    named = [
        str(path.relative_to(SRC_REPRO.parent))
        for path in sorted(SRC_REPRO.parent.rglob("*.py"))
        if any(
            gone in path.read_text()
            for gone in (
                "pinpoint", "BatchVerifyResult", "gt_table", "g1_table",
                "ProcessPoolExecutor", "PrecomputeStore", "BatchVerifyTask",
                "pooled_verify", "crypto_cache",
            )
        )
    ]
    assert not named
    assert not [
        path for path in (SRC_REPRO / "crypto").rglob("*.py")
        if "import pickle" in path.read_text()
    ]

    def builds_a_scheduler(node):
        return [
            call for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "EpochScheduler"
        ]

    lifecycle = ast.parse((SRC_REPRO / "lifecycle" / "engine.py").read_text())
    assert not builds_a_scheduler(lifecycle)
    assert not [
        call for call in ast.walk(lifecycle)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) in (
            "post_checkpoint", "register_instance",
            "build_checkpoint", "build_fabric_checkpoint",
        )
    ]
    assert list(inspect.signature(EpochScheduler.__init__).parameters)[1:] == [
        "executor", "params", "beacon", "deterministic", "rng", "names", "tracer",
    ]
