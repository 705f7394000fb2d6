"""Command-line interface: the library's functionality as a tool.

    python -m repro keygen   --s 50 --out keys.bin
    python -m repro prepare  --file archive.bin --s 10 --k 8
    python -m repro audit    --size 20000 --rounds 3
    python -m repro checkpoint --owners 4 --files 4 --epochs 2  # epoch rollup
    python -m repro checkpoint --fraud                        # + fraud proof
    python -m repro checkpoint --lanes 4 --owners 1 --files 16  # chain fabric
    python -m repro checkpoint --lanes 2 --persist ./chainstate # + WAL stores
    python -m repro checkpoint --lanes 2 --workers 0          # + lane threads
    python -m repro attack   --s 6 --k 4                      # privacy attack
    python -m repro attack --strategy selective --rho 0.25    # byzantine provider
    python -m repro attack --strategy replay --onchain        # dispute + slashing
    python -m repro lifecycle --years 2 --churn 0.2 --lanes 2 # years of churn
    python -m repro lifecycle --persist ./lifecycle --resume  # crash + reopen
    python -m repro congest --storm --lanes 4 --blocks 12     # fee-market storm
    python -m repro congest --storm --griefer --lanes 2       # + fee griefing
    python -m repro serve --lanes 2 --port 8645               # JSON-RPC service
    python -m repro serve --workers 2 --probe                 # + lane threads
    python -m repro da-sample --lanes 2 --withhold 0.25       # DA sampling demo
    python -m repro da-sample --fraud                         # + counts slash
    python -m repro models   --users 5000

Everything runs locally against the simulated substrates; the tool exists
so a downstream user can poke at the system without writing code.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import scenarios
from .core import DataOwner, ProtocolParams, generate_keypair
from .obs.top import render_top
from .randomness import HashChainBeacon
from .sim.economics import one_time_storage_cost, usd_per_audit
from .sim.throughput import ChainCapacityModel, ProviderLoadModel

GWEI = 10**9


def _cmd_keygen(args: argparse.Namespace) -> int:
    keypair = generate_keypair(args.s, private_auditing=not args.no_privacy)
    blob = keypair.public.to_bytes()
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(blob)
        print(f"public key ({len(blob):,} B) written to {args.out}")
    print(f"s = {args.s}, on-chain pk footprint = {keypair.public.byte_size():,} B")
    print(f"one-time recording cost ~ ${one_time_storage_cost(args.s)['usd']:.2f}")
    return 0


def _cmd_prepare(args: argparse.Namespace) -> int:
    with open(args.file, "rb") as handle:
        data = handle.read()
    params = ProtocolParams(s=args.s, k=args.k)
    owner = DataOwner(params)
    package = owner.prepare(data)
    overhead = 32 * package.num_chunks
    print(f"file: {len(data):,} B -> {package.num_chunks} chunks (s={args.s})")
    print(f"authenticators: {overhead:,} B ({overhead/len(data):.1%} of data)")
    print(f"public key: {package.public.byte_size():,} B on chain")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    audit = scenarios.run_contract_audit(
        size=args.size, rounds=args.rounds, s=args.s, k=args.k, seed=args.seed,
        drop_after=args.drop_after,
    )
    contract = audit.contract
    if contract is None:
        print("provider rejected the package", file=sys.stderr)
        return 1
    print(f"contract closed: {contract.passes} passes, {contract.fails} fails")
    for record in contract.rounds:
        reason = f" [{record.reject_reason}]" if record.reject_reason else ""
        print(
            f"  round {record.round_id}: {'PASS' if record.passed else 'FAIL'}"
            f"{reason} gas={record.gas_used:,} "
            f"(${audit.cost.gas_to_usd(record.gas_used):.2f})"
        )
    # A provider told to drop data is expected to fail its later rounds.
    return 0 if args.drop_after is not None or contract.fails == 0 else 1


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Epoch rollup: settle an owners x files fleet, one commitment per lane-epoch."""
    if min(args.epochs, args.owners, args.files, args.lanes, args.s, args.k) < 1:
        print("checkpoint: --epochs, --owners, --files, --lanes, --s and --k "
              "must be >= 1", file=sys.stderr)
        return 2
    if args.workers < 0:
        print("checkpoint: --workers must be >= 0 (0 = one per CPU core)",
              file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    params = ProtocolParams(s=args.s, k=args.k)
    print(f"fleet: {args.owners} owners x {args.files} files "
          f"({args.owners * args.files} audit instances), s={args.s}, k={args.k}")
    instances = scenarios.build_fleet(
        params, rng, size=args.size, files=args.files, owners=args.owners
    )
    persist = args.persist or None
    print(f"fabric: {args.lanes} lanes"
          + (f", persisted under {persist}" if persist else " (in-memory)"))
    report = scenarios.run_settlement(
        instances, params, rng, lanes=args.lanes, epochs=args.epochs,
        workers=args.workers, persist=persist, fraud=args.fraud,
    )
    # Lane threads run iff workers > 1 and more than one lane holds audits.
    print(f"workers: {report.workers}, lanes: {args.lanes} "
          f"({len(report.settlements[0].lanes)} holding audits)")
    for settlement in report.settlements:
        commitment = settlement.fabric.checkpoint
        lanes = sorted(settlement.lanes.items())
        lane_parts = ", ".join(
            f"lane {lane_id}: {settled.bundle.checkpoint.num_leaves} audits"
            f"/{settled.receipt.gas_used:,} gas"
            for lane_id, settled in lanes
        )
        print(f"epoch {settlement.epoch}: {commitment.num_leaves} audits -> "
              f"{len(settlement.lanes)} checkpoint tx, one per lane "
              f"commitment ({lane_parts})")
        for lane_id, settled in lanes:
            result = settled.result
            print(f"  lane {lane_id}: prove {result.prove_seconds:.2f} s + "
                  f"batch-verify {result.verify_seconds:.2f} s -> "
                  f"{result.audits_per_second:.1f} audits/s, "
                  f"batch {'OK' if result.batch_ok else 'FAILED'}")
        print(f"  fabric super-commitment: {commitment.byte_size()} B, "
              f"root {commitment.fabric_root.hex()[:16]}…, "
              f"{commitment.accepted} accepted / {commitment.rejected} rejected")
    # Any third party verifies one round from the 87-byte commitment.
    print(f"light client: leaf->lane->fabric inclusion of file "
          f"{report.sample_name:#x} -> "
          f"{'OK' if report.inclusion.ok else report.inclusion.reason}")
    replay = report.replay
    print(f"light client: replayed {replay.checkpoints_checked} lane "
          f"checkpoints ({replay.rounds_checked} rounds) -> "
          f"{'consistent' if replay.consistent else 'INCONSISTENT'}")
    amortized = report.amortization
    print(
        f"per-round path: {amortized.per_round_trail_bytes:,} trail B, "
        f"{amortized.per_round_gas:,} gas per epoch; checkpointed: "
        f"{amortized.checkpoint_trail_bytes} B, "
        f"{amortized.checkpoint_gas:,} gas per lane "
        f"({amortized.bytes_reduction:,.0f}x bytes, "
        f"{amortized.gas_reduction:,.0f}x gas)"
    )
    fraud = report.fraud
    if fraud is not None:
        print(f"fraud proof (lane {fraud.lane_id}): forged checkpoint "
              f"(flipped verdict) "
              + (f"slashed, bounty {fraud.slashed_wei:,} wei" if fraud.caught
                 else "NOT slashed"))
    print("checkpoint log:")
    for event in report.checkpoint_log:
        print(f"  {event['name']}: {event['payload']}")
    print("per-lane gas totals:")
    for summary in report.lane_summaries:
        print(f"  lane {summary.lane}: {summary.gas_used:,} gas over "
              f"{summary.transactions} txs, {summary.chain_bytes:,} chain B, "
              f"congestion {summary.congestion_seconds:.0f} s")
    print(f"fabric settlement chain-time (slowest lane): "
          f"{report.settlement_chain_seconds:.0f} s")
    if report.state_hash is not None:
        matches = report.state_hash == report.reopened_state_hash
        print(f"state store: snapshot + reopen state_hash "
              f"{'MATCHES' if matches else 'DIVERGED'} "
              f"({report.state_hash[:16]}…)")
    return 0 if report.ok else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    """Adversary entry point: privacy attack or byzantine-provider scenarios."""
    if args.strategy != "privacy":
        return _cmd_attack_byzantine(args)
    report = scenarios.run_privacy_attack(s=args.s, k=args.k, seed=args.seed)
    print(
        f"observed {report.transcripts_seen} transcripts "
        f"(s*u = {report.transcripts_needed}); "
        f"recovered {report.chunks_recovered}/{report.chunks_targeted} chunks "
        f"from NON-PRIVATE proofs"
    )
    print("(re-run your deployment with private proofs: recovery drops to 0)")
    return 0


def _cmd_attack_byzantine(args: argparse.Namespace) -> int:
    """Run the adversarial strategy library (docs/SCENARIOS.md)."""
    if args.onchain:
        if args.strategy == "all":
            print(
                "--onchain drives one strategy per contract; running "
                "'replay' (pass --strategy <kind> for another)\n"
            )
        result = scenarios.run_onchain_dispute(
            strategy=args.strategy if args.strategy != "all" else "replay",
            rho=args.rho,
            rounds=args.rounds,
            params=ProtocolParams(s=args.s, k=args.k),
            seed=args.seed,
        )
        print("\n".join(result.summary_lines()))
        print("\nchain explorer export:")
        print(result.explorer.export_json())
        slashed = (
            result.collateral_slashed_wei
            or result.stake_before_wei - result.stake_after_wei
        )
        return 0 if result.fails > 0 and slashed > 0 else 1

    fleet = scenarios.run_byzantine_fleet(
        strategy=args.strategy, rho=args.rho, epochs=args.epochs,
        trials=args.trials, s=args.s, k=args.k, seed=args.seed,
    )
    report = fleet.report
    print("\n".join(report.summary_lines()))
    if fleet.sampling is not None:
        measured, predicted = fleet.sampling
        print(
            f"\nselective-storage sampling over {args.trials} trials: "
            f"measured {measured:.3f} vs 1-(1-rho)^c = {predicted:.3f} "
            f"(|delta| = {abs(measured - predicted):.3f})"
        )
    print(f"\nzero false accepts: {report.zero_false_accepts}; "
          f"zero false rejects: {report.zero_false_rejects}")
    return 0 if fleet.ok else 1


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    """Long-horizon lifecycle simulation: years of churn, repair, eviction."""
    from .lifecycle import LifecycleConfig, LifecycleEngine, LifecycleResumeError
    from .sim.throughput import LifecycleCapacityModel

    persist = args.persist or None
    if args.resume:
        if not persist:
            print("lifecycle: --resume requires --persist DIR", file=sys.stderr)
            return 2
        if args.workers < 0:
            print("lifecycle: --workers must be >= 0 (0 = one per CPU core)",
                  file=sys.stderr)
            return 2
        try:
            engine = LifecycleEngine.open(persist, workers=args.workers)
        except (LifecycleResumeError, OSError) as exc:
            print(f"lifecycle: cannot resume from {persist}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        print(f"resumed from {persist} at epoch {engine.next_epoch}/"
              f"{engine.config.total_epochs}")
    else:
        try:
            config = LifecycleConfig(
                years=args.years,
                epochs_per_year=args.epochs_per_year,
                files=args.files,
                file_bytes=args.size,
                erasure_n=args.shards,
                erasure_k=args.needed,
                providers=args.providers,
                churn=args.churn,
                flake_rate=args.flake,
                hazard=args.hazard,
                lanes=args.lanes,
                seed=args.seed,
                s=args.s,
                k=args.k,
                workers=args.workers,
                persist_dir=persist,
            )
            engine = LifecycleEngine(config)
        except ValueError as exc:
            print(f"lifecycle: {exc}", file=sys.stderr)
            return 2
        print(f"lifecycle: {config.files} files x RS({config.erasure_n},"
              f"{config.erasure_k}) over {config.providers} providers, "
              f"{config.total_epochs} epochs (~{config.years:g} years at "
              f"{config.epochs_per_year}/yr), churn {config.churn:.0%}/yr, "
              f"{config.lanes} lanes"
              + (f", persisted under {persist}" if persist else ""))
    while engine.next_epoch <= engine.config.total_epochs:
        summary = engine.run_epoch()
        line = (f"epoch {summary.epoch:3d}: {summary.audits} audits "
                f"({summary.accepted} ok/{summary.rejected} fail), "
                f"+{summary.joined}/-{summary.departed} providers, "
                f"{summary.repaired} repaired, {summary.evicted} evicted, "
                f"gas {summary.commitment_gas:,}")
        if summary.deferred:
            line += f", {summary.deferred} deferred"
        print(line)
    outcome = engine.outcome()
    print(f"\n{outcome.epochs_run} epochs in {outcome.wall_seconds:.1f} s "
          f"({outcome.epochs_per_second:.2f} epochs/s)")
    print(f"event trail: {len(outcome.trail)} events, "
          f"digest {outcome.trail_digest[:16]}…")
    print(f"fabric state_hash: {outcome.state_hash[:16]}…")
    print(f"repairs {outcome.total_repairs}, evictions "
          f"{outcome.total_evictions}, settlement gas "
          f"{outcome.total_commitment_gas:,}")
    slashes = len(outcome.trail.of_kind('slashed'))
    print(f"on-chain slashing records: {slashes} "
          f"(every eviction carries one: "
          f"{slashes >= outcome.total_evictions})")
    floor = min((s.min_healthy_shards for s in outcome.summaries),
                default=engine.config.erasure_n)
    print(f"durability: weakest file never below {floor} healthy shards "
          f"(k = {engine.config.erasure_k}); all files retrievable: "
          f"{outcome.files_intact}")
    model = LifecycleCapacityModel(
        lanes=engine.config.lanes,
        epochs_per_year=engine.config.epochs_per_year,
        churn=engine.config.churn,
        erasure_n=engine.config.erasure_n,
        erasure_k=engine.config.erasure_k,
    )
    projected = model.projected_durability(engine.config.years)
    print(f"model projection over {engine.config.years:g} years: "
          f"P[survive] = {projected:.6f}, chain growth "
          f"{model.cumulative_chain_bytes(engine.config.years, engine.config.files):,} B")
    engine.close()
    return 0 if outcome.files_intact else 1


def _cmd_congest(args: argparse.Namespace) -> int:
    """Fee-market congestion run: storm pooled lanes, report the market."""
    if args.lanes < 1 or args.blocks < 1 or args.senders < 1:
        print("congest: --lanes, --blocks and --senders must be positive",
              file=sys.stderr)
        return 2
    report = scenarios.run_congestion(
        lanes=args.lanes, blocks=args.blocks, load=args.load, storm=args.storm,
        griefer=args.griefer, senders=args.senders, tip=args.tip, seed=args.seed,
    )
    fabric = report.fabric
    print(f"congestion: {args.lanes} lane(s), offered load {report.load:g}x gas "
          f"target ({report.offered_gas:,} gas/block/lane), "
          f"{args.blocks} storm blocks"
          + (", fee griefer on lane 0" if report.griefer else ""))
    for lane_id, lane in enumerate(fabric.lanes):
        pool = lane.pool
        print(f"lane {lane_id}: peak base fee "
              f"{report.peak_base_fees_wei[lane_id] / GWEI:.3f} gwei, burned "
              f"{lane.burned:,} wei, drained {pool.stats['drained']}, evicted "
              f"{pool.stats['evicted']}, rejections {pool.rejection_total()} "
              f"{dict(sorted(pool.rejections.items()))}")
    print(f"priority inversions: {report.priority_inversions}")
    print(f"pool peak {report.pool_peak} (high watermark "
          f"{report.high_watermark}); watermark held: {report.watermark_held}")
    print(f"base fee decayed to floor after {report.decay_blocks} post-storm "
          f"blocks: {report.decayed_to_floor}")
    if report.inclusion_latency_blocks is not None:
        print(f"inclusion latency (Little's law estimate): "
              f"{report.inclusion_latency_blocks:.2f} blocks")
    if args.lanes > 1:
        fees = ", ".join(f"{fee / GWEI:.3f}" for fee in fabric.lane_base_fees())
        print(f"lane base fees (gwei): [{fees}]; congestion premium "
              f"{fabric.congestion_premium():.3f}x (hottest/coolest lane)")
    print(f"model: base-fee growth {report.model_growth_per_block:.4f}x/block "
          f"at this load, decay from peak in "
          f"{report.model_decay_blocks:.1f} empty blocks")
    if report.griefer is not None:
        for flagged in report.flagged:
            print(f"fee-griefer detection: {flagged.sender[:10]} flagged "
                  f"(gas share {flagged.gas_share:.0%}, mean tip "
                  f"{flagged.mean_tip_wei / GWEI:.2f} gwei)")
        print(f"griefer caught: {report.griefer_caught} "
              f"({len(report.flagged)} sender(s) flagged, griefer submitted "
              f"{report.griefer.submitted}, rejected {report.griefer.rejected})")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Host the long-lived JSON-RPC audit service over a sharded fabric."""
    if min(args.lanes, args.fleet, args.s, args.k) < 1 or min(args.epochs, args.workers) < 0:
        print("serve: --lanes, --fleet, --s and --k must be >= 1, "
              "--epochs and --workers >= 0", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    params = ProtocolParams(s=args.s, k=args.k)
    instances = scenarios.build_fleet(
        params, rng, size=args.size, files=args.fleet,
        tag="serve-{file}", owner_id="serve",
    )
    with scenarios.audit_service(
        instances, params, HashChainBeacon(b"cli-serve"), rng,
        lanes=args.lanes, workers=args.workers, host=args.host, port=args.port,
        metrics_port=args.metrics_port,
    ) as service:
        settlements = service.aggregator.run(args.epochs)
        threaded = " (concurrent)" if service.aggregator.concurrent else ""
        print(f"audit service on {service.host}:{service.port} — "
              f"{args.lanes} lanes{threaded}, "
              f"{len(instances)} audit instances, "
              f"{len(settlements)} epochs pre-settled, "
              f"{len(service.dispatcher.methods())} methods")
        if service.metrics_url is not None:
            print(f"prometheus metrics on {service.metrics_url}")
        if args.mine_interval > 0:
            service.node.start_auto_mine(args.mine_interval)
        if args.probe:
            # CI smoke: read the service back through a real socket, then
            # shut down cleanly.
            probe = scenarios.probe_service(service)
            print(f"probe node_status: lanes={probe.status['num_lanes']} "
                  f"height={probe.status['height']}")
            print(f"probe fee_suggest: max_fee="
                  f"{probe.fee_suggestion['max_fee_gwei']:g} gwei")
            print(f"probe checkpoint_get: epoch {probe.checkpoint['epoch']}, "
                  f"root {probe.checkpoint['fabric_root'][:16]}…")
            print(f"probe metrics_get: {probe.instruments} instruments, "
                  f"layers {probe.layers}")
            if probe.metrics_lines is not None:
                print(f"probe /metrics: {probe.metrics_lines} lines")
            for error in probe.hostile_errors:
                print(f"probe hostile tx: {error or 'NOT REFUSED'}")
            print(f"probe height {probe.heights[0]} -> {probe.heights[1]}")
            print(f"probe: {'OK' if probe.ok else 'FAILED'}; shutting down")
            return 0 if probe.ok else 1
        deadline = time.time() + args.duration if args.duration > 0 else None
        try:
            while deadline is None or time.time() < deadline:
                time.sleep(0.2)
        except KeyboardInterrupt:
            print("interrupted; shutting down")
        return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live service telemetry snapshots over the metrics_get RPC."""
    if args.iterations < 1 or args.interval < 0:
        print("top: --iterations must be >= 1, --interval >= 0",
              file=sys.stderr)
        return 2

    def frames(host: str, port: int) -> int:
        polled = scenarios.top_frames(host, port, args.iterations, args.interval)
        for index, (status, snapshot, lanes) in enumerate(polled, start=1):
            print(f"-- repro top @ {host}:{port} [{index}/{args.iterations}] --")
            print(render_top(status, snapshot, lanes))
        return 0

    if not args.demo:
        return frames(args.host, args.port)
    # Self-hosted demo: the same wiring as ``repro serve`` at toy size, read
    # back through the real socket — used by the CLI smoke tests.
    with scenarios.top_demo_service() as (host, port):
        return frames(host, port)


def _cmd_da_sample(args: argparse.Namespace) -> int:
    """Data-availability sampling demo over a live RPC service."""
    if not 1 <= args.data_chunks < args.chunks <= 255:
        print("da-sample: need 1 <= --data-chunks < --chunks <= 255",
              file=sys.stderr)
        return 2
    if not 0.0 <= args.withhold <= 1.0:
        print("da-sample: --withhold must be in [0, 1]", file=sys.stderr)
        return 2
    report = scenarios.run_da_sampling(
        lanes=args.lanes, fleet=args.fleet, epochs=args.epochs,
        samples=args.samples, chunks=args.chunks, data_chunks=args.data_chunks,
        withhold=args.withhold, fraud=args.fraud, size=args.size,
        s=args.s, k=args.k, seed=args.seed,
    )
    print(f"DA commitments for epoch {report.epoch}: "
          f"{len(report.samples)} lanes, (n, k) = "
          f"({report.da_params.n}, {report.da_params.k})")
    for lane_id, sample in report.samples.items():
        print(f"  lane {lane_id}: sampled {len(sample.outcomes)} of "
              f"{sample.commitment.n} chunks -> "
              f"{'available' if sample.available else 'WITHHELD'}; "
              f"downloaded {sample.downloaded_bytes:,} B "
              f"(full chunk set {report.full_chunk_bytes[lane_id]:,} B)")
    hiding = report.withholding
    if hiding is not None:
        sampled = hiding.sampled
        verdict = (
            f"missed this run (analytic P = {hiding.analytic_probability:.4f})"
            if sampled.available
            else f"DETECTED ({len(sampled.failures)} failed samples; analytic "
                 f"P = {hiding.analytic_probability:.4f})"
        )
        print(f"withholding: lane {hiding.lane} hiding {hiding.hidden}/"
              f"{sampled.commitment.n} chunks -> {verdict}")
        print(f"reconstruction: {len(hiding.reconstruction.records)} records "
              f"from {hiding.reconstruction.chunks_used} chunks; light-client "
              f"replay -> "
              f"{'consistent' if hiding.replay.consistent else 'INCONSISTENT'}")
    if report.fraud is not None:
        print(f"fraud proof: counts-forged checkpoint challenged from "
              f"{report.fraud.chunks_used} reconstructed chunks -> "
              + (f"slashed ({report.fraud.reason})" if report.fraud.caught
                 else "NOT slashed"))
    return 0 if report.ok else 1


def _cmd_models(args: argparse.Namespace) -> int:
    capacity = ChainCapacityModel()
    load = ProviderLoadModel()
    print(f"per audit: ${usd_per_audit():.3f} (5 Gwei) / "
          f"${usd_per_audit(gas_price_gwei=1.2):.3f} (1.2 Gwei)")
    print(f"chain throughput: {capacity.tx_per_second:.2f} tx/s; "
          f"max users: {capacity.max_concurrent_users():,}")
    growth = capacity.annual_chain_growth_bytes(args.users) / 2**30
    per_provider = load.users_per_provider(args.users)
    print(f"{args.users:,} users: +{growth:.2f} GB/yr on chain, "
          f"{per_provider} users/provider, "
          f"{load.proving_time_for_all(per_provider):.1f} s to prove all")
    return 0


def _add_protocol_args(parser, *, s: int, k: int, size: int | None = None,
                       size_help: str | None = None) -> None:
    """--s / --k / --seed (and --size): the knobs every auditing command takes."""
    if size is not None:
        parser.add_argument("--size", type=int, default=size, help=size_help)
    parser.add_argument("--s", type=int, default=s)
    parser.add_argument("--k", type=int, default=k)
    parser.add_argument("--seed", type=int, default=0)


def _add_workers_arg(parser) -> None:
    """--workers: the audit executor's prover threads."""
    parser.add_argument("--workers", type=int, default=1,
                        help="audit executor prover threads; above 1 each "
                        "populated lane also settles on its own thread "
                        "(0 = one per CPU core)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-assured on-chain auditing of decentralized storage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate an audit keypair")
    keygen.add_argument("--s", type=int, default=50)
    keygen.add_argument("--no-privacy", action="store_true")
    keygen.add_argument("--out", type=str, default="")
    keygen.set_defaults(func=_cmd_keygen)

    prepare = sub.add_parser("prepare", help="preprocess a local file")
    prepare.add_argument("--file", required=True)
    prepare.add_argument("--s", type=int, default=10)
    prepare.add_argument("--k", type=int, default=8)
    prepare.set_defaults(func=_cmd_prepare)

    audit = sub.add_parser("audit", help="simulate a full audit contract")
    _add_protocol_args(audit, s=8, k=5, size=10_000)
    audit.add_argument("--rounds", type=int, default=3)
    audit.add_argument("--drop-after", type=int, default=None,
                       help="provider drops data after this round")
    audit.set_defaults(func=_cmd_audit)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="settle audit epochs on a sharded chain fabric: one on-chain "
        "commitment per lane-epoch, a cross-shard super-commitment, "
        "light-client inclusion proofs, optional WAL-persisted lanes and "
        "fraud-proof demo",
    )
    checkpoint.add_argument("--owners", type=int, default=2)
    checkpoint.add_argument("--files", type=int, default=4,
                            help="files per owner (same key, distinct names)")
    checkpoint.add_argument("--epochs", type=int, default=2)
    _add_protocol_args(checkpoint, s=6, k=4, size=1_500)
    _add_workers_arg(checkpoint)
    checkpoint.add_argument("--fraud", action="store_true",
                            help="also post a forged (verdict-flipped) "
                            "checkpoint and slash it via the fraud proof")
    checkpoint.add_argument("--lanes", type=int, default=1,
                            help="chain fabric lanes; files are placed by "
                            "deterministic name hashing (1 = single chain)")
    checkpoint.add_argument("--persist", type=str, default="",
                            help="directory for per-lane WAL + snapshot "
                            "state stores (reopened runs recover "
                            "bit-identically)")
    checkpoint.set_defaults(func=_cmd_checkpoint)

    attack = sub.add_parser(
        "attack",
        help="adversary suite: the Section V-C privacy attack or a "
        "byzantine provider strategy (docs/SCENARIOS.md)",
    )
    attack.add_argument(
        "--strategy",
        choices=("privacy", "forge", "replay", "selective", "bitrot",
                 "offline", "all"),
        default="privacy",
        help="'privacy' = interpolation attack on plain proofs; anything "
        "else runs the byzantine provider library",
    )
    _add_protocol_args(attack, s=6, k=4)
    attack.add_argument("--rho", type=float, default=0.25,
                        help="strategy intensity: discard fraction / "
                        "corruption probability / offline probability")
    attack.add_argument("--epochs", type=int, default=3,
                        help="audit epochs for the engine-driven scenario")
    attack.add_argument("--trials", type=int, default=2000,
                        help="challenge-sampling trials for the detection-"
                        "rate measurement")
    attack.add_argument("--rounds", type=int, default=3,
                        help="contract rounds for --onchain")
    attack.add_argument("--onchain", action="store_true",
                        help="drive the strategy through the audit contract "
                        "and dispute the failures (slashes collateral and "
                        "reputation stake)")
    attack.set_defaults(func=_cmd_attack)

    lifecycle = sub.add_parser(
        "lifecycle",
        help="simulate years of DSN operation: churn, erasure repair, "
        "reputation-weighted re-placement, audit-driven eviction, per-epoch "
        "checkpoint settlement on a sharded fabric",
    )
    lifecycle.add_argument("--years", type=float, default=2.0)
    lifecycle.add_argument("--churn", type=float, default=0.2,
                           help="annual provider turnover probability")
    lifecycle.add_argument("--lanes", type=int, default=2,
                           help="chain fabric lanes for settlement")
    lifecycle.add_argument("--epochs-per-year", type=int, default=12,
                           help="time compression: audit epochs per "
                           "simulated year")
    lifecycle.add_argument("--files", type=int, default=2)
    lifecycle.add_argument("--shards", type=int, default=4,
                           help="erasure shards per file (RS n)")
    lifecycle.add_argument("--needed", type=int, default=2,
                           help="shards needed to reconstruct (RS k)")
    lifecycle.add_argument("--providers", type=int, default=8,
                           help="initial storage providers")
    lifecycle.add_argument("--flake", type=float, default=0.1,
                           help="annual P[a provider turns silently flaky]")
    lifecycle.add_argument("--hazard", choices=("exponential", "weibull"),
                           default="exponential",
                           help="departure hazard shape")
    lifecycle.add_argument("--persist", type=str, default="",
                           help="directory for WAL-persisted lanes + the "
                           "per-epoch engine snapshot (crash/reopen "
                           "continues bit-identically)")
    lifecycle.add_argument("--resume", action="store_true",
                           help="reopen the run persisted under --persist "
                           "at its last epoch boundary")
    _add_protocol_args(lifecycle, s=4, k=3, size=900,
                       size_help="bytes per stored file")
    _add_workers_arg(lifecycle)
    lifecycle.set_defaults(func=_cmd_lifecycle)

    congest = sub.add_parser(
        "congest",
        help="fee-market congestion run: storm pooled lanes with audit-"
        "shaped traffic, report base-fee dynamics, watermarks, priority "
        "inversions and (optionally) fee-griefer detection",
    )
    congest.add_argument("--lanes", type=int, default=1,
                         help="fabric lanes, each with its own pool and "
                         "fee market")
    congest.add_argument("--blocks", type=int, default=12,
                         help="storm duration in blocks")
    congest.add_argument("--load", type=float, default=1.5,
                         help="offered gas per block per lane, in multiples "
                         "of the fee market's gas target")
    congest.add_argument("--storm", action="store_true",
                         help="epoch-boundary audit storm: force the "
                         "offered load to at least 2x the gas target")
    congest.add_argument("--griefer", action="store_true",
                         help="add a fee-griefing adversary on lane 0 and "
                         "report the telemetry-based detection verdict")
    congest.add_argument("--senders", type=int, default=8,
                         help="honest audit submitters per lane")
    congest.add_argument("--tip", type=float, default=1.0,
                         help="honest priority fee in gwei")
    congest.add_argument("--seed", type=int, default=0)
    congest.set_defaults(func=_cmd_congest)

    serve = sub.add_parser(
        "serve",
        help="host the long-lived JSON-RPC audit service: per-lane "
        "mempool ingress, audit/checkpoint/proof queries, explorer "
        "endpoints, newline-framed JSON-RPC 2.0 over TCP",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = ephemeral, printed at start)")
    serve.add_argument("--lanes", type=int, default=2,
                       help="chain fabric lanes behind the service")
    serve.add_argument("--fleet", type=int, default=2,
                       help="audit instances preloaded into the aggregator")
    serve.add_argument("--epochs", type=int, default=1,
                       help="audit epochs settled before serving (gives "
                       "checkpoint_get/fabric_proof_get real data)")
    serve.add_argument("--mine-interval", type=float, default=0.5,
                       help="auto-mine period in seconds (0 = only "
                       "explicit 'mine' calls)")
    serve.add_argument("--duration", type=float, default=0.0,
                       help="serve for this many seconds then exit "
                       "(0 = until interrupted)")
    serve.add_argument("--metrics-port", type=int, default=-1,
                       help="expose Prometheus text metrics over HTTP on "
                       "this port (0 = ephemeral, -1 = disabled)")
    serve.add_argument("--probe", action="store_true",
                       help="CI smoke: start, call the service through "
                       "a socket client (and /metrics when enabled), "
                       "shut down cleanly")
    _add_protocol_args(serve, s=4, k=3, size=500,
                       size_help="bytes per preloaded file")
    _add_workers_arg(serve)
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="render live service telemetry snapshots (epochs/s, audits/s, "
        "lane utilization, mempool depth, base fees, verify latency) "
        "over the metrics_get RPC",
    )
    top.add_argument("--host", type=str, default="127.0.0.1")
    top.add_argument("--port", type=int, default=0,
                     help="port of a running 'repro serve' service")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between snapshot frames")
    top.add_argument("--iterations", type=int, default=1,
                     help="frames to render before exiting")
    top.add_argument("--demo", action="store_true",
                     help="self-host a tiny two-lane service in-process "
                     "and read it back (no running serve needed)")
    top.set_defaults(func=_cmd_top)

    da_sample = sub.add_parser(
        "da-sample",
        help="data-availability sampling: a light client verifies chunk "
        "availability over RPC, catches withholding, and reconstructs "
        "the leaf set from k-of-n chunks",
    )
    da_sample.add_argument("--lanes", type=int, default=2)
    da_sample.add_argument("--fleet", type=int, default=4,
                           help="audit instances across the fabric")
    da_sample.add_argument("--epochs", type=int, default=1)
    da_sample.add_argument("--samples", type=int, default=18,
                           help="light-client sample budget per epoch")
    da_sample.add_argument("--chunks", type=int, default=32,
                           help="extended chunks per epoch (RS n)")
    da_sample.add_argument("--data-chunks", type=int, default=8,
                           help="chunks needed to reconstruct (RS k)")
    da_sample.add_argument("--withhold", type=float, default=0.25,
                           help="fraction of one lane's chunks to withhold "
                           "for the detection demo (0 disables)")
    da_sample.add_argument("--fraud", action="store_true",
                           help="also post a counts-forged checkpoint and "
                           "slash it from DA-reconstructed leaves")
    _add_protocol_args(da_sample, s=6, k=4, size=1_500)
    da_sample.set_defaults(func=_cmd_da_sample)

    models = sub.add_parser("models", help="print the Section VII-D models")
    models.add_argument("--users", type=int, default=5_000)
    models.set_defaults(func=_cmd_models)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
