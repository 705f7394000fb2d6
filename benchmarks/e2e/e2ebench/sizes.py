"""Every size the benchmark uses, in one place.

Work is fixed, not time-boxed: a run does ``round(count * seconds /
REFERENCE_SECONDS)`` steps, so the same ``--seed`` and ``--seconds`` give
the same inputs, the same on-chain state and the same digests on any
host.  The counts below are calibrated so that the timed section of each
workload takes about ``REFERENCE_SECONDS`` on the 2-core reference host
(see README.md); a loop stops early at a step boundary only when it has
run for ``DEADLINE_FACTOR`` times its budget, which keeps a much slower
host inside the driver's per-run limit.
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SECONDS = 12
DEADLINE_FACTOR = 2.5

#: The host-speed kernel (harness.Host): its size, what it takes on the
#: reference host when nothing else competes for the core, and how soon
#: after one run of it the next timed region may reuse it.
KERNEL_LOOPS = 20_000
KERNEL_REFERENCE_SECONDS = 0.0095
KERNEL_REUSE_SECONDS = 0.001

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: In a traced run every third unit of work runs with the wrappers taken
#: out; traced pace over bare pace gives ``trace.overhead``.
BARE_EVERY = 3


@dataclass(frozen=True)
class Probes:
    """The client-side operations every workload also does (harness.py)."""

    #: Reads in one block of the read probe; a block follows every timed step.
    read_block: int = 2000
    #: About this many times per run the persisted state is copied and
    #: reopened, and ``submit_chunk`` value transfers are timed on the copy.
    recover_cycles: int = 8
    submit_chunk: int = 250


@dataclass(frozen=True)
class SettleCheckpoint:
    """Rollup path: engine prove + grouped batch-verify, one commitment per lane."""

    instances: int = 32
    s: int = 10
    k: int = 8
    file_bytes: int = 700
    lanes: int = 2
    da_n: int = 32
    da_k: int = 8
    #: Replay provers answer honestly except on epochs with
    #: ``epoch % cheat_period == cheat_period - 1``, where the lane batch
    #: fails and every one of its proofs is re-verified one by one.
    replay_provers: int = 4
    cheat_period: int = 3
    warmup_epochs: int = 3
    epochs: int = 15          # whole cheat periods, at REFERENCE_SECONDS


@dataclass(frozen=True)
class SettlePerRound:
    """Paper Fig. 2 as written: one unbatched on-chain verify per audit."""

    contracts: int = 16
    s: int = 10
    k: int = 8
    file_bytes: int = 700
    lanes: int = 2
    droppers: int = 3
    drop_after_round: int = 4
    warmup_rounds: int = 1
    rounds: int = 16


@dataclass(frozen=True)
class RpcService:
    """Live socket: codec, dispatch, mempool admit, WAL begin/commit, mine."""

    accounts: int = 4096
    lanes: int = 2
    instances: int = 8        # the small pre-settled aggregator
    s: int = 10
    k: int = 8
    file_bytes: int = 700
    da_n: int = 32
    da_k: int = 8
    presettled_epochs: int = 2
    #: A run is ``rounds`` rounds of: ``write_blocks`` blocks of ``mine_every``
    #: submits and a mine (W), ``read_blocks`` blocks of ``read_block`` reads,
    #: the seven methods in turn (R), and one epoch settled behind the live
    #: server (S), and an open-loop pass of ``open_pass_seconds`` at every
    #: rate (O).
    rounds: int = 15
    write_blocks: int = 5
    mine_every: int = 64
    read_blocks: int = 2
    read_block: int = 280
    open_rates: tuple[int, ...] = (400, 800, 1200)   # req/s
    #: ``submit_p50_ms`` is read at the rate the server sustains with room
    #: to spare; nearer saturation a p50 from due time is mostly backlog.
    headline_rate: int = 400
    open_pass_seconds: float = 0.1
    open_write_share: float = 0.8
    open_mine_every: int = 16
    #: On the tail percentile; one ``mine`` of 16 transactions alone holds
    #: the single connection for about 8 ms on the reference host.
    latency_limit_ms: float = 25.0


@dataclass(frozen=True)
class LifecycleYear:
    """bench_lifecycle's configuration with persistence on."""

    #: The churn trajectory is part of the workload: over 41 epochs world
    #: seeds 0xBEEF, 1 and 2 make 40, 39 and 13 repairs and world seed 3
    #: loses a file outright.  That is another workload (or a failed one),
    #: not run-to-run noise, so ``--seed`` picks the file contents (through
    #: ``file_bytes``) and leaves the trajectory alone.
    world_seed: int = 0xBEEF
    years: float = 4.0
    epochs_per_year: int = 12
    files: int = 2
    file_bytes: int = 500
    file_bytes_spread: int = 12
    erasure_n: int = 4
    erasure_k: int = 2
    providers: int = 9
    churn: float = 0.4
    flake_rate: float = 0.3
    lanes: int = 2
    s: int = 4
    k: int = 3
    warmup_epochs: int = 1
    epochs: int = 40


@dataclass(frozen=True)
class DaLightClient:
    """No pairings: GF(256) RS, NMT build/verify and sampling only."""

    records: int = 4000
    da_n: int = 240
    da_k: int = 80
    sample_runs: int = 50
    sample_budget: int = 18
    withheld_share: float = 0.25
    warmup_epochs: int = 1
    epochs: int = 16


@dataclass(frozen=True)
class Sizes:
    settle_checkpoint: SettleCheckpoint = SettleCheckpoint()
    settle_per_round: SettlePerRound = SettlePerRound()
    rpc_service: RpcService = RpcService()
    lifecycle_year: LifecycleYear = LifecycleYear()
    da_light_client: DaLightClient = DaLightClient()
    probes: Probes = Probes()
    kernel_loops: int = KERNEL_LOOPS


FULL = Sizes()

#: ``--smoke``: every workload shrunk to about two seconds.
SMOKE = Sizes(
    settle_checkpoint=SettleCheckpoint(
        instances=4, s=4, k=3, file_bytes=300, replay_provers=1,
        warmup_epochs=3, epochs=6,
    ),
    settle_per_round=SettlePerRound(
        contracts=4, s=4, k=3, file_bytes=300, droppers=1,
        drop_after_round=1, rounds=3,
    ),
    rpc_service=RpcService(
        accounts=64, instances=2, s=4, k=3, file_bytes=300,
        presettled_epochs=1, rounds=3, write_blocks=2, mine_every=16,
        read_blocks=1, read_block=14, open_rates=(200, 400), headline_rate=400,
        open_pass_seconds=0.07,
    ),
    lifecycle_year=LifecycleYear(
        years=1.0, epochs_per_year=4, files=1, erasure_n=3, providers=6,
        epochs=3,
    ),
    da_light_client=DaLightClient(
        records=96, da_n=32, da_k=8, sample_runs=3, epochs=4,
    ),
    probes=Probes(read_block=50, recover_cycles=2, submit_chunk=50),
    kernel_loops=KERNEL_LOOPS // 10,
)

SMOKE_SECONDS = REFERENCE_SECONDS   # smoke sizes are already final: scale 1
