"""What the five workloads share: scaling, timing, probes, the run loop."""

from __future__ import annotations

import bisect
import gc
import hashlib
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from . import sizes as S
from .spans import PROBE, PROBE_CTX, STEP, SpanRecorder

E2E_DIR = Path(__file__).resolve().parents[1]
RESULTS = E2E_DIR / "results"
REPO_ROOT = E2E_DIR.parents[1]


# --------------------------------------------------------------------------- #
# Small helpers                                                               #
# --------------------------------------------------------------------------- #


def scaled(count: int, seconds: float, multiple: int = 1) -> int:
    """``count`` steps at the reference budget, scaled to ``seconds``: whole
    ``multiple``s, and at least two (a traced run needs a bare and a traced one)."""
    steps = round(count * seconds / S.REFERENCE_SECONDS / multiple) * multiple
    return max(2 * multiple, steps)


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values: list[float]) -> tuple[float, float]:
    """(q, value) for the highest percentile <= p99 with >= 10 samples beyond it."""
    q = max(0.5, min(0.99, 1.0 - 10.0 / len(values)))
    return q, quantile(values, q)


def latency_summary(values_ms: list[float]) -> dict:
    q, value = tail(values_ms)
    return {
        "p50": statistics.median(values_ms),
        "tail_percentile": round(q * 100, 1),
        "tail": value,
        "n": len(values_ms),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fresh_dir() -> str:
    """A new scratch directory under results/ (the only place we write)."""
    parent = RESULTS / "tmp"
    parent.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="e2e-", dir=parent)


def digest(*parts: object) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part if isinstance(part, bytes) else str(part).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


# --------------------------------------------------------------------------- #
# Host speed                                                                  #
# --------------------------------------------------------------------------- #
#
# The hosts this runs on are small shared virtual machines whose cores get
# slower by 10 to 40 % for seconds or minutes at a time (README.md has the
# measurements).  A raw wall time then says more about the neighbours than
# about the program.  So every timed region is bracketed by a fixed kernel
# of interpreter, big-integer, dict and byte-table work, and the region's time is
# divided by how much slower than KERNEL_REFERENCE_SECONDS that kernel ran
# right around it.  Times read as seconds at the reference host's quiet
# speed; the raw wall time and the speed are kept beside them.

_KERNEL_MODULUS = 21888242871839275222246405745257275088696311157297823662689037894645226208583
_KERNEL_TABLE = bytes((index * 7 + 3) & 255 for index in range(256))
_KERNEL_BUFFER = bytes(range(256)) * 1024


def _kernel(loops: int) -> None:
    """A little of each kind of work the program does: interpreter loop,
    256-bit modular multiplication (bn254), dict updates (chain state),
    table-driven byte translation and wide XOR (gf256)."""
    total = 0
    for index in range(loops):
        total += index * index % 7
    x, y = _KERNEL_MODULUS - 12345, _KERNEL_MODULUS - 98765
    for _ in range(loops // 2):
        x = x * y % _KERNEL_MODULUS
    table: dict[int, int] = {}
    for index in range(loops // 3):
        table[index & 1023] = index
    data = _KERNEL_BUFFER
    for _ in range(loops // 2000):
        data = data.translate(_KERNEL_TABLE)
    half = len(data) // 2
    a, b = int.from_bytes(data[:half], "little"), int.from_bytes(data[half:], "little")
    for _ in range(loops // 500):
        a ^= b
        b ^= a >> 1


class Timed:
    """One timed region: ``wall`` seconds as measured, ``speed`` the host's
    slowness around it (1.0 = the reference host when quiet), ``seconds``
    the wall time at that reference speed."""

    wall = speed = seconds = 0.0


class Host:
    def __init__(self, kernel_loops: int = S.KERNEL_LOOPS) -> None:
        self.loops = kernel_loops
        self.reference_seconds = S.KERNEL_REFERENCE_SECONDS * kernel_loops / S.KERNEL_LOOPS
        #: (start, speed) of every timed region, in time order.
        self.regions: list[tuple[float, float]] = []
        self._last_tick = (float("-inf"), 0.0)   # (when it ended, kernel seconds)

    def _tick(self) -> float:
        start = time.perf_counter()
        _kernel(self.loops)
        end = time.perf_counter()
        self._last_tick = (end, end - start)
        return end - start

    @contextmanager
    def timed(self):
        """Time the body.  Regions that follow one another share the kernel
        run between them."""
        ended, before = self._last_tick
        if time.perf_counter() - ended > S.KERNEL_REUSE_SECONDS:
            before = self._tick()
        region = Timed()
        start = time.perf_counter()
        try:
            yield region
        finally:
            region.wall = time.perf_counter() - start
            region.speed = (before + self._tick()) / 2 / self.reference_seconds
            region.seconds = region.wall / region.speed
            self.regions.append((start, region.speed))

    @property
    def speeds(self) -> list[float]:
        return [speed for _, speed in self.regions]

    def speed_at(self, when: float) -> float:
        """The speed of the timed region ``when`` (a perf_counter reading)
        falls in, or of the last one that began before it."""
        index = bisect.bisect_right(self.regions, (when, float("inf"))) - 1
        return self.regions[max(index, 0)][1]


# --------------------------------------------------------------------------- #
# Timed steps                                                                 #
# --------------------------------------------------------------------------- #


@dataclass
class Measurement:
    """What the timed steps of one workload gave.  Seconds are at the
    reference host's speed (``Timed.seconds``)."""

    step_seconds: list[float] = field(default_factory=list)
    audits: int = 0            # audits that ended with an on-chain verdict
    gas: int = 0
    chain_bytes: int = 0
    txs: int = 0
    blocks: int = 0
    attempted: int = 0
    failed: int = 0
    #: Seconds per unit of work when a step is not the unit trace.overhead
    #: should compare (rpc_service: one phase-W block of transactions).
    pace_seconds: list[float] = field(default_factory=list)
    #: Traced runs only: the steps that ran with the wrappers taken out.
    bare: Measurement | None = None

    @classmethod
    def for_run(cls, rec: SpanRecorder | None) -> Measurement:
        return cls(bare=None if rec is None else cls())

    def side(self, traced: bool) -> Measurement:
        return self if traced or self.bare is None else self.bare

    @property
    def total_seconds(self) -> float:
        return sum(self.step_seconds)

    @property
    def pace(self) -> float:
        """Median seconds per unit of work: what trace.overhead compares."""
        return statistics.median(self.pace_seconds or self.step_seconds)


def set_tracing(rec: SpanRecorder, on: bool) -> None:
    """Wrappers and the program's own crypto profiler, in or out together."""
    from repro.obs import HOTPATH

    if on:
        rec.resume()
        HOTPATH.enable()
    else:
        rec.pause()
        HOTPATH.disable()


@contextmanager
def maybe_bare(rec: SpanRecorder | None, unit_index: int):
    """In a traced run every BARE_EVERY-th unit of work runs untraced, so the
    two paces that give ``trace.overhead`` come from interleaved work.
    Yields whether this unit is one of them."""
    bare = rec is not None and unit_index % S.BARE_EVERY == 0
    if bare:
        set_tracing(rec, False)
    try:
        yield bare
    finally:
        if bare:
            set_tracing(rec, True)


def run_steps(
    measurement: Measurement,
    steps: range,
    step,
    host: Host,
    rec: SpanRecorder | None,
    kind: str,
    budget_seconds: float,
    unit: int = 1,
    meter: ChainMeter | None = None,
    between=None,
) -> None:
    """Run ``step(i, m)`` for every ``i``, timing each one on its own.

    ``m`` is where the step's counts go: ``measurement`` itself, or its
    ``bare`` side for the units (``unit`` steps each) a traced run leaves
    untraced.  ``between()`` runs after every step, outside its timing:
    the workloads hang their client-side probes there, so that a probe's
    samples are spread over the whole run and a host stall of a second or
    two hits a minority of them.  The loop gives up at a step boundary
    after DEADLINE_FACTOR times its budget, so a host far slower than the
    reference one still finishes.
    """
    deadline = time.perf_counter() + S.DEADLINE_FACTOR * budget_seconds
    for index in steps:
        done = len(measurement.step_seconds)
        if measurement.bare is not None:
            done += len(measurement.bare.step_seconds)
        with maybe_bare(rec, done // unit) as bare:
            m = measurement.side(not bare)
            with host.timed() as timed, span(rec, STEP, ctx=f"{kind}:{index}"):
                step(index, m)
            m.step_seconds.append(timed.seconds)
        if meter is not None:
            meter.add_to(m)
        if between is not None:
            between()
        if time.perf_counter() > deadline:
            break


class ChainMeter:
    """Gas, bytes, transactions and blocks a chain (or fabric) gained."""

    def __init__(self, chain):
        self.lanes = list(getattr(chain, "lanes", [chain]))
        self.start = self._read()

    def _read(self) -> tuple[int, int, int, int]:
        gas = bytes_ = txs = blocks = 0
        for lane in self.lanes:
            for block in lane.blocks:
                gas += block.gas_used
                txs += len(block.receipts)
            bytes_ += lane.chain_bytes()
            blocks += len(lane.blocks)
        return gas, bytes_, txs, blocks

    def skip(self) -> None:
        """Leave what the chain gained since the last reading out of account."""
        self.start = self._read()

    def add_to(self, measurement: Measurement) -> None:
        now = self._read()
        measurement.gas += now[0] - self.start[0]
        measurement.chain_bytes += now[1] - self.start[1]
        measurement.txs += now[2] - self.start[2]
        measurement.blocks += now[3] - self.start[3]
        self.start = now


# --------------------------------------------------------------------------- #
# Inputs                                                                      #
# --------------------------------------------------------------------------- #


def prepare_fleet(params, seed: int, count: int, file_bytes: int, tag: str, lanes: int):
    """``count`` outsourcing packages under one owner key, made from ``seed``.

    The fleet is dealt round-robin over the fabric's lanes, each lane
    holding the same number of files (``count`` is a multiple of
    ``lanes``): batch sizes, WAL frame sizes, and which lanes the first few
    packages (the cheaters, the droppers) sit on, then do not depend on
    where names happen to hash.
    """
    from repro.chain.fabric import lane_index_for_key
    from repro.core import DataOwner
    from repro.sim.workloads import archive_file

    if count % lanes:
        raise ValueError("a balanced fleet needs a multiple of the lane count")
    owner = DataOwner(params, rng=random.Random(seed))
    held: list[list] = [[] for _ in range(lanes)]
    serial = 0
    while min(len(lane) for lane in held) < count // lanes:
        candidate = owner.prepare(
            archive_file(file_bytes, tag=f"{tag}-{seed}-{serial}").data,
            fresh_keypair=serial == 0,
        )
        held[lane_index_for_key(candidate.name, lanes)].append(candidate)
        serial += 1
    return [held[index % lanes][index // lanes] for index in range(count)]


# --------------------------------------------------------------------------- #
# Probes: the user-side operations every workload also does                   #
# --------------------------------------------------------------------------- #
#
# The driver reads every end-to-end metric from every workload, so each
# workload also does the same client-side operations against its own state,
# between the timed steps: reads, a light-client check, a reopen from disk
# and single-transaction submits.  Run there, a probe's samples are spread
# over the whole run, and a host stall of a second or two hits a minority
# of them.  README.md marks which (workload, metric) pairs are the
# workload's purpose and which come from these probes.


def span(rec: SpanRecorder | None, name: str, ctx: str | None = None):
    """A span around the benchmark's own call into a layer (traced runs only)."""
    return nullcontext() if rec is None or not rec.active else rec.span(name, ctx=ctx)


def probe_span(rec: SpanRecorder | None, what: str):
    return nullcontext() if rec is None else rec.span(PROBE, ctx=PROBE_CTX + what)


@dataclass
class Reopened:
    """What a workload's ``reopen(directory)`` hands back: its state read from disk."""

    fingerprint: object        # what must equal the live state
    frames: int                # WAL frames replayed
    lane: object               # a Blockchain to submit the probe transfers to
    close: object


class DurabilityProbe:
    """Between two timed steps: copy the persisted state as it is, reopen the
    copy (``recover_s``), check that it equals the live state, and time a few
    single value transfers executed in-process on it (``submit_p50_ms``).

    The copy keeps the probe's transfers out of the workload's own log.
    About ``recover_cycles`` of the ``steps`` calls do this, the last one
    always; ``recover_s`` is the mean over those cycles and ``submit_p50_ms``
    the median over all their transfers.  Without
    ``accounts`` (rpc_service, whose submit latency comes off the wire)
    there are no transfers.
    """

    def __init__(self, host: Host, rec, sizes: S.Probes, steps: int, directory, reopen,
                 fingerprint, accounts=None):
        self.host = host
        self.rec = rec
        self.sizes = sizes
        self.left = steps
        self.every = -(-steps // sizes.recover_cycles)
        self.directory = directory
        self.reopen = reopen            # reopen(directory) -> Reopened
        self.fingerprint = fingerprint  # fingerprint() -> the live state's
        self.accounts = accounts
        self.recover_seconds: list[float] = []
        self.submit_ms: list[float] = []
        self.same = True
        self.frames = 0

    def __call__(self) -> None:
        from repro.chain.transaction import Transaction

        self.left -= 1
        if self.left % self.every:
            return
        copy = Path(fresh_dir()) / "copy"
        shutil.copytree(self.directory, copy)
        expected = self.fingerprint()
        with probe_span(self.rec, "recover"), self.host.timed() as timed:
            reopened = self.reopen(str(copy))
        self.recover_seconds.append(timed.seconds)
        try:
            self.same = self.same and reopened.fingerprint == expected
            self.frames = reopened.frames
            if self.accounts is not None:
                sender, recipient = self.accounts
                latencies = []
                with probe_span(self.rec, "submit"), self.host.timed() as timed:
                    for _ in range(self.sizes.submit_chunk):
                        start = time.perf_counter()
                        receipt = reopened.lane.transact(
                            Transaction(sender=sender, to=recipient, value=1)
                        )
                        latencies.append(time.perf_counter() - start)
                        if not receipt.success:
                            raise RuntimeError(f"probe transfer failed: {receipt.error}")
                self.submit_ms.extend(wall * 1000.0 / timed.speed for wall in latencies)
        finally:
            reopened.close()
            shutil.rmtree(copy.parent, ignore_errors=True)

    @property
    def recover_s(self) -> float:
        # The log grows over the run, so the samples trend; their median
        # would rest on the middle two alone.
        return statistics.fmean(self.recover_seconds)

    @property
    def attempted(self) -> int:
        return len(self.recover_seconds) + len(self.submit_ms)

    def wal_layers(self, chain) -> dict[str, float]:
        """The ``wal.*`` per-layer metrics that are read, not traced."""
        lanes = getattr(chain, "lanes", [chain])
        txs = sum(len(block.receipts) for lane in lanes for block in lane.blocks)
        wal_bytes = sum(os.path.getsize(lane.store.wal_path) for lane in lanes)
        return {
            "wal.recover_s": self.recover_s,
            "wal.frames": self.frames,
            "wal.bytes_per_tx": wal_bytes / txs,
        }


class LiveProbes:
    """What runs between the timed steps (``run_steps(between=...)``): one
    block of client-side reads, one light-client pass, and the durability
    probe; each rate is the median over the blocks."""

    def __init__(self, read_one, light_client, durability: DurabilityProbe):
        self.host = durability.host
        self.rec = durability.rec
        self.reads = durability.sizes.read_block
        self.read_one = read_one            # read_one(i): one lookup
        self.light_client = light_client    # light_client() -> leaves checked
        self.durability = durability
        self.read_rates: list[float] = []
        self.leaf_rates: list[float] = []

    def __call__(self) -> None:
        with probe_span(self.rec, "reads"), self.host.timed() as timed:
            for index in range(self.reads):
                self.read_one(index)
        self.read_rates.append(self.reads / timed.seconds)
        with probe_span(self.rec, "light-client"), self.host.timed() as timed:
            leaves = self.light_client()
        self.leaf_rates.append(leaves / timed.seconds)
        self.durability()

    def results(self) -> dict:
        """The probe metrics and counts every non-RPC workload reports."""
        durability = self.durability
        return {
            "reads_per_s": statistics.median(self.read_rates),
            "leaves_per_s": statistics.median(self.leaf_rates),
            "recover_s": durability.recover_s,
            "submit_ms": durability.submit_ms,
            "attempted": len(self.read_rates) * self.reads + durability.attempted,
            "detail": {"submit_ms": latency_summary(durability.submit_ms)},
        }


def reopen_fabric(directory: str, lanes: int, pooled: bool = False) -> Reopened:
    """A fabric reopened from ``directory``; ``pooled`` as the live one was
    (the pool's state is in the log too)."""
    from repro.chain import ShardedChainFabric
    from repro.chain.mempool import MempoolConfig

    fabric = ShardedChainFabric(
        num_lanes=lanes, persist_dir=directory, mempool=MempoolConfig() if pooled else None
    )
    frames = sum(lane.store.replayed_records for lane in fabric.lanes)
    return Reopened(fabric.state_hash(), frames, fabric.lanes[0], fabric.close)


# --------------------------------------------------------------------------- #
# One workload, set up and run                                                #
# --------------------------------------------------------------------------- #


class Workload:
    """What the five workloads share: where their sizes are, what they own.

    A subclass has a ``name`` (also its field in ``Sizes``), ``setup()``,
    ``measure(rec) -> Measurement`` and ``probes() -> dict`` — the probe
    metrics plus ``attempted``/``failed``, ``gates``, ``digests``, ``detail``,
    ``layers`` (per-layer values read, not traced) and ``prove_reports``.
    """

    name: str

    def __init__(self, sizes: S.Sizes, seed: int, seconds: float, host: Host):
        self.host = host
        self.sizes = sizes
        self.z = getattr(sizes, self.name)
        self.seed = seed
        self.budget = seconds
        self.directory: str | None = None
        self._owned: list = []

    def own(self, resource):
        """``resource.close()`` is called by ``close()``, last opened first."""
        self._owned.append(resource)
        return resource

    def close(self) -> None:
        while self._owned:
            self._owned.pop().close()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    digests: dict[str, str]
    detail: dict
    gates: dict[str, bool]


def run_workload(cls, sizes: S.Sizes, seed: int, seconds: float, traced: bool,
                 setup_repeats: int = S.SETUP_REPEATS) -> RunResult:
    """Set a workload up (several times), run it, tear everything down.

    Untraced: no wrapper is installed and HOTPATH stays off; the result
    carries the end-to-end metrics.  Traced: the wrappers go in, every
    BARE_EVERY-th unit of work runs with them taken out again (that is the
    pace ``trace.overhead`` compares against), and the result carries the
    per-layer metrics of the traced steps.
    """
    from repro.obs import HOTPATH

    setup_seconds = []
    workload = None
    host = Host(sizes.kernel_loops)
    try:
        for _ in range(setup_repeats):
            if workload is not None:
                workload.close()
            gc.collect()
            workload = cls(sizes, seed, seconds, host)
            with host.timed() as timed:
                workload.setup()
            setup_seconds.append(timed.seconds)
        gc.collect()
        if not traced:
            if HOTPATH.enabled:
                raise RuntimeError("the untraced run must find HOTPATH off")
            measured = workload.measure(None)
            probes = workload.probes()
            metrics = _end_to_end(measured, probes, statistics.median(setup_seconds))
            parts = [measured]
        else:
            from .layers import install, layer_metrics

            rec = SpanRecorder()
            reports: list = []
            install(rec, reports)
            HOTPATH.reset()
            HOTPATH.enable()
            try:
                measured = workload.measure(rec)
                hotpath = HOTPATH.snapshot()
                probes = workload.probes()
            finally:
                HOTPATH.disable()
                HOTPATH.reset()
                rec.restore()
            reports.extend(probes.get("prove_reports", []))
            extras = dict(probes.get("layers", {}))
            extras["engine.audits"] = measured.audits
            extras["chain.txs"] = measured.txs
            extras["chain.blocks"] = measured.blocks
            extras["trace.overhead"] = measured.pace / measured.bare.pace - 1.0
            metrics = layer_metrics(rec, host, measured.audits, hotpath, reports, extras)
            RESULTS.mkdir(parents=True, exist_ok=True)
            rec.write_jsonl(RESULTS / f"trace_{cls.name}.jsonl")
            parts = [measured.bare, measured]
        gates = dict(probes.get("gates", {}))
        attempted = sum(p.attempted for p in parts) + probes.get("attempted", 0)
        failed = sum(p.failed for p in parts) + probes.get("failed", 0)
        failed += sum(1 for ok in gates.values() if not ok)
        speeds = host.speeds
        return RunResult(
            workload=cls.name,
            seed=seed,
            traced=traced,
            metrics=metrics,
            attempted=attempted,
            failed=failed,
            correct=failed == 0,
            digests=dict(probes.get("digests", {})),
            detail={
                **probes.get("detail", {}),
                # Multiply a time by the speed around it to get wall seconds back.
                "host_speed": {
                    "p50": statistics.median(speeds),
                    "min": min(speeds),
                    "max": max(speeds),
                    "regions": len(speeds),
                },
            },
            gates=gates,
        )
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(RESULTS / "tmp", ignore_errors=True)


def _end_to_end(m: Measurement, probes: dict, setup_s: float) -> dict[str, float]:
    return {
        "audits_per_s": m.audits / m.total_seconds,
        "epoch_p50_s": statistics.median(m.step_seconds),
        "gas_per_audit": m.gas / m.audits,
        "onchain_bytes_per_audit": m.chain_bytes / m.audits,
        "tx_per_s": probes.get("tx_per_s", m.txs / m.total_seconds),
        "reads_per_s": probes["reads_per_s"],
        "submit_p50_ms": statistics.median(probes["submit_ms"]),
        "recover_s": probes["recover_s"],
        "leaves_per_s": probes["leaves_per_s"],
        "sample_bytes_per_epoch": probes["sample_bytes_per_epoch"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
