"""Light-client DA sampling: determinism, withholding detection, escalation.

The acceptance properties: the sample schedule is a pure function of
(seed, committed root); a withholding aggregator is flagged — never
silently tolerated — and the escalation path gathers any k verified
chunks to rebuild the full leaf set, raising ``DaUnavailable`` exactly
when the epoch's data is unrecoverable.
"""

from __future__ import annotations

import dataclasses
import types

import pytest

from repro.da import (
    DaParams,
    DaReconstructionMismatch,
    DaSampler,
    DaUnavailable,
    DaWithholdingDetected,
    build_da_bundle,
    bundle_fetch,
    detection_probability,
    sample_indices,
)
from repro.obs import MetricsRegistry
from repro.rollup import RoundRecord, build_checkpoint
from repro.scenarios import _rpc_chunk_fetch

PARAMS = DaParams(n=16, k=4)
SEED = b"\x00" * 7 + b"\x2a"


def make_bundle(lane: int = 0, epoch: int = 3, count: int = 4):
    records = tuple(
        RoundRecord(
            name=500 + i,
            epoch=epoch,
            challenge_bytes=bytes([i]) * 48,
            proof_bytes=bytes([i]) * 16,
            verdict=True,
        )
        for i in range(count)
    )
    return build_da_bundle(lane, epoch, build_checkpoint(epoch, records), PARAMS)


def make_sampler(bundle, registry=None):
    fetch = bundle_fetch({(bundle.commitment.lane_id, bundle.commitment.epoch): bundle})
    return DaSampler(fetch, registry=registry or MetricsRegistry())


# --------------------------------------------------------------------- #
# Schedule + analytics                                                  #
# --------------------------------------------------------------------- #

def test_detection_probability_values():
    assert detection_probability(0.0, 18) == 0.0
    assert detection_probability(1.0, 1) == 1.0
    assert detection_probability(0.25, 18) == pytest.approx(1 - 0.75**18)
    assert detection_probability(0.25, 18) > 0.99
    with pytest.raises(ValueError):
        detection_probability(1.5, 3)
    with pytest.raises(ValueError):
        detection_probability(0.5, -1)


def test_sample_indices_deterministic_without_replacement():
    root = make_bundle().commitment.root
    first = sample_indices(SEED, root, PARAMS.n, 10)
    second = sample_indices(SEED, root, PARAMS.n, 10)
    assert first == second
    assert len(first) == 10
    assert len(set(first)) == 10
    assert all(0 <= i < PARAMS.n for i in first)


def test_sample_indices_bind_seed_and_root():
    bundle_a = make_bundle(epoch=3)
    bundle_b = make_bundle(epoch=4)
    schedule = sample_indices(SEED, bundle_a.commitment.root, PARAMS.n, 12)
    assert schedule != sample_indices(
        b"\xff" * 8, bundle_a.commitment.root, PARAMS.n, 12
    )
    assert schedule != sample_indices(
        SEED, bundle_b.commitment.root, PARAMS.n, 12
    )


def test_sample_indices_budget_clamps_to_chunk_count():
    root = make_bundle().commitment.root
    full = sample_indices(SEED, root, PARAMS.n, 10 * PARAMS.n)
    assert sorted(full) == list(range(PARAMS.n))
    with pytest.raises(ValueError):
        sample_indices(SEED, root, 0, 4)
    with pytest.raises(ValueError):
        sample_indices(SEED, root, PARAMS.n, 0)


# --------------------------------------------------------------------- #
# Sampling runs                                                         #
# --------------------------------------------------------------------- #

def test_happy_path_sampling():
    bundle = make_bundle()
    registry = MetricsRegistry()
    sampler = make_sampler(bundle, registry)
    report = sampler.sample(bundle.commitment, SEED, budget=9)
    assert report.available
    assert report.failures == ()
    assert len(report.outcomes) == 9
    assert report.chunk_bytes == 9 * bundle.commitment.chunk_bytes
    assert report.proof_bytes > 0
    assert report.downloaded_bytes == report.chunk_bytes + report.proof_bytes
    report.raise_if_withheld()  # no-op when everything verified
    obj = report.to_object()
    assert obj["available"] is True
    assert obj["failed_indices"] == []
    assert obj["downloaded_bytes"] == report.downloaded_bytes


def test_sampling_is_reproducible():
    bundle = make_bundle()
    sampler = make_sampler(bundle)
    first = sampler.sample(bundle.commitment, SEED, budget=7)
    second = sampler.sample(bundle.commitment, SEED, budget=7)
    assert first.indices == second.indices
    assert first.outcomes == second.outcomes


def test_withholding_is_flagged_and_raised():
    bundle = make_bundle()
    bundle.withhold(range(PARAMS.n // 2))
    registry = MetricsRegistry()
    sampler = make_sampler(bundle, registry)
    # Sampling every chunk guarantees the withheld half is hit.
    report = sampler.sample(bundle.commitment, SEED, budget=PARAMS.n)
    assert not report.available
    assert {o.index for o in report.failures} == set(range(PARAMS.n // 2))
    assert all(o.reason == "missing" for o in report.failures)
    with pytest.raises(DaWithholdingDetected) as excinfo:
        report.raise_if_withheld()
    assert excinfo.value.failures == report.failures
    assert "sampled chunks failed" in str(excinfo.value)
    assert report.to_object()["available"] is False


def test_sampler_metrics_track_outcomes():
    bundle = make_bundle()
    bundle.withhold([0, 1, 2, 3])
    registry = MetricsRegistry()
    sampler = make_sampler(bundle, registry)
    sampler.sample(bundle.commitment, SEED, budget=PARAMS.n)
    rendered = registry.to_prometheus()
    assert 'da_samples_total{outcome="ok"} 12' in rendered
    assert 'da_samples_total{outcome="missing"} 4' in rendered
    assert "da_withholding_detected_total 1" in rendered


def test_forged_chunk_reads_as_bad_proof():
    bundle = make_bundle()
    honest = bundle_fetch(
        {(bundle.commitment.lane_id, bundle.commitment.epoch): bundle}
    )

    def forging(lane_id, epoch, indices):
        responses = honest(lane_id, epoch, indices)
        # Serve a different chunk's bytes under each sampled index, keeping
        # that other chunk's (valid!) proof — position binding must catch it.
        return {
            index: bundle.chunk_with_proof((index + 1) % PARAMS.n)
            for index in responses
        }

    sampler = DaSampler(forging, registry=MetricsRegistry())
    report = sampler.sample(bundle.commitment, SEED, budget=6)
    assert not report.available
    assert all(o.reason == "bad-proof" for o in report.outcomes)


def test_truncated_chunk_reads_as_bad_proof():
    bundle = make_bundle()
    honest = bundle_fetch(
        {(bundle.commitment.lane_id, bundle.commitment.epoch): bundle}
    )

    def truncating(lane_id, epoch, indices):
        return {
            index: None if resp is None else (resp[0][:-1], resp[1])
            for index, resp in honest(lane_id, epoch, indices).items()
        }

    sampler = DaSampler(truncating, registry=MetricsRegistry())
    report = sampler.sample(bundle.commitment, SEED, budget=4)
    assert {o.reason for o in report.outcomes} == {"bad-proof"}


class _RowServingClient:
    """``da_sample_get`` over one bundle, rows shaped as the service sends
    them, with the row for ``bad_index`` passed through ``corrupt``."""

    def __init__(self, bundle, bad_index, corrupt):
        self.bundle, self.bad_index, self.corrupt = bundle, bad_index, corrupt

    def call(self, method, params):
        assert method == "da_sample_get"
        rows = []
        for index in params["indices"]:
            chunk, proof = self.bundle.chunk_with_proof(index)
            row = {"index": index, "available": True, "data": chunk.hex(),
                   "proof": proof.to_object()}
            if index == self.bad_index:
                self.corrupt(row)
            rows.append(row)
        return {"chunks": rows}


_DELETE = object()


def _corrupt(*path, value=_DELETE):
    """Set the entry at ``path`` of a row to ``value``, or delete it."""

    def corrupt(row):
        *parents, last = path
        for key in parents:
            row = row[key]
        if value is _DELETE:
            del row[last]
        else:
            row[last] = value

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _corrupt("data", value="zz"),                  # bad hex
        _corrupt("proof", "namespace", value="0g"),
        _corrupt("proof", "siblings", 0, 2, value="not hex"),
        _corrupt("data"),                              # missing key
        _corrupt("proof"),
        _corrupt("available"),
        _corrupt("proof", "directions"),
        _corrupt("data", value=12),                    # wrong type
        _corrupt("proof", value="proof"),
        _corrupt("proof", "leaf_index", value="0"),
        _corrupt("proof", "siblings", value=7),
    ],
    ids=[
        "data-bad-hex", "namespace-bad-hex", "sibling-bad-hex", "no-data",
        "no-proof", "no-available", "no-directions", "data-int", "proof-str",
        "leaf-index-str", "siblings-int",
    ],
)
def test_undecodable_rpc_row_is_a_bad_proof_sample(corrupt):
    bundle = make_bundle()
    bad = sample_indices(SEED, bundle.commitment.root, PARAMS.n, 6)[2]
    client = _RowServingClient(bundle, bad, corrupt)
    sampler = DaSampler(_rpc_chunk_fetch(client), registry=MetricsRegistry())
    report = sampler.sample(bundle.commitment, SEED, budget=6)
    assert not report.available
    reasons = {o.index: o.reason for o in report.outcomes}
    assert reasons.pop(bad) == "bad-proof"
    assert set(reasons.values()) == {"ok"} and len(reasons) == 5


@pytest.mark.parametrize("reply", [{"chunks": 5}, {}, ["chunks"], None])
def test_rpc_reply_without_rows_samples_as_missing(reply):
    client = types.SimpleNamespace(call=lambda method, params: reply)
    sampler = DaSampler(_rpc_chunk_fetch(client), registry=MetricsRegistry())
    report = sampler.sample(make_bundle().commitment, SEED, budget=4)
    assert {o.reason for o in report.outcomes} == {"missing"}


def test_unknown_epoch_samples_as_missing():
    bundle = make_bundle(epoch=3)
    sampler = make_sampler(bundle)
    other = make_bundle(epoch=8)
    report = sampler.sample(other.commitment, SEED, budget=5)
    assert not report.available
    assert all(o.reason == "missing" for o in report.outcomes)


# --------------------------------------------------------------------- #
# Escalation: reconstruction                                            #
# --------------------------------------------------------------------- #

def test_reconstruct_tolerates_maximum_withholding():
    bundle = make_bundle()
    # Withhold everything the code can tolerate: n - k chunks.
    bundle.withhold(range(PARAMS.n - PARAMS.k))
    registry = MetricsRegistry()
    sampler = make_sampler(bundle, registry)
    reconstruction = sampler.reconstruct(bundle.commitment, SEED, batch=3)
    assert reconstruction.verified
    assert reconstruction.records == bundle_records(bundle)
    assert 'da_reconstructions_total{outcome="ok"} 1' in (
        registry.to_prometheus()
    )


def bundle_records(bundle):
    """Decode the bundle's own chunks: the ground-truth record set."""
    from repro.da import reconstruct_records

    chunks = {i: bundle.chunks[i] for i in range(bundle.commitment.k)}
    return reconstruct_records(bundle.commitment, chunks).records


def test_reconstruct_unavailable_below_k():
    bundle = make_bundle()
    bundle.withhold(range(PARAMS.n - PARAMS.k + 1))  # one too many
    registry = MetricsRegistry()
    sampler = make_sampler(bundle, registry)
    with pytest.raises(DaUnavailable, match="of the required"):
        sampler.reconstruct(bundle.commitment, SEED)
    assert 'da_reconstructions_total{outcome="unavailable"} 1' in (
        registry.to_prometheus()
    )


def test_reconstruct_mismatch_is_counted_and_raised():
    bundle = make_bundle()
    # Chunks and NMT openings verify against the DA root, but the leaf set
    # they decode to does not rebuild this (forged) checkpoint root.
    forged = dataclasses.replace(bundle.commitment, checkpoint_root=b"\x07" * 32)
    registry = MetricsRegistry()
    sampler = make_sampler(bundle, registry)
    with pytest.raises(DaReconstructionMismatch, match="checkpoint root"):
        sampler.reconstruct(forged, SEED)
    rendered = registry.to_prometheus()
    assert 'da_reconstructions_total{outcome="mismatch"} 1' in rendered
    assert 'outcome="ok"} 1' not in rendered


def test_reconstruct_happy_path_uses_k_chunks():
    bundle = make_bundle()
    sampler = make_sampler(bundle)
    reconstruction = sampler.reconstruct(bundle.commitment, SEED, batch=2)
    assert reconstruction.verified
    assert reconstruction.chunks_used >= bundle.commitment.k
