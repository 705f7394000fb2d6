"""The hash/MAC whole-file baseline (paper Section VIII, first paragraph).

"The most straightforward auditing scheme is applying the standard hash
function or message authentication codes (MAC) ... Despite the
computational efficiency, this scheme does not scale due to the
inconvenience that the verifier has to re-compute the result with the same
data input.  Also, it cannot support unlimited times of challenges."

The owner precomputes ``q`` response digests H(nonce_i || file) before
outsourcing; each audit burns one nonce.  Three measured drawbacks drive
the comparison benches: O(|F|) prover work per audit, a hard cap of ``q``
audits, and no public verifiability (the owner must hold the response
table).
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass


def _response(nonce: bytes, data: bytes) -> bytes:
    return hmac.new(nonce, b"MAC-AUDIT" + data, hashlib.sha256).digest()


@dataclass(frozen=True)
class MacChallenge:
    round_id: int
    nonce: bytes


class MacAuditor:
    """Owner side: precomputed nonce/response table, one entry per audit."""

    def __init__(self, data: bytes, num_challenges: int, rng=None):
        self.num_challenges = num_challenges
        self._nonces = [
            (os.urandom(16) if rng is None else bytes(rng.randrange(256) for _ in range(16)))
            for _ in range(num_challenges)
        ]
        self._expected = [_response(nonce, data) for nonce in self._nonces]
        self._used = 0

    @property
    def challenges_remaining(self) -> int:
        return self.num_challenges - self._used

    @property
    def table_bytes(self) -> int:
        """Owner-side storage for the response table."""
        return self.num_challenges * (16 + 32)

    def challenge(self) -> MacChallenge:
        if self._used >= self.num_challenges:
            raise RuntimeError(
                "challenge table exhausted: the MAC baseline supports only "
                f"{self.num_challenges} audits"
            )
        nonce = self._nonces[self._used]
        return MacChallenge(round_id=self._used, nonce=nonce)

    def verify(self, challenge: MacChallenge, response: bytes) -> bool:
        expected = self._expected[challenge.round_id]
        self._used = max(self._used, challenge.round_id + 1)
        return hmac.compare_digest(expected, response)


class MacProver:
    """Provider side: must touch the *entire* file for every audit."""

    def __init__(self, data: bytes):
        self.data = data
        self.bytes_read_total = 0

    def respond(self, challenge: MacChallenge) -> bytes:
        self.bytes_read_total += len(self.data)  # full-file scan per audit
        return _response(challenge.nonce, self.data)
