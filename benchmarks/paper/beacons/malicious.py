"""An adversary-scripted beacon (paper Section V-C, the eclipse scenario)."""

from __future__ import annotations

from repro.randomness import RandomnessBeacon


class MaliciousBeacon:
    """Adversary-scripted beacon for eclipse-attack experiments.

    Models the Section V-C scenario: an eclipse attacker monopolises the
    victim's view of the chain and feeds "well-calculated challenge
    randomness" of their choosing.
    """

    def __init__(self, outputs: dict[int, bytes], fallback: RandomnessBeacon):
        self._outputs = dict(outputs)
        self._fallback = fallback

    def script(self, round_id: int, value: bytes) -> None:
        self._outputs[round_id] = value

    def output(self, round_id: int) -> bytes:
        if round_id in self._outputs:
            return self._outputs[round_id]
        return self._fallback.output(round_id)

    @property
    def cost_usd(self) -> float:
        return self._fallback.cost_usd
