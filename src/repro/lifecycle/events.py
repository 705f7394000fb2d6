"""Canonical lifecycle event trail: the replayable record of a simulated life.

Every observable state transition of the long-horizon engine — a provider
joining, crashing or being evicted, a shard being repaired and re-keyed,
an epoch settling through the checkpoint rollup — is appended to one
:class:`EventTrail` as a :class:`LifecycleEvent`.  The trail is the
engine's *test surface*: it has a canonical line encoding and a SHA-256
digest, so

* two runs from the same seed must produce byte-identical trails
  (determinism), and
* a crash + reopen must continue to the same final digest (durability),

both asserted by ``tests/lifecycle/``.  The encoding is text, one event
per line, so the explorer and humans can replay it without a decoder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

#: The closed set of event kinds the engine may emit (order = severity-free).
EVENT_KINDS = (
    "stored",      # a file placed under audit (subject = file id)
    "joined",      # a provider entered the cluster (subject = provider)
    "left",        # graceful departure, shards migrated first
    "crashed",     # provider vanished; its shards must be repaired
    "flaky",       # provider started silently failing audits
    "repaired",    # one shard regenerated onto a fresh provider
    "rekeyed",     # a migrated shard got a fresh audit keypair + file name
    "deferred",    # a repair could not be placed this epoch (retried later)
    "lost",        # a file fell below k healthy shards; no repair can help
    "evicted",     # audit/dispute record fell below threshold; removed
    "slashed",     # on-chain stake slash recorded for a provider
    "settled",     # one epoch committed through the checkpoint rollup
)


def _render_value(value) -> str:
    """Deterministic, newline-free rendering of one detail value."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bytes):
        return value.hex()
    text = str(value)
    for forbidden in ("\n", "|", ",", "="):
        text = text.replace(forbidden, "_")
    return text


@dataclass(frozen=True)
class LifecycleEvent:
    """One lifecycle transition in canonical form."""

    epoch: int
    kind: str
    subject: str
    detail: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown lifecycle event kind {self.kind!r}")

    @staticmethod
    def make(epoch: int, kind: str, subject: str, **detail) -> "LifecycleEvent":
        rendered = tuple(
            (key, _render_value(value)) for key, value in sorted(detail.items())
        )
        return LifecycleEvent(
            epoch=epoch, kind=kind, subject=_render_value(subject), detail=rendered
        )

    def to_line(self) -> str:
        """Canonical one-line encoding: ``epoch|kind|subject|k=v,k=v``."""
        details = ",".join(f"{key}={value}" for key, value in self.detail)
        return f"{self.epoch}|{self.kind}|{self.subject}|{details}"

    @staticmethod
    def from_line(line: str) -> "LifecycleEvent":
        parts = line.rstrip("\n").split("|")
        if len(parts) != 4:
            raise ValueError(f"malformed lifecycle event line: {line!r}")
        epoch_text, kind, subject, details = parts
        detail: list[tuple[str, str]] = []
        if details:
            for pair in details.split(","):
                key, _, value = pair.partition("=")
                detail.append((key, value))
        return LifecycleEvent(
            epoch=int(epoch_text), kind=kind, subject=subject, detail=tuple(detail)
        )

    def get(self, key: str, default: str | None = None) -> str | None:
        for candidate, value in self.detail:
            if candidate == key:
                return value
        return default


@dataclass
class EventTrail:
    """An append-only, digestible sequence of lifecycle events."""

    events: list[LifecycleEvent] = field(default_factory=list)

    def emit(self, epoch: int, kind: str, subject: str, **detail) -> LifecycleEvent:
        event = LifecycleEvent.make(epoch, kind, subject, **detail)
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def of_kind(self, kind: str) -> list[LifecycleEvent]:
        return [event for event in self.events if event.kind == kind]

    def for_epoch(self, epoch: int) -> list[LifecycleEvent]:
        return [event for event in self.events if event.epoch == epoch]

    def to_lines(self) -> list[str]:
        return [event.to_line() for event in self.events]

    @staticmethod
    def from_lines(lines) -> "EventTrail":
        return EventTrail(
            events=[LifecycleEvent.from_line(line) for line in lines if line.strip()]
        )

    def digest(self) -> str:
        """SHA-256 over the canonical line encoding (the determinism anchor)."""
        hasher = hashlib.sha256(b"lifecycle-trail-v1")
        for event in self.events:
            hasher.update(event.to_line().encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()
