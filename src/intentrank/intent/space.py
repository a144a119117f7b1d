"""Intent space and the per-query intent probability distribution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..errors import ConfigurationError, InvariantError

FALLBACK_INTENT = "generic"


@dataclass(frozen=True)
class IntentSpace:
    """Fixed set of mutually exclusive intents plus a fallback bucket.

    The fallback is never produced by a detector; it absorbs whatever
    probability mass the detectors leave unclaimed.
    """

    intents: tuple[str, ...]
    fallback_id: str = FALLBACK_INTENT

    def __post_init__(self) -> None:
        ids = list(self.intents)
        if self.fallback_id not in ids:
            ids.append(self.fallback_id)
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate intent ids in {ids}")
        object.__setattr__(self, "intents", tuple(ids))

    def __contains__(self, intent_id: str) -> bool:
        return intent_id in self.intents

    def __iter__(self) -> Iterator[str]:
        return iter(self.intents)

    def detectable(self) -> tuple[str, ...]:
        return tuple(t for t in self.intents if t != self.fallback_id)


class IntentDistribution:
    """Normalized map intent -> probability; always sums to one."""

    __slots__ = ("probs",)

    def __init__(self, probs: Mapping[str, float]):
        self.probs = dict(probs)

    def get(self, intent_id: str, default: float = 0.0) -> float:
        return self.probs.get(intent_id, default)

    def __getitem__(self, intent_id: str) -> float:
        return self.probs[intent_id]

    def items(self) -> list[tuple[str, float]]:
        return sorted(self.probs.items())

    def total(self) -> float:
        return sum(self.probs.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntentDistribution) and self.probs == other.probs

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.4f}" for k, v in self.items() if v > 0)
        return f"IntentDistribution({inner})"

    def validate(self, space: IntentSpace) -> None:
        for intent_id, p in self.probs.items():
            if intent_id not in space:
                raise InvariantError(f"intent {intent_id!r} not in intent space")
            if p < 0.0 or p > 1.0 + 1e-9:
                raise InvariantError(f"P({intent_id})={p} outside [0,1]")
        if abs(self.total() - 1.0) > 1e-9:
            raise InvariantError(f"intent probabilities sum to {self.total()}, expected 1")


def normalize_evidence(evidence: Mapping[str, float], space: IntentSpace) -> IntentDistribution:
    """Turn raw per-intent evidence into a distribution.

    If the evidence mass fits under 1, each intent keeps its raw evidence and
    the fallback absorbs the remainder; otherwise the evidence is rescaled to
    sum to 1 and the fallback gets nothing.
    """
    clean: dict[str, float] = {}
    for intent_id, value in evidence.items():
        if intent_id == space.fallback_id:
            raise InvariantError("detectors may not emit evidence for the fallback intent")
        if intent_id not in space:
            raise InvariantError(f"evidence for unknown intent {intent_id!r}")
        clean[intent_id] = min(1.0, max(0.0, float(value)))

    total = sum(clean.values())
    probs = {t: 0.0 for t in space}
    if total <= 1.0:
        for intent_id, value in clean.items():
            probs[intent_id] = value
        probs[space.fallback_id] = 1.0 - total
    else:
        for intent_id, value in clean.items():
            probs[intent_id] = value / total
        probs[space.fallback_id] = 0.0
    return IntentDistribution(probs)
