"""Component registry: builds scorers from declarative config records.

A component record looks like

    {"component_id": "text", "kind": "text_relevance", "scope": "generic",
     "params": {...}, "weight": 1.0}

Intent-specific records add an "intent" field. `COMPONENT` decodes a record,
choosing the params table by kind. Weights are collected here and handed to
the ranker config; the registry itself only resolves scorers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from ..corpus import SocialGraph
from ..errors import ConfigurationError
from ..intent.space import IntentSpace
from ..records import Field, Table, by_kind, list_of, map_of, number, read_table, string
from .engagement import EngagementModel, EngagementScorer
from .generic import (
    DEFAULT_LOCATION_TAU_KM,
    DEFAULT_RELATION_WEIGHTS,
    DEFAULT_TEXT_MIX,
    DocumentQualityScorer,
    LanguageMatchScorer,
    LocationRelevanceScorer,
    PassthroughScorer,
    Scorer,
    SocialRelevanceScorer,
    TextRelevanceScorer,
)
from .intent_specific import FriendIntentScorer, GrammarIntentScorer, VideoPublisherScorer

INTENT_KINDS = ("friend_intent", "grammar_intent", "video_publisher")


@dataclass(frozen=True)
class ComponentSpec:
    component_id: str
    kind: str
    scope: str = "generic"  # "generic" | "intent_specific"
    intent: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    weight: float = 1.0


class ComponentRegistry:
    """Resolves (scope, id) to a scorer; one specific component per intent."""

    def __init__(self) -> None:
        self.generic: dict[str, Scorer] = {}
        self.intent_specific: dict[str, Scorer] = {}  # intent id -> scorer
        self._ids: set[str] = set()

    def add_generic(self, scorer: Scorer) -> None:
        self._claim(scorer.component_id)
        self.generic[scorer.component_id] = scorer

    def add_intent_specific(self, intent_id: str, scorer: Scorer) -> None:
        self._claim(scorer.component_id)
        if intent_id in self.intent_specific:
            raise ConfigurationError(
                f"intent {intent_id!r} already has component "
                f"{self.intent_specific[intent_id].component_id!r}"
            )
        self.intent_specific[intent_id] = scorer

    def _claim(self, component_id: str) -> None:
        if component_id in self._ids:
            raise ConfigurationError(f"duplicate component_id {component_id!r}")
        self._ids.add(component_id)

    def __len__(self) -> int:
        return len(self._ids)


PASSTHROUGH_SCORE = Table(
    lambda query_text, doc_id, score: ((query_text, doc_id), score),
    Field("query_text", string), Field("doc_id", string), Field("score", number),
)


def _load_passthrough_scores(path: Path) -> dict[tuple[str, str], float]:
    return dict(entry for _, entry in read_table(path, PASSTHROUGH_SCORE))


def build_registry(
    specs: Sequence[ComponentSpec],
    space: IntentSpace,
    graph: Optional[SocialGraph] = None,
    engagement_model: Optional[EngagementModel] = None,
    base_dir: Optional[Path] = None,
) -> tuple[ComponentRegistry, dict[str, float], dict[str, float]]:
    """Build scorers plus the (generic, intent) weight maps from config."""
    registry = ComponentRegistry()
    generic_weights: dict[str, float] = {}
    intent_weights: dict[str, float] = {}

    for spec in specs:
        if spec.kind not in KINDS:
            raise ConfigurationError(
                f"component {spec.component_id!r}: unknown kind {spec.kind!r}; "
                f"valid kinds: {', '.join(KINDS)}"
            )
        if spec.weight < 0 or spec.weight != spec.weight:
            raise ConfigurationError(
                f"component {spec.component_id!r}: weight must be finite and >= 0"
            )
        scorer = _build_scorer(spec, graph, engagement_model, base_dir)
        if spec.kind in INTENT_KINDS or spec.scope == "intent_specific":
            intent_id = spec.intent
            if not intent_id:
                raise ConfigurationError(
                    f"component {spec.component_id!r}: intent-specific components "
                    f"need an 'intent' field"
                )
            if intent_id not in space or intent_id == space.fallback_id:
                raise ConfigurationError(
                    f"component {spec.component_id!r}: intent {intent_id!r} is not a "
                    f"detectable intent in the space"
                )
            registry.add_intent_specific(intent_id, scorer)
            intent_weights[intent_id] = spec.weight
        else:
            registry.add_generic(scorer)
            generic_weights[spec.component_id] = spec.weight
    return registry, generic_weights, intent_weights


def _build_scorer(spec, graph, engagement_model, base_dir) -> Scorer:
    cid, params = spec.component_id, spec.params
    if spec.kind == "engagement":
        return EngagementScorer(cid, engagement_model)
    if spec.kind == "friend_intent":
        return FriendIntentScorer(cid, graph)
    if spec.kind == "passthrough":
        path = params.get("path")
        scores: dict[tuple[str, str], float] = {}
        if path:
            scores = _load_passthrough_scores(Path(base_dir or "") / path)
        return PassthroughScorer(cid, scores, params.get("default", 0.0))
    return KINDS[spec.kind][0](cid, **params)


NO_PARAMS = Table(dict)

#: kind -> (scorer class, table of its params); the class takes the component
#: id and the params as keywords, except where _build_scorer says otherwise
KINDS = {
    "text_relevance": (
        TextRelevanceScorer, Table(dict, Field("mix", list_of(number), DEFAULT_TEXT_MIX))),
    "social_relevance": (SocialRelevanceScorer, Table(
        dict, Field("relation_weights", map_of(number), DEFAULT_RELATION_WEIGHTS))),
    "location_relevance": (
        LocationRelevanceScorer, Table(dict, Field("tau_km", number, DEFAULT_LOCATION_TAU_KM))),
    "language_match": (LanguageMatchScorer, NO_PARAMS),
    "document_quality": (DocumentQualityScorer, NO_PARAMS),
    "engagement": (EngagementScorer, NO_PARAMS),
    "passthrough": (PassthroughScorer, Table(
        dict, Field("path", string, None), Field("default", number, 0.0))),
    "friend_intent": (FriendIntentScorer, NO_PARAMS),
    "grammar_intent": (GrammarIntentScorer, NO_PARAMS),
    "video_publisher": (VideoPublisherScorer, Table(
        dict, Field("mode", string, "binary", choices=VideoPublisherScorer.MODES))),
}

COMPONENT = by_kind("kind", {
    kind: Table(
        ComponentSpec,
        Field("component_id", string), Field("kind", string),
        Field("scope", string, "generic", choices=("generic", "intent_specific")),
        Field("intent", string, None), Field("params", params, params({})),
        Field("weight", number, 1.0),
    )
    for kind, (_, params) in KINDS.items()
}, "component kind")
