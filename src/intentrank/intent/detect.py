"""Intent detection: combine suggestion clicks, patterns, linking, classifiers.

Evidence sources per intent:
  suggestion  a clicked structured typeahead suggestion (fixed 0.95, kept
              below 1.0 so other components are never fully zeroed out)
  pattern     a full-query pattern match, worth base_confidence discounted
              by the weakest link score among its captured entities
  classifier  the registered classifiers' confidences

Per intent the raw evidence is the max over its sources. If the total raw
evidence fits under 1 it is used as-is and the fallback intent absorbs the
rest; otherwise the evidence is rescaled and the fallback gets zero.
"""

from __future__ import annotations

import datetime as _dt
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from ..corpus import QueryContext, SocialGraph
from ..errors import ConfigurationError
from ..index import tokenize
from ..records import EMPTY_SET, Field, Table, boolean, list_of, number, read_table, string
from .classify import ClassifierRegistry
from .linking import DEFAULT_LINK_THRESHOLD, LinkedSpan, link_entities, score_entity_span
from .patterns import (
    Dictionary,
    DictSlot,
    EntityRecord,
    KnowledgeBase,
    PatternMatch,
    QueryPattern,
    SpecialGrammar,
    match_pattern,
    parse_pattern,
)
from .space import IntentDistribution, IntentSpace, normalize_evidence

log = logging.getLogger(__name__)

SUGGESTION_EVIDENCE = 0.95


@dataclass(frozen=True)
class EvidenceItem:
    source: str  # "suggestion" | "pattern" | "classifier"
    source_id: str
    value: float


@dataclass(frozen=True)
class DetectionResult:
    """Distribution plus everything needed to explain or act on it."""

    distribution: IntentDistribution
    evidence: Mapping[str, tuple[EvidenceItem, ...]]
    pattern_matches: tuple[tuple[QueryPattern, PatternMatch, float], ...]
    linked_entities: tuple[LinkedSpan, ...]
    friend_target: Optional[str] = None
    publisher_entity: Optional[str] = None
    grammar: Optional[SpecialGrammar] = None


@dataclass
class IntentConfig:
    """Immutable detection state: space, patterns, kb, dictionaries, classifiers."""

    space: IntentSpace
    patterns: list[QueryPattern] = field(default_factory=list)
    dictionaries: dict[str, Dictionary] = field(default_factory=dict)
    kb: KnowledgeBase = field(default_factory=lambda: KnowledgeBase([]))
    classifiers: ClassifierRegistry = field(default_factory=ClassifierRegistry)
    link_threshold: float = DEFAULT_LINK_THRESHOLD
    graph: Optional[SocialGraph] = None

    def validate(self) -> None:
        for pattern in self.patterns:
            if pattern.target_intent not in self.space:
                raise ConfigurationError(
                    f"pattern {pattern.pattern_id!r} targets unknown intent "
                    f"{pattern.target_intent!r}"
                )
            if pattern.target_intent == self.space.fallback_id:
                raise ConfigurationError(
                    f"pattern {pattern.pattern_id!r} may not target the fallback intent"
                )
            for token in pattern.tokens:
                if isinstance(token, DictSlot) and token.dictionary_id not in self.dictionaries:
                    raise ConfigurationError(
                        f"pattern {pattern.pattern_id!r} references unknown dictionary "
                        f"{token.dictionary_id!r}"
                    )
        for reg in self.classifiers.classifiers:
            if reg.intent_id not in self.space or reg.intent_id == self.space.fallback_id:
                raise ConfigurationError(
                    f"classifier {reg.name!r} registered for invalid intent {reg.intent_id!r}"
                )


def _utc_day_start(ts: int) -> int:
    day = _dt.datetime.fromtimestamp(ts, tz=_dt.timezone.utc).date()
    midnight = _dt.datetime.combine(day, _dt.time.min, tzinfo=_dt.timezone.utc)
    return int(midnight.timestamp())


def grammar_window(window: Optional[str], now_ts: int) -> Optional[tuple[int, int]]:
    """UTC-calendar window [start, end) for a grammar time phrase."""
    if window is None:
        return None
    today = _utc_day_start(now_ts)
    if window == "yesterday":
        return today - 86400, today
    if window == "past_week":
        return today - 7 * 86400, today + 86400
    raise ConfigurationError(f"unknown grammar window {window!r}")


def detect(ctx: QueryContext, config: IntentConfig) -> DetectionResult:
    """Compute the intent distribution and captures for one query."""
    query_tokens = tokenize(ctx.query_text)
    evidence: dict[str, list[EvidenceItem]] = {}

    def add(intent_id: str, item: EvidenceItem) -> None:
        if intent_id not in config.space or intent_id == config.space.fallback_id:
            log.warning("dropping evidence for unknown intent %r", intent_id)
            return
        evidence.setdefault(intent_id, []).append(item)

    linked = tuple(
        link_entities(query_tokens, config.kb, ctx.user, config.graph, config.link_threshold)
    )
    link_score_by_entity = {span.entity_id: span.score for span in linked}

    if ctx.suggestion is not None:
        add(
            ctx.suggestion.intent_id,
            EvidenceItem("suggestion", ctx.suggestion.entity_id, SUGGESTION_EVIDENCE),
        )

    matches: list[tuple[QueryPattern, PatternMatch, float]] = []
    if query_tokens:
        for pattern in config.patterns:
            match = match_pattern(pattern, query_tokens, config.kb, config.dictionaries)
            if match is None:
                continue
            link_factor = 1.0
            for entity_id, start, end in match.entity_captures.values():
                entity = config.kb.get(entity_id)
                if entity is None:
                    continue
                span_score = score_entity_span(
                    query_tokens, start, end, entity, ctx.user, config.graph
                )
                link_factor = min(link_factor, span_score)
            value = pattern.base_confidence * link_factor
            matches.append((pattern, match, value))
            add(pattern.target_intent, EvidenceItem("pattern", pattern.pattern_id, value))

    for intent_id, conf in sorted(config.classifiers.classify(ctx.query_text, ctx.user).items()):
        add(intent_id, EvidenceItem("classifier", intent_id, conf))

    raw = {intent_id: max(item.value for item in items) for intent_id, items in evidence.items()}
    distribution = normalize_evidence(raw, config.space)

    friend_target = _resolve_friend_target(ctx, config, raw, matches, linked)
    publisher_entity = _resolve_publisher(ctx, config, raw, matches, linked)
    grammar = _resolve_grammar(raw, matches)

    return DetectionResult(
        distribution=distribution,
        evidence={k: tuple(v) for k, v in sorted(evidence.items())},
        pattern_matches=tuple(matches),
        linked_entities=linked,
        friend_target=friend_target,
        publisher_entity=publisher_entity,
        grammar=grammar,
    )


def _best_match_for(intent_id: str, matches, key: str = "confidence"):
    best = None
    for pattern, match, value in matches:
        if pattern.target_intent != intent_id:
            continue
        if best is None or value > best[2]:
            best = (pattern, match, value)
    return best


def _resolve_friend_target(ctx, config, raw, matches, linked) -> Optional[str]:
    if raw.get("friend", 0.0) <= 0.0:
        return None
    if ctx.suggestion is not None and ctx.suggestion.intent_id == "friend":
        return ctx.suggestion.entity_id
    best = _best_match_for("friend", matches)
    if best is not None:
        for entity_id, _, _ in best[1].entity_captures.values():
            if entity_id:
                return entity_id
    # fall back to the strongest linked person who is a direct friend
    graph = config.graph
    friends = graph.friends(ctx.user.user_id) if graph is not None else frozenset()
    candidates = [s for s in linked if s.entity_id in friends]
    if candidates:
        return max(candidates, key=lambda s: (s.score, s.entity_id)).entity_id
    return None


def _resolve_publisher(ctx, config, raw, matches, linked) -> Optional[str]:
    if raw.get("video_publisher", 0.0) <= 0.0:
        return None
    if ctx.suggestion is not None and ctx.suggestion.intent_id == "video_publisher":
        return ctx.suggestion.entity_id
    best = _best_match_for("video_publisher", matches)
    if best is not None:
        for slot_name in sorted(best[1].entity_captures):
            entity_id = best[1].entity_captures[slot_name][0]
            if entity_id:
                return entity_id
    publisher_spans = [s for s in linked if s.entity_type in ("publisher", "page")]
    if publisher_spans:
        return max(publisher_spans, key=lambda s: (s.score, s.entity_id)).entity_id
    return None


def _resolve_grammar(raw, matches) -> Optional[SpecialGrammar]:
    if raw.get("special_grammar", 0.0) <= 0.0:
        return None
    best = _best_match_for("special_grammar", matches)
    if best is not None:
        return best[0].grammar
    return None


GRAMMAR = Table(
    SpecialGrammar,
    Field("doc_type", string), Field("self_seen", boolean, False),
    Field("window", string, None, choices=("yesterday", "past_week")),
)

PATTERN = Table(
    lambda pattern, **fields: parse_pattern(source=pattern, **fields),
    Field("pattern_id", string), Field("pattern", string), Field("target_intent", string),
    Field("base_confidence", number, 0.8), Field("grammar", GRAMMAR, None),
)

DICTIONARY = Table(
    lambda dictionary_id, phrases: Dictionary(
        dictionary_id, frozenset(tuple(tokenize(phrase)) for phrase in phrases)),
    Field("dictionary_id", string), Field("phrases", list_of(string)),
)

ENTITY = Table(
    lambda aliases, **fields: EntityRecord(
        aliases=frozenset(tuple(tokenize(alias)) for alias in aliases), **fields),
    Field("entity_id", string), Field("entity_type", string), Field("aliases", list_of(string)),
    Field("description_terms", list_of(string, frozenset), EMPTY_SET),
    Field("popularity", number, 0.5),
)


def load_patterns(path: str | Path) -> list[QueryPattern]:
    return [pattern for _, pattern in read_table(path, PATTERN)]


def load_dictionaries(path: str | Path) -> dict[str, Dictionary]:
    out: dict[str, Dictionary] = {}
    for line_no, dictionary in read_table(path, DICTIONARY):
        if dictionary.dictionary_id in out:
            raise ConfigurationError(
                f"{path}:{line_no}: duplicate dictionary {dictionary.dictionary_id!r}")
        out[dictionary.dictionary_id] = dictionary
    return out


def load_entities(path: str | Path) -> KnowledgeBase:
    return KnowledgeBase([entity for _, entity in read_table(path, ENTITY)])
