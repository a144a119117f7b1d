"""Intent-specific scoring components.

These only produce signal when detection resolved the matching capture
(friend target, publisher entity, grammar parse); otherwise they score 0,
which the combiner's intent gate usually skips anyway.
"""

from __future__ import annotations

from typing import Optional

from ..corpus import Document, QueryContext, SocialGraph
from ..errors import ConfigurationError
from ..intent.detect import grammar_window
from .generic import Scorer
from .signals import SharedSignals

FRIEND_PROFILE_SCORE = 1.0
FRIEND_AUTHORED_SCORE = 0.8
FRIEND_ENGAGED_SCORE = 0.6


def friend_intent_value(doc: Document, friend_id: Optional[str], graph: Optional[SocialGraph]) -> float:
    """Profile beats authored beats engaged-with, for the target friend."""
    if not friend_id:
        return 0.0
    if doc.doc_type == "user" and doc.author_id == friend_id:
        return FRIEND_PROFILE_SCORE
    if doc.author_id == friend_id:
        return FRIEND_AUTHORED_SCORE
    if graph is not None and graph.has_edge(friend_id, doc.doc_id, "engaged"):
        return FRIEND_ENGAGED_SCORE
    return 0.0


class FriendIntentScorer(Scorer):
    def __init__(self, component_id: str = "friend_match", graph: Optional[SocialGraph] = None):
        super().__init__(component_id)
        self.graph = graph

    def score(self, ctx: QueryContext, doc: Document, signals: SharedSignals) -> float:
        return friend_intent_value(doc, signals.friend_target, self.graph)


def grammar_intent_value(ctx: QueryContext, doc: Document, signals: SharedSignals) -> float:
    """All-or-nothing: type matches and, when required, the searcher saw it in window."""
    grammar = signals.grammar
    if grammar is None:
        return 0.0
    if doc.doc_type != grammar.doc_type:
        return 0.0
    if grammar.self_seen:
        ts = ctx.user.engaged_doc_ids.get(doc.doc_id)
        if ts is None:
            return 0.0
        window = grammar_window(grammar.window, ctx.ts)
        if window is not None and not window[0] <= ts < window[1]:
            return 0.0
    return 1.0


class GrammarIntentScorer(Scorer):
    def __init__(self, component_id: str = "grammar_match"):
        super().__init__(component_id)

    def score(self, ctx, doc, signals):
        return grammar_intent_value(ctx, doc, signals)


def video_publisher_value(doc: Document, publisher_entity: Optional[str],
                          mode: str = "binary") -> float:
    """Publisher match, either binary or discounted by good-click history."""
    if not publisher_entity or doc.publisher_id != publisher_entity:
        return 0.0
    if mode == "binary":
        return 1.0
    if mode == "good_click_weighted":
        eng = doc.engagement
        return eng.good_clicks / (eng.clicks + 1)
    raise ConfigurationError(f"unknown video publisher mode {mode!r}")


class VideoPublisherScorer(Scorer):
    MODES = ("binary", "good_click_weighted")

    def __init__(self, component_id: str = "publisher_match", mode: str = "binary"):
        super().__init__(component_id)
        if mode not in self.MODES:
            raise ConfigurationError(
                f"unknown video publisher mode {mode!r}; expected one of {self.MODES}"
            )
        self.mode = mode

    def score(self, ctx, doc, signals):
        return video_publisher_value(doc, signals.publisher_entity, self.mode)
