"""Generic scoring components, useful regardless of query intent.

Every component maps into [0,1] so the combiner's weights alone carry
scale. Each scorer is a thin class with two readings of one definition:
`column` scores a whole `CandidateFrame` at once, which is what search
runs, and `score` reads one candidate's SharedSignals, the per-candidate
reference path. Where a value has a formula, the formula is defined once here
and shared by both readings and by the engagement feature of the same name,
whose frame column is computed once per frame (`social_sigma`,
`location_sigma`); elementwise numpy on float64 gives the same bits as the
scalar formula. The reference implementations the tests check them against
live in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from ..corpus import Document, QueryContext
from ..errors import ConfigurationError
from .signals import SharedSignals

if TYPE_CHECKING:
    from ..frame import CandidateFrame

EARTH_RADIUS_KM = 6371.0

#: Relation weights for social relevance; max over held relations wins, so
#: overlapping evidence (friend also engaged) is never double counted.
DEFAULT_RELATION_WEIGHTS: dict = {
    "self": 1.0,
    "friend": 0.8,
    "self_engaged": 0.7,
    "friend_engaged": 0.5,
    "followee": 0.5,
    "friend_of_friend": 0.4,
    "follower": 0.3,
    "pending_friend": 0.3,
    "pending_joining": 0.3,
}

DEFAULT_TEXT_MIX = (0.5, 0.25, 0.25)  # bm25, proximity, title hit ratio
DEFAULT_LOCATION_TAU_KM = 50.0
NEUTRAL_LANGUAGE_SCORE = 0.5


def squash(score):
    """Map an unbounded nonnegative score (or an array of them) into [0,1)
    without calibration."""
    return score / (score + 1.0)


def min_cover_window(position_lists: Sequence[Sequence[int]]) -> Optional[int]:
    """Length of the smallest token window covering one position from every list.

    Returns None when any list is empty (the term does not occur).
    """
    if not position_lists or any(not positions for positions in position_lists):
        return None
    if len(position_lists) == 1:
        return 1
    merged = sorted(
        (pos, idx) for idx, positions in enumerate(position_lists) for pos in positions
    )
    needed = len(position_lists)
    counts = [0] * needed
    covered = 0
    best: Optional[int] = None
    left = 0
    for right in range(len(merged)):
        idx = merged[right][1]
        counts[idx] += 1
        if counts[idx] == 1:
            covered += 1
        while covered == needed:
            width = merged[right][0] - merged[left][0] + 1
            if best is None or width < best:
                best = width
            left_idx = merged[left][1]
            counts[left_idx] -= 1
            if counts[left_idx] == 0:
                covered -= 1
            left += 1
    return best


def proximity_score(query_tokens: Sequence[str], positions_by_term: Mapping[str, Sequence[int]]) -> float:
    """1/(1 + window - query length); zero unless every query term occurs."""
    terms = sorted(set(query_tokens))
    if not terms:
        return 0.0
    window = min_cover_window([positions_by_term.get(t, ()) for t in terms])
    if window is None:
        return 0.0
    return 1.0 / (1.0 + max(0, window - len(terms)))


def _check_text_mix(mix: Sequence[float]) -> None:
    if len(mix) != 3 or any(w < 0 for w in mix) or abs(sum(mix) - 1.0) > 1e-9:
        raise ConfigurationError(f"text mix weights must be 3 nonnegative values summing to 1, got {mix}")


def _text_mix(bm25, proximity, title_ratio, mix: Sequence[float]):
    """Scalars or equal-length arrays alike."""
    return mix[0] * squash(bm25) + mix[1] * proximity + mix[2] * title_ratio


def text_relevance_value(
    bm25: float,
    proximity: float,
    title_ratio: float,
    mix: Sequence[float] = DEFAULT_TEXT_MIX,
) -> float:
    _check_text_mix(mix)
    return _text_mix(bm25, proximity, title_ratio, mix)


def social_relevance_value(
    relations: frozenset | set,
    weights: Mapping[str, float] = DEFAULT_RELATION_WEIGHTS,
) -> float:
    held = [weights.get(rel, 0.0) for rel in relations]
    return max(held) if held else 0.0


def haversine_km(a: tuple[float, float], b: tuple[float, float]) -> float:
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def location_decay(distance_km: Optional[float], tau_km: float) -> float:
    """exp(-distance / tau); 0 when either side has no location (distance None)."""
    if distance_km is None:
        return 0.0
    return math.exp(-distance_km / tau_km)


def language_match_value(user_languages: Sequence[str], doc_languages: Mapping[str, float]) -> float:
    if not doc_languages:
        return NEUTRAL_LANGUAGE_SCORE
    return max((doc_languages.get(code, 0.0) for code in user_languages), default=0.0)


def column_of(values) -> np.ndarray:
    return np.fromiter(values, dtype=np.float64)


def social_column(frame: "CandidateFrame", weights: Mapping[str, float]) -> np.ndarray:
    return column_of(social_relevance_value(rels, weights) if rels else 0.0
                     for rels in frame.relations)


def location_column(frame: "CandidateFrame", tau_km: float) -> np.ndarray:
    return column_of(location_decay(d, tau_km) for d in frame.distance_km)


def social_sigma(frame: "CandidateFrame", weights: Mapping[str, float]) -> np.ndarray:
    """`social_column`, run once per frame and weights: the scorer and the
    engagement feature `social` share it."""
    return frame.derived(("social", frozenset(weights.items())),
                         lambda: social_column(frame, weights))


def location_sigma(frame: "CandidateFrame", tau_km: float) -> np.ndarray:
    """`location_column`, run once per frame and tau."""
    return frame.derived(("location", tau_km), lambda: location_column(frame, tau_km))


class Scorer:
    """Base scoring component: pure (ctx, doc, signals) -> [0,1], and the same
    value for every row of a frame at once."""

    def __init__(self, component_id: str):
        self.component_id = component_id

    def score(self, ctx: QueryContext, doc: Document, signals: SharedSignals) -> float:
        raise NotImplementedError

    def column(self, ctx: QueryContext, frame: "CandidateFrame") -> np.ndarray:
        """One sigma per frame row; a policy-rejected row's value is never read."""
        raise NotImplementedError


class TextRelevanceScorer(Scorer):
    def __init__(self, component_id: str = "text_relevance", mix: Sequence[float] = DEFAULT_TEXT_MIX):
        super().__init__(component_id)
        _check_text_mix(mix)
        self.mix = tuple(mix)

    def score(self, ctx, doc, signals):
        return _text_mix(signals.first_pass_bm25, signals.proximity, signals.title_hit_ratio,
                         self.mix)

    def column(self, ctx, frame):
        return _text_mix(frame.first_pass, frame.proximity, frame.title_hit_ratio, self.mix)


class SocialRelevanceScorer(Scorer):
    def __init__(self, component_id: str = "social_relevance",
                 relation_weights: Mapping[str, float] = DEFAULT_RELATION_WEIGHTS):
        super().__init__(component_id)
        bad = {k: v for k, v in relation_weights.items() if not 0.0 <= v <= 1.0}
        if bad:
            raise ConfigurationError(f"relation weights outside [0,1]: {bad}")
        self.weights = dict(relation_weights)

    def score(self, ctx, doc, signals):
        return social_relevance_value(signals.relations, self.weights)

    def column(self, ctx, frame):
        return social_sigma(frame, self.weights)


class LocationRelevanceScorer(Scorer):
    def __init__(self, component_id: str = "location_relevance", tau_km: float = DEFAULT_LOCATION_TAU_KM):
        super().__init__(component_id)
        if tau_km <= 0:
            raise ConfigurationError(f"tau_km must be positive, got {tau_km}")
        self.tau_km = tau_km

    def score(self, ctx, doc, signals):
        return location_decay(signals.distance_km, self.tau_km)

    def column(self, ctx, frame):
        return location_sigma(frame, self.tau_km)


class LanguageMatchScorer(Scorer):
    def __init__(self, component_id: str = "language_match"):
        super().__init__(component_id)

    def score(self, ctx, doc, signals):
        return signals.language_overlap

    def column(self, ctx, frame):
        return frame.language_overlap


class DocumentQualityScorer(Scorer):
    def __init__(self, component_id: str = "document_quality"):
        super().__init__(component_id)

    def score(self, ctx, doc, signals):
        return doc.quality.mean

    def column(self, ctx, frame):
        return frame.quality


class PassthroughScorer(Scorer):
    """Externally supplied per-(query, doc) scores, e.g. an offline model."""

    def __init__(self, component_id: str, scores: Mapping[tuple[str, str], float],
                 default: float = 0.0):
        super().__init__(component_id)
        self.scores = dict(scores)
        self.default = default

    def _value(self, query_text: str, doc_id: str) -> float:
        return min(1.0, max(0.0, self.scores.get((query_text, doc_id), self.default)))

    def score(self, ctx, doc, signals):
        return self._value(ctx.query_text, doc.doc_id)

    def column(self, ctx, frame):
        return column_of(self._value(ctx.query_text, doc_id) for doc_id in frame.doc_ids)
