"""One query's candidates as parallel numpy columns.

`EngineHandle.build_frame` retrieves a query's candidate rows and builds one
`CandidateFrame` over them. Every scorer reads the frame through
`Scorer.column(ctx, frame)` and returns one sigma per row, so scoring a query
is a handful of column operations instead of one `SharedSignals` and one
`score` call per candidate. Values that no query changes (quality, policy,
click counts) are gathered from `DocColumns`, built once at load in the
index's row order.

Each column holds, bit for bit, what `EngineHandle.build_signals` computes
for the same candidate: the arithmetic is elementwise, in the same order, and
every transcendental (`math.exp`, the haversine) stays scalar Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .components.generic import haversine_km, language_match_value, proximity_score
from .corpus import Corpus, Document, EngagementTable, QueryContext, social_relations
from .index import ShardedIndex
from .intent.detect import DetectionResult
from .records import EMPTY_SET


@dataclass(frozen=True, eq=False)
class DocColumns:
    """Per-document values that no query changes, one entry per index row."""

    docs: tuple[Document, ...]
    quality: np.ndarray  # mean quality
    rejected: np.ndarray  # policy-reject flag
    clicks: np.ndarray
    good_clicks: np.ndarray

    @classmethod
    def build(cls, corpus: Corpus, index: ShardedIndex) -> "DocColumns":
        docs = tuple(corpus.documents[doc_id] for doc_id in index.doc_ids)
        return cls(
            docs=docs,
            quality=np.array([doc.quality.mean for doc in docs], dtype=np.float64),
            rejected=np.array([doc.quality.policy_reject for doc in docs], dtype=bool),
            clicks=np.array([doc.engagement.clicks for doc in docs], dtype=np.int64),
            good_clicks=np.array([doc.engagement.good_clicks for doc in docs], dtype=np.int64),
        )


@dataclass(frozen=True, eq=False)
class CandidateFrame:
    """One query's candidates, row i being the i-th candidate.

    Retrieved candidates come first, best first, then any self-history
    candidates. Per-searcher values (relations, distance, language, pair
    counts) are computed only for `kept` rows, those that pass policy; a
    rejected row holds zeros there and its sigmas are never read.
    """

    rows: np.ndarray  # index rows
    doc_ids: tuple[str, ...]
    docs: tuple[Document, ...]
    first_pass: np.ndarray  # first-pass BM25
    quality: np.ndarray
    rejected: np.ndarray
    kept: np.ndarray  # positions of the rows that pass policy
    title_hit_ratio: np.ndarray
    proximity: np.ndarray
    relations: tuple[frozenset, ...]
    distance_km: tuple[Optional[float], ...]  # None where either side has no location
    language_overlap: np.ndarray
    pair_impressions: np.ndarray  # this query's logged counts for the document
    pair_clicks: np.ndarray
    pair_good_clicks: np.ndarray
    doc_clicks: np.ndarray
    doc_good_clicks: np.ndarray
    detection: DetectionResult
    _derived: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def derived(self, key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        """`build()`, run once per frame and key, read-only: a column that more
        than one reader needs, such as a scorer and the engagement feature of
        the same name. A frame belongs to one search, so no lock is needed."""
        column = self._derived.get(key)
        if column is None:
            column = self._derived[key] = build()
            column.flags.writeable = False
        return column


def _text_columns(index: ShardedIndex, query_tokens: Sequence[str], rows: np.ndarray,
                  kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(title-hit ratio, proximity) per row, from one binary search per query term.

    The token stream starts with the title and positions ascend, so a term
    is in the title iff its first position is below the title's length.
    """
    n = len(rows)
    terms = sorted(set(query_tokens))
    if not terms:
        return np.zeros(n), np.zeros(n)
    title_hits = np.zeros(n, dtype=np.int64)
    all_found = np.ones(n, dtype=bool)
    postings = []  # per term: posting index per row, valid where all_found
    title_lengths = index.title_lengths[rows]
    for term in terms:
        span = index.term_spans.get(term)
        if span is None:  # in no document: no row holds every term
            all_found[:] = False
            continue
        lo, hi = span
        j = np.minimum(lo + np.searchsorted(index.doc_rows[lo:hi], rows), hi - 1)
        found = index.doc_rows[j] == rows
        first = index.flat_positions[index.pos_offsets[j[found]]]
        title_hits[found] += first < title_lengths[found]
        all_found &= found
        postings.append(j)
    proximity = np.zeros(n)
    if len(terms) == 1:
        proximity[all_found] = 1.0
    else:
        offsets, positions = index.pos_offsets, index.flat_positions
        for i in kept[all_found[kept]].tolist():
            lists = {term: positions[offsets[j[i]]:offsets[j[i] + 1]].tolist()
                     for term, j in zip(terms, postings)}
            proximity[i] = proximity_score(terms, lists)
    return title_hits / len(terms), proximity


def build_frame(
    index: ShardedIndex,
    columns: DocColumns,
    engagement_table: EngagementTable,
    ctx: QueryContext,
    query_tokens: Sequence[str],
    detection: DetectionResult,
    rows: np.ndarray,
    first_pass: np.ndarray,
) -> CandidateFrame:
    """The frame over candidate `rows` with their first-pass scores."""
    n = len(rows)
    docs = tuple(columns.docs[row] for row in rows.tolist())
    doc_ids = tuple(doc.doc_id for doc in docs)
    rejected = columns.rejected[rows]
    kept = np.flatnonzero(~rejected)
    title_hit_ratio, proximity = _text_columns(index, query_tokens, rows, kept)

    view, user = ctx.graph_view, ctx.user
    logged = engagement_table.for_query(ctx.query_text)
    relations = [EMPTY_SET] * n
    distance: list[Optional[float]] = [None] * n
    language = np.zeros(n)
    impressions = np.zeros(n, dtype=np.int64)
    clicks = np.zeros(n, dtype=np.int64)
    good_clicks = np.zeros(n, dtype=np.int64)
    for i in kept.tolist():
        doc = docs[i]
        relations[i] = frozenset(social_relations(view, doc))
        if user.location is not None and doc.location is not None:
            distance[i] = haversine_km(user.location, doc.location)
        language[i] = language_match_value(user.languages, doc.languages)
        counts = logged.get(doc.doc_id)
        if counts is not None:
            impressions[i], clicks[i], good_clicks[i] = (
                counts.impressions, counts.clicks, counts.good_clicks)

    return CandidateFrame(
        rows=rows, doc_ids=doc_ids, docs=docs, first_pass=first_pass,
        quality=columns.quality[rows], rejected=rejected, kept=kept,
        title_hit_ratio=title_hit_ratio, proximity=proximity,
        relations=tuple(relations), distance_km=tuple(distance), language_overlap=language,
        pair_impressions=impressions, pair_clicks=clicks, pair_good_clicks=good_clicks,
        doc_clicks=columns.clicks[rows], doc_good_clicks=columns.good_clicks[rows],
        detection=detection,
    )
