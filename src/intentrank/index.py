"""Sharded inverted index and the fan-out/merge retrieval topology.

Documents are hashed onto shards; every shard scores its own postings with
first-pass BM25 computed against GLOBAL corpus statistics, so the shard
count can never change a score. Shard results flow through a two-tier
merge (rank aggregators, then a top aggregator) simulated in-process; the
merge is a deterministic reduction over (score desc, doc_id asc).

The postings are stored column-wise (see `ShardedIndex`), so one query
scores every matching document with one numpy pass per query term. Token
positions are kept in the postings, and each title's token count per row,
so the term-proximity and title-hit features can be computed without
re-reading raw text.
"""

from __future__ import annotations

import bisect
import math
import re
import zlib
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Corpus
from .errors import ConfigurationError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs. No stemming."""
    return _TOKEN_RE.findall(text.lower())


def shard_of(doc_id: str, num_shards: int) -> int:
    # crc32 rather than hash(): stable across processes and runs
    return zlib.crc32(doc_id.encode("utf-8")) % num_shards


@dataclass(frozen=True)
class GlobalStats:
    """Corpus-wide statistics shared by every shard's scorer."""

    n_docs: int
    df: dict[str, int]
    avgdl: float


@dataclass(frozen=True)
class Candidate:
    doc_id: str
    first_pass_score: float


def idf(n_docs: int, doc_freq: int) -> float:
    return math.log(1.0 + (n_docs - doc_freq + 0.5) / (doc_freq + 0.5))


def first_pass_score(
    query_tokens: Sequence[str],
    tf_by_term: dict[str, int],
    doc_length: int,
    stats: GlobalStats,
    k1: float = 1.2,
    b: float = 0.75,
) -> float:
    """BM25 over the unique query terms; absent terms contribute zero."""
    if k1 <= 0:
        raise ConfigurationError(f"k1 must be positive, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ConfigurationError(f"b must be within [0,1], got {b}")
    if stats.avgdl <= 0:
        return 0.0
    norm = k1 * (1.0 - b + b * doc_length / stats.avgdl)
    score = 0.0
    for term in sorted(set(query_tokens)):
        tf = tf_by_term.get(term, 0)
        if tf == 0:
            continue
        df = stats.df.get(term, 0)
        score += idf(stats.n_docs, df) * tf * (k1 + 1.0) / (tf + norm)
    return score


class ShardedIndex:
    """Immutable sharded inverted index over a corpus, stored column-wise.

    Row `r` is the r-th document in ascending doc_id order, so ordering by
    row is ordering by doc_id. Per row: `shard_ids` (the shard the document
    hashes to), `doc_lengths`, `title_lengths` (the title's share of the
    token stream, which starts with the title) and `norms`, the BM25 length
    normalisation `k1 * (1 - b + b * len / avgdl)`. A term's postings are
    `doc_rows[lo:hi]` (ascending) and `tfs[lo:hi]`, with
    `(lo, hi) = term_spans[term]`; posting `j` has its token positions at
    `flat_positions[pos_offsets[j]:pos_offsets[j + 1]]`.
    """

    def __init__(self, num_shards: int, doc_ids: Sequence[str], shard_ids: np.ndarray,
                 doc_lengths: np.ndarray, title_lengths: np.ndarray,
                 term_spans: dict[str, tuple[int, int]],
                 doc_rows: np.ndarray, tfs: np.ndarray, pos_offsets: np.ndarray,
                 flat_positions: np.ndarray, stats: GlobalStats,
                 k1: float = 1.2, b: float = 0.75) -> None:
        self.num_shards = num_shards
        self.doc_ids = tuple(doc_ids)
        self.shard_ids = shard_ids
        self.doc_lengths = doc_lengths
        self.title_lengths = title_lengths
        self.term_spans = term_spans
        self.doc_rows = doc_rows
        self.tfs = tfs
        self.pos_offsets = pos_offsets
        self.flat_positions = flat_positions
        self.stats = stats
        self.k1 = k1
        self.b = b
        self._row_of = {doc_id: row for row, doc_id in enumerate(self.doc_ids)}
        # views of the same buffers for one-off lookups: indexing a memoryview
        # yields a Python int, several times cheaper than a numpy scalar
        self._rows_view = memoryview(doc_rows)
        self._offsets_view = memoryview(pos_offsets)
        self._positions_view = memoryview(flat_positions)
        self._title_lengths_view = memoryview(title_lengths)
        if stats.avgdl > 0:
            # same operations, in the same order, as first_pass_score's norm
            self.norms = k1 * (1.0 - b + b * doc_lengths / stats.avgdl)
        else:
            self.norms = np.zeros(len(self.doc_ids))

    def has_doc(self, doc_id: str) -> bool:
        return doc_id in self._row_of

    def row_of(self, doc_id: str) -> Optional[int]:
        return self._row_of.get(doc_id)

    def doc_length(self, doc_id: str) -> int:
        return int(self.doc_lengths[self._row_of[doc_id]])

    def _posting(self, term: str, doc_id: str) -> Optional[int]:
        """Index of the (term, doc) posting, by binary search of the term's rows.

        `bisect` rather than `searchsorted`: for one lookup, numpy's call
        overhead costs more than the search.
        """
        span = self.term_spans.get(term)
        row = self._row_of.get(doc_id)
        if span is None or row is None:
            return None
        lo, hi = span
        j = bisect.bisect_left(self._rows_view, row, lo, hi)
        return j if j < hi and self._rows_view[j] == row else None

    def title_length(self, doc_id: str) -> int:
        """Tokens in the document's title: a term occurs in the title iff its
        first position is below this."""
        return self._title_lengths_view[self._row_of[doc_id]]

    def positions(self, term: str, doc_id: str) -> tuple[int, ...]:
        """Positions of `term` in the document's title+body token stream."""
        j = self._posting(term, doc_id)
        if j is None:
            return ()
        offsets = self._offsets_view
        return tuple(self._positions_view[offsets[j]:offsets[j + 1]].tolist())

    def term_frequencies(self, doc_id: str, terms: Iterable[str]) -> dict[str, int]:
        out = {}
        for term in set(terms):
            j = self._posting(term, doc_id)
            if j is not None:
                out[term] = int(self.tfs[j])
        return out

    def score_doc(self, query_tokens: Sequence[str], doc_id: str) -> float:
        """First-pass score for one known document (explain path)."""
        if not self.has_doc(doc_id):
            return 0.0
        tfs = self.term_frequencies(doc_id, query_tokens)
        return first_pass_score(query_tokens, tfs, self.doc_length(doc_id), self.stats,
                                self.k1, self.b)

    def scores(self, query_tokens: Sequence[str]) -> np.ndarray:
        """First-pass score of every row; 0.0 exactly where no query term occurs.

        Terms are added in sorted order, each as first_pass_score writes
        it, so every score equals first_pass_score's to the last bit.
        """
        scores = np.zeros(len(self.doc_ids))
        for term in sorted(set(query_tokens)):
            span = self.term_spans.get(term)
            if span is None:
                continue
            lo, hi = span
            rows, tf = self.doc_rows[lo:hi], self.tfs[lo:hi]
            # rows are distinct within a term, so the fancy-index add is exact
            scores[rows] += (idf(self.stats.n_docs, self.stats.df[term]) * tf * (self.k1 + 1.0)
                             / (tf + self.norms[rows]))
        return scores


def build_index(
    corpus: Corpus,
    num_shards: int = 1,
    k1: float = 1.2,
    b: float = 0.75,
) -> ShardedIndex:
    """Tokenize title then body and shard the corpus; global stats cover every document."""
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if k1 <= 0:
        raise ConfigurationError(f"k1 must be positive, got {k1}")
    if not 0.0 <= b <= 1.0:
        raise ConfigurationError(f"b must be within [0,1], got {b}")
    doc_ids = sorted(corpus.documents)
    term_ids: dict[str, int] = {}
    tokens = array("i")  # term id of every token, documents in row order
    lengths = np.zeros(len(doc_ids), dtype=np.int64)
    title_lengths = np.zeros(len(doc_ids), dtype=np.int64)
    for row, doc_id in enumerate(doc_ids):
        doc = corpus.documents[doc_id]
        title = tokenize(doc.title)
        stream = title + tokenize(doc.body)
        title_lengths[row] = len(title)
        lengths[row] = len(stream)
        tokens.extend([term_ids.setdefault(term, len(term_ids)) for term in stream])

    tok = np.frombuffer(tokens, dtype=np.int32)
    tok_row = np.repeat(np.arange(len(doc_ids), dtype=np.int32), lengths)
    doc_start = np.cumsum(lengths) - lengths
    tok_pos = np.arange(len(tok), dtype=np.int64) - np.repeat(doc_start, lengths)
    # a stable sort by term keeps each term's tokens in (row, position) order
    order = np.argsort(tok, kind="stable")
    tok, tok_row, tok_pos = tok[order], tok_row[order], tok_pos[order]
    new_posting = np.ones(len(tok), dtype=bool)
    new_posting[1:] = (tok[1:] != tok[:-1]) | (tok_row[1:] != tok_row[:-1])
    starts = np.flatnonzero(new_posting)
    pos_offsets = np.append(starts, len(tok))
    term_offsets = np.searchsorted(tok[starts], np.arange(len(term_ids) + 1)).tolist()
    term_spans = {term: (term_offsets[t], term_offsets[t + 1]) for term, t in term_ids.items()}

    n = len(doc_ids)
    total_len = int(lengths.sum())
    stats = GlobalStats(n_docs=n, df={term: hi - lo for term, (lo, hi) in term_spans.items()},
                        avgdl=(total_len / n) if n else 0.0)
    shard_ids = np.array([shard_of(doc_id, num_shards) for doc_id in doc_ids], dtype=np.int32)
    return ShardedIndex(num_shards, doc_ids, shard_ids, lengths, title_lengths, term_spans,
                        doc_rows=tok_row[starts], tfs=np.diff(pos_offsets).astype(np.int32),
                        pos_offsets=pos_offsets, flat_positions=tok_pos.astype(np.int32),
                        stats=stats, k1=k1, b=b)


def _top(rows: np.ndarray, scores: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The `limit` best (rows, scores) by (score desc, doc_id asc).

    Row order is doc_id order, so one lexsort on (-score, row) settles ties
    by doc_id. Rows tied with the limit-th score all survive the partition.
    """
    if len(scores) > limit:
        cut = np.partition(scores, len(scores) - limit)[len(scores) - limit]
        keep = scores >= cut
        rows, scores = rows[keep], scores[keep]
    order = np.lexsort((rows, -scores))[:limit]
    return rows[order], scores[order]


def _merge(tops: Sequence[tuple[np.ndarray, np.ndarray]],
           limit: int) -> tuple[np.ndarray, np.ndarray]:
    return _top(np.concatenate([rows for rows, _ in tops]),
                np.concatenate([scores for _, scores in tops]), limit)


def retrieve_rows(
    index: ShardedIndex,
    query_tokens: Sequence[str],
    k: int,
    per_shard_k: Optional[int] = None,
    enforce_per_shard_k: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Fan out to shards, merge through rank aggregators, return the global top k
    as (index rows, first-pass scores), best first.

    per_shard_k defaults to k. Values below k can drop documents a
    single-shard run would return, so they are rejected unless
    enforce_per_shard_k is disabled.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if per_shard_k is None:
        per_shard_k = k
    if per_shard_k < 1:
        raise ConfigurationError(f"per_shard_k must be >= 1, got {per_shard_k}")
    if per_shard_k < k and enforce_per_shard_k:
        raise ConfigurationError(
            f"per_shard_k={per_shard_k} < k={k} can lose results; pass "
            f"enforce_per_shard_k=False to allow it"
        )
    if not query_tokens:
        return np.zeros(0, dtype=np.int64), np.zeros(0)

    # one corpus-wide scoring pass; every term contribution is positive, so
    # the nonzero rows are exactly the documents that match a query term
    scores = index.scores(query_tokens)
    rows = np.flatnonzero(scores)
    shard = index.shard_ids[rows]
    shard_tops = []
    for s in range(index.num_shards):
        in_shard = rows[shard == s]
        shard_tops.append(_top(in_shard, scores[in_shard], per_shard_k))
    # Two-tier merge: shards feed rank aggregators round-robin, whose merged
    # tops feed the top aggregator. Grouping never changes the result because
    # the reduction is associative under the (score, doc_id) order.
    num_aggs = max(1, math.isqrt(index.num_shards))
    groups: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(num_aggs)]
    for i, top in enumerate(shard_tops):
        groups[i % num_aggs].append(top)
    return _merge([_merge(group, per_shard_k) for group in groups if group], k)


def retrieve(
    index: ShardedIndex,
    query_tokens: Sequence[str],
    k: int,
    per_shard_k: Optional[int] = None,
    enforce_per_shard_k: bool = True,
) -> list[Candidate]:
    """`retrieve_rows` as `Candidate`s, for callers that want doc ids."""
    rows, scores = retrieve_rows(index, query_tokens, k, per_shard_k, enforce_per_shard_k)
    return [Candidate(index.doc_ids[row], score)
            for row, score in zip(rows.tolist(), scores.tolist())]
