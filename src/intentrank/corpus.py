"""Corpus data model: documents, users, the social graph, logs, judgments.

A corpus lives in a directory of line-delimited record files, one record kind
per file:

    documents.jsonl   one Document per line
    users.jsonl       one UserContext per line
    edges.jsonl       one directed social edge per line

Query logs and relevance judgments are separate assets with their own
loaders. Each record kind has one field table (`DOCUMENT`, `USER`, `EDGE`,
`QUERY_RECORD`, `JUDGMENT`): `records.read_table` decodes through it and
`save_corpus` writes through it. The loaders then run each object's
`validate()`, which holds the cross-field invariants. Everything is immutable
after load and safe for concurrent reads.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Optional

from .errors import InvariantError
from .records import (
    EMPTY_MAP, EMPTY_SET, Field, Table, boolean, int_or_name, integer, list_of, map_of, number,
    read_table, string, write_records,
)

log = logging.getLogger(__name__)

DOC_TYPES = ("user", "page", "group", "post", "video", "photo", "event")

EDGE_LABELS = ("friend", "follow", "pending_friend", "pending_join", "member", "engaged")


@dataclass(frozen=True, slots=True)
class QualitySignals:
    """Per-document quality sub-scores, each in [0, 1].

    `mean`, the mean of the available sub-scores, is computed once here and
    read by signals, ranking and the quality component alike. Slots keep
    one instance per document smaller than an instance dict would.
    """

    kids_friendly: float = 1.0
    authentic: float = 1.0
    authoritative: float = 0.5
    readability: float = 0.5
    video_resolution: Optional[float] = None
    policy_reject: bool = False
    mean: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        subs = self.subscores()
        object.__setattr__(self, "mean", sum(subs) / len(subs))

    def validate(self, doc_id: str) -> None:
        for name in ("kids_friendly", "authentic", "authoritative", "readability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvariantError(f"document {doc_id!r}: quality.{name}={v} outside [0,1]")
        if self.video_resolution is not None and not 0.0 <= self.video_resolution <= 1.0:
            raise InvariantError(
                f"document {doc_id!r}: quality.video_resolution={self.video_resolution} outside [0,1]"
            )

    def subscores(self) -> tuple[float, ...]:
        base = (self.kids_friendly, self.authentic, self.authoritative, self.readability)
        if self.video_resolution is None:
            return base
        return base + (self.video_resolution,)


@dataclass(frozen=True)
class EngagementCounters:
    """Historical per-document counters; good_clicks <= clicks <= impressions."""

    impressions: int = 0
    clicks: int = 0
    good_clicks: int = 0

    def validate(self, doc_id: str) -> None:
        if min(self.impressions, self.clicks, self.good_clicks) < 0:
            raise InvariantError(f"document {doc_id!r}: negative engagement counter")
        if not self.good_clicks <= self.clicks <= self.impressions:
            raise InvariantError(
                f"document {doc_id!r}: engagement counters must satisfy "
                f"good_clicks <= clicks <= impressions, got "
                f"{self.good_clicks}/{self.clicks}/{self.impressions}"
            )


@dataclass(frozen=True)
class Document:
    """A typed social object: user profile, page, group, post, video, ..."""

    doc_id: str
    doc_type: str
    title: str = ""
    body: str = ""
    author_id: Optional[str] = None
    publisher_id: Optional[str] = None
    languages: dict = field(default_factory=dict)
    location: Optional[tuple[float, float]] = None
    created_ts: int = 0
    entity_ids: frozenset = EMPTY_SET
    quality: QualitySignals = QualitySignals()
    engagement: EngagementCounters = EngagementCounters()

    def validate(self) -> None:
        if not self.doc_id:
            raise InvariantError("document with empty doc_id")
        if self.doc_type not in DOC_TYPES:
            raise InvariantError(
                f"document {self.doc_id!r}: unknown doc_type {self.doc_type!r}"
            )
        total = 0.0
        for code, p in self.languages.items():
            if not 0.0 <= p <= 1.0:
                raise InvariantError(
                    f"document {self.doc_id!r}: languages[{code!r}]={p} outside [0,1]"
                )
            total += p
        if total > 1.0 + 1e-9:
            raise InvariantError(
                f"document {self.doc_id!r}: language probabilities sum to {total} > 1"
            )
        if self.location is not None:
            lat, lon = self.location
            if not -90.0 <= lat <= 90.0:
                raise InvariantError(f"document {self.doc_id!r}: lat={lat} outside [-90,90]")
            if not -180.0 <= lon <= 180.0:
                raise InvariantError(f"document {self.doc_id!r}: lon={lon} outside [-180,180]")
        self.quality.validate(self.doc_id)
        self.engagement.validate(self.doc_id)


QUALITY = Table(
    QualitySignals,
    Field("kids_friendly", number, 1.0), Field("authentic", number, 1.0),
    Field("authoritative", number, 0.5), Field("readability", number, 0.5),
    Field("video_resolution", number, None), Field("policy_reject", boolean, False),
)

ENGAGEMENT = Table(
    EngagementCounters,
    Field("impressions", integer, 0), Field("clicks", integer, 0), Field("good_clicks", integer, 0),
)

LAT_LON = list_of(number, length=2)

DOCUMENT = Table(
    Document,
    Field("doc_id", string), Field("doc_type", string),
    Field("title", string, ""), Field("body", string, ""),
    Field("author_id", string, None), Field("publisher_id", string, None),
    Field("languages", map_of(number), EMPTY_MAP), Field("location", LAT_LON, None),
    Field("created_ts", integer, 0), Field("entity_ids", list_of(string, frozenset), EMPTY_SET),
    Field("quality", QUALITY, QualitySignals()),
    Field("engagement", ENGAGEMENT, EngagementCounters()),
)


@dataclass(frozen=True)
class UserContext:
    """A searcher: identity, languages, location, and engagement history."""

    user_id: str
    languages: tuple[str, ...] = ()
    location: Optional[tuple[float, float]] = None
    engaged_doc_ids: dict = field(default_factory=dict)  # doc_id -> unix ts

    def validate(self, now_ts: Optional[float] = None) -> None:
        if not self.user_id:
            raise InvariantError("user with empty user_id")
        horizon = now_ts if now_ts is not None else time.time() + 60.0
        for doc_id, ts in self.engaged_doc_ids.items():
            if ts > horizon:
                raise InvariantError(
                    f"user {self.user_id!r}: engagement on {doc_id!r} has future timestamp {ts}"
                )


USER = Table(
    UserContext,
    Field("user_id", string), Field("languages", list_of(string), ()),
    Field("location", LAT_LON, None), Field("engaged_doc_ids", map_of(integer), EMPTY_MAP),
)


@dataclass(frozen=True)
class StructuredSuggestion:
    """A clicked typeahead suggestion carrying structured intent evidence."""

    entity_id: str
    intent_id: str


@dataclass(frozen=True)
class QueryContext:
    """A personalized query: text plus the searcher and optional suggestion click."""

    query_text: str
    user: UserContext
    suggestion: Optional[StructuredSuggestion] = None
    ts: int = 0
    # the searcher's neighbourhood, built once per query by whoever holds the
    # graph; per-query state, so threads serving other queries never share it
    graph_view: Optional["SearcherView"] = field(default=None, compare=False, repr=False)


class SocialGraph:
    """Labeled directed edges between user, page, group, and document ids.

    Friend edges must be symmetric; friend and pending edges may not be
    self-loops. Engagement edges point from a user to a document.
    """

    def __init__(self) -> None:
        self._out: dict[str, dict[str, set[str]]] = {}
        self._in: dict[str, dict[str, set[str]]] = {}
        # edgeless searchers already warned about; serve's threads share it
        self._warned: set[str] = set()
        self._warned_lock = threading.Lock()

    def add_edge(self, src: str, dst: str, label: str) -> None:
        if label not in EDGE_LABELS:
            raise InvariantError(f"edge ({src!r}, {dst!r}): unknown label {label!r}")
        if src == dst and label in ("friend", "pending_friend", "pending_join"):
            raise InvariantError(f"edge ({src!r}, {dst!r}): self-loop with label {label!r}")
        self._out.setdefault(src, {}).setdefault(label, set()).add(dst)
        self._in.setdefault(dst, {}).setdefault(label, set()).add(src)

    def has_edge(self, src: str, dst: str, label: str) -> bool:
        return dst in self._out.get(src, {}).get(label, ())

    def out_neighbors(self, src: str, label: str) -> frozenset:
        return frozenset(self._out.get(src, {}).get(label, ()))

    def friends(self, user_id: str) -> frozenset:
        return self.out_neighbors(user_id, "friend")

    def knows(self, node: str) -> bool:
        return node in self._out or node in self._in

    def searcher_view(self, searcher: str) -> "SearcherView":
        """The searcher's neighbourhood, for social_relations lookups.

        The view refers to the graph's own neighbour sets rather than
        copying them; the graph is not modified after load. An unknown
        searcher gets an empty view, and the first view of each one warns.
        """
        if not self.knows(searcher):
            with self._warned_lock:
                first = searcher not in self._warned
                self._warned.add(searcher)
            if first:
                log.warning("searcher %r has no edges in the social graph", searcher)
        out = self._out.get(searcher, {})
        into = self._in.get(searcher, {})
        friends = out.get("friend", frozenset())
        friend_edges = [self._out.get(f, {}) for f in friends]
        return SearcherView(
            searcher=searcher,
            friends=friends,
            friends_of_friends=frozenset().union(
                *(edges.get("friend", ()) for edges in friend_edges)),
            engaged=out.get("engaged", frozenset()),
            friend_engaged=frozenset().union(
                *(edges.get("engaged", ()) for edges in friend_edges)),
            follows=out.get("follow", frozenset()),
            followers=into.get("follow", frozenset()),
            friend_requests=into.get("pending_friend", frozenset()),
            pending_joins=out.get("pending_join", frozenset()),
        )

    def edges(self) -> Iterator[tuple[str, str, str]]:
        for src in sorted(self._out):
            for label in sorted(self._out[src]):
                for dst in sorted(self._out[src][label]):
                    yield src, dst, label

    def edge_count(self) -> int:
        return sum(len(dsts) for by_label in self._out.values() for dsts in by_label.values())

    def validate(self) -> None:
        for src, by_label in self._out.items():
            for dst in by_label.get("friend", ()):
                if not self.has_edge(dst, src, "friend"):
                    raise InvariantError(
                        f"friend edge ({src!r} -> {dst!r}) has no symmetric counterpart"
                    )


@dataclass(frozen=True)
class SearcherView:
    """One searcher's edges and two-hop friend sets; see `searcher_view`."""

    searcher: str
    friends: AbstractSet[str]
    friends_of_friends: AbstractSet[str]  # may include the searcher and direct friends
    engaged: AbstractSet[str]
    friend_engaged: AbstractSet[str]  # nodes any friend engaged
    follows: AbstractSet[str]
    followers: AbstractSet[str]
    friend_requests: AbstractSet[str]  # senders of pending friend edges to the searcher
    pending_joins: AbstractSet[str]


EDGE = Table(dict, Field("src", string), Field("dst", string), Field("label", string))


@dataclass(frozen=True)
class QueryRecord:
    """One logged impression: what was shown, clicked, and good-clicked."""

    query_text: str
    user_id: str
    ts: int = 0
    shown_doc_ids: tuple[str, ...] = ()
    clicked: frozenset = frozenset()
    good_clicked: frozenset = frozenset()
    suggestion_click: Optional[StructuredSuggestion] = None

    def validate(self) -> None:
        shown = set(self.shown_doc_ids)
        if not self.clicked <= shown:
            extra = sorted(self.clicked - shown)
            raise InvariantError(
                f"query {self.query_text!r}: clicked docs {extra} were never shown"
            )
        if not self.good_clicked <= self.clicked:
            extra = sorted(self.good_clicked - self.clicked)
            raise InvariantError(
                f"query {self.query_text!r}: good_clicked docs {extra} were never clicked"
            )


SUGGESTION = Table(StructuredSuggestion, Field("entity_id", string), Field("intent_id", string))

QUERY_RECORD = Table(
    QueryRecord,
    Field("query_text", string), Field("user_id", string), Field("ts", integer, 0),
    Field("shown_doc_ids", list_of(string), ()), Field("suggestion_click", SUGGESTION, None),
    Field("clicked", list_of(string, frozenset), EMPTY_SET),
    Field("good_clicked", list_of(string, frozenset), EMPTY_SET),
)

GRADE_NAMES = {"bad": 0, "okay": 1, "good": 2, "great": 3, "perfect": 4}


@dataclass(frozen=True)
class RelevanceJudgment:
    """Graded relevance label for one (query, user, doc) triple."""

    query_text: str
    user_id: str
    doc_id: str
    grade: int

    def validate(self) -> None:
        if self.grade not in (0, 1, 2, 3, 4):
            raise InvariantError(
                f"judgment ({self.query_text!r}, {self.doc_id!r}): grade {self.grade} "
                f"outside 0..4"
            )


JUDGMENT = Table(
    RelevanceJudgment,
    Field("query_text", string), Field("user_id", string), Field("doc_id", string),
    Field("grade", int_or_name(GRADE_NAMES)),
)


class Corpus:
    """Immutable bundle of documents, users, and the social graph."""

    def __init__(
        self,
        documents: dict[str, Document],
        users: dict[str, UserContext],
        graph: SocialGraph,
    ) -> None:
        self.documents = documents
        self.users = users
        self.graph = graph

    def doc_type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for doc in self.documents.values():
            counts[doc.doc_type] = counts.get(doc.doc_type, 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self.documents)


def _load_unique(path: Path, table: Table, key: str) -> dict:
    """A record file's validated objects by `key`; a repeated key is an error."""
    out: dict = {}
    if path.exists():
        for line_no, item in read_table(path, table):
            if out.setdefault(getattr(item, key), item) is not item:
                raise InvariantError(f"{path}:{line_no}: duplicate {key} {getattr(item, key)!r}")
            item.validate()
    return out


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus directory; validates every invariant before returning."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")

    documents: dict[str, Document] = _load_unique(root / "documents.jsonl", DOCUMENT, "doc_id")
    users: dict[str, UserContext] = _load_unique(root / "users.jsonl", USER, "user_id")

    graph = SocialGraph()
    edge_path = root / "edges.jsonl"
    if edge_path.exists():
        for _, edge in read_table(edge_path, EDGE):
            graph.add_edge(**edge)
    graph.validate()

    corpus = Corpus(documents, users, graph)
    log.info("loaded corpus from %s: %s", root, corpus.doc_type_counts())
    return corpus


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus directory in canonical (sorted) order; round-trips exactly."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    write_records(root / "documents.jsonl",
                  (DOCUMENT.encode(corpus.documents[k]) for k in sorted(corpus.documents)))
    write_records(root / "users.jsonl",
                  (USER.encode(corpus.users[k]) for k in sorted(corpus.users)))
    write_records(
        root / "edges.jsonl",
        ({"src": s, "dst": d, "label": lb} for s, d, lb in corpus.graph.edges()),
    )


def _load_valid(path: str | Path, table: Table) -> list:
    items = [item for _, item in read_table(path, table)]
    for item in items:
        item.validate()
    return items


def load_query_log(path: str | Path) -> list[QueryRecord]:
    return _load_valid(path, QUERY_RECORD)


def load_judgments(path: str | Path) -> list[RelevanceJudgment]:
    return _load_valid(path, JUDGMENT)


def social_relations(view: SearcherView, doc: Document) -> set[str]:
    """Relations between the view's searcher and a document, as a label set.

    friend_of_friend means a path of exactly two friend edges and is
    suppressed when a direct friendship exists. An unknown searcher has an
    empty view, so only `self` can survive.
    """
    searcher = view.searcher
    author = doc.author_id
    doc_id = doc.doc_id
    rels: set[str] = set()
    if author is not None:
        if author == searcher:
            rels.add("self")
        else:
            if author in view.friends:
                rels.add("friend")
            elif author in view.friends_of_friends:
                rels.add("friend_of_friend")
            if author in view.friend_requests:
                rels.add("pending_friend")
            if author in view.followers:
                rels.add("follower")
        if author in view.follows:
            rels.add("followee")
    if doc_id in view.engaged:
        rels.add("self_engaged")
    if doc_id in view.friend_engaged:
        rels.add("friend_engaged")
    if doc_id in view.follows:
        rels.add("followee")
    if doc_id != searcher and doc_id in view.followers:
        rels.add("follower")
    if doc_id in view.pending_joins:
        rels.add("pending_joining")
    return rels


@dataclass(frozen=True)
class PairCounts:
    impressions: int = 0
    clicks: int = 0
    good_clicks: int = 0


class EngagementTable:
    """Per-(query, doc) historical counters aggregated from a query log."""

    def __init__(self) -> None:
        self._counts: dict[tuple[str, str], PairCounts] = {}

    @classmethod
    def from_log(cls, records: Iterable[QueryRecord]) -> "EngagementTable":
        table = cls()
        acc: dict[tuple[str, str], list[int]] = {}
        for rec in records:
            for doc_id in rec.shown_doc_ids:
                key = (rec.query_text, doc_id)
                counts = acc.setdefault(key, [0, 0, 0])
                counts[0] += 1
                if doc_id in rec.clicked:
                    counts[1] += 1
                if doc_id in rec.good_clicked:
                    counts[2] += 1
        table._counts = {k: PairCounts(*v) for k, v in acc.items()}
        return table

    def get(self, query_text: str, doc_id: str) -> PairCounts:
        return self._counts.get((query_text, doc_id), PairCounts())

    def __len__(self) -> int:
        return len(self._counts)
