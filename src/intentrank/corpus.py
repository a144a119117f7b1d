"""Corpus data model: documents, users, the social graph, logs, judgments.

A corpus lives in a directory of line-delimited record files, one record kind
per file:

    documents.jsonl   one Document per line
    users.jsonl       one UserContext per line
    edges.jsonl       one directed social edge per line

Query logs and relevance judgments are separate assets with their own
loaders. Everything is immutable after load and safe for concurrent reads.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Optional

from .errors import InvariantError
from .records import RecordReader, read_records, write_records

log = logging.getLogger(__name__)

DOC_TYPES = ("user", "page", "group", "post", "video", "photo", "event")

EDGE_LABELS = ("friend", "follow", "pending_friend", "pending_join", "member", "engaged")

#: Relation labels social_relations() can emit, strongest first.
RELATION_LABELS = (
    "self",
    "friend",
    "self_engaged",
    "friend_engaged",
    "followee",
    "friend_of_friend",
    "follower",
    "pending_friend",
    "pending_joining",
)


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

    def to_record(self) -> dict:
        rec = {
            "kids_friendly": self.kids_friendly,
            "authentic": self.authentic,
            "authoritative": self.authoritative,
            "readability": self.readability,
            "policy_reject": self.policy_reject,
        }
        if self.video_resolution is not None:
            rec["video_resolution"] = self.video_resolution
        return rec


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

    def to_record(self) -> dict:
        return {
            "impressions": self.impressions,
            "clicks": self.clicks,
            "good_clicks": self.good_clicks,
        }


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
    entity_ids: frozenset = frozenset()
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

    def to_record(self) -> dict:
        rec: dict = {
            "doc_id": self.doc_id,
            "doc_type": self.doc_type,
            "title": self.title,
            "body": self.body,
            "languages": dict(sorted(self.languages.items())),
            "created_ts": self.created_ts,
            "entity_ids": sorted(self.entity_ids),
            "quality": self.quality.to_record(),
            "engagement": self.engagement.to_record(),
        }
        if self.author_id is not None:
            rec["author_id"] = self.author_id
        if self.publisher_id is not None:
            rec["publisher_id"] = self.publisher_id
        if self.location is not None:
            rec["location"] = list(self.location)
        return rec

    @classmethod
    def from_record(cls, reader: RecordReader) -> "Document":
        loc = reader.take("location")
        quality_rec = reader.take("quality", {})
        engagement_rec = reader.take("engagement", {})
        doc = cls(
            doc_id=reader.take("doc_id", required=True),
            doc_type=reader.take("doc_type", required=True),
            title=reader.take("title", ""),
            body=reader.take("body", ""),
            author_id=reader.take("author_id"),
            publisher_id=reader.take("publisher_id"),
            languages={str(k): float(v) for k, v in reader.take("languages", {}).items()},
            location=(float(loc[0]), float(loc[1])) if loc else None,
            created_ts=int(reader.take("created_ts", 0)),
            entity_ids=frozenset(reader.take("entity_ids", [])),
            quality=QualitySignals(
                kids_friendly=float(quality_rec.get("kids_friendly", 1.0)),
                authentic=float(quality_rec.get("authentic", 1.0)),
                authoritative=float(quality_rec.get("authoritative", 0.5)),
                readability=float(quality_rec.get("readability", 0.5)),
                video_resolution=(
                    float(quality_rec["video_resolution"])
                    if quality_rec.get("video_resolution") is not None
                    else None
                ),
                policy_reject=bool(quality_rec.get("policy_reject", False)),
            ),
            engagement=EngagementCounters(
                impressions=int(engagement_rec.get("impressions", 0)),
                clicks=int(engagement_rec.get("clicks", 0)),
                good_clicks=int(engagement_rec.get("good_clicks", 0)),
            ),
        )
        return doc


DOCUMENT_FIELDS = {
    "doc_id", "doc_type", "title", "body", "author_id", "publisher_id",
    "languages", "location", "created_ts", "entity_ids", "quality", "engagement",
}


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

    def to_record(self) -> dict:
        rec: dict = {
            "user_id": self.user_id,
            "languages": list(self.languages),
            "engaged_doc_ids": dict(sorted(self.engaged_doc_ids.items())),
        }
        if self.location is not None:
            rec["location"] = list(self.location)
        return rec

    @classmethod
    def from_record(cls, reader: RecordReader) -> "UserContext":
        loc = reader.take("location")
        return cls(
            user_id=reader.take("user_id", required=True),
            languages=tuple(reader.take("languages", [])),
            location=(float(loc[0]), float(loc[1])) if loc else None,
            engaged_doc_ids={
                str(k): int(v) for k, v in reader.take("engaged_doc_ids", {}).items()
            },
        )


USER_FIELDS = {"user_id", "languages", "location", "engaged_doc_ids"}


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

    def add_edge(self, src: str, dst: str, label: str) -> None:
        if label not in EDGE_LABELS:
            raise InvariantError(f"edge ({src!r}, {dst!r}): unknown label {label!r}")
        if src == dst and label in ("friend", "pending_friend", "pending_join"):
            raise InvariantError(f"edge ({src!r}, {dst!r}): self-loop with label {label!r}")
        self._out.setdefault(src, {}).setdefault(label, set()).add(dst)
        self._in.setdefault(dst, {}).setdefault(label, set()).add(src)

    def add_friends(self, a: str, b: str) -> None:
        """Insert a symmetric friend edge pair."""
        self.add_edge(a, b, "friend")
        self.add_edge(b, a, "friend")

    def has_edge(self, src: str, dst: str, label: str) -> bool:
        return dst in self._out.get(src, {}).get(label, ())

    def out_neighbors(self, src: str, label: str) -> frozenset:
        return frozenset(self._out.get(src, {}).get(label, ()))

    def in_neighbors(self, dst: str, label: str) -> frozenset:
        return frozenset(self._in.get(dst, {}).get(label, ()))

    def friends(self, user_id: str) -> frozenset:
        return self.out_neighbors(user_id, "friend")

    def knows(self, node: str) -> bool:
        return node in self._out or node in self._in

    def searcher_view(self, searcher: str) -> "SearcherView":
        """The searcher's neighbourhood, for social_relations lookups.

        The view refers to the graph's own neighbour sets rather than
        copying them; the graph is not modified after load. An unknown
        searcher gets an empty view and one warning.
        """
        if not self.knows(searcher):
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


EDGE_FIELDS = {"src", "dst", "label"}


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

    def to_record(self) -> dict:
        rec: dict = {
            "query_text": self.query_text,
            "user_id": self.user_id,
            "ts": self.ts,
            "shown_doc_ids": list(self.shown_doc_ids),
            "clicked": sorted(self.clicked),
            "good_clicked": sorted(self.good_clicked),
        }
        if self.suggestion_click is not None:
            rec["suggestion_click"] = {
                "entity_id": self.suggestion_click.entity_id,
                "intent_id": self.suggestion_click.intent_id,
            }
        return rec

    @classmethod
    def from_record(cls, reader: RecordReader) -> "QueryRecord":
        sug = reader.take("suggestion_click")
        return cls(
            query_text=reader.take("query_text", required=True),
            user_id=reader.take("user_id", required=True),
            ts=int(reader.take("ts", 0)),
            shown_doc_ids=tuple(reader.take("shown_doc_ids", [])),
            clicked=frozenset(reader.take("clicked", [])),
            good_clicked=frozenset(reader.take("good_clicked", [])),
            suggestion_click=(
                StructuredSuggestion(sug["entity_id"], sug["intent_id"]) if sug else None
            ),
        )


QUERY_FIELDS = {
    "query_text", "user_id", "ts", "shown_doc_ids", "clicked",
    "good_clicked", "suggestion_click",
}

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

    def to_record(self) -> dict:
        return {
            "query_text": self.query_text,
            "user_id": self.user_id,
            "doc_id": self.doc_id,
            "grade": self.grade,
        }


JUDGMENT_FIELDS = {"query_text", "user_id", "doc_id", "grade"}


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


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus directory; validates every invariant before returning."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")

    documents: dict[str, Document] = {}
    doc_path = root / "documents.jsonl"
    if doc_path.exists():
        for line_no, rec in read_records(doc_path):
            doc = Document.from_record(RecordReader(str(doc_path), line_no, rec, DOCUMENT_FIELDS))
            if doc.doc_id in documents:
                raise InvariantError(
                    f"{doc_path}:{line_no}: duplicate doc_id {doc.doc_id!r}"
                )
            doc.validate()
            documents[doc.doc_id] = doc

    users: dict[str, UserContext] = {}
    user_path = root / "users.jsonl"
    if user_path.exists():
        for line_no, rec in read_records(user_path):
            user = UserContext.from_record(RecordReader(str(user_path), line_no, rec, USER_FIELDS))
            if user.user_id in users:
                raise InvariantError(f"{user_path}:{line_no}: duplicate user_id {user.user_id!r}")
            user.validate()
            users[user.user_id] = user

    graph = SocialGraph()
    edge_path = root / "edges.jsonl"
    if edge_path.exists():
        for line_no, rec in read_records(edge_path):
            reader = RecordReader(str(edge_path), line_no, rec, EDGE_FIELDS)
            graph.add_edge(
                reader.take("src", required=True),
                reader.take("dst", required=True),
                reader.take("label", required=True),
            )
    graph.validate()

    corpus = Corpus(documents, users, graph)
    log.info("loaded corpus from %s: %s", root, corpus.doc_type_counts())
    return corpus


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus directory in canonical (sorted) order; round-trips exactly."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    write_records(
        root / "documents.jsonl",
        (corpus.documents[k].to_record() for k in sorted(corpus.documents)),
    )
    write_records(
        root / "users.jsonl",
        (corpus.users[k].to_record() for k in sorted(corpus.users)),
    )
    write_records(
        root / "edges.jsonl",
        ({"src": s, "dst": d, "label": lb} for s, d, lb in corpus.graph.edges()),
    )


def load_query_log(path: str | Path) -> list[QueryRecord]:
    out = []
    for line_no, rec in read_records(path):
        q = QueryRecord.from_record(RecordReader(str(path), line_no, rec, QUERY_FIELDS))
        q.validate()
        out.append(q)
    return out


def save_query_log(records: Iterable[QueryRecord], path: str | Path) -> int:
    return write_records(path, (r.to_record() for r in records))


def load_judgments(path: str | Path) -> list[RelevanceJudgment]:
    out = []
    for line_no, rec in read_records(path):
        reader = RecordReader(str(path), line_no, rec, JUDGMENT_FIELDS)
        grade = reader.take("grade", required=True)
        if isinstance(grade, str):
            grade = GRADE_NAMES.get(grade.lower(), -1)
        j = RelevanceJudgment(
            query_text=reader.take("query_text", required=True),
            user_id=reader.take("user_id", required=True),
            doc_id=reader.take("doc_id", required=True),
            grade=int(grade),
        )
        j.validate()
        out.append(j)
    return out


def save_judgments(judgments: Iterable[RelevanceJudgment], path: str | Path) -> int:
    return write_records(path, (j.to_record() for j in judgments))


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
