"""Engine assembly: one config file wires corpus, index, detection, scoring.

The engine config is a single JSON file of asset paths and knobs, decoded
by `ENGINE_CONFIG`. Relative paths resolve against the config file's
directory, so a corpus directory can be moved wholesale. The assembled
handle is immutable and safe to share across threads; per-query work is pure.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .components.engagement import (
    DEFAULT_FEATURES,
    EngagementModel,
    TrainParams,
    TrainReport,
    load_model,
    train_engagement,
)
from .components.registry import COMPONENT, ComponentRegistry, build_registry
from .components.signals import SharedSignals
from .corpus import (
    Corpus,
    Document,
    EngagementTable,
    QueryContext,
    QueryRecord,
    RelevanceJudgment,
    StructuredSuggestion,
    load_corpus,
    load_judgments,
    load_query_log,
    social_relations,
)
from .components.generic import haversine_km, language_match_value, proximity_score
from .errors import IntentRankError
from .index import Candidate, ShardedIndex, build_index, retrieve, tokenize
from .intent.classify import (
    CharNgramClassifier,
    ClassifierRegistry,
    FriendNameClassifier,
    KeywordClassifier,
)
from .intent.detect import (
    DetectionResult,
    IntentConfig,
    detect,
    load_dictionaries,
    load_entities,
    load_patterns,
)
from .intent.patterns import KnowledgeBase
from .intent.space import IntentSpace
# `rank` is build_table + combine in one call, kept here for callers that
# re-assemble the search pipeline from this module's names
from .ranker import (
    DEFAULT_TRIGGER_THRESHOLD,
    RankedList,
    RankerConfig,
    ScoreTable,
    build_table,
    combine,
    rank,
    validate_config,
)
from .records import (
    REQUIRED, Field, Table, by_kind, integer, list_of, map_of, number, read_config, string,
)

log = logging.getLogger(__name__)

DEFAULT_INTENTS = ("friend", "video_publisher", "special_grammar", "news", "sports")


@dataclass(frozen=True)
class RetrievalParams:
    """The engine config's "retrieval" object; defaults are in RETRIEVAL."""

    num_shards: int
    k: int
    per_shard_k: Optional[int]
    k1: float
    b: float


RETRIEVAL = Table(
    RetrievalParams,
    Field("num_shards", integer, 1), Field("k", integer, 50), Field("per_shard_k", integer, None),
    Field("k1", number, 1.2), Field("b", number, 0.75),
)


def _classifier(params: Table, default=REQUIRED) -> Table:
    return Table(dict, Field("intent", string), Field("kind", string), Field("name", string, None),
                 Field("params", params, default))


CLASSIFIER = by_kind("kind", {
    "keyword": _classifier(Table(dict, Field("keyword_confidence", map_of(number)))),
    "char_ngram": _classifier(
        Table(dict, Field("ngrams", list_of(string)), Field("confidence", number, 0.6))),
    "friend_name": _classifier(Table(dict), {}),
}, "classifier kind")

INTENT = Table(
    dict,
    Field("space", list_of(string), DEFAULT_INTENTS), Field("patterns", string, None),
    Field("dictionaries", string, None), Field("entities", string, None),
    Field("classifiers", list_of(CLASSIFIER), ()), Field("link_threshold", number, 0.3),
)

RANKER_KNOBS = Table(
    dict, Field("trigger_threshold", number, DEFAULT_TRIGGER_THRESHOLD), Field("k_final", integer, 10))

ENGINE_CONFIG = Table(
    dict,
    Field("corpus_dir", string), Field("retrieval", RETRIEVAL, RETRIEVAL({})),
    Field("intent", INTENT, INTENT({})), Field("components", list_of(COMPONENT), ()),
    Field("ranker", RANKER_KNOBS, RANKER_KNOBS({})), Field("engagement_model", string, None),
    Field("query_log", string, None), Field("judgments", string, None),
    Field("bvt_suite", string, None), Field("now_ts", integer, None),
)


@dataclass(frozen=True)
class SearchResult:
    ranked: RankedList
    detection: DetectionResult
    candidates: tuple[Candidate, ...]
    table: ScoreTable  # config-independent: re-rank with ranker.combine, no new search


class EngineHandle:
    """Everything needed to serve one query, assembled once."""

    def __init__(
        self,
        corpus: Corpus,
        index: ShardedIndex,
        intent_config: IntentConfig,
        registry: ComponentRegistry,
        ranker_config: RankerConfig,
        engagement_table: EngagementTable,
        retrieval: RetrievalParams,
        now_ts: int,
        fingerprint: str = "",
        query_log: Optional[list[QueryRecord]] = None,
        judgments: Optional[list[RelevanceJudgment]] = None,
        bvt_suite_path: Optional[Path] = None,
    ) -> None:
        self.corpus = corpus
        self.index = index
        self.intent_config = intent_config
        self.registry = registry
        self.ranker_config = ranker_config
        self.engagement_table = engagement_table
        self.retrieval = retrieval
        self.now_ts = now_ts
        self.fingerprint = fingerprint
        self.query_log = query_log or []
        self.judgments = judgments or []
        self.bvt_suite_path = bvt_suite_path
        validate_config(registry, ranker_config)

    # ------------------------------------------------------------------ #
    # per-query pipeline

    def context_for(
        self,
        query_text: str,
        user_id: str,
        suggestion: Optional[StructuredSuggestion] = None,
    ) -> QueryContext:
        user = self.corpus.users.get(user_id)
        if user is None:
            raise IntentRankError(f"unknown user_id {user_id!r}")
        return QueryContext(query_text=query_text, user=user, suggestion=suggestion,
                            ts=self.now_ts, graph_view=self.corpus.graph.searcher_view(user_id))

    def build_signals(
        self,
        ctx: QueryContext,
        query_tokens: Sequence[str],
        doc: Document,
        first_pass: float,
        detection: Optional[DetectionResult],
    ) -> SharedSignals:
        """Signals of one candidate; `ctx` comes from `context_for`, which
        builds the searcher's graph view once per query."""
        positions = {
            term: self.index.positions(term, doc.doc_id) for term in set(query_tokens)
        }
        # the token stream starts with the title, and positions ascend
        title_end = self.index.title_length(doc.doc_id)
        title_hits = sum(1 for found in positions.values() if found and found[0] < title_end)
        distance = None
        if ctx.user.location is not None and doc.location is not None:
            distance = haversine_km(ctx.user.location, doc.location)
        return SharedSignals(
            first_pass_bm25=first_pass,
            proximity=proximity_score(query_tokens, positions),
            title_hit_ratio=title_hits / len(positions) if positions else 0.0,
            relations=frozenset(social_relations(ctx.graph_view, doc)),
            distance_km=distance,
            language_overlap=language_match_value(ctx.user.languages, doc.languages),
            quality_mean=doc.quality.mean,
            pair_counts=self.engagement_table.get(ctx.query_text, doc.doc_id),
            doc_clicks=doc.engagement.clicks,
            doc_good_clicks=doc.engagement.good_clicks,
            intents=detection.distribution if detection is not None else None,
            friend_target=detection.friend_target if detection is not None else None,
            publisher_entity=detection.publisher_entity if detection is not None else None,
            grammar=detection.grammar if detection is not None else None,
        )

    def search(
        self,
        query_text: str,
        user_id: str,
        config: Optional[RankerConfig] = None,
        k: Optional[int] = None,
        suggestion: Optional[StructuredSuggestion] = None,
    ) -> SearchResult:
        """Detect intents, retrieve candidates, score, and rank."""
        ranker_config = config if config is not None else self.ranker_config
        if k is not None:
            ranker_config = ranker_config.replace(k_final=k)
        ctx = self.context_for(query_text, user_id, suggestion)
        tokens = tokenize(query_text)
        detection = detect(ctx, self.intent_config)
        candidates = list(
            retrieve(
                self.index,
                tokens,
                k=self.retrieval.k,
                per_shard_k=self.retrieval.per_shard_k,
            )
            if tokens
            else []
        )
        # Self-history vertical: a grammar query like "posts i have seen"
        # matches no document text, so its candidates come from the
        # searcher's own engagement history instead.
        if detection.grammar is not None and detection.grammar.self_seen:
            seen = {c.doc_id for c in candidates}
            for doc_id in sorted(ctx.user.engaged_doc_ids):
                if doc_id in seen or doc_id not in self.corpus.documents:
                    continue
                candidates.append(Candidate(doc_id, self.index.score_doc(tokens, doc_id)))
        candidates = tuple(candidates)
        inputs = []
        for cand in candidates:
            doc = self.corpus.documents[cand.doc_id]
            # the ranker filters a policy-rejected doc before scoring
            signals = None if doc.quality.policy_reject else self.build_signals(
                ctx, tokens, doc, cand.first_pass_score, detection)
            inputs.append((doc, signals))
        table = build_table(ctx, inputs, detection.distribution, self.registry)
        ranked = combine(table, ranker_config, query_id=query_text)
        return SearchResult(ranked=ranked, detection=detection, candidates=candidates,
                            table=table)

    def rank_for_record(self, record: QueryRecord, config: Optional[RankerConfig] = None) -> RankedList:
        """Replay one logged query, preserving its suggestion click."""
        return self.search(
            record.query_text, record.user_id, config=config, suggestion=record.suggestion_click
        ).ranked

    # ------------------------------------------------------------------ #
    # training support

    def training_signals_fn(self):
        """(QueryRecord, doc_id) -> SharedSignals for engagement training.

        The trainer asks for a record's shown documents one after another,
        so the record's context, tokens and detection are kept from the
        previous call while the record stays the same.
        """
        last_record: Optional[QueryRecord] = None
        per_record: tuple = ()  # (ctx, tokens, detection) of last_record

        def signals_for(record: QueryRecord, doc_id: str) -> Optional[SharedSignals]:
            nonlocal last_record, per_record
            doc = self.corpus.documents.get(doc_id)
            user = self.corpus.users.get(record.user_id)
            if doc is None or user is None:
                return None
            if record is not last_record:
                ctx = self.context_for(record.query_text, record.user_id,
                                       record.suggestion_click)
                last_record = record
                per_record = (ctx, tokenize(record.query_text), detect(ctx, self.intent_config))
            ctx, tokens, detection = per_record
            first_pass = self.index.score_doc(tokens, doc_id)
            return self.build_signals(ctx, tokens, doc, first_pass, detection)

        return signals_for

    def train_engagement_model(
        self,
        log_records: Optional[Sequence[QueryRecord]] = None,
        feature_names: Sequence[str] = DEFAULT_FEATURES,
        params: TrainParams = TrainParams(),
    ) -> tuple[EngagementModel, TrainReport]:
        records = log_records if log_records is not None else self.query_log
        return train_engagement(records, self.training_signals_fn(), feature_names, params)


def _engine_fingerprint(config_text: str) -> str:
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()[:12]


def load_engine(config_path: str | Path) -> EngineHandle:
    """Assemble an engine from a single JSON config file."""
    config_path = Path(config_path)
    if not config_path.exists():
        raise FileNotFoundError(f"engine config not found: {config_path}")
    text = config_path.read_text(encoding="utf-8")
    raw = read_config(config_path, ENGINE_CONFIG, text)
    base = config_path.parent

    def resolve(rel: Optional[str]) -> Optional[Path]:
        return None if rel is None else base / rel  # an absolute rel replaces base

    corpus = load_corpus(resolve(raw["corpus_dir"]))
    retrieval = raw["retrieval"]
    index = build_index(corpus, num_shards=retrieval.num_shards,
                        k1=retrieval.k1, b=retrieval.b)

    intent = raw["intent"]
    space = IntentSpace(intent["space"])
    intent_config = IntentConfig(
        space=space,
        patterns=load_patterns(resolve(intent["patterns"])) if intent["patterns"] else [],
        dictionaries=(load_dictionaries(resolve(intent["dictionaries"]))
                      if intent["dictionaries"] else {}),
        kb=load_entities(resolve(intent["entities"])) if intent["entities"] else KnowledgeBase([]),
        classifiers=_build_classifiers(intent["classifiers"], corpus),
        link_threshold=intent["link_threshold"],
        graph=corpus.graph,
    )
    intent_config.validate()

    model_path = raw["engagement_model"]
    engagement_model = load_model(resolve(model_path)) if model_path else None
    registry, generic_weights, intent_weights = build_registry(
        raw["components"], space, graph=corpus.graph, engagement_model=engagement_model,
        base_dir=base,
    )
    ranker_config = RankerConfig(generic_weights=generic_weights, intent_weights=intent_weights,
                                 **raw["ranker"])
    ranker_config.validate()

    query_log = load_query_log(resolve(raw["query_log"])) if raw["query_log"] else []
    judgments = load_judgments(resolve(raw["judgments"])) if raw["judgments"] else []
    engagement_table = EngagementTable.from_log(query_log)

    now_ts = raw["now_ts"]
    if now_ts is None:
        created = [d.created_ts for d in corpus.documents.values()]
        engaged = [
            ts for user in corpus.users.values() for ts in user.engaged_doc_ids.values()
        ]
        now_ts = max(created + engaged, default=0) + 86400

    return EngineHandle(
        corpus=corpus,
        index=index,
        intent_config=intent_config,
        registry=registry,
        ranker_config=ranker_config,
        engagement_table=engagement_table,
        retrieval=retrieval,
        now_ts=now_ts,
        fingerprint=_engine_fingerprint(text),
        query_log=query_log,
        judgments=judgments,
        bvt_suite_path=resolve(raw["bvt_suite"]),
    )


def _build_classifiers(records: Sequence[dict], corpus: Corpus) -> ClassifierRegistry:
    registry = ClassifierRegistry()
    for rec in records:
        kind, params = rec["kind"], rec["params"]
        if kind == "keyword":
            fn = KeywordClassifier(**params)
        elif kind == "char_ngram":
            fn = CharNgramClassifier(**params)
        else:
            names = {
                doc.author_id: doc.title
                for doc in corpus.documents.values()
                if doc.doc_type == "user" and doc.author_id
            }
            fn = FriendNameClassifier(names, corpus.graph)
        registry.register(rec["intent"], kind if rec["name"] is None else rec["name"], fn)
    return registry
