"""Engine assembly: one config file wires corpus, index, detection, scoring.

The engine config is a single JSON file of asset paths and knobs. Relative
paths resolve against the config file's directory, so a corpus directory
can be moved wholesale. The assembled handle is immutable and safe to share
across threads; per-query work is pure.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
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
from .components.registry import ComponentRegistry, ComponentSpec, build_registry, specs_from_records
from .components.signals import SharedSignals
from .corpus import (
    Corpus,
    Document,
    EngagementTable,
    QueryContext,
    QueryRecord,
    RelevanceJudgment,
    StructuredSuggestion,
    UserContext,
    load_corpus,
    load_judgments,
    load_query_log,
    social_relations,
)
from .components.generic import (
    document_quality,
    haversine_km,
    language_match_value,
    proximity_score,
    title_hit_ratio,
)
from .errors import ConfigurationError, IntentRankError
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
from .intent.space import IntentDistribution, IntentSpace
# `rank` is build_table + combine in one call, kept here for callers that
# re-assemble the search pipeline from this module's names
from .ranker import (
    RankedList,
    RankerConfig,
    ScoreTable,
    build_table,
    combine,
    rank,
    validate_config,
)

log = logging.getLogger(__name__)

DEFAULT_INTENTS = ("friend", "video_publisher", "special_grammar", "news", "sports")


@dataclass
class RetrievalParams:
    num_shards: int = 1
    k: int = 50
    per_shard_k: Optional[int] = None
    k1: float = 1.2
    b: float = 0.75


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
        positions = {
            term: self.index.positions(term, doc.doc_id) for term in set(query_tokens)
        }
        view = ctx.graph_view
        if view is None:
            # A context made without context_for: build the view here, which
            # costs one view per candidate rather than one per query.
            view = self.corpus.graph.searcher_view(ctx.user.user_id)
        relations = frozenset(social_relations(view, doc))
        distance = None
        if ctx.user.location is not None and doc.location is not None:
            distance = haversine_km(ctx.user.location, doc.location)
        pair = self.engagement_table.get(ctx.query_text, doc.doc_id)
        quality_mean, _ = document_quality(doc.quality)
        return SharedSignals(
            first_pass_bm25=first_pass,
            proximity=proximity_score(query_tokens, positions),
            title_hit_ratio=title_hit_ratio(query_tokens, tokenize(doc.title)),
            relations=relations,
            distance_km=distance,
            language_overlap=language_match_value(ctx.user.languages, doc.languages),
            quality_mean=quality_mean,
            pair_counts=pair,
            doc_impressions=doc.engagement.impressions,
            doc_clicks=doc.engagement.clicks,
            doc_good_clicks=doc.engagement.good_clicks,
            intents=detection.distribution if detection is not None else None,
            friend_target=detection.friend_target if detection is not None else None,
            publisher_entity=detection.publisher_entity if detection is not None else None,
            grammar=detection.grammar if detection is not None else None,
            now_ts=self.now_ts,
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
            signals = self.build_signals(ctx, tokens, doc, cand.first_pass_score, detection)
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
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{config_path}: invalid JSON: {exc.msg}") from exc
    base = config_path.parent

    def resolve(rel: Optional[str]) -> Optional[Path]:
        if rel is None:
            return None
        p = Path(rel)
        return p if p.is_absolute() else base / p

    corpus_dir = resolve(raw.get("corpus_dir"))
    if corpus_dir is None:
        raise ConfigurationError(f"{config_path}: missing required key 'corpus_dir'")
    corpus = load_corpus(corpus_dir)

    try:
        retrieval = RetrievalParams(**raw.get("retrieval", {}))
    except TypeError as exc:
        raise ConfigurationError(f"{config_path}: bad retrieval key: {exc}") from exc
    index = build_index(corpus, num_shards=retrieval.num_shards,
                        k1=retrieval.k1, b=retrieval.b)

    intent_raw = raw.get("intent", {})
    space = IntentSpace(tuple(intent_raw.get("space", DEFAULT_INTENTS)))
    patterns = load_patterns(resolve(intent_raw["patterns"])) if intent_raw.get("patterns") else []
    dictionaries = (
        load_dictionaries(resolve(intent_raw["dictionaries"]))
        if intent_raw.get("dictionaries")
        else {}
    )
    kb = load_entities(resolve(intent_raw["entities"])) if intent_raw.get("entities") else KnowledgeBase([])
    classifiers = _build_classifiers(intent_raw.get("classifiers", []), corpus)
    intent_config = IntentConfig(
        space=space,
        patterns=patterns,
        dictionaries=dictionaries,
        kb=kb,
        classifiers=classifiers,
        link_threshold=float(intent_raw.get("link_threshold", 0.3)),
        graph=corpus.graph,
    )
    intent_config.validate()

    engagement_model = None
    if raw.get("engagement_model"):
        engagement_model = load_model(resolve(raw["engagement_model"]))

    specs = specs_from_records(raw.get("components", []))
    registry, generic_weights, intent_weights = build_registry(
        specs, space, graph=corpus.graph, engagement_model=engagement_model, base_dir=base
    )

    ranker_raw = raw.get("ranker", {})
    ranker_config = RankerConfig(
        generic_weights=generic_weights,
        intent_weights=intent_weights,
        trigger_threshold=float(ranker_raw.get("trigger_threshold", 0.05)),
        k_final=int(ranker_raw.get("k_final", 10)),
    )
    ranker_config.validate()

    query_log = load_query_log(resolve(raw["query_log"])) if raw.get("query_log") else []
    judgments = load_judgments(resolve(raw["judgments"])) if raw.get("judgments") else []
    engagement_table = EngagementTable.from_log(query_log)

    now_ts = raw.get("now_ts")
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
        now_ts=int(now_ts),
        fingerprint=_engine_fingerprint(text),
        query_log=query_log,
        judgments=judgments,
        bvt_suite_path=resolve(raw.get("bvt_suite")),
    )


def _build_classifiers(records: Sequence[dict], corpus: Corpus) -> ClassifierRegistry:
    registry = ClassifierRegistry()
    for rec in records:
        intent_id = rec["intent"]
        kind = rec["kind"]
        name = rec.get("name", kind)
        params = rec.get("params", {})
        if kind == "keyword":
            fn = KeywordClassifier(params["keyword_confidence"])
        elif kind == "char_ngram":
            fn = CharNgramClassifier(params["ngrams"], float(params.get("confidence", 0.6)))
        elif kind == "friend_name":
            names = {
                doc.author_id: doc.title
                for doc in corpus.documents.values()
                if doc.doc_type == "user" and doc.author_id
            }
            fn = FriendNameClassifier(names, corpus.graph)
        else:
            raise ConfigurationError(
                f"unknown classifier kind {kind!r}; valid: keyword, char_ngram, friend_name"
            )
        registry.register(intent_id, name, fn)
    return registry
