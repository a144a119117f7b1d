"""Engine assembly: config loading, the query pipeline, signals wiring."""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np
import pytest

from oracles import title_hit_ratio

import intentrank.engine as engine_mod
from intentrank import frame as frame_mod
from intentrank.components import generic as generic_mod
from intentrank.components.engagement import EngagementModel, EngagementScorer
from intentrank import index as index_mod
from intentrank.corpus import SocialGraph
from intentrank.engine import EngineHandle, load_engine
from intentrank.errors import ConfigurationError, IntentRankError
from intentrank.index import Candidate, tokenize
from intentrank.ranker import RankerConfig


class TestLoadEngine:
    def test_missing_config(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_engine(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "engine.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_engine(path)

    def test_missing_corpus_key(self, tmp_path):
        path = tmp_path / "engine.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="corpus_dir"):
            load_engine(path)

    def test_fingerprint_stable_across_loads(self, demo_dir):
        a = load_engine(demo_dir / "engine.json")
        b = load_engine(demo_dir / "engine.json")
        assert a.fingerprint == b.fingerprint
        assert a.ranker_config.fingerprint() == b.ranker_config.fingerprint()

    def test_weights_read_from_component_config(self, demo_engine):
        assert demo_engine.ranker_config.generic_weights["text"] == 1.0
        assert demo_engine.ranker_config.intent_weights == {
            "friend": 1.5, "special_grammar": 1.2, "video_publisher": 1.5,
        }

    def test_now_ts_fixed_by_config(self, demo_engine):
        assert demo_engine.now_ts == 1_750_000_000

    def test_bad_retrieval_key_is_config_error(self, demo_dir, tmp_path):
        config = json.loads((demo_dir / "engine.json").read_text())
        config["corpus_dir"] = str(demo_dir / "corpus")
        config["retrieval"] = {"num_shards": 2, "shard_count": 3}
        path = tmp_path / "engine.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="retrieval"):
            load_engine(path)

    def test_unknown_classifier_kind(self, demo_dir, tmp_path):
        config = json.loads((demo_dir / "engine.json").read_text())
        config["intent"]["classifiers"] = [{"intent": "news", "kind": "oracle"}]
        config["corpus_dir"] = str(demo_dir / "corpus")
        config["intent"]["entities"] = str(demo_dir / "entities.jsonl")
        config["intent"]["dictionaries"] = str(demo_dir / "dictionaries.jsonl")
        config["intent"]["patterns"] = str(demo_dir / "patterns.jsonl")
        del config["query_log"], config["judgments"], config["bvt_suite"]
        path = tmp_path / "engine.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="classifier kind"):
            load_engine(path)


class TestSearchPipeline:
    def test_unknown_user_rejected(self, demo_engine):
        with pytest.raises(IntentRankError, match="unknown user_id"):
            demo_engine.search("anything", "u_ghost")

    def test_policy_rejected_never_ranked(self, demo_engine):
        result = demo_engine.search("taylor swift", "u_alice")
        assert "d_post_spam" not in result.ranked.doc_ids()
        assert result.ranked.traces["d_post_spam"].filtered == "policy"

    def test_k_override(self, demo_engine):
        result = demo_engine.search("taylor swift", "u_alice", k=2)
        assert len(result.ranked.items) == 2

    def test_config_override_does_not_mutate_engine(self, demo_engine):
        quiet = RankerConfig(generic_weights={"text": 1.0}, intent_weights={})
        result = demo_engine.search("taylor swift", "u_alice", config=quiet)
        assert result.ranked.config_fingerprint == quiet.fingerprint()
        assert demo_engine.ranker_config.generic_weights["social"] == 1.0

    def test_repeat_search_identical(self, demo_engine):
        a = demo_engine.search("taylor swift", "u_alice")
        b = demo_engine.search("taylor swift", "u_alice")
        assert a.ranked.items == b.ranked.items
        assert a.detection.distribution == b.detection.distribution

    def test_grammar_query_pulls_from_history(self, demo_engine):
        result = demo_engine.search("posts i have seen", "u_alice")
        assert result.ranked.doc_ids()[0] == "d_post_bob"
        grammar = result.detection.grammar
        assert grammar is not None and grammar.doc_type == "post"

    def test_grammar_window_excludes_old_watch(self, demo_engine):
        result = demo_engine.search("videos i watched yesterday", "u_alice")
        ids = result.ranked.doc_ids()
        assert "d_vid_shake" in ids  # watched yesterday noon
        trace = result.ranked.traces["d_vid_shake"]
        grammar_terms = [t for t in trace.intent_terms if t.intent_id == "special_grammar"]
        assert grammar_terms[0].sigma == 1.0

    def test_friend_search_puts_profile_first(self, demo_engine):
        result = demo_engine.search("bob stone", "u_alice")
        assert result.ranked.doc_ids()[0] == "d_user_bob"
        assert result.detection.friend_target == "u_bob"

    def test_suggestion_click_carries_entity(self, demo_engine):
        from intentrank.corpus import StructuredSuggestion

        result = demo_engine.search(
            "5 minute crafts", "u_alice",
            suggestion=StructuredSuggestion("pg_5mc", "video_publisher"),
        )
        assert result.detection.publisher_entity == "pg_5mc"
        assert result.detection.distribution.get("video_publisher") == pytest.approx(0.95)

    def test_signals_include_pair_counts(self, demo_engine):
        ctx = demo_engine.context_for("taylor swift", "u_alice")
        from intentrank.index import tokenize

        doc = demo_engine.corpus.documents["d_vid_shake"]
        signals = demo_engine.build_signals(ctx, tokenize("taylor swift"), doc, 1.0, None)
        assert signals.pair_counts.impressions == 2  # two log records showed it
        assert signals.doc_good_clicks == 240

    def test_candidates_bounded_by_retrieval_k(self, demo_engine):
        result = demo_engine.search("taylor swift", "u_alice")
        assert len(result.frame) <= demo_engine.retrieval.k

    def test_self_history_overlap_is_one_candidate(self, demo_engine, monkeypatch):
        # retrieval also finds one of the searcher's engaged posts
        retrieved = [Candidate("d_post_bob", 1.5), Candidate("d_page_tswift", 1.0)]
        rows = np.array([demo_engine.index.row_of(c.doc_id) for c in retrieved])
        scores = np.array([c.first_pass_score for c in retrieved])
        monkeypatch.setattr(engine_mod, "retrieve_rows", lambda *args, **kwargs: (rows, scores))
        result = demo_engine.search("posts i have seen", "u_alice")
        assert result.detection.grammar.self_seen
        engaged = set(demo_engine.corpus.users["u_alice"].engaged_doc_ids)
        ids = result.frame.doc_ids
        assert "d_post_bob" in engaged
        assert len(ids) == len(set(ids)) == len({c.doc_id for c in retrieved} | engaged)
        # the retrieved copy is the one kept
        assert Candidate(ids[0], result.frame.first_pass[0]) == retrieved[0]
        ranked = result.ranked.doc_ids()
        assert len(ranked) == len(set(ranked))

    @pytest.mark.parametrize("fixture", ["demo_dir", "replay_dir", "engagement_dir"])
    def test_title_hits_from_index_match_retokenized_titles(self, fixture, request):
        engine = load_engine(request.getfixturevalue(fixture) / "engine.json")
        checked = 0
        for record in engine.query_log:
            if record.user_id not in engine.corpus.users:
                continue
            ctx = engine.context_for(record.query_text, record.user_id)
            tokens = tokenize(record.query_text)
            frame = engine.search(record.query_text, record.user_id).frame
            for row, doc in enumerate(frame.docs):
                expected = title_hit_ratio(tokens, tokenize(doc.title))
                signals = engine.build_signals(ctx, tokens, doc, frame.first_pass[row], None)
                assert signals.title_hit_ratio == frame.title_hit_ratio[row] == expected
                checked += 1
        assert checked > 0


class TestWorkPerSearch:
    """Call counts of one search; nothing here is timed."""

    @staticmethod
    def count(monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_one_graph_view_and_one_detection(self, demo_engine, monkeypatch):
        views, detections = [], []
        self.count(monkeypatch, SocialGraph, "searcher_view", views)
        self.count(monkeypatch, engine_mod, "detect", detections)
        result = demo_engine.search("taylor swift", "u_alice")
        assert len(result.frame) > 1
        assert len(views) == len(detections) == 1

    def test_tokenize_calls_do_not_grow_with_candidates(self, demo_engine, monkeypatch):
        calls, tokenize_fn = [], index_mod.tokenize
        for module in [m for name, m in sys.modules.items() if name.startswith("intentrank")]:
            if getattr(module, "tokenize", None) is tokenize_fn:
                self.count(monkeypatch, module, "tokenize", calls)
        sizes, counts = [], []
        for k in (1, demo_engine.retrieval.k):
            monkeypatch.setattr(demo_engine, "retrieval",
                                dataclasses.replace(demo_engine.retrieval, k=k))
            calls.clear()
            sizes.append(len(demo_engine.search("taylor swift", "u_alice").frame))
            counts.append(len(calls))
        assert sizes[0] < sizes[1]
        assert counts[0] == counts[1] > 0

    def test_no_signals_for_policy_rejected_candidates(self, demo_engine, monkeypatch):
        built, related = [], []
        self.count(monkeypatch, EngineHandle, "build_signals", built)
        self.count(monkeypatch, frame_mod, "social_relations", related)
        result = demo_engine.search("taylor swift", "u_alice")
        docs = demo_engine.corpus.documents
        candidates = set(result.frame.doc_ids)
        rejected = {d for d in candidates if docs[d].quality.policy_reject}
        assert rejected == {"d_post_spam"}
        assert built == []
        # the per-searcher columns are computed for the kept rows only:
        # social_relations(view, doc)
        assert sorted(args[1].doc_id for args in related) == sorted(candidates - rejected)
        assert {result.frame.doc_ids[i] for i in result.frame.kept} == candidates - rejected

    def test_shared_columns_run_once_per_search(self, demo_engine, monkeypatch):
        calls = {"social_column": [], "location_column": []}
        for name, log in calls.items():
            fn = getattr(generic_mod, name)
            for module in [m for key, m in sys.modules.items() if key.startswith("intentrank")]:
                if getattr(module, name, None) is fn:
                    self.count(monkeypatch, module, name, log)
        registry = demo_engine.registry
        # the default registry reads `social` twice: its scorer and the
        # engagement feature of the same name
        assert {"social", "location"} <= set(registry.generic)
        assert "social" in registry.generic["engagement"].model.features
        searches = (("taylor swift", "u_alice"), ("posts i have seen", "u_alice"))
        for query, user in searches:
            assert len(demo_engine.search(query, user).frame) > 1
        assert len(calls["social_column"]) == len(calls["location_column"]) == len(searches)
        # an engagement model that reads `location` too shares the scorer's column
        ctx = demo_engine.context_for("taylor swift", "u_alice")
        frame = demo_engine.search("taylor swift", "u_alice").frame
        model = EngagementModel.zeros(("social", "location"))
        EngagementScorer(model=model).column(ctx, frame)
        assert len(calls["social_column"]) == len(calls["location_column"]) == len(searches) + 1

    def test_shared_columns_follow_their_parameters(self, demo_engine):
        """A column shared within a frame is shared only between readers with
        the same relation weights or tau."""
        frame = demo_engine.search("taylor swift", "u_alice").frame
        default = generic_mod.social_sigma(frame, generic_mod.DEFAULT_RELATION_WEIGHTS)
        halved = {rel: w / 2 for rel, w in generic_mod.DEFAULT_RELATION_WEIGHTS.items()}
        assert default.any()
        scorer = generic_mod.SocialRelevanceScorer(relation_weights=halved)
        assert list(scorer.column(None, frame)) == [x / 2 for x in default]
        # u_bob is about 13 km from the one located candidate
        frame = demo_engine.search("taylor swift", "u_bob").frame
        near = generic_mod.location_sigma(frame, 5.0)
        assert near.any()
        assert list(generic_mod.location_sigma(frame, 500.0)) == list(
            generic_mod.location_column(frame, 500.0)) != list(near)

    def test_no_per_candidate_calls(self, demo_engine, monkeypatch):
        calls = {name: [] for name in ("build_signals", "score", "Candidate", "positions")}
        self.count(monkeypatch, EngineHandle, "build_signals", calls["build_signals"])
        self.count(monkeypatch, index_mod.ShardedIndex, "positions", calls["positions"])
        self.count(monkeypatch, index_mod.Candidate, "__init__", calls["Candidate"])
        registry = demo_engine.registry
        for cls in {type(s) for s in [*registry.generic.values(),
                                      *registry.intent_specific.values()]}:
            self.count(monkeypatch, cls, "score", calls["score"])
        for query, user in (("taylor swift", "u_alice"), ("posts i have seen", "u_alice"),
                            ("bob stone", "u_alice")):
            assert len(demo_engine.search(query, user).frame) > 0
        assert calls == {name: [] for name in calls}


class TestTrainingSignals:
    def test_detects_once_per_record(self, replay_dir, monkeypatch):
        from intentrank.components.engagement import (
            DEFAULT_FEATURES, TrainParams, train_engagement,
        )

        engine = load_engine(replay_dir / "engine.json")
        calls = []
        original = engine_mod.detect
        def counted(ctx, config):
            calls.append(ctx.query_text)
            return original(ctx, config)

        monkeypatch.setattr(engine_mod, "detect", counted)
        params = TrainParams(iterations=20)
        model, _ = engine.train_engagement_model(params=params)
        records = [r for r in engine.query_log
                   if r.user_id in engine.corpus.users and r.shown_doc_ids]
        assert len(calls) == len(records) > 0

        def detect_per_doc(record, doc_id):
            doc = engine.corpus.documents.get(doc_id)
            if doc is None or record.user_id not in engine.corpus.users:
                return None
            ctx = engine.context_for(record.query_text, record.user_id, record.suggestion_click)
            tokens = tokenize(record.query_text)
            return engine.build_signals(ctx, tokens, doc, engine.index.score_doc(tokens, doc_id),
                                        original(ctx, engine.intent_config))

        reference, _ = train_engagement(engine.query_log, detect_per_doc, DEFAULT_FEATURES, params)
        assert model == reference

