"""Engine assembly: config loading, the query pipeline, signals wiring."""

from __future__ import annotations

import json

import pytest

from intentrank.engine import load_engine
from intentrank.errors import ConfigurationError, IntentRankError
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
        assert len(result.candidates) <= demo_engine.retrieval.k


class TestTrainingSignals:
    def test_detects_once_per_record(self, replay_dir, monkeypatch):
        import intentrank.engine as engine_mod
        from intentrank.components.engagement import (
            DEFAULT_FEATURES, TrainParams, train_engagement,
        )
        from intentrank.corpus import QueryContext
        from intentrank.index import tokenize

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
            user = engine.corpus.users.get(record.user_id)
            if doc is None or user is None:
                return None
            ctx = QueryContext(record.query_text, user, record.suggestion_click, ts=engine.now_ts)
            tokens = tokenize(record.query_text)
            return engine.build_signals(ctx, tokens, doc, engine.index.score_doc(tokens, doc_id),
                                        original(ctx, engine.intent_config))

        reference, _ = train_engagement(engine.query_log, detect_per_doc, DEFAULT_FEATURES, params)
        assert model == reference

