"""Engagement model: logistic arithmetic, gradients, training, AUC."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import central_difference_gradient

from intentrank.components.engagement import (
    EngagementModel,
    EngagementScorer,
    TrainParams,
    auc_score,
    feature_vector,
    load_model,
    loss_and_gradient,
    resolve_features,
    save_model,
    sigmoid,
    train_engagement,
)
from intentrank.components.signals import SharedSignals
from intentrank.engine import load_engine
from intentrank.errors import ConfigurationError, IntentRankError


class TestModelArithmetic:
    def test_zero_features_zero_bias_is_half(self):
        model = EngagementModel(("a", "b"), (1.0, 2.0), bias=0.0)
        assert model.predict(np.zeros(2)) == 0.5

    def test_large_negative_bias_saturates_to_zero(self):
        model = EngagementModel((), (), bias=-500.0)
        assert model.predict(np.zeros(0)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_logistic(self):
        model = EngagementModel(("x", "y"), (0.5, -1.0), bias=0.25)
        x = np.array([0.8, 0.3])
        z = 0.5 * 0.8 - 1.0 * 0.3 + 0.25
        assert model.predict(x) == pytest.approx(1.0 / (1.0 + np.exp(-z)), abs=1e-9)

    def test_weight_feature_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="features"):
            EngagementModel(("a",), (1.0, 2.0))

    def test_save_load_round_trip(self, tmp_path):
        model = EngagementModel(("a", "b"), (0.25, -0.5), bias=1.5)
        save_model(model, tmp_path / "m.json")
        assert load_model(tmp_path / "m.json") == model


def extract(names, signals):
    return feature_vector(resolve_features(names), signals)


class TestFeatureExtraction:
    def test_known_features(self):
        signals = SharedSignals(first_pass_bm25=1.0, title_hit_ratio=0.5)
        out = extract(("bm25_squashed", "title_hit_ratio"), signals)
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(0.5)

    def test_unknown_feature_zero_with_warning_counter(self, caplog):
        with caplog.at_level("WARNING", logger="intentrank.components.engagement"):
            out = extract(("made_up", "quality", "made_up"), SharedSignals(quality_mean=0.5))
        assert out.tolist() == [0.0, 0.5, 0.0]
        assert [r.getMessage() for r in caplog.records] == [
            "unknown engagement feature 'made_up' treated as 0"]

    def test_intent_feature(self):
        from intentrank.intent.space import IntentDistribution

        signals = SharedSignals(intents=IntentDistribution({"friend": 0.7, "generic": 0.3}))
        out = extract(("intent:friend", "intent:news"), signals)
        assert out.tolist() == [0.7, 0.0]
        assert extract(("intent:friend",), SharedSignals()).tolist() == [0.0]


class TestEngagementScorer:
    def test_unknown_feature_warns_once_and_scoring_keeps_state(self, caplog):
        from intentrank.intent.space import IntentDistribution

        model = EngagementModel(("made_up", "quality", "intent:friend"), (1.0, 2.0, -0.5), 0.1)
        with caplog.at_level("WARNING", logger="intentrank.components.engagement"):
            scorer = EngagementScorer(model=model)
            state = dict(vars(scorer))
            for quality in (0.0, 0.5, 1.0):
                signals = SharedSignals(quality_mean=quality,
                                        intents=IntentDistribution({"friend": 0.4}))
                assert scorer.score(None, None, signals) == model.predict(
                    np.array([0.0, quality, 0.4]))
        assert [r.getMessage() for r in caplog.records] == [
            "unknown engagement feature 'made_up' treated as 0"]
        assert vars(scorer) == state


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, d = rng.integers(4, 30), rng.integers(1, 6)
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 0.1))
            _, grad_w, grad_b = loss_and_gradient(x, y, w, b, l2)

            packed = np.concatenate([w, [b]])

            def f(p):
                return loss_and_gradient(x, y, p[:-1], p[-1], l2)[0]

            numeric = central_difference_gradient(f, packed, h=1e-6)
            analytic = np.concatenate([grad_w, [grad_b]])
            denom = np.maximum(np.abs(numeric), 1e-8)
            rel = np.abs(analytic - numeric) / denom
            assert rel.max() <= 1e-5

    def test_loss_is_stable_for_large_scores(self):
        x = np.array([[1000.0], [-1000.0]])
        y = np.array([1.0, 0.0])
        loss, grad_w, grad_b = loss_and_gradient(x, y, np.array([1.0]), 0.0)
        assert np.isfinite(loss) and np.isfinite(grad_w).all() and np.isfinite(grad_b)


class TestAuc:
    def test_perfect_separation(self):
        assert auc_score(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_reversed_is_zero(self):
        assert auc_score(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0

    def test_ties_average(self):
        assert auc_score(np.array([0, 1]), np.array([0.5, 0.5])) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(IntentRankError, match="single class"):
            auc_score(np.ones(3), np.ones(3))


class TestTraining:
    def signals_fn(self, feature_value_by_doc):
        def fn(record, doc_id):
            return SharedSignals(first_pass_bm25=0.0,
                                 title_hit_ratio=feature_value_by_doc[doc_id])
        return fn

    def make_log(self):
        from intentrank.corpus import QueryRecord

        records = []
        for i in range(30):
            records.append(QueryRecord(
                query_text=f"q{i}", user_id="u", shown_doc_ids=("good", "bad"),
                clicked=frozenset({"good"}), good_clicked=frozenset({"good"}),
            ))
        return records

    def test_separable_features_reach_high_auc(self):
        log = self.make_log()
        model, report = train_engagement(
            log, self.signals_fn({"good": 1.0, "bad": 0.0}), ("title_hit_ratio",),
            TrainParams(iterations=300),
        )
        assert report.train_auc >= 0.95
        assert model.weights[0] > 0

    def test_zero_iterations_returns_initial_model(self):
        log = self.make_log()
        model, report = train_engagement(
            log, self.signals_fn({"good": 1.0, "bad": 0.0}), ("title_hit_ratio",),
            TrainParams(iterations=0),
        )
        assert model == EngagementModel.zeros(("title_hit_ratio",))

    def test_single_class_log_rejected(self):
        from intentrank.corpus import QueryRecord

        log = [QueryRecord(query_text="q", user_id="u", shown_doc_ids=("good",),
                           clicked=frozenset({"good"}), good_clicked=frozenset({"good"}))]
        with pytest.raises(IntentRankError, match="one class"):
            train_engagement(log, self.signals_fn({"good": 1.0}), ("title_hit_ratio",),
                             TrainParams())

    def test_empty_log_rejected(self):
        with pytest.raises(IntentRankError, match="empty"):
            train_engagement([], self.signals_fn({}), ("title_hit_ratio",), TrainParams())

    def test_deterministic(self):
        log = self.make_log()
        runs = [
            train_engagement(log, self.signals_fn({"good": 0.9, "bad": 0.2}),
                             ("title_hit_ratio",), TrainParams())[0]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_unknown_feature_warns_once_per_training_run(self, caplog):
        with caplog.at_level("WARNING", logger="intentrank.components.engagement"):
            model, _ = train_engagement(
                self.make_log(), self.signals_fn({"good": 1.0, "bad": 0.0}),
                ("made_up", "title_hit_ratio"), TrainParams(iterations=50))
        assert [r.getMessage() for r in caplog.records] == [
            "unknown engagement feature 'made_up' treated as 0"]
        assert model.weights[0] == 0.0 < model.weights[1]

    def test_end_to_end_on_planted_history_fixture(self, engagement_dir):
        engine = load_engine(engagement_dir / "engine.json")
        model, report = engine.train_engagement_model(
            feature_names=("ctr_qd", "good_ctr_qd", "title_hit_ratio"),
            params=TrainParams(iterations=400),
        )
        assert report.train_auc >= 0.95
        assert report.n_positive > 0
