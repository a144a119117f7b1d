"""Score combination: factored vs mixture forms, traces, ranking, triggers."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from conftest import mk_ctx, mk_doc, mk_user
from oracles import score_candidate, score_candidate_mixture

from intentrank.components.generic import Scorer
from intentrank.components.registry import ComponentRegistry
from intentrank.components.signals import SharedSignals
from intentrank.corpus import QualitySignals
from intentrank.errors import ConfigurationError, IntentRankError
from intentrank.intent.space import IntentDistribution, IntentSpace, normalize_evidence
from intentrank.ranker import (
    RankerConfig,
    compare_trigger_stats,
    explain,
    export_traces,
    rank,
    trigger_stats,
    validate_config,
)


class StubScorer(Scorer):
    """Fixed per-doc values; the simplest possible pure component."""

    def __init__(self, component_id, values, default=0.0):
        super().__init__(component_id)
        self.values = dict(values)
        self.default = default

    def score(self, ctx, doc, signals):
        return self.values.get(doc.doc_id, self.default)


def registry_of(generic=(), intent=()):
    registry = ComponentRegistry()
    for scorer in generic:
        registry.add_generic(scorer)
    for intent_id, scorer in intent:
        registry.add_intent_specific(intent_id, scorer)
    return registry


def dist(probs):
    return IntentDistribution(probs)


SIGNALS = SharedSignals()


class TestScoreCandidate:
    def test_worked_example(self):
        # one generic component at 0.5 with weight 1, one intent term
        # P=0.8, w=2.0, sigma=0.9, threshold 0: total = 0.5 + 1.44 = 1.94
        registry = registry_of(
            generic=[StubScorer("text", {"d1": 0.5})],
            intent=[("video_publisher", StubScorer("pub", {"d1": 0.9}))],
        )
        config = RankerConfig(generic_weights={"text": 1.0},
                              intent_weights={"video_publisher": 2.0},
                              trigger_threshold=0.0)
        score, trace = score_candidate(
            mk_ctx("q"), mk_doc("d1"), SIGNALS,
            dist({"video_publisher": 0.8, "generic": 0.2}), registry, config,
        )
        assert score == pytest.approx(1.94, abs=1e-12)
        assert trace.contribution_sum() == pytest.approx(score, abs=1e-12)

    def test_zero_probability_gates_component_off(self):
        spy_calls = []

        class SpyScorer(Scorer):
            def __init__(self):
                super().__init__("spy")

            def score(self, ctx, doc, signals):
                spy_calls.append(doc.doc_id)
                return 1.0

        registry = registry_of(generic=[StubScorer("text", {"d1": 0.4})],
                               intent=[("friend", SpyScorer())])
        config = RankerConfig(generic_weights={"text": 1.0},
                              intent_weights={"friend": 5.0}, trigger_threshold=0.0)
        score_with, _ = score_candidate(mk_ctx("q"), mk_doc("d1"), SIGNALS,
                                        dist({"friend": 0.0, "generic": 1.0}),
                                        registry, config)
        config_without = RankerConfig(generic_weights={"text": 1.0}, intent_weights={},
                                      trigger_threshold=0.0)
        score_without, _ = score_candidate(mk_ctx("q"), mk_doc("d1"), SIGNALS,
                                           dist({"friend": 0.0, "generic": 1.0}),
                                           registry, config_without)
        assert score_with == score_without  # bit-equal
        assert spy_calls == []  # never evaluated

    def test_all_weights_zero(self):
        registry = registry_of(generic=[StubScorer("text", {"d1": 0.9})])
        config = RankerConfig(generic_weights={"text": 0.0}, intent_weights={})
        score, _ = score_candidate(mk_ctx("q"), mk_doc("d1"), SIGNALS,
                                   dist({"generic": 1.0}), registry, config)
        assert score == 0.0

    def test_threshold_skips_and_marks_trace(self):
        registry = registry_of(
            generic=[],
            intent=[("friend", StubScorer("fr", {"d1": 1.0}))],
        )
        config = RankerConfig(generic_weights={}, intent_weights={"friend": 1.0},
                              trigger_threshold=0.5)
        score, trace = score_candidate(mk_ctx("q"), mk_doc("d1"), SIGNALS,
                                       dist({"friend": 0.3, "generic": 0.7}),
                                       registry, config)
        assert score == 0.0
        term = trace.intent_terms[0]
        assert term.skipped is True
        assert term.sigma is None
        assert term.probability == pytest.approx(0.3)

    def test_unregistered_component_fails_at_validation(self):
        registry = registry_of(generic=[StubScorer("text", {})])
        config = RankerConfig(generic_weights={"text": 1.0, "ghost": 1.0})
        with pytest.raises(ConfigurationError, match="ghost"):
            validate_config(registry, config)


class TestEquivalence:
    SPACE = IntentSpace(("friend", "video_publisher", "news"))

    def random_setup(self, rng):
        doc_ids = [f"d{i}" for i in range(rng.randint(1, 6))]
        generic = [
            StubScorer(f"g{i}", {d: rng.random() for d in doc_ids})
            for i in range(rng.randint(0, 4))
        ]
        intents = list(self.SPACE.detectable())
        chosen = rng.sample(intents, k=rng.randint(0, len(intents)))
        intent_scorers = [
            (t, StubScorer(f"s_{t}", {d: rng.random() for d in doc_ids})) for t in chosen
        ]
        registry = registry_of(generic=generic, intent=intent_scorers)
        config = RankerConfig(
            generic_weights={s.component_id: rng.uniform(0, 3) for s in generic},
            intent_weights={t: rng.uniform(0, 3) for t, _ in intent_scorers},
            trigger_threshold=0.0,
        )
        evidence = {t: rng.random() for t in rng.sample(intents, k=rng.randint(0, 3))}
        distribution = normalize_evidence(evidence, self.SPACE)
        return doc_ids, registry, config, distribution

    def test_factored_equals_mixture_for_random_configs(self):
        rng = random.Random(4242)
        ctx = mk_ctx("q")
        for trial in range(1000):
            doc_ids, registry, config, distribution = self.random_setup(rng)
            doc = mk_doc(rng.choice(doc_ids))
            factored, _ = score_candidate(ctx, doc, SIGNALS, distribution, registry, config)
            mixture = score_candidate_mixture(ctx, doc, SIGNALS, distribution, registry, config)
            assert abs(factored - mixture) <= 1e-9, f"trial {trial}"

    def test_single_intent_probability_one(self):
        registry = registry_of(
            generic=[StubScorer("g", {"d1": 0.25})],
            intent=[("friend", StubScorer("s", {"d1": 0.5}))],
        )
        config = RankerConfig(generic_weights={"g": 2.0}, intent_weights={"friend": 3.0},
                              trigger_threshold=0.0)
        distribution = dist({"friend": 1.0, "generic": 0.0})
        ctx, doc = mk_ctx("q"), mk_doc("d1")
        factored, _ = score_candidate(ctx, doc, SIGNALS, distribution, registry, config)
        mixture = score_candidate_mixture(ctx, doc, SIGNALS, distribution, registry, config)
        assert factored == pytest.approx(0.5 + 1.5)
        assert mixture == pytest.approx(factored, abs=1e-12)

    def test_empty_registry_scores_zero(self):
        registry = registry_of()
        config = RankerConfig(generic_weights={}, intent_weights={}, trigger_threshold=0.0)
        ctx, doc = mk_ctx("q"), mk_doc("d1")
        distribution = dist({"generic": 1.0})
        assert score_candidate(ctx, doc, SIGNALS, distribution, registry, config)[0] == 0.0
        assert score_candidate_mixture(ctx, doc, SIGNALS, distribution, registry, config) == 0.0

    def test_monotone_in_weights(self):
        rng = random.Random(77)
        ctx = mk_ctx("q")
        for _ in range(200):
            doc_ids, registry, config, distribution = self.random_setup(rng)
            doc = mk_doc(rng.choice(doc_ids))
            base, _ = score_candidate(ctx, doc, SIGNALS, distribution, registry, config)
            key = None
            if config.generic_weights and rng.random() < 0.5:
                key = ("generic_weights", rng.choice(sorted(config.generic_weights)))
            elif config.intent_weights:
                key = ("intent_weights", rng.choice(sorted(config.intent_weights)))
            if key is None:
                continue
            group = dict(getattr(config, key[0]))
            group[key[1]] += rng.uniform(0, 2)
            bumped = config.replace(**{key[0]: group})
            raised, _ = score_candidate(ctx, doc, SIGNALS, distribution, registry, bumped)
            assert raised >= base - 1e-12

    def test_order_invariant_under_weight_scaling(self):
        rng = random.Random(88)
        ctx = mk_ctx("q")
        for _ in range(50):
            doc_ids, registry, config, distribution = self.random_setup(rng)
            inputs = [(mk_doc(d), SIGNALS) for d in doc_ids]
            base = rank(ctx, inputs, distribution, registry, config, query_id="q")
            for lam in (0.5, 2.0, 4.0):
                scaled = config.replace(
                    generic_weights={k: v * lam for k, v in config.generic_weights.items()},
                    intent_weights={k: v * lam for k, v in config.intent_weights.items()},
                )
                again = rank(ctx, inputs, distribution, registry, scaled, query_id="q")
                assert again.doc_ids() == base.doc_ids()
                for a, b in zip(again.items, base.items):
                    assert a.score == pytest.approx(b.score * lam, rel=1e-12)


class TestRank:
    def reg(self):
        return registry_of(generic=[StubScorer("g", {"d1": 0.9, "d2": 0.9, "d3": 0.2})])

    def test_policy_rejected_filtered_with_trace(self):
        docs = [
            mk_doc("d1", quality=QualitySignals(policy_reject=True)),
            mk_doc("d2", quality=QualitySignals(policy_reject=True)),
        ]
        config = RankerConfig(generic_weights={"g": 1.0})
        ranked = rank(mk_ctx("q"), [(d, SIGNALS) for d in docs],
                      dist({"generic": 1.0}), self.reg(), config, query_id="q")
        assert ranked.items == ()
        assert ranked.traces["d1"].filtered == "policy"
        assert ranked.traces["d2"].filtered == "policy"

    def test_tie_breaks_quality_then_doc_id(self):
        high_q = QualitySignals(1.0, 1.0, 1.0, 1.0)
        low_q = QualitySignals(0.2, 0.2, 0.2, 0.2)
        docs = [
            mk_doc("d1", quality=low_q),
            mk_doc("d2", quality=high_q),
            mk_doc("d0", quality=low_q),
        ]
        config = RankerConfig(generic_weights={"g": 1.0})
        ranked = rank(mk_ctx("q"), [(d, SIGNALS) for d in docs],
                      dist({"generic": 1.0}), self.reg(), config, query_id="q")
        # d1 and d2 share score 0.9, so quality puts d2 first; d0 trails at 0
        assert ranked.doc_ids() == ("d2", "d1", "d0")

    def test_truncates_to_k_final(self):
        docs = [mk_doc(f"d{i}") for i in range(5)]
        registry = registry_of(generic=[StubScorer("g", {f"d{i}": i / 10 for i in range(5)})])
        config = RankerConfig(generic_weights={"g": 1.0}, k_final=2)
        ranked = rank(mk_ctx("q"), [(d, SIGNALS) for d in docs],
                      dist({"generic": 1.0}), registry, config, query_id="q")
        assert len(ranked.items) == 2
        assert ranked.doc_ids() == ("d4", "d3")
        assert set(ranked.traces) == {f"d{i}" for i in range(5)}  # traces kept for all

    def test_trace_sum_invariant_and_replay_oracle(self):
        rng = random.Random(99)
        doc_ids = [f"d{i:02d}" for i in range(50)]
        generic = [StubScorer(f"g{j}", {d: rng.random() for d in doc_ids}) for j in range(3)]
        intent_scorers = [("friend", StubScorer("s_f", {d: rng.random() for d in doc_ids}))]
        registry = registry_of(generic=generic, intent=intent_scorers)
        config = RankerConfig(
            generic_weights={s.component_id: rng.uniform(0.1, 2) for s in generic},
            intent_weights={"friend": 1.5},
            trigger_threshold=0.05,
            k_final=50,
        )
        distribution = dist({"friend": 0.6, "generic": 0.4})
        quality_by_doc = {}
        inputs = []
        for d in doc_ids:
            q = QualitySignals(rng.random(), rng.random(), rng.random(), rng.random())
            doc = mk_doc(d, quality=q)
            quality_by_doc[d] = sum(q.subscores()) / 4
            inputs.append((doc, SIGNALS))
        ranked = rank(mk_ctx("q"), inputs, distribution, registry, config, query_id="q")
        # replay from exported trace records: sum contributions, re-sort
        records = {r["doc_id"]: r for r in export_traces(ranked)}
        replayed = []
        for doc_id, rec in records.items():
            total = sum(t[3] for t in rec["generic_terms"]) + sum(
                t[5] for t in rec["intent_terms"]
            )
            assert abs(total - rec["final_score"]) <= 1e-9
            replayed.append((-total, -quality_by_doc[doc_id], doc_id))
        replayed.sort()
        assert tuple(r[2] for r in replayed) == ranked.doc_ids()

    def test_empty_candidates(self):
        config = RankerConfig(generic_weights={"g": 1.0})
        ranked = rank(mk_ctx("q"), [], dist({"generic": 1.0}), self.reg(), config)
        assert ranked.items == ()


class TestExplain:
    def build_ranked(self):
        registry = registry_of(
            generic=[StubScorer("text", {"d1": 0.5, "d2": 0.25})],
            intent=[("friend", StubScorer("fr", {"d1": 1.0, "d2": 0.0}))],
        )
        config = RankerConfig(generic_weights={"text": 1.0},
                              intent_weights={"friend": 2.0}, trigger_threshold=0.05)
        docs = [mk_doc("d1"), mk_doc("d2"),
                mk_doc("d3", quality=QualitySignals(policy_reject=True))]
        return rank(mk_ctx("q"), [(d, SIGNALS) for d in docs],
                    dist({"friend": 0.5, "generic": 0.5}), registry, config, query_id="q")

    def test_filtered_doc_shows_reason_no_rows(self):
        text = explain(self.build_ranked(), "d3")
        assert "policy" in text
        assert "sigma" not in text

    def test_contribution_sum_equals_final(self):
        ranked = self.build_ranked()
        trace = ranked.traces["d1"]
        assert trace.contribution_sum() == pytest.approx(trace.final_score, abs=1e-9)
        text = explain(ranked, "d1")
        assert f"{trace.final_score:.9f}" in text

    def test_unknown_doc_lists_nearest(self):
        with pytest.raises(IntentRankError, match="nearest"):
            explain(self.build_ranked(), "d99")

    def test_golden_rendering(self):
        got = explain(self.build_ranked(), "d1")
        golden = (
            "doc d1  query 'q'  config fb767f443139\n"
            "  final score 1.500000000  (rank 1)\n"
            "  scope    component             sigma      weight     p(t|q)   contribution\n"
            "  generic  text                  0.500000     1.0000        -    0.500000000\n"
            "  intent   friend/fr             1.000000     2.0000   0.5000    1.000000000\n"
            "  contributions sum 1.500000000\n"
        )
        assert got == golden


class TestTriggerStats:
    def ranked_with(self, triggered):
        from intentrank.ranker import RankedList

        return RankedList(query_id="q", items=(), traces={}, config_fingerprint="x",
                          triggered_intents=frozenset(triggered))

    def test_empty_batch(self):
        stats = trigger_stats([])
        assert stats.total_queries == 0
        assert stats.rate("friend") == 0.0

    def test_every_query_triggers(self):
        stats = trigger_stats([self.ranked_with({"friend"}) for _ in range(4)])
        assert stats.rate("friend") == 1.0

    def test_drift_raises_alert(self):
        baseline = trigger_stats([self.ranked_with({"friend"})] * 2 +
                                 [self.ranked_with(set())] * 8)
        drifted = trigger_stats([self.ranked_with({"friend"})] * 4 +
                                [self.ranked_with(set())] * 6)
        alerts = compare_trigger_stats(drifted, baseline, band=0.1)
        friend_alert = [a for a in alerts if a.intent_id == "friend"][0]
        assert friend_alert.delta == pytest.approx(0.2)
        assert friend_alert.alert is True
        calm = compare_trigger_stats(baseline, baseline, band=0.1)
        assert not any(a.alert for a in calm)


class TestConfig:
    def test_fingerprint_stable_and_sensitive(self):
        a = RankerConfig(generic_weights={"x": 1.0}, intent_weights={"friend": 2.0})
        b = RankerConfig(generic_weights={"x": 1.0}, intent_weights={"friend": 2.0})
        c = RankerConfig(generic_weights={"x": 1.1}, intent_weights={"friend": 2.0})
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_fingerprint_equals_canonical_json_hash_after_replace(self):
        base = RankerConfig(generic_weights={"x": 1.0, "a": 0.5}, intent_weights={"friend": 2.0})
        for config in (base, base.replace(k_final=7), base.replace(generic_weights={"x": 3.0}),
                       base.replace(intent_weights={}),
                       dataclasses.replace(base, trigger_threshold=0.2)):
            canon = json.dumps({
                "generic_weights": dict(sorted(config.generic_weights.items())),
                "intent_weights": dict(sorted(config.intent_weights.items())),
                "trigger_threshold": config.trigger_threshold,
                "k_final": config.k_final,
            }, sort_keys=True)
            assert config.fingerprint() == hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    def test_weights_cannot_change_after_construction(self):
        weights = {"x": 1.0}
        config = RankerConfig(generic_weights=weights)
        before = config.fingerprint()
        weights["x"] = 2.0  # the caller's dict is copied, not shared
        assert config.generic_weights["x"] == 1.0
        with pytest.raises(TypeError):
            config.generic_weights["x"] = 2.0
        with pytest.raises(TypeError):
            config.intent_weights["friend"] = 1.0
        assert config.fingerprint() == before == RankerConfig(generic_weights={"x": 1.0}).fingerprint()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RankerConfig(generic_weights={"x": -1.0}).validate()
        with pytest.raises(ConfigurationError):
            RankerConfig(trigger_threshold=1.5).validate()
        with pytest.raises(ConfigurationError):
            RankerConfig(k_final=0).validate()

    def test_record_round_trip(self):
        config = RankerConfig(generic_weights={"x": 1.0}, intent_weights={"friend": 2.0},
                              trigger_threshold=0.1, k_final=7)
        assert RankerConfig.from_record(config.to_record()) == config
