"""Intent space normalization, classifiers, and end-to-end detection."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import add_friends, mk_ctx, mk_user

from intentrank.corpus import SocialGraph, StructuredSuggestion
from intentrank.errors import ConfigurationError, InvariantError
from intentrank.intent.classify import (
    ClassifierRegistry,
    FriendNameClassifier,
    KeywordClassifier,
)
from intentrank.intent.detect import (
    SUGGESTION_EVIDENCE,
    IntentConfig,
    detect,
    grammar_window,
)
from intentrank.intent.patterns import (
    Dictionary,
    EntityRecord,
    KnowledgeBase,
    SpecialGrammar,
    parse_pattern,
)
from intentrank.intent.space import IntentSpace, normalize_evidence

SPACE = IntentSpace(("friend", "video_publisher", "special_grammar", "news", "sports"))


class TestNormalization:
    def test_no_evidence_all_mass_to_fallback(self):
        dist = normalize_evidence({}, SPACE)
        assert dist.get("generic") == 1.0
        assert dist.total() == pytest.approx(1.0, abs=1e-9)

    def test_single_evidence_under_one(self):
        dist = normalize_evidence({"news": 0.6}, SPACE)
        assert dist.get("news") == pytest.approx(0.6)
        assert dist.get("generic") == pytest.approx(0.4)

    def test_oversubscribed_evidence_rescaled(self):
        dist = normalize_evidence({"news": 0.9, "sports": 0.6}, SPACE)
        assert dist.get("news") == pytest.approx(0.6)
        assert dist.get("sports") == pytest.approx(0.4)
        assert dist.get("generic") == 0.0

    def test_fallback_evidence_rejected(self):
        with pytest.raises(InvariantError, match="fallback"):
            normalize_evidence({"generic": 0.5}, SPACE)

    def test_unknown_intent_rejected(self):
        with pytest.raises(InvariantError, match="unknown intent"):
            normalize_evidence({"shopping": 0.5}, SPACE)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["friend", "video_publisher", "special_grammar", "news", "sports"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        max_size=5,
    ))
    def test_always_sums_to_one_no_negatives(self, evidence):
        dist = normalize_evidence(evidence, SPACE)
        assert dist.total() == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0.0 for _, p in dist.items())
        dist.validate(SPACE)

    def test_monotone_in_single_evidence(self):
        rng = random.Random(42)
        for _ in range(300):
            base = {t: rng.uniform(0, 1) for t in ("news", "sports", "friend")}
            target = rng.choice(list(base))
            bumped = dict(base)
            bumped[target] = min(1.0, base[target] + rng.uniform(0, 1 - base[target] + 1e-12))
            p_before = normalize_evidence(base, SPACE).get(target)
            p_after = normalize_evidence(bumped, SPACE).get(target)
            assert p_after >= p_before - 1e-12

    def test_duplicate_intent_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            IntentSpace(("news", "news"))

    def test_fallback_always_present(self):
        space = IntentSpace(("news",))
        assert "generic" in space
        assert space.detectable() == ("news",)


class TestClassifiers:
    def test_empty_query_no_confidence(self):
        registry = ClassifierRegistry()
        registry.register("sports", "kw", KeywordClassifier({"nba": 0.7}))
        assert registry.classify("", mk_user("u")) == {}

    def test_keyword_hit(self):
        clf = KeywordClassifier({"nba": 0.7, "finals": 0.6})
        assert clf("nba finals tonight", mk_user("u")) == 0.7
        assert clf("cooking tips", mk_user("u")) == 0.0

    def test_friend_full_name_scores_high(self):
        graph = SocialGraph()
        add_friends(graph, "u_me", "u_pal")
        clf = FriendNameClassifier({"u_pal": "Sam Lee", "u_other": "Ann Roe"}, graph)
        assert clf("sam lee", mk_user("u_me")) >= 0.8
        assert clf("ann roe", mk_user("u_me")) == 0.0  # not a friend
        assert clf("sam", mk_user("u_me")) == pytest.approx(0.75)

    def test_matching_friend_identity(self):
        graph = SocialGraph()
        add_friends(graph, "u_me", "u_pal")
        clf = FriendNameClassifier({"u_pal": "Sam Lee"}, graph)
        assert clf.matching_friend("sam lee", mk_user("u_me")) == ("u_pal", 0.9)

    def test_out_of_range_clamped_with_warning(self, caplog):
        registry = ClassifierRegistry()
        registry.register("news", "broken", lambda q, u: 1.7)
        with caplog.at_level("WARNING"):
            out = registry.classify("anything", mk_user("u"))
        assert out == {"news": 1.0}
        assert "clamping" in caplog.text

    def test_max_over_classifiers_per_intent(self):
        registry = ClassifierRegistry()
        registry.register("news", "a", lambda q, u: 0.3)
        registry.register("news", "b", lambda q, u: 0.8)
        assert registry.classify("x", mk_user("u")) == {"news": 0.8}


def make_config(**kwargs) -> IntentConfig:
    defaults = dict(
        space=SPACE,
        patterns=[],
        dictionaries={},
        kb=KnowledgeBase([]),
        classifiers=ClassifierRegistry(),
        graph=None,
    )
    defaults.update(kwargs)
    return IntentConfig(**defaults)


class TestDetect:
    def test_no_detector_fires(self):
        result = detect(mk_ctx("random words"), make_config())
        assert result.distribution.get("generic") == 1.0

    def test_suggestion_click_dominates(self):
        ctx = mk_ctx("tom", suggestion=StructuredSuggestion("u_tom", "friend"))
        result = detect(ctx, make_config())
        assert result.distribution.get("friend") == pytest.approx(SUGGESTION_EVIDENCE)
        assert result.distribution.get("generic") == pytest.approx(1 - SUGGESTION_EVIDENCE)
        assert result.friend_target == "u_tom"

    def test_pattern_evidence_discounted_by_link_score(self):
        kb = KnowledgeBase([
            EntityRecord("m_x", "movie", frozenset({("dune",)}), popularity=1.0),
        ])
        pattern = parse_pattern("<movie:entity> trailers", "p1", "video_publisher",
                                base_confidence=0.8)
        config = make_config(kb=kb, patterns=[pattern],
                             dictionaries={})
        result = detect(mk_ctx("dune trailers"), config)
        # link score: 1.0 * (0.5 + 0.5 * 0) * (0.5 + 0.5 * 1.0) = 0.5
        assert result.distribution.get("video_publisher") == pytest.approx(0.8 * 0.5)

    def test_classifier_contributes_directly(self):
        registry = ClassifierRegistry()
        registry.register("sports", "kw", KeywordClassifier({"nba": 0.7}))
        result = detect(mk_ctx("nba tonight"), make_config(classifiers=registry))
        assert result.distribution.get("sports") == pytest.approx(0.7)

    def test_max_over_sources_per_intent(self):
        registry = ClassifierRegistry()
        registry.register("video_publisher", "kw", KeywordClassifier({"dune": 0.9}))
        kb = KnowledgeBase([
            EntityRecord("m_x", "movie", frozenset({("dune",)}), popularity=1.0),
        ])
        pattern = parse_pattern("<movie:entity>", "p1", "video_publisher",
                                base_confidence=0.8)
        config = make_config(kb=kb, patterns=[pattern], classifiers=registry)
        result = detect(mk_ctx("dune"), config)
        # classifier 0.9 beats pattern 0.8 * 0.5; max wins
        assert result.distribution.get("video_publisher") == pytest.approx(0.9)

    def test_registration_order_irrelevant(self):
        def build(order):
            registry = ClassifierRegistry()
            for name, intent, value in order:
                registry.register(intent, name, lambda q, u, v=value: v)
            return make_config(classifiers=registry)

        entries = [("a", "news", 0.4), ("b", "sports", 0.7), ("c", "news", 0.2)]
        r1 = detect(mk_ctx("x"), build(entries))
        r2 = detect(mk_ctx("x"), build(list(reversed(entries))))
        assert r1.distribution == r2.distribution

    def test_detection_deterministic(self):
        registry = ClassifierRegistry()
        registry.register("news", "kw", KeywordClassifier({"election": 0.65}))
        config = make_config(classifiers=registry)
        a = detect(mk_ctx("election night"), config)
        b = detect(mk_ctx("election night"), config)
        assert a.distribution == b.distribution
        assert a.evidence == b.evidence

    def test_grammar_capture_resolved(self):
        pattern = parse_pattern("posts i have seen", "p1", "special_grammar",
                                base_confidence=0.9,
                                grammar=SpecialGrammar("post", self_seen=True))
        result = detect(mk_ctx("posts i have seen"), make_config(patterns=[pattern]))
        assert result.grammar == SpecialGrammar("post", self_seen=True)
        assert result.distribution.get("special_grammar") == pytest.approx(0.9)

    def test_friend_target_from_linked_friend(self):
        kb = KnowledgeBase([
            EntityRecord("u_pal", "person", frozenset({("sam", "lee")}), popularity=0.1),
        ])
        graph = SocialGraph()
        add_friends(graph, "u_me", "u_pal")
        registry = ClassifierRegistry()
        registry.register("friend", "fn",
                          FriendNameClassifier({"u_pal": "Sam Lee"}, graph))
        config = make_config(kb=kb, graph=graph, classifiers=registry)
        result = detect(mk_ctx("sam lee", user=mk_user("u_me")), config)
        assert result.friend_target == "u_pal"
        assert result.distribution.get("friend") == pytest.approx(0.9)

    def test_validate_rejects_bad_pattern_targets(self):
        pattern = parse_pattern("x", "p1", "shopping")
        config = make_config(patterns=[pattern])
        with pytest.raises(ConfigurationError, match="unknown intent"):
            config.validate()

    def test_validate_rejects_missing_dictionary(self):
        pattern = parse_pattern("<trailers:dictionary>", "p1", "video_publisher")
        config = make_config(patterns=[pattern])
        with pytest.raises(ConfigurationError, match="unknown dictionary"):
            config.validate()


class TestGrammarWindow:
    def test_none_window(self):
        assert grammar_window(None, 1_750_000_000) is None

    def test_yesterday_utc_day(self):
        now = 1_750_000_000  # 2025-06-15 15:06:40 UTC
        start, end = grammar_window("yesterday", now)
        assert end == 1_749_945_600  # 2025-06-15 00:00 UTC
        assert start == end - 86400

    def test_past_week_includes_today(self):
        now = 1_750_000_000
        start, end = grammar_window("past_week", now)
        assert end - start == 8 * 86400

    def test_unknown_window_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown grammar window"):
            grammar_window("someday", 0)
