"""Scoring components: value functions, oracles, range fuzz, registry."""

from __future__ import annotations

import random

import pytest

from conftest import mk_ctx, mk_doc, mk_user
from oracles import haversine_oracle, location_relevance_value, min_window_oracle, title_hit_ratio

from intentrank.corpus import EngagementCounters, PairCounts, QualitySignals, SocialGraph
from intentrank.components.generic import (
    DEFAULT_RELATION_WEIGHTS,
    DocumentQualityScorer,
    LanguageMatchScorer,
    LocationRelevanceScorer,
    PassthroughScorer,
    SocialRelevanceScorer,
    TextRelevanceScorer,
    haversine_km,
    language_match_value,
    location_decay,
    min_cover_window,
    proximity_score,
    social_relevance_value,
    squash,
    text_relevance_value,
)
from intentrank.components.intent_specific import (
    FriendIntentScorer,
    GrammarIntentScorer,
    VideoPublisherScorer,
    friend_intent_value,
    grammar_intent_value,
    video_publisher_value,
)
from intentrank.components.signals import SharedSignals
from intentrank.errors import ConfigurationError
from intentrank.index import tokenize
from intentrank.intent.patterns import SpecialGrammar
from intentrank.intent.space import IntentSpace
from intentrank.components.registry import ComponentSpec, build_registry

SPACE = IntentSpace(("friend", "video_publisher", "special_grammar"))


def positions_of(text, terms):
    stream = tokenize(text)
    return {t: tuple(i for i, tok in enumerate(stream) if tok == t) for t in set(terms)}


class TestTextRelevance:
    def test_no_overlap_scores_zero(self):
        assert text_relevance_value(0.0, 0.0, 0.0) == 0.0

    def test_exact_title_adjacent_body(self):
        query = tokenize("green tea")
        doc_text = "green tea"  # title equals query
        prox = proximity_score(query, positions_of(doc_text, query))
        ratio = title_hit_ratio(query, tokenize("green tea"))
        assert prox == 1.0
        assert ratio == 1.0

    def test_mix_weights_validated(self):
        with pytest.raises(ConfigurationError):
            text_relevance_value(1.0, 1.0, 1.0, mix=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigurationError):
            TextRelevanceScorer(mix=(1.0, -0.5, 0.5))

    def test_matches_independent_recomputation(self):
        # five documents, mixed casing; recompute each sub-feature by hand
        docs = [
            ("Green tea brewing", "steep green tea slowly"),
            ("Black TEA", "strong black tea leaves"),
            ("coffee roast", "dark coffee beans"),
            ("tea", ""),
            ("Herbal infusions", "chamomile mint green tea"),
        ]
        query = tokenize("Green Tea")
        for title, body in docs:
            stream = tokenize(title) + tokenize(body)
            pos = {t: tuple(i for i, tok in enumerate(stream) if tok == t) for t in set(query)}
            got = text_relevance_value(
                1.7, proximity_score(query, pos), title_hit_ratio(query, tokenize(title))
            )
            # reference: window by quadratic scan, ratio by set arithmetic
            window = min_window_oracle(stream, set(query))
            prox_ref = 0.0 if window is None else 1.0 / (1.0 + window - len(set(query)))
            ratio_ref = len(set(query) & set(tokenize(title))) / len(set(query))
            want = 0.5 * (1.7 / 2.7) + 0.25 * prox_ref + 0.25 * ratio_ref
            assert got == pytest.approx(want, abs=1e-9)

    def test_min_window_matches_quadratic_oracle(self):
        rng = random.Random(99)
        vocab = ["a", "b", "c", "d", "e"]
        for _ in range(300):
            stream = rng.choices(vocab, k=rng.randint(1, 25))
            terms = set(rng.sample(vocab, k=rng.randint(1, 4)))
            pos = {t: tuple(i for i, tok in enumerate(stream) if tok == t) for t in terms}
            got = min_cover_window([pos[t] for t in sorted(terms)])
            assert got == min_window_oracle(stream, terms)

    def test_squash_monotone_bounded(self):
        values = [0.0, 0.1, 1.0, 10.0, 1e6]
        mapped = [squash(v) for v in values]
        assert mapped == sorted(mapped)
        assert all(0.0 <= m < 1.0 for m in mapped)


class TestSocialRelevance:
    def test_no_relation_zero(self):
        assert social_relevance_value(frozenset()) == 0.0

    def test_self_is_top(self):
        assert social_relevance_value(frozenset({"self"})) == 1.0

    def test_max_rule_not_sum(self):
        value = social_relevance_value(frozenset({"friend_of_friend", "friend_engaged"}))
        assert value == 0.5  # max(0.4, 0.5), not 0.9

    def test_default_weight_table(self):
        assert DEFAULT_RELATION_WEIGHTS["friend"] == 0.8
        assert DEFAULT_RELATION_WEIGHTS["follower"] == 0.3


class TestLocationRelevance:
    def test_same_point_full_score(self):
        assert location_decay(haversine_km((10.0, 20.0), (10.0, 20.0)), 50.0) == 1.0
        assert location_relevance_value((10.0, 20.0), (10.0, 20.0)) == 1.0

    def test_missing_side_scores_zero(self):
        assert location_decay(None, 50.0) == 0.0
        assert LocationRelevanceScorer().score(None, None, SharedSignals(distance_km=None)) == 0.0
        assert location_relevance_value(None, (1.0, 2.0)) == 0.0
        assert location_relevance_value((1.0, 2.0), None) == 0.0

    def test_haversine_against_atan2_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            a = (rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = (rng.uniform(-89, 89), rng.uniform(-179, 179))
            assert haversine_km(a, b) == pytest.approx(haversine_oracle(a, b), abs=1e-6)

    def test_known_distance_sf_to_la(self):
        sf = (37.7749, -122.4194)
        la = (34.0522, -118.2437)
        assert haversine_km(sf, la) == pytest.approx(559.12, abs=1.0)

    def test_symmetry(self):
        rng = random.Random(8)
        for _ in range(100):
            a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), abs=1e-12)

    def test_decay_scale(self):
        scorer = LocationRelevanceScorer(tau_km=50.0)
        signals = SharedSignals(distance_km=haversine_km((0.0, 0.0), (0.0, 0.45)))
        expected = location_relevance_value((0.0, 0.0), (0.0, 0.45), tau_km=50.0)
        assert scorer.score(None, None, signals) == pytest.approx(expected, abs=1e-9)


class TestLanguageMatch:
    def test_full_first_language(self):
        assert language_match_value(("en",), {"en": 1.0}) == 1.0

    def test_disjoint_languages(self):
        assert language_match_value(("en",), {"ar": 1.0}) == 0.0

    def test_best_of_user_languages(self):
        assert language_match_value(("en", "es"), {"es": 0.7, "ar": 0.3}) == 0.7

    def test_empty_doc_map_neutral(self):
        assert language_match_value(("en",), {}) == 0.5


class TestDocumentQuality:
    def quality_score(self, quality):
        return DocumentQualityScorer().score(None, mk_doc("d", quality=quality), SharedSignals())

    def test_all_ones(self):
        q = QualitySignals(1.0, 1.0, 1.0, 1.0)
        assert (q.mean, q.policy_reject) == (1.0, False)
        assert self.quality_score(q) == 1.0

    def test_policy_reject_passthrough(self):
        q = QualitySignals(1.0, 1.0, 1.0, 1.0, policy_reject=True)
        assert q.policy_reject is True

    def test_mean_of_available_subscores(self):
        q = QualitySignals(0.5, 1.0, 0.9, 0.6)
        assert q.mean == pytest.approx(0.75)
        assert self.quality_score(q) == q.mean

    def test_video_resolution_included_when_present(self):
        q = QualitySignals(0.5, 1.0, 0.9, 0.6, video_resolution=0.5)
        assert q.mean == pytest.approx((0.5 + 1.0 + 0.9 + 0.6 + 0.5) / 5)


class TestIntentSpecific:
    def test_friend_profile_scores_one(self):
        doc = mk_doc("d_prof", doc_type="user", author_id="u_pal")
        assert friend_intent_value(doc, "u_pal", None) == 1.0

    def test_friend_authored_post(self):
        doc = mk_doc("d_post", doc_type="post", author_id="u_pal")
        assert friend_intent_value(doc, "u_pal", None) == 0.8

    def test_friend_engaged_post(self):
        graph = SocialGraph()
        graph.add_edge("u_pal", "d_post", "engaged")
        doc = mk_doc("d_post", doc_type="post", author_id="u_other")
        assert friend_intent_value(doc, "u_pal", graph) == 0.6

    def test_unrelated_doc_zero(self):
        doc = mk_doc("d_post", doc_type="post", author_id="u_other")
        assert friend_intent_value(doc, "u_pal", SocialGraph()) == 0.0
        assert friend_intent_value(doc, None, None) == 0.0

    def grammar_signals(self, grammar):
        return SharedSignals(grammar=grammar)

    def test_grammar_seen_post(self):
        grammar = SpecialGrammar("post", self_seen=True)
        user = mk_user("u", engaged_doc_ids={"d_post": 1_749_000_000})
        ctx = mk_ctx("posts i have seen", user=user)
        doc = mk_doc("d_post", doc_type="post")
        assert grammar_intent_value(ctx, doc, self.grammar_signals(grammar)) == 1.0

    def test_grammar_unseen_post(self):
        grammar = SpecialGrammar("post", self_seen=True)
        ctx = mk_ctx("posts i have seen", user=mk_user("u"))
        doc = mk_doc("d_post", doc_type="post")
        assert grammar_intent_value(ctx, doc, self.grammar_signals(grammar)) == 0.0

    def test_grammar_type_mismatch(self):
        grammar = SpecialGrammar("video", self_seen=False)
        ctx = mk_ctx("q", user=mk_user("u"))
        doc = mk_doc("d_post", doc_type="post")
        assert grammar_intent_value(ctx, doc, self.grammar_signals(grammar)) == 0.0

    def test_grammar_window_excludes_old_engagement(self):
        now = 1_750_000_000
        day_start = now - now % 86400
        grammar = SpecialGrammar("video", self_seen=True, window="yesterday")
        doc = mk_doc("d_vid", doc_type="video")
        inside = mk_user("u", engaged_doc_ids={"d_vid": day_start - 43200})
        outside = mk_user("u", engaged_doc_ids={"d_vid": day_start - 3 * 86400})
        signals = self.grammar_signals(grammar)
        assert grammar_intent_value(mk_ctx("q", inside, ts=now), doc, signals) == 1.0
        assert grammar_intent_value(mk_ctx("q", outside, ts=now), doc, signals) == 0.0

    def test_publisher_binary(self):
        doc = mk_doc("d_vid", doc_type="video", publisher_id="pub1")
        assert video_publisher_value(doc, "pub1", "binary") == 1.0
        assert video_publisher_value(doc, "pub2", "binary") == 0.0
        assert video_publisher_value(doc, None, "binary") == 0.0

    def test_publisher_good_click_weighted(self):
        doc = mk_doc("d_vid", doc_type="video", publisher_id="pub1",
                     engagement=EngagementCounters(impressions=9, clicks=9, good_clicks=9))
        assert video_publisher_value(doc, "pub1", "good_click_weighted") == pytest.approx(0.9)
        assert video_publisher_value(doc, "pub2", "good_click_weighted") == 0.0

    def test_publisher_mode_validated(self):
        with pytest.raises(ConfigurationError, match="mode"):
            VideoPublisherScorer(mode="fuzzy")


def random_signals(rng):
    return SharedSignals(
        first_pass_bm25=rng.uniform(0, 40),
        proximity=rng.uniform(0, 1),
        title_hit_ratio=rng.uniform(0, 1),
        relations=frozenset(rng.sample(sorted(DEFAULT_RELATION_WEIGHTS), rng.randint(0, 4))),
        distance_km=rng.choice([None, rng.uniform(0, 20000)]),
        language_overlap=rng.uniform(0, 1),
        quality_mean=rng.uniform(0, 1),
        pair_counts=PairCounts(impressions=rng.randint(0, 50), clicks=rng.randint(0, 20),
                               good_clicks=rng.randint(0, 10)),
        doc_clicks=rng.randint(0, 100),
        doc_good_clicks=rng.randint(0, 50),
        friend_target=rng.choice([None, "u_pal"]),
        publisher_entity=rng.choice([None, "pub1"]),
        grammar=rng.choice([None, SpecialGrammar("post", self_seen=rng.random() < 0.5)]),
    )


def random_doc(rng, i):
    return mk_doc(
        f"d{i}",
        doc_type=rng.choice(["post", "video", "user", "page"]),
        title="a b c",
        author_id=rng.choice([None, "u_pal", "u_other"]),
        publisher_id=rng.choice([None, "pub1"]),
        languages=rng.choice([{}, {"en": 1.0}, {"ar": 0.6}]),
        location=rng.choice([None, (rng.uniform(-90, 90), rng.uniform(-180, 180))]),
        quality=QualitySignals(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1),
                               rng.uniform(0, 1)),
        engagement=EngagementCounters(100, rng.randint(0, 100) // 2, 0),
    )


def test_every_scorer_stays_in_unit_range_under_fuzz():
    from intentrank.components.engagement import EngagementModel, EngagementScorer

    rng = random.Random(1234)
    graph = SocialGraph()
    graph.add_edge("u_pal", "d3", "engaged")
    model = EngagementModel(("bm25_squashed", "social"), (2.5, -1.5), bias=0.3)
    scorers = [
        TextRelevanceScorer(),
        SocialRelevanceScorer(),
        LocationRelevanceScorer(),
        LanguageMatchScorer(),
        DocumentQualityScorer(),
        PassthroughScorer("ext", {("q", "d1"): 0.4}, default=0.1),
        EngagementScorer(model=model),
        FriendIntentScorer(graph=graph),
        GrammarIntentScorer(),
        VideoPublisherScorer(mode="good_click_weighted"),
    ]
    ctx = mk_ctx("a b", user=mk_user("u_me", location=(37.0, -122.0),
                                     engaged_doc_ids={"d1": 1_749_000_000}))
    for _ in range(10_000):
        doc = random_doc(rng, rng.randint(0, 9))
        signals = random_signals(rng)
        for scorer in scorers:
            value = scorer.score(ctx, doc, signals)
            assert 0.0 <= value <= 1.0, f"{scorer.component_id} produced {value}"
            assert value == scorer.score(ctx, doc, signals)  # purity: bit-equal


class TestRegistry:
    def specs(self):
        return [
            ComponentSpec("text", "text_relevance"),
            ComponentSpec("social", "social_relevance", weight=0.5),
            ComponentSpec("friend_match", "friend_intent", scope="intent_specific",
                          intent="friend", weight=2.0),
        ]

    def test_empty_config_empty_registry(self):
        registry, gw, iw = build_registry([], SPACE)
        assert len(registry) == 0
        assert gw == {} and iw == {}

    def test_duplicate_component_id_rejected(self):
        specs = [ComponentSpec("x", "text_relevance"), ComponentSpec("x", "language_match")]
        with pytest.raises(ConfigurationError, match="duplicate"):
            build_registry(specs, SPACE)

    def test_two_components_for_one_intent_rejected(self):
        specs = [
            ComponentSpec("a", "friend_intent", scope="intent_specific", intent="friend"),
            ComponentSpec("b", "friend_intent", scope="intent_specific", intent="friend"),
        ]
        with pytest.raises(ConfigurationError, match="already has component"):
            build_registry(specs, SPACE)

    def test_unknown_kind_lists_valid_kinds(self):
        with pytest.raises(ConfigurationError, match="text_relevance"):
            build_registry([ComponentSpec("x", "mystery_kind")], SPACE)

    def test_unknown_intent_rejected(self):
        specs = [ComponentSpec("a", "friend_intent", scope="intent_specific",
                               intent="shopping")]
        with pytest.raises(ConfigurationError, match="shopping"):
            build_registry(specs, SPACE)

    def test_fallback_intent_rejected(self):
        specs = [ComponentSpec("a", "friend_intent", scope="intent_specific",
                               intent="generic")]
        with pytest.raises(ConfigurationError):
            build_registry(specs, SPACE)

    def test_weights_split_by_scope(self):
        registry, gw, iw = build_registry(self.specs(), SPACE)
        assert gw == {"text": 1.0, "social": 0.5}
        assert iw == {"friend": 2.0}
        assert registry.intent_specific["friend"].component_id == "friend_match"

    def test_full_default_config_counts(self, demo_engine):
        assert len(demo_engine.registry.generic) == 6
        assert len(demo_engine.registry.intent_specific) == 3

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="weight"):
            build_registry([ComponentSpec("x", "text_relevance", weight=-1.0)], SPACE)
