"""Entity linking: scoring, greedy span selection, connection floor."""

from __future__ import annotations

import itertools
import random

import pytest

from conftest import add_friends, mk_user

from intentrank.corpus import SocialGraph
from intentrank.intent.linking import jaccard, link_entities, score_entity_span
from intentrank.intent.patterns import EntityRecord, KnowledgeBase


def kb_adele():
    return KnowledgeBase([
        EntityRecord("e_adele", "page", frozenset({("adele",)}),
                     description_terms=frozenset({"singer", "hello"}), popularity=0.9),
        EntityRecord("s_hello", "song", frozenset({("hello",)}),
                     description_terms=frozenset({"adele", "song"}), popularity=0.7),
    ])


class TestLinkEntities:
    def test_adele_hello_links_both_spans(self):
        spans = link_entities(["adele", "hello"], kb_adele())
        assert [(s.entity_id, s.start, s.end) for s in spans] == [
            ("e_adele", 0, 1), ("s_hello", 1, 2),
        ]

    def test_no_alias_overlap_returns_empty(self):
        assert link_entities(["quantum", "chromodynamics"], kb_adele()) == []

    def test_context_overlap_raises_score(self):
        # "hello" next to "adele" (a description term of the song) must beat
        # "hello" next to an unrelated word
        with_ctx = link_entities(["adele", "hello"], kb_adele())
        without_ctx = link_entities(["zzz", "hello"], kb_adele())
        score_with = [s for s in with_ctx if s.entity_id == "s_hello"][0].score
        score_without = [s for s in without_ctx if s.entity_id == "s_hello"][0].score
        assert score_with > score_without

    def test_threshold_drops_weak_candidates(self):
        kb = KnowledgeBase([
            EntityRecord("e_weak", "page", frozenset({("meh",)}), popularity=0.0),
        ])
        # score = 1.0 * 0.5 * 0.5 = 0.25 < default 0.3
        assert link_entities(["meh"], kb) == []
        assert len(link_entities(["meh"], kb, threshold=0.2)) == 1

    def test_connected_popularity_floor(self):
        kb = KnowledgeBase([
            EntityRecord("u_pal", "person", frozenset({("sam", "lee")}), popularity=0.0),
        ])
        user = mk_user("u_me")
        graph = SocialGraph()
        add_friends(graph, "u_me", "u_pal")
        without = link_entities(["sam", "lee"], kb, user, graph=None, threshold=0.0)
        with_floor = link_entities(["sam", "lee"], kb, user, graph=graph, threshold=0.0)
        assert with_floor[0].score > without[0].score
        # floor is 0.8: score = 0.5 * (0.5 + 0.4) = 0.45
        assert with_floor[0].score == pytest.approx(0.45)

    def test_member_edge_also_floors(self):
        kb = KnowledgeBase([
            EntityRecord("g_club", "group", frozenset({("chess", "club")}), popularity=0.0),
        ])
        user = mk_user("u_me")
        graph = SocialGraph()
        graph.add_edge("u_me", "g_club", "member")
        spans = link_entities(["chess", "club"], kb, user, graph=graph, threshold=0.0)
        assert spans[0].score == pytest.approx(0.45)

    def test_overlapping_spans_resolved_greedily(self):
        kb = KnowledgeBase([
            EntityRecord("e_ny", "page", frozenset({("new", "york")}), popularity=0.9),
            EntityRecord("e_nyt", "page", frozenset({("new", "york", "times")}),
                         description_terms=frozenset({"daily"}), popularity=0.9),
        ])
        spans = link_entities(["new", "york", "times", "daily"], kb, threshold=0.0)
        assert [s.entity_id for s in spans] == ["e_nyt"]

    def test_greedy_equals_best_assignment_on_small_instances(self):
        rng = random.Random(555)
        vocab = ["a", "b", "c", "d"]
        for trial in range(200):
            entities = [
                EntityRecord(f"e{i}", "page",
                             frozenset({tuple(rng.choices(vocab, k=rng.randint(1, 2)))}),
                             description_terms=frozenset(rng.sample(vocab, 2)),
                             popularity=round(rng.uniform(0.2, 1.0), 2))
                for i in range(3)
            ]
            kb = KnowledgeBase(entities)
            query = rng.choices(vocab, k=rng.randint(1, 5))
            got = link_entities(query, kb, threshold=0.0)
            # enumerate candidate spans independently
            candidates = []
            for ent in entities:
                for alias in ent.aliases:
                    for start in range(len(query) - len(alias) + 1):
                        if tuple(query[start:start + len(alias)]) == alias:
                            score = score_entity_span(query, start, start + len(alias), ent)
                            candidates.append((start, start + len(alias), ent.entity_id, score))
            if len(candidates) > 3:
                continue
            # best non-overlapping subset by total score (exhaustive)
            best_total = -1.0
            best_subset = ()
            for r in range(len(candidates) + 1):
                for subset in itertools.combinations(candidates, r):
                    ok = all(
                        not (x[0] < y[1] and y[0] < x[1])
                        for x, y in itertools.combinations(subset, 2)
                    )
                    if ok:
                        total = sum(c[3] for c in subset)
                        if total > best_total + 1e-12:
                            best_total = total
                            best_subset = subset
            got_total = sum(s.score for s in got)
            # greedy must equal the optimum when spans don't conflict, and can
            # never beat it
            assert got_total <= best_total + 1e-9
            conflict = any(
                (x[0] < y[1] and y[0] < x[1])
                for x, y in itertools.combinations(candidates, 2)
            )
            if not conflict:
                assert got_total == pytest.approx(best_total)
                assert {s.entity_id for s in got} == {c[2] for c in best_subset}


def test_jaccard_edge_cases():
    assert jaccard(set(), {"a"}) == 0.0
    assert jaccard({"a"}, set()) == 0.0
    assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
