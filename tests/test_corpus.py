"""Corpus loading, invariants, round-trips, and social relations."""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mk_corpus, mk_doc, mk_user
from oracles import relations_oracle, social_relations_walk

from intentrank.corpus import (
    Document,
    EngagementCounters,
    EngagementTable,
    QualitySignals,
    QueryRecord,
    RelevanceJudgment,
    SocialGraph,
    UserContext,
    load_corpus,
    load_judgments,
    load_query_log,
    save_corpus,
    social_relations,
)
from intentrank.engine import load_engine
from intentrank.errors import InvariantError, RecordParseError


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class TestLoading:
    def test_empty_files_give_empty_corpus(self, tmp_path):
        for name in ("documents.jsonl", "users.jsonl", "edges.jsonl"):
            (tmp_path / name).write_text("", encoding="utf-8")
        corpus = load_corpus(tmp_path)
        assert len(corpus) == 0
        assert corpus.doc_type_counts() == {}

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope")

    def test_duplicate_doc_id_rejected(self, tmp_path):
        write_lines(tmp_path / "documents.jsonl", [
            {"doc_id": "d1", "doc_type": "post", "title": "a"},
            {"doc_id": "d1", "doc_type": "post", "title": "b"},
        ])
        with pytest.raises(InvariantError, match="duplicate doc_id"):
            load_corpus(tmp_path)

    def test_parse_error_carries_line_number(self, tmp_path):
        (tmp_path / "documents.jsonl").write_text(
            '{"doc_id": "d1", "doc_type": "post"}\nnot json\n', encoding="utf-8"
        )
        with pytest.raises(RecordParseError, match=":2:"):
            load_corpus(tmp_path)

    def test_unknown_field_warns_but_loads(self, tmp_path, caplog):
        write_lines(tmp_path / "documents.jsonl", [
            {"doc_id": "d1", "doc_type": "post", "title": "a", "mystery": 1},
        ])
        with caplog.at_level("WARNING"):
            corpus = load_corpus(tmp_path)
        assert "mystery" in caplog.text
        assert "d1" in corpus.documents

    def test_counts_match_generator_manifest(self, replay_dir):
        manifest = json.loads((replay_dir / "manifest.json").read_text())
        corpus = load_corpus(replay_dir / "corpus")
        assert len(corpus.documents) == manifest["documents_total"]
        assert corpus.doc_type_counts() == manifest["doc_type_counts"]
        assert len(corpus.users) == manifest["users_total"]
        assert corpus.graph.edge_count() == manifest["edges_total"]

    def test_roundtrip_equality(self, demo_dir, tmp_path):
        first = load_corpus(demo_dir / "corpus")
        save_corpus(first, tmp_path / "copy")
        second = load_corpus(tmp_path / "copy")
        assert first.documents == second.documents
        assert first.users == second.users
        assert list(first.graph.edges()) == list(second.graph.edges())


class TestInvariants:
    def test_language_probability_range(self):
        doc = mk_doc("d1", languages={"en": 1.5})
        with pytest.raises(InvariantError, match="languages"):
            doc.validate()

    def test_language_mass_capped(self):
        doc = mk_doc("d1", languages={"en": 0.8, "es": 0.4})
        with pytest.raises(InvariantError, match="sum"):
            doc.validate()

    def test_latitude_range(self):
        with pytest.raises(InvariantError, match="lat"):
            mk_doc("d1", location=(99.0, 0.0)).validate()

    def test_engagement_ordering(self):
        doc = mk_doc("d1", engagement=EngagementCounters(impressions=5, clicks=6, good_clicks=0))
        with pytest.raises(InvariantError, match="good_clicks <= clicks <= impressions"):
            doc.validate()

    def test_quality_range(self):
        with pytest.raises(InvariantError, match="authentic"):
            mk_doc("d1", quality=QualitySignals(authentic=1.2)).validate()

    def test_unknown_doc_type(self):
        with pytest.raises(InvariantError, match="doc_type"):
            mk_doc("d1", doc_type="reel").validate()

    def test_future_engagement_timestamp(self):
        user = UserContext(user_id="u1", engaged_doc_ids={"d1": 2**40})
        with pytest.raises(InvariantError, match="future"):
            user.validate()

    def test_query_record_subset_chain(self):
        rec = QueryRecord(query_text="q", user_id="u", shown_doc_ids=("a",),
                          clicked=frozenset({"a"}), good_clicked=frozenset({"a", "b"}))
        with pytest.raises(InvariantError, match="never clicked"):
            rec.validate()
        rec = QueryRecord(query_text="q", user_id="u", shown_doc_ids=("a",),
                          clicked=frozenset({"b"}))
        with pytest.raises(InvariantError, match="never shown"):
            rec.validate()

    def test_query_log_loader_enforces_chain(self, tmp_path):
        write_lines(tmp_path / "log.jsonl", [{
            "query_text": "q", "user_id": "u", "shown_doc_ids": ["a"],
            "clicked": [], "good_clicked": ["a"],
        }])
        with pytest.raises(InvariantError):
            load_query_log(tmp_path / "log.jsonl")

    def test_judgment_grade_range(self, tmp_path):
        write_lines(tmp_path / "j.jsonl", [
            {"query_text": "q", "user_id": "u", "doc_id": "d", "grade": 7},
        ])
        with pytest.raises(InvariantError, match="grade"):
            load_judgments(tmp_path / "j.jsonl")

    def test_judgment_grade_names(self, tmp_path):
        write_lines(tmp_path / "j.jsonl", [
            {"query_text": "q", "user_id": "u", "doc_id": "d", "grade": "perfect"},
        ])
        assert load_judgments(tmp_path / "j.jsonl")[0].grade == 4

    def test_asymmetric_friend_edge_rejected(self, tmp_path):
        for name in ("documents.jsonl", "users.jsonl"):
            (tmp_path / name).write_text("", encoding="utf-8")
        write_lines(tmp_path / "edges.jsonl", [{"src": "a", "dst": "b", "label": "friend"}])
        with pytest.raises(InvariantError, match="symmetric"):
            load_corpus(tmp_path)

    def test_friend_self_loop_rejected(self):
        graph = SocialGraph()
        with pytest.raises(InvariantError, match="self-loop"):
            graph.add_edge("a", "a", "friend")


class TestSocialRelations:
    def graph_of(self, edges):
        graph = SocialGraph()
        for src, dst, label in edges:
            graph.add_edge(src, dst, label)
        return graph

    def test_self(self):
        graph = self.graph_of([("s", "x", "follow")])
        doc = mk_doc("d1", author_id="s")
        assert social_relations(graph.searcher_view("s"), doc) == {"self"}

    def test_friend_of_friend_exact_two_hops(self):
        graph = self.graph_of([
            ("s", "m", "friend"), ("m", "s", "friend"),
            ("m", "a", "friend"), ("a", "m", "friend"),
        ])
        doc = mk_doc("d1", author_id="a")
        assert social_relations(graph.searcher_view("s"), doc) == {"friend_of_friend"}

    def test_direct_friend_suppresses_fof(self):
        graph = self.graph_of([
            ("s", "a", "friend"), ("a", "s", "friend"),
            ("s", "m", "friend"), ("m", "s", "friend"),
            ("m", "a", "friend"), ("a", "m", "friend"),
        ])
        doc = mk_doc("d1", author_id="a")
        rels = social_relations(graph.searcher_view("s"), doc)
        assert "friend" in rels and "friend_of_friend" not in rels

    def test_unknown_searcher_warns_and_returns_empty(self, caplog, replay_dir):
        graph = self.graph_of([("a", "b", "follow")])
        doc = mk_doc("d1", author_id="b")
        with caplog.at_level("WARNING"):
            rels = social_relations(graph.searcher_view("ghost"), doc)
        assert rels == set()
        assert "ghost" in caplog.text
        # a search warns once for the query, not once per candidate
        engine = load_engine(replay_dir / "engine.json")
        record = next(r for r in engine.query_log if not engine.corpus.graph.knows(r.user_id))
        caplog.clear()
        with caplog.at_level("WARNING"):
            result = engine.search(record.query_text, record.user_id)
        assert len(result.frame) > 1
        warnings = [r.getMessage() for r in caplog.records if "has no edges" in r.getMessage()]
        assert warnings == [f"searcher {record.user_id!r} has no edges in the social graph"]

    def test_edgeless_warning_survives_concurrent_views(self, caplog):
        graph = self.graph_of([("a", "b", "follow")])
        start = threading.Barrier(8)

        ghosts = [f"ghost{i}" for i in range(2000)]

        def views():
            start.wait(timeout=10)
            for ghost in ghosts:
                graph.searcher_view(ghost)

        threads = [threading.Thread(target=views) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level("WARNING"):
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        warned = sorted(r.getMessage() for r in caplog.records)
        assert warned == sorted(f"searcher {g!r} has no edges in the social graph" for g in ghosts)

    def test_edgeless_searcher_warns_once_per_graph(self, caplog, replay_dir):
        engine = load_engine(replay_dir / "engine.json")
        record = next(r for r in engine.query_log if not engine.corpus.graph.knows(r.user_id))
        with caplog.at_level("WARNING"):
            engine.search(record.query_text, record.user_id)
            engine.search(record.query_text, record.user_id)
        warnings = [r.getMessage() for r in caplog.records if "has no edges" in r.getMessage()]
        assert warnings == [f"searcher {record.user_id!r} has no edges in the social graph"]

    def test_random_graphs_match_enumeration_oracle(self):
        rng = random.Random(20240901)
        labels = ["friend", "follow", "pending_friend", "pending_join", "member", "engaged"]
        for trial in range(60):
            n_users = rng.randint(2, 20)
            users = [f"u{i}" for i in range(n_users)]
            doc_nodes = [f"d{i}" for i in range(5)]
            edges = set()
            for _ in range(rng.randint(0, 40)):
                label = rng.choice(labels)
                if label == "friend":
                    a, b = rng.sample(users, 2)
                    edges.add((a, b, "friend"))
                    edges.add((b, a, "friend"))
                elif label == "pending_friend":
                    a, b = rng.sample(users, 2)
                    edges.add((a, b, label))
                elif label in ("engaged", "pending_join", "member"):
                    edges.add((rng.choice(users), rng.choice(doc_nodes), label))
                else:
                    a, b = rng.sample(users + doc_nodes, 2)
                    edges.add((a, b, label))
            graph = self.graph_of(sorted(edges))
            for _ in range(8):
                searcher = rng.choice(users)
                author = rng.choice(users + [None])
                doc_id = rng.choice(doc_nodes)
                doc = mk_doc(doc_id, author_id=author)
                expected = relations_oracle(sorted(edges), searcher, doc_id, author)
                assert social_relations(graph.searcher_view(searcher), doc) == expected, (
                    f"trial {trial}: searcher={searcher} author={author} doc={doc_id}"
                )


NODES = ["u0", "u1", "u2", "u3", "d0"]  # few nodes, so paths and self-loops are common
LABELS = ["friend", "follow", "pending_friend", "pending_join", "member", "engaged"]


@st.composite
def graph_edges(draw):
    edges = set()
    for src, dst, label in draw(st.lists(st.tuples(st.sampled_from(NODES),
                                                   st.sampled_from(NODES),
                                                   st.sampled_from(LABELS)), max_size=30)):
        if label in ("friend", "pending_friend", "pending_join") and src == dst:
            continue
        edges.add((src, dst, label))
        if label == "friend":
            edges.add((dst, src, label))
    return sorted(edges)


class TestSearcherView:
    """social_relations on a per-query view against the graph walk it replaced."""

    @settings(max_examples=300, deadline=None)
    @example(edges=[("u0", "u0", "follow")], searcher="u0", author=None, doc_id="u0")
    @given(edges=graph_edges(), searcher=st.sampled_from(NODES + ["ghost"]),
           author=st.sampled_from(NODES + [None, "ghost"]), doc_id=st.sampled_from(NODES))
    def test_view_matches_walk_and_enumeration(self, edges, searcher, author, doc_id):
        graph = SocialGraph()
        for src, dst, label in edges:
            graph.add_edge(src, dst, label)
        doc = mk_doc(doc_id, author_id=author)
        got = social_relations(graph.searcher_view(searcher), doc)
        assert got == social_relations_walk(graph, searcher, doc)
        assert got == relations_oracle(edges, searcher, doc_id, author)


class TestEngagementTable:
    def test_aggregation(self):
        log = [
            QueryRecord("q", "u1", shown_doc_ids=("a", "b"),
                        clicked=frozenset({"a"}), good_clicked=frozenset({"a"})),
            QueryRecord("q", "u2", shown_doc_ids=("a",), clicked=frozenset({"a"})),
        ]
        table = EngagementTable.from_log(log)
        assert table.get("q", "a").impressions == 2
        assert table.get("q", "a").clicks == 2
        assert table.get("q", "a").good_clicks == 1
        assert table.get("q", "b").clicks == 0
        assert table.get("other", "a").impressions == 0
