"""Sharded index construction, BM25 scoring, retrieval."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_corpus, mk_doc
from oracles import DictIndexOracle, bm25_oracle

from intentrank.errors import ConfigurationError
from intentrank.index import (
    GlobalStats,
    build_index,
    first_pass_score,
    idf,
    retrieve,
    retrieve_rows,
    shard_of,
    tokenize,
)


def random_corpus(rng, n_docs, vocab_size=40):
    vocab = [f"w{i}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        title = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
        body = " ".join(rng.choices(vocab, k=rng.randint(0, 15)))
        docs.append(mk_doc(f"doc{i:04d}", title=title, body=body))
    return mk_corpus(docs=docs)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Hello, World-2024!") == ["hello", "world", "2024"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_unicode_words_survive(self):
        assert tokenize("Café olé") == ["café", "olé"]


class TestBuild:
    def test_single_doc_single_shard(self):
        corpus = mk_corpus(docs=[mk_doc("d1", title="alpha beta", body="beta")])
        index = build_index(corpus, num_shards=1)
        assert set(index.term_spans) == {"alpha", "beta"}
        assert index.doc_length("d1") == 3
        assert index.positions("beta", "d1") == (1, 2)

    def test_zero_shards_rejected(self):
        corpus = mk_corpus(docs=[mk_doc("d1", title="a")])
        with pytest.raises(ConfigurationError, match="num_shards"):
            build_index(corpus, num_shards=0)

    def test_bm25_parameters_checked_at_build(self):
        corpus = mk_corpus(docs=[mk_doc("d1", title="a")])
        with pytest.raises(ConfigurationError, match="k1"):
            build_index(corpus, k1=0.0)
        with pytest.raises(ConfigurationError, match="b must"):
            build_index(corpus, b=1.5)

    def test_shards_partition_the_corpus(self):
        rng = random.Random(11)
        corpus = random_corpus(rng, 200)
        index = build_index(corpus, num_shards=4)
        shard_sets = [{d for d, s in zip(index.doc_ids, index.shard_ids) if s == shard}
                      for shard in range(4)]
        assert all(shard_sets)
        assert all(shard_of(d, 4) == s for d, s in zip(index.doc_ids, index.shard_ids))
        union = set().union(*shard_sets)
        assert union == set(corpus.documents)
        assert sum(len(s) for s in shard_sets) == len(corpus.documents)  # disjoint

    def test_global_stats_equal_union_of_shards(self):
        rng = random.Random(12)
        corpus = random_corpus(rng, 120)
        index = build_index(corpus, num_shards=3)
        df = {}
        total_len = 0
        for shard in range(3):
            in_shard = index.shard_ids == shard
            total_len += int(index.doc_lengths[in_shard].sum())
            for term, (lo, hi) in index.term_spans.items():
                hits = int(in_shard[index.doc_rows[lo:hi]].sum())
                if hits:
                    df[term] = df.get(term, 0) + hits
        assert df == index.stats.df
        assert index.stats.n_docs == 120
        assert index.stats.avgdl == pytest.approx(total_len / 120)


class TestFirstPassScore:
    def stats(self, n=2, df=1, avgdl=3.0):
        return GlobalStats(n_docs=n, df={"t": df}, avgdl=avgdl)

    def test_zero_overlap_scores_zero(self):
        assert first_pass_score(["x"], {"t": 2}, 3, self.stats()) == 0.0

    def test_idf_hand_values(self):
        # N=2, df=1: ln(1 + (2 - 1 + 0.5) / (1 + 0.5)) = ln(2)
        assert idf(2, 1) == pytest.approx(math.log(2.0), abs=1e-12)
        # N=3, df=1: ln(1 + 2.5 / 1.5) = ln(8/3)
        assert idf(3, 1) == pytest.approx(math.log(8.0 / 3.0), abs=1e-12)
        # df == N still yields a positive idf
        assert idf(5, 5) == pytest.approx(math.log(1.0 + 0.5 / 5.5), abs=1e-12)
        assert idf(5, 5) > 0.0

    def test_doubling_tf_increases_score(self):
        stats = self.stats(n=10, df=3, avgdl=5.0)
        low = first_pass_score(["t"], {"t": 1}, 5, stats, k1=1.2, b=0.0)
        high = first_pass_score(["t"], {"t": 2}, 5, stats, k1=1.2, b=0.0)
        assert high > low

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            first_pass_score(["t"], {}, 1, self.stats(), k1=0.0)
        with pytest.raises(ConfigurationError):
            first_pass_score(["t"], {}, 1, self.stats(), b=1.5)

    def test_matches_raw_text_oracle(self):
        rng = random.Random(13)
        corpus = random_corpus(rng, 100)
        index = build_index(corpus, num_shards=2)
        texts = {
            d.doc_id: f"{d.title} {d.body}" for d in corpus.documents.values()
        }
        for _ in range(25):
            query = " ".join(rng.choices([f"w{i}" for i in range(40)], k=rng.randint(1, 4)))
            expected = bm25_oracle(texts, query)
            got = {c.doc_id: c.first_pass_score for c in retrieve(index, tokenize(query), k=100)}
            assert set(got) == set(expected)
            for doc_id, score in expected.items():
                assert got[doc_id] == pytest.approx(score, abs=1e-9)


class TestRetrieve:
    def test_unindexed_term_returns_empty(self):
        corpus = mk_corpus(docs=[mk_doc("d1", title="alpha")])
        index = build_index(corpus)
        assert retrieve(index, ["zeta"], k=5) == []

    def test_empty_token_list_returns_empty(self):
        corpus = mk_corpus(docs=[mk_doc("d1", title="alpha")])
        index = build_index(corpus)
        assert retrieve(index, [], k=5) == []

    def test_higher_tf_ranks_first(self):
        corpus = mk_corpus(docs=[
            mk_doc("d_a", title="cat", body="dog"),
            mk_doc("d_b", title="cat", body="cat"),
        ])
        index = build_index(corpus, b=0.0)
        out = retrieve(index, ["cat"], k=2)
        assert [c.doc_id for c in out] == ["d_b", "d_a"]

    def test_tie_breaks_ascending_doc_id(self):
        corpus = mk_corpus(docs=[
            mk_doc("d_z", title="cat"),
            mk_doc("d_a", title="cat"),
        ])
        index = build_index(corpus)
        out = retrieve(index, ["cat"], k=2)
        assert [c.doc_id for c in out] == ["d_a", "d_z"]

    def test_shard_merge_equivalence_random(self):
        rng = random.Random(14)
        for _ in range(12):
            corpus = random_corpus(rng, rng.randint(10, 150))
            single = build_index(corpus, num_shards=1)
            query = [f"w{rng.randrange(40)}" for _ in range(rng.randint(1, 3))]
            k = rng.randint(1, 12)
            expected = retrieve(single, query, k=k)
            for shards in (2, 4, 8):
                sharded = build_index(corpus, num_shards=shards)
                assert retrieve(sharded, query, k=k) == expected

    def test_per_shard_k_guard(self):
        corpus = mk_corpus(docs=[mk_doc("d1", title="cat")])
        index = build_index(corpus, num_shards=2)
        with pytest.raises(ConfigurationError, match="per_shard_k"):
            retrieve(index, ["cat"], k=5, per_shard_k=2)
        # override allowed, may legitimately drop documents
        assert retrieve(index, ["cat"], k=5, per_shard_k=2, enforce_per_shard_k=False)
        # an index node must return at least one document
        with pytest.raises(ConfigurationError, match="per_shard_k must be >= 1"):
            retrieve(index, ["cat"], k=5, per_shard_k=0, enforce_per_shard_k=False)

    def test_repeated_retrieval_identical(self):
        rng = random.Random(15)
        corpus = random_corpus(rng, 60)
        index = build_index(corpus, num_shards=4)
        first = retrieve(index, ["w1", "w2"], k=10)
        second = retrieve(index, ["w1", "w2"], k=10)
        assert first == second



VOCAB = [f"w{i}" for i in range(8)]  # small, so tf and score ties are common
words = st.lists(st.sampled_from(VOCAB), max_size=8).map(" ".join)


@st.composite
def corpora(draw):
    doc_ids = draw(st.lists(st.text("abyZ_9é", min_size=1, max_size=4), max_size=30,
                            unique=True))
    return mk_corpus(docs=[mk_doc(d, title=draw(words), body=draw(words)) for d in doc_ids])


class TestDictIndexOracle:
    """The columnar index against the dict-of-postings index it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(corpus=corpora(), num_shards=st.integers(1, 8), k=st.integers(1, 12),
           extra=st.integers(1, 5), per_shard=st.sampled_from(["k", "above", "below"]),
           query=st.lists(st.sampled_from(VOCAB + ["absent"]), max_size=5))
    def test_bit_equal_to_dict_index(self, corpus, num_shards, k, extra, per_shard, query):
        index = build_index(corpus, num_shards=num_shards)
        oracle = DictIndexOracle(corpus.documents, num_shards=num_shards)
        per_shard_k = {"k": k, "above": k + extra, "below": max(0, k - extra)}[per_shard]
        if per_shard_k == 0:
            with pytest.raises(ConfigurationError, match="per_shard_k must be >= 1"):
                retrieve(index, query, k=k, per_shard_k=0, enforce_per_shard_k=False)
            return
        got = retrieve(index, query, k=k, per_shard_k=per_shard_k, enforce_per_shard_k=False)
        expected = oracle.retrieve(query, k, per_shard_k)
        assert [(c.doc_id, c.first_pass_score) for c in got] == expected
        rows, scores = retrieve_rows(index, query, k=k, per_shard_k=per_shard_k,
                                     enforce_per_shard_k=False)
        assert rows.dtype.kind == "i" and scores.dtype == np.float64
        assert [(index.doc_ids[r], s) for r, s in zip(rows.tolist(), scores.tolist())] == expected
        assert index.stats.df == oracle.df
        assert index.stats.avgdl == oracle.avgdl
        for doc_id in corpus.documents:
            assert index.term_frequencies(doc_id, VOCAB) == oracle.term_frequencies(
                doc_id, VOCAB)
            assert index.score_doc(query, doc_id) == oracle.score_doc(query, doc_id)
            for term in VOCAB + ["absent"]:
                assert index.positions(term, doc_id) == oracle.positions(term, doc_id)
        assert index.positions("w0", "no-such-doc") == ()
        assert index.score_doc(query, "no-such-doc") == 0.0
