"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS (...)` line (run with
`pytest tests/test_acceptance.py -s` to see them live) and enforces its own
wall-clock budget. Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from conftest import mk_corpus, mk_ctx, mk_doc
from oracles import (
    bm25_oracle,
    central_difference_gradient,
    err_oracle,
    ndcg_oracle,
    score_candidate,
    score_candidate_mixture,
    segmentations_oracle,
)

from intentrank.components.engagement import TrainParams, loss_and_gradient
from intentrank.components.registry import ComponentRegistry
from intentrank.components.signals import SharedSignals
from intentrank.engine import load_engine
from intentrank.evaluation import (
    ab_compare,
    err_at_k,
    load_bvt_suite,
    mean_ndcg,
    ndcg_at_k,
    run_bvts,
    sgcr_replay,
)
from intentrank.index import build_index, retrieve, tokenize
from intentrank.intent.patterns import (
    Dictionary,
    DictSlot,
    EntityRecord,
    EntitySlot,
    KnowledgeBase,
    Literal,
    QueryPattern,
    match_pattern,
)
from intentrank.intent.space import IntentSpace, normalize_evidence
from intentrank.ranker import RankerConfig
from intentrank.synth import build_language_conflict, write_fixture
from intentrank.tuning import GridSpec, TuneAssets, TuneSpec, get_weight, objective, set_weight, tune

from test_ranker import StubScorer, registry_of


class Budget:
    def __init__(self, n, name, seconds):
        self.n = n
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\n[acceptance] criterion {self.n}: PASS ({elapsed:.2f}s) {self.name}")
            assert elapsed < self.seconds, (
                f"criterion {self.n} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
            )
        else:
            print(f"\n[acceptance] criterion {self.n}: FAIL ({elapsed:.2f}s) {self.name}")
        return False


SPACE = IntentSpace(("friend", "video_publisher", "special_grammar", "news", "sports"))


def test_criterion_1_factored_mixture_equivalence():
    """Factored and mixture score forms agree to 1e-9 with threshold zero."""
    with Budget(1, "score-form equivalence", 5.0):
        rng = random.Random(1001)
        ctx = mk_ctx("q")
        signals = SharedSignals()
        for trial in range(1000):
            doc_ids = [f"d{i}" for i in range(rng.randint(1, 6))]
            generic = [StubScorer(f"g{i}", {d: rng.random() for d in doc_ids})
                       for i in range(rng.randint(0, 4))]
            chosen = rng.sample(SPACE.detectable(), k=rng.randint(0, 4))
            intent_scorers = [(t, StubScorer(f"s_{t}", {d: rng.random() for d in doc_ids}))
                              for t in chosen]
            registry = registry_of(generic=generic, intent=intent_scorers)
            config = RankerConfig(
                generic_weights={s.component_id: rng.uniform(0, 3) for s in generic},
                intent_weights={t: rng.uniform(0, 3) for t, _ in intent_scorers},
                trigger_threshold=0.0,
            )
            evidence = {t: rng.random()
                        for t in rng.sample(SPACE.detectable(), k=rng.randint(0, 4))}
            distribution = normalize_evidence(evidence, SPACE)
            doc = mk_doc(rng.choice(doc_ids))
            factored, _ = score_candidate(ctx, doc, signals, distribution, registry, config)
            mixture = score_candidate_mixture(ctx, doc, signals, distribution, registry, config)
            assert abs(factored - mixture) <= 1e-9, f"trial {trial}: {factored} vs {mixture}"


def test_criterion_2_intent_normalization():
    """10,000 random detector outputs normalize to a clean distribution."""
    with Budget(2, "intent normalization", 5.0):
        rng = random.Random(1002)
        detectable = SPACE.detectable()
        for trial in range(10_000):
            evidence = {
                t: rng.uniform(0, 1)
                for t in rng.sample(detectable, k=rng.randint(0, len(detectable)))
            }
            dist = normalize_evidence(evidence, SPACE)
            total = dist.total()
            assert abs(total - 1.0) <= 1e-9, f"trial {trial}: sums to {total}"
            assert all(p >= 0.0 for _, p in dist.items()), f"trial {trial}"
            mass = sum(evidence.values())
            if mass <= 1.0:
                assert dist.get("generic") == pytest.approx(1.0 - mass, abs=1e-9)
            else:
                assert dist.get("generic") == 0.0


def test_criterion_3_shard_merge_equivalence():
    """Sharded retrieval is exactly the single-shard run, 100 random corpora."""
    with Budget(3, "shard-merge equivalence", 60.0):
        rng = random.Random(1003)
        vocab = [f"w{i}" for i in range(60)]
        for trial in range(100):
            n_docs = rng.randint(10, 500) if trial % 3 == 0 else rng.randint(10, 120)
            docs = [
                mk_doc(
                    f"doc{i:04d}",
                    title=" ".join(rng.choices(vocab, k=rng.randint(1, 4))),
                    body=" ".join(rng.choices(vocab, k=rng.randint(0, 12))),
                )
                for i in range(n_docs)
            ]
            corpus = mk_corpus(docs=docs)
            single = build_index(corpus, num_shards=1)
            queries = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 3))] for _ in range(3)
            ]
            k = rng.randint(1, 15)
            expected = [retrieve(single, q, k=k) for q in queries]
            for num_shards in (2, 4, 8):
                sharded = build_index(corpus, num_shards=num_shards)
                got = [retrieve(sharded, q, k=k) for q in queries]
                assert got == expected, f"trial {trial}, shards {num_shards}"


def test_criterion_4_metric_oracles():
    """NDCG/ERR match exhaustive oracles; BM25 matches raw-text recomputation."""
    with Budget(4, "metric oracles", 30.0):
        rng = random.Random(1004)
        for trial in range(250):
            n = rng.randint(1, 5)
            docs = [f"d{i}" for i in range(n)]
            grades = {d: rng.randint(0, 4) for d in docs}
            for i in range(rng.randint(0, 2)):
                grades[f"x{i}"] = rng.randint(0, 4)
            ranking = rng.sample(docs, k=n)
            k = rng.randint(1, 6)
            want_ndcg = ndcg_oracle(ranking, grades, k)
            got_ndcg = ndcg_at_k(ranking, grades, k)
            if want_ndcg is None:
                assert got_ndcg is None
            else:
                assert got_ndcg == pytest.approx(want_ndcg, abs=1e-12), f"trial {trial}"
            want_err = err_oracle(ranking, grades, min(k, 5))
            got_err = err_at_k(ranking, grades, min(k, 5))
            if want_err is None:
                assert got_err is None
            else:
                assert got_err == pytest.approx(want_err, abs=1e-12), f"trial {trial}"

        vocab = [f"w{i}" for i in range(50)]
        docs = [
            mk_doc(
                f"doc{i:03d}",
                title=" ".join(rng.choices(vocab, k=rng.randint(1, 5))),
                body=" ".join(rng.choices(vocab, k=rng.randint(0, 20))),
            )
            for i in range(100)
        ]
        corpus = mk_corpus(docs=docs)
        index = build_index(corpus, num_shards=4)
        texts = {d.doc_id: f"{d.title} {d.body}" for d in corpus.documents.values()}
        for _ in range(30):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
            expected = bm25_oracle(texts, query)
            got = {c.doc_id: c.first_pass_score
                   for c in retrieve(index, tokenize(query), k=100)}
            assert set(got) == set(expected)
            for doc_id, want in expected.items():
                assert got[doc_id] == pytest.approx(want, abs=1e-9)


def test_criterion_5_publisher_component_directional(publisher_dir):
    """Enabling publisher matching lifts its queries; untriggered queries
    are bit-identical."""
    with Budget(5, "publisher intent directional", 60.0):
        engine = load_engine(publisher_dir / "engine.json")
        suite = load_bvt_suite(publisher_dir / "bvts.jsonl")
        config_off = engine.ranker_config  # publisher weight 0.0
        config_on = config_off.replace(intent_weights={"video_publisher": 2.0})

        report_off = run_bvts(suite, engine, config_off)
        report_on = run_bvts(suite, engine, config_on)
        rate_off = report_off.pass_rate_by_intent()["video_publisher"]
        rate_on = report_on.pass_rate_by_intent()["video_publisher"]
        assert rate_on - rate_off >= 0.20, f"BVT lift only {rate_on - rate_off:+.2f}"

        ndcg_off = mean_ndcg(engine, engine.judgments, 10, config_off)
        ndcg_on = mean_ndcg(engine, engine.judgments, 10, config_on)
        assert ndcg_on.value - ndcg_off.value >= 0.05, (
            f"NDCG lift only {ndcg_on.value - ndcg_off.value:+.4f}"
        )

        # control queries never trigger the intent: rankings must not move a bit
        checked = 0
        for case in suite:
            if case.intent_tag != "generic":
                continue
            result_off = engine.search(case.query_text, case.user_id, config=config_off)
            result_on = engine.search(case.query_text, case.user_id, config=config_on)
            assert result_off.detection.distribution.get("video_publisher") == 0.0
            assert result_off.ranked.items == result_on.ranked.items  # scores bit-equal
            checked += 1
        assert checked >= 20


def test_criterion_6_language_component_directional(language_dir):
    """Enabling language matching rescues language-mismatched queries."""
    with Budget(6, "language matching directional", 60.0):
        engine = load_engine(language_dir / "engine.json")
        config_off = engine.ranker_config  # language weight 0.0
        config_on = config_off.replace(
            generic_weights={**config_off.generic_weights, "language": 1.0}
        )
        ndcg_off = mean_ndcg(engine, engine.judgments, 10, config_off)
        ndcg_on = mean_ndcg(engine, engine.judgments, 10, config_on)
        assert ndcg_on.value - ndcg_off.value >= 0.05, (
            f"NDCG lift only {ndcg_on.value - ndcg_off.value:+.4f}"
        )


def test_criterion_7_tuner(language_dir, guardrail_dir):
    """Single-weight argmax recovery, no regression, guardrail rejection."""
    with Budget(7, "heuristic weight search", 120.0):
        # exact grid-argmax recovery on a single free weight
        engine = load_engine(language_dir / "engine.json")
        assets = TuneAssets.from_engine(engine, load_bvt_suite(language_dir / "bvts.jsonl"))
        grid = GridSpec(points=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
        spec = TuneSpec(free_params=(("generic_weights.language", grid),),
                        alpha_sgcr=0.0, beta_ndcg=1.0, gamma_bvt=0.0, budget=30)
        result = tune(engine.ranker_config, spec, engine, assets)
        best_value, best_point = None, None
        for point in grid.values():
            candidate = set_weight(engine.ranker_config, "generic_weights.language", point)
            value, _ = objective(candidate, engine, assets, spec)
            if best_value is None or value > best_value:
                best_value, best_point = value, point
        assert get_weight(result.best_config, "generic_weights.language") == best_point
        assert result.best_objective == pytest.approx(best_value)
        assert result.best_objective >= result.initial_objective

        # guardrail: objective-improving but expectation-breaking weight rejected
        engine_g = load_engine(guardrail_dir / "engine.json")
        suite_g = load_bvt_suite(guardrail_dir / "bvts.jsonl")
        assets_g = TuneAssets.from_engine(engine_g, suite_g)
        spec_g = TuneSpec(
            free_params=(("generic_weights.clickbait_model",
                          GridSpec(points=(0.25, 0.5, 1.0, 2.0, 4.0))),),
            alpha_sgcr=0.0, beta_ndcg=1.0, gamma_bvt=0.0,
            budget=20, guardrail_epsilon=0.0,
        )
        result_g = tune(engine_g.ranker_config, spec_g, engine_g, assets_g)
        assert result_g.guardrail_rejections >= 1
        assert result_g.best_objective >= result_g.initial_objective
        rejected_best = max(
            (e.objective for e in result_g.trajectory if not e.guardrail_ok), default=0.0
        )
        assert rejected_best > result_g.best_objective  # it really was tempting
        rates = run_bvts(suite_g, engine_g, result_g.best_config).pass_rate_by_intent()
        baseline = run_bvts(suite_g, engine_g, engine_g.ranker_config).pass_rate_by_intent()
        for tag, base in baseline.items():
            assert rates.get(tag, 0.0) >= base


def test_criterion_8_engagement_trainer(engagement_dir):
    """Separable log reaches AUC 0.95; gradients match finite differences."""
    with Budget(8, "engagement trainer", 30.0):
        engine = load_engine(engagement_dir / "engine.json")
        model, report = engine.train_engagement_model(
            feature_names=("ctr_qd", "good_ctr_qd", "title_hit_ratio"),
            params=TrainParams(iterations=400),
        )
        assert report.train_auc >= 0.95, f"AUC only {report.train_auc:.4f}"

        rng = np.random.default_rng(1008)
        for _ in range(25):
            n, d = int(rng.integers(5, 40)), int(rng.integers(1, 7))
            x = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = float(rng.uniform(0, 0.05))
            _, grad_w, grad_b = loss_and_gradient(x, y, w, b, l2)
            packed = np.concatenate([w, [b]])
            numeric = central_difference_gradient(
                lambda p: loss_and_gradient(x, y, p[:-1], p[-1], l2)[0], packed
            )
            analytic = np.concatenate([grad_w, [grad_b]])
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert rel.max() <= 1e-5, f"relative gradient error {rel.max():.2e}"


def test_criterion_9_trace_soundness(replay_dir):
    """1,000-query replay: traces sum exactly; rejected docs never ranked."""
    with Budget(9, "trace soundness over replay", 120.0):
        engine = load_engine(replay_dir / "engine.json")
        rejected = {
            d.doc_id for d in engine.corpus.documents.values() if d.quality.policy_reject
        }
        assert len(engine.query_log) == 1000
        assert rejected  # the fixture really plants policy-rejected docs
        scored_docs = 0
        for record in engine.query_log:
            ranked = engine.rank_for_record(record)
            assert not rejected & set(ranked.doc_ids())
            for doc_id, trace in ranked.traces.items():
                if trace.filtered is not None:
                    assert doc_id in rejected
                    continue
                assert abs(trace.contribution_sum() - trace.final_score) <= 1e-9
                scored_docs += 1
        assert scored_docs >= 1000


def test_criterion_10_pattern_matcher_oracle():
    """1,000 random (pattern, query) pairs match the segmentation oracle."""
    with Budget(10, "pattern matcher vs oracle", 10.0):
        rng = random.Random(1010)
        vocab = ["red", "blue", "fast", "slow", "cat", "dog", "sun", "moon"]
        for trial in range(1000):
            entities = [
                (f"e{i:02d}", rng.choice(["movie", "page"]),
                 tuple(rng.choices(vocab, k=rng.randint(1, 3))),
                 round(rng.uniform(0.1, 1.0), 2))
                for i in range(rng.randint(2, 10))
            ]
            dictionaries = {
                name: {tuple(rng.choices(vocab, k=rng.randint(1, 2)))
                       for _ in range(rng.randint(1, 4))}
                for name in ("d0", "d1")
            }
            tokens = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["lit", "ent", "dict"])
                if kind == "lit":
                    tokens.append(("lit", rng.choice(vocab)))
                elif kind == "ent":
                    tokens.append(("ent", rng.choice(["movie", "page"])))
                else:
                    tokens.append(("dict", rng.choice(["d0", "d1"])))
            kb = KnowledgeBase([
                EntityRecord(eid, etype, frozenset({alias}), popularity=pop)
                for eid, etype, alias, pop in entities
            ])
            dicts = {n: Dictionary(n, frozenset(p)) for n, p in dictionaries.items()}
            package_tokens = tuple(
                Literal(arg) if kind == "lit"
                else EntitySlot(f"s{idx}", arg) if kind == "ent"
                else DictSlot(f"s{idx}", arg)
                for idx, (kind, arg) in enumerate(tokens)
            )
            pattern = QueryPattern("p", package_tokens, "news")
            query = rng.choices(vocab, k=rng.randint(1, 8))
            got = match_pattern(pattern, query, kb, dicts)
            expected = segmentations_oracle(tokens, query, entities, dictionaries)
            if expected is None:
                assert got is None, f"trial {trial}: query={query} tokens={tokens}"
            else:
                assert got is not None, f"trial {trial}: query={query} tokens={tokens}"
                got_caps = [
                    tok.word if isinstance(tok, Literal) else got.captures[tok.name]
                    for tok in package_tokens
                ]
                assert got_caps == expected, f"trial {trial}: query={query}"


def test_criterion_11_ab_harness(tmp_path):
    """Identical arms are null; a planted ~+0.2 NDCG effect is significant."""
    with Budget(11, "A/B harness significance", 60.0):
        out = tmp_path / "planted"
        # 271 of 500 queries flip between arms, worth ~0.369 NDCG each:
        # a planted mean effect of ~+0.2
        write_fixture(build_language_conflict(n_queries=500, n_distractors=271), out)
        engine = load_engine(out / "engine.json")
        config_off = engine.ranker_config
        config_on = config_off.replace(
            generic_weights={**config_off.generic_weights, "language": 1.0}
        )

        null_report = ab_compare(
            engine, config_off, config_off, engine.query_log, engine.judgments,
            metrics=("sgcr@10", "ndcg@10"), n_resamples=10_000, seed=11,
        )
        for delta in null_report.deltas:
            assert delta.delta == 0.0
            assert delta.p_value >= 0.9

        planted = ab_compare(
            engine, config_off, config_on, engine.query_log, engine.judgments,
            metrics=("ndcg@10",), n_resamples=10_000, seed=11,
        )
        effect = planted.deltas[0]
        assert effect.delta >= 0.15, f"planted effect came out at {effect.delta:+.4f}"
        assert effect.p_value < 0.05, f"p-value {effect.p_value}"

        # swapped arms negate the delta exactly
        swapped = ab_compare(
            engine, config_on, config_off, engine.query_log, engine.judgments,
            metrics=("ndcg@10",), n_resamples=1000, seed=11,
        )
        assert swapped.deltas[0].delta == pytest.approx(-effect.delta, abs=1e-15)
