"""build_table + combine against per-document scoring, and table reuse offline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_ctx, mk_doc
from oracles import rank_oracle

import intentrank.ranker as ranker_mod
from intentrank.components.generic import Scorer
from intentrank.components.signals import SharedSignals
from intentrank.corpus import QualitySignals
from intentrank.engine import EngineHandle, load_engine
from intentrank.errors import IntentRankError
from intentrank.evaluation import TableMemo, ab_compare, load_bvt_suite, sgcr_replay
from intentrank.intent.space import IntentDistribution
from intentrank.ranker import RankerConfig, build_table, combine, rank
from intentrank.tuning import GridSpec, TuneAssets, TuneSpec, objective, set_weight, tune

from test_ranker import StubScorer, registry_of

INTENTS = ("friend", "video_publisher", "news")
SIGNALS = SharedSignals()

# a few repeated values make score and quality ties common
unit = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
weight = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 5.0))


@st.composite
def scenarios(draw):
    order = draw(st.permutations(range(draw(st.integers(0, 8)))))
    docs = [
        mk_doc(f"d{i}", quality=QualitySignals(
            draw(unit), draw(unit), draw(unit), draw(unit),
            policy_reject=draw(st.integers(0, 4)) == 0,
        ))
        for i in order
    ]
    generic_ids = draw(st.lists(st.sampled_from(["g0", "g1", "g2", "g3"]), unique=True))
    intent_ids = draw(st.lists(st.sampled_from(INTENTS), unique=True))
    registry = registry_of(
        generic=[StubScorer(g, {d.doc_id: draw(unit) for d in docs}) for g in generic_ids],
        intent=[(t, StubScorer(f"s_{t}", {d.doc_id: draw(unit) for d in docs}))
                for t in intent_ids],
    )
    probs = {t: draw(st.sampled_from([0.0, 0.1, 0.5]) | st.floats(0.0, 1.0)) for t in INTENTS}
    distribution = IntentDistribution(probs)
    configs = []
    for _ in range(draw(st.integers(1, 4))):
        configs.append(RankerConfig(
            generic_weights={g: draw(weight) for g in draw(st.sets(st.sampled_from(generic_ids)))}
            if generic_ids else {},
            intent_weights={t: draw(weight) for t in draw(st.sets(st.sampled_from(intent_ids)))}
            if intent_ids else {},
            # thresholds equal to some p exercise the >= edge of the gate
            trigger_threshold=draw(st.sampled_from(sorted(set(probs.values())) + [0.0])
                                   | st.floats(0.0, 1.0)),
            k_final=draw(st.integers(1, 10)),
        ))
    return [(d, SIGNALS) for d in docs], distribution, registry, configs


def bits(x):
    return float(x).hex()


class TestCombineMatchesPerDocumentScoring:
    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_one_table_under_many_configs(self, scenario):
        inputs, distribution, registry, configs = scenario
        ctx = mk_ctx("q")
        table = build_table(ctx, inputs, distribution, registry)
        for config in configs:
            ranked = combine(table, config, query_id="q")
            items, traces = rank_oracle(ctx, inputs, distribution, registry, config)
            assert [(i.doc_id, bits(i.score)) for i in ranked.items] == [
                (d, bits(s)) for d, s in items]
            assert list(ranked.traces.items()) == list(traces.items())
            for doc_id, trace in traces.items():
                assert bits(ranked.traces[doc_id].final_score) == bits(trace.final_score)
            assert ranked.triggered_intents == {
                t for t in config.intent_weights
                if distribution.get(t) >= config.trigger_threshold and distribution.get(t) > 0
            }
            assert rank(ctx, inputs, distribution, registry, config, query_id="q") == ranked

    def test_unneeded_sigmas_are_never_computed(self):
        calls = []

        class SpyScorer(Scorer):
            def score(self, ctx, doc, signals):
                calls.append((self.component_id, doc.doc_id))
                return 1.0

        registry = registry_of(generic=[SpyScorer("g")],
                               intent=[("friend", SpyScorer("s_friend")),
                                       ("news", SpyScorer("s_news"))])
        docs = [mk_doc("d1"), mk_doc("d2", quality=QualitySignals(policy_reject=True))]
        table = build_table(mk_ctx("q"), [(d, SIGNALS) for d in docs],
                            IntentDistribution({"friend": 0.0, "news": 0.01, "generic": 0.99}),
                            registry)
        # p = 0 can trigger under no config; a rejected doc is never ranked
        assert sorted(calls) == [("g", "d1"), ("s_news", "d1")]
        assert set(table.intent) == {"news"}

    def test_traces_built_only_when_read(self, monkeypatch):
        built = []
        original = ranker_mod._build_traces
        monkeypatch.setattr(ranker_mod, "_build_traces",
                            lambda table, config: built.append(1) or original(table, config))
        registry = registry_of(generic=[StubScorer("g", {"d1": 0.5})])
        ranked = combine(build_table(mk_ctx("q"), [(mk_doc("d1"), SIGNALS)],
                                     IntentDistribution({"generic": 1.0}), registry),
                         RankerConfig(generic_weights={"g": 1.0}))
        assert built == []
        assert ranked.traces["d1"].final_score == 0.5
        assert list(ranked.traces) == ["d1"]
        assert built == [1]


class CountingSearch:
    """Wraps EngineHandle.search and records the keys it ran for."""

    def __init__(self, monkeypatch):
        self.keys = []
        original = EngineHandle.search

        def counted(engine, query_text, user_id, config=None, k=None, suggestion=None):
            self.keys.append((query_text, user_id, suggestion))
            return original(engine, query_text, user_id, config=config, k=k,
                            suggestion=suggestion)

        monkeypatch.setattr(EngineHandle, "search", counted)


def demo_keys(engine, suite):
    return (
        {(r.query_text, r.user_id, r.suggestion_click) for r in engine.query_log}
        | {(j.query_text, j.user_id, None) for j in engine.judgments}
        | {(c.query_text, c.user_id, None) for c in suite if c.user_id in engine.corpus.users}
    )


class TestTableMemo:
    def spec(self):
        return TuneSpec(
            free_params=(("generic_weights.language", GridSpec(points=(0.25, 0.75, 1.5))),
                         ("trigger_threshold", GridSpec(points=(0.0, 0.3)))),
            budget=12, restarts=2,
        )

    def test_tune_searches_each_distinct_key_once(self, demo_dir, monkeypatch):
        engine = load_engine(demo_dir / "engine.json")
        suite = load_bvt_suite(engine.bvt_suite_path)
        assets = TuneAssets.from_engine(engine, suite)
        counter = CountingSearch(monkeypatch)
        result = tune(engine.ranker_config, self.spec(), engine, assets)
        assert result.evaluations_used > 1
        assert len(counter.keys) == len(set(counter.keys)) == len(demo_keys(engine, suite))
        # every evaluation equals the objective computed from fresh tables
        for evaluation in result.trajectory:
            config = engine.ranker_config
            for path, value in evaluation.params:
                config = set_weight(config, path, value)
            assert objective(config, engine, assets, self.spec())[0] == evaluation.objective

    def test_ab_compare_searches_each_distinct_key_once(self, demo_dir, monkeypatch):
        engine = load_engine(demo_dir / "engine.json")
        suite = load_bvt_suite(engine.bvt_suite_path)
        config_b = engine.ranker_config.replace(trigger_threshold=0.5)
        counter = CountingSearch(monkeypatch)
        ab_compare(engine, engine.ranker_config, config_b, engine.query_log, engine.judgments,
                   suite, metrics=("sgcr@10", "ndcg@10", "err@5"), n_resamples=100)
        assert len(counter.keys) == len(set(counter.keys)) == len(demo_keys(engine, suite))

    def test_shared_tables_rank_like_fresh_searches(self, demo_engine):
        memo = TableMemo(demo_engine)
        for threshold in (0.0, 0.05, 0.5, 1.0):
            config = demo_engine.ranker_config.replace(trigger_threshold=threshold)
            shared = sgcr_replay(demo_engine.query_log, demo_engine, config, memo=memo)
            for record in demo_engine.query_log:
                assert memo.ranked(record.query_text, record.user_id, config,
                                   record.suggestion_click).items == \
                    demo_engine.rank_for_record(record, config).items
            assert shared == sgcr_replay(demo_engine.query_log, demo_engine, config)

    def test_memo_of_another_engine_rejected(self, demo_dir, demo_engine):
        other = load_engine(demo_dir / "engine.json")
        with pytest.raises(IntentRankError, match="different engine"):
            sgcr_replay(demo_engine.query_log, demo_engine, memo=TableMemo(other))
