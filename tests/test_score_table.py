"""build_table + combine against per-document scoring, and table reuse offline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_ctx, mk_doc
from oracles import rank_oracle

import intentrank.engine as engine_mod
import intentrank.ranker as ranker_mod
import intentrank.tuning as tuning_mod
from intentrank.components.generic import Scorer
from intentrank.components.signals import SharedSignals
from intentrank.corpus import QualitySignals, SocialGraph
from intentrank.engine import EngineHandle, load_engine
from intentrank.errors import IntentRankError
from intentrank.evaluation import (
    TableMemo, ab_compare, load_bvt_suite, mean_err, mean_ndcg, sgcr_replay,
)
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


class CountingTables:
    """Records the key of every frame the engine builds, and counts score tables."""

    def __init__(self, monkeypatch):
        self.keys = []
        self.tables = 0
        build_frame, frame_table = EngineHandle.build_frame, engine_mod.frame_table

        def counted_frame(engine, ctx, tokens, detection):
            self.keys.append((ctx.query_text, ctx.user.user_id, ctx.suggestion))
            return build_frame(engine, ctx, tokens, detection)

        def counted_table(*args):
            self.tables += 1
            return frame_table(*args)

        monkeypatch.setattr(EngineHandle, "build_frame", counted_frame)
        monkeypatch.setattr(engine_mod, "frame_table", counted_table)


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
        counter, built = CountingSearch(monkeypatch), CountingTables(monkeypatch)
        result = tune(engine.ranker_config, self.spec(), engine, assets)
        assert result.evaluations_used > 1
        assert len(counter.keys) == len(set(counter.keys)) == len(demo_keys(engine, suite))
        # one frame and one table per distinct key for the whole call
        assert built.keys == counter.keys and built.tables == len(built.keys)
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
        counter, built = CountingSearch(monkeypatch), CountingTables(monkeypatch)
        ab_compare(engine, engine.ranker_config, config_b, engine.query_log, engine.judgments,
                   suite, metrics=("sgcr@10", "ndcg@10", "err@5"), n_resamples=100)
        assert len(counter.keys) == len(set(counter.keys)) == len(demo_keys(engine, suite))
        assert built.keys == counter.keys and built.tables == len(built.keys)

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

    def test_work_per_evaluation(self, demo_dir, monkeypatch):
        """Call counts of a tune; nothing here is timed. A warm evaluation
        (no new key) validates its config once and ranks every key in one
        pass, with no per-key combine; the searcher's relations come from
        the search, so there is one searcher view per distinct key."""
        engine = load_engine(demo_dir / "engine.json")
        suite = load_bvt_suite(engine.bvt_suite_path)
        calls = {name: 0 for name in ("search", "validate_config", "combine", "searcher_view")}

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(EngineHandle, "search", "search")
        count(ranker_mod, "validate_config", "validate_config")
        count(ranker_mod, "combine", "combine")
        count(engine_mod, "combine", "combine")
        count(SocialGraph, "searcher_view", "searcher_view")
        per_evaluation = []
        objective_fn = tuning_mod.objective

        def counted_objective(*args, **kwargs):
            before = dict(calls)
            out = objective_fn(*args, **kwargs)
            per_evaluation.append({k: calls[k] - before[k] for k in calls})
            return out

        monkeypatch.setattr(tuning_mod, "objective", counted_objective)
        assets = TuneAssets.from_engine(engine, suite)
        result = tune(engine.ranker_config, self.spec(), engine, assets)
        keys = len(demo_keys(engine, suite))
        assert len(per_evaluation) == result.evaluations_used > 2
        assert per_evaluation[0]["search"] == keys
        for counts in per_evaluation[1:]:
            assert counts == {"search": 0, "validate_config": 1, "combine": 0, "searcher_view": 0}
        # every combine is the one inside a search
        assert calls["search"] == calls["combine"] == calls["searcher_view"] == keys

    def test_one_memo_over_two_judgment_lists(self, demo_engine):
        memo = TableMemo(demo_engine)
        judgments = demo_engine.judgments
        half = judgments[: len(judgments) // 2]
        for subset in (judgments, half, judgments):
            for metric in (mean_ndcg, mean_err):
                assert metric(demo_engine, subset, memo=memo) == metric(demo_engine, subset)

    def test_judgment_list_edited_in_place(self, demo_engine):
        """A memo reads a judgment list's current contents on every call."""
        memo = TableMemo(demo_engine)
        judgments = list(demo_engine.judgments)
        before = mean_ndcg(demo_engine, judgments, memo=memo)
        del judgments[len(judgments) // 2:]
        after = mean_ndcg(demo_engine, judgments, memo=memo)
        assert after == mean_ndcg(demo_engine, judgments)
        assert after.per_query != before.per_query

    def test_two_arms_alternating_rank_once_each(self, demo_engine, monkeypatch):
        """ab_compare alternates its arms metric by metric; over the same keys
        each arm's pass is made once."""
        from intentrank import evaluation
        calls = []
        real = evaluation.rank_stack
        monkeypatch.setattr(evaluation, "rank_stack",
                            lambda stack, config: calls.append(config) or real(stack, config))
        memo = TableMemo(demo_engine)
        config_a = demo_engine.ranker_config
        config_b = config_a.replace(trigger_threshold=0.5)
        for metric in (mean_ndcg, mean_err):
            for config in (config_a, config_b):
                metric(demo_engine, demo_engine.judgments, config=config, memo=memo)
        assert calls == [config_a, config_b]

    def test_memo_of_another_engine_rejected(self, demo_dir, demo_engine):
        other = load_engine(demo_dir / "engine.json")
        with pytest.raises(IntentRankError, match="different engine"):
            sgcr_replay(demo_engine.query_log, demo_engine, memo=TableMemo(other))
