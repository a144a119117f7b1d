"""The candidate frame against the per-candidate path it replaced.

`EngineHandle.search` scores one `CandidateFrame` per query, one `column`
call per component. `oracles.search_table_oracle` scores the same query the
old way: `Candidate` objects, one `build_signals` and one `score` call per
candidate, `ranker.build_table`. Every table column must agree by bytes, and
so must the ranked items and the exported traces.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from oracles import search_table_oracle

from intentrank.components.engagement import FEATURES, EngagementScorer, sigmoid
from intentrank.corpus import StructuredSuggestion
from intentrank.engine import load_engine
from intentrank.evaluation import load_bvt_suite
from intentrank.ranker import combine, export_traces

SYNTH_FIXTURES = ("demo_dir", "publisher_dir", "language_dir", "guardrail_dir", "replay_dir",
                  "engagement_dir")
SERVE_ZIPF_QUERIES = 400  # the head of the timed query stream


def bits(array) -> tuple:
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def logged_and_bvt_queries(engine) -> list[tuple]:
    """(query, user, suggestion) of every log record and BVT case, in order, once each."""
    keys = [(r.query_text, r.user_id, r.suggestion_click) for r in engine.query_log]
    if engine.bvt_suite_path is not None:
        keys += [(c.query_text, c.user_id, None) for c in load_bvt_suite(engine.bvt_suite_path)]
    return [key for key in dict.fromkeys(keys) if key[1] in engine.corpus.users]


def plan_queries(plan, limit=None) -> list[tuple]:
    stream = [q for block in plan.blocks for q in block][:limit]
    return [(q.text, q.user, StructuredSuggestion(**q.suggestion) if q.suggestion else None)
            for q in stream + plan.check_queries]


def assert_frame_matches_oracle(engine, queries) -> int:
    """Check each query; returns how many candidate rows were compared."""
    rows = 0
    for text, user, suggestion in queries:
        where = (text, user, suggestion)
        result = engine.search(text, user, suggestion=suggestion)
        got, frame = result.table, result.frame
        want, first_pass = search_table_oracle(engine, text, user, suggestion)
        assert got.doc_ids == frame.doc_ids == want.doc_ids, where
        assert bits(frame.first_pass) == bits(np.array(first_pass, dtype=np.float64)), where
        for name in ("quality", "rejected", "tie_rank"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), (where, name)
        assert got.intents == want.intents, where
        for group in ("generic", "intent"):
            columns, expected = getattr(got, group), getattr(want, group)
            assert columns.keys() == expected.keys(), (where, group)
            for key in columns:
                assert bits(columns[key]) == bits(expected[key]), (where, group, key)
        ranked = combine(want, engine.ranker_config, query_id=text)
        assert result.ranked.items == ranked.items, where
        assert (json.dumps(export_traces(result.ranked))
                == json.dumps(export_traces(ranked))), where
        rows += len(frame)
    return rows


@pytest.mark.parametrize("fixture", SYNTH_FIXTURES)
def test_synth_fixture_queries(fixture, request):
    engine = load_engine(request.getfixturevalue(fixture) / "engine.json")
    queries = logged_and_bvt_queries(engine)
    assert queries
    assert assert_frame_matches_oracle(engine, queries) > 0


@pytest.mark.parametrize("workload", ["serve_zipf", "tune_ab"])
def test_benchmark_plan_queries(workload, bench_fixtures, bench_engines):
    engine, (_, plan) = bench_engines[workload], bench_fixtures[workload]
    queries = plan_queries(plan, SERVE_ZIPF_QUERIES) + logged_and_bvt_queries(engine)
    assert len(queries) >= 250
    assert assert_frame_matches_oracle(engine, queries) > 10 * len(queries)


@pytest.mark.parametrize("fixture", ["engagement_dir", "demo_dir"])
def test_trained_engagement_model(fixture, engagement_dir, request):
    """A non-zero model, over every feature: the benchmark's all-zero model
    would hide a wrong dot product or a wrong feature column.

    The model is trained on the engagement fixture. Features that fixture
    holds constant (no locations, no document clicks) train to 0 there, so
    they get a fixed weight; the demo fixture then exercises them.
    """
    names = tuple(FEATURES) + ("intent:video_publisher", "intent:friend")
    model, _ = load_engine(engagement_dir / "engine.json").train_engagement_model(
        feature_names=names)
    assert sum(w != 0.0 for w in model.weights) >= 7 and model.bias != 0.0
    model = dataclasses.replace(model, weights=tuple(w or 0.375 for w in model.weights))
    engine = load_engine(request.getfixturevalue(fixture) / "engine.json")
    (cid,) = [cid for cid, s in engine.registry.generic.items()
              if isinstance(s, EngagementScorer)]
    engine.registry.generic[cid] = EngagementScorer(cid, model)
    queries = logged_and_bvt_queries(engine)
    assert assert_frame_matches_oracle(engine, queries) > 0
    sigmas = np.concatenate([engine.search(text, user, suggestion=suggestion).table.generic[cid]
                             for text, user, suggestion in queries])
    assert len(np.unique(sigmas)) > 5  # the model separates documents


def test_vectorized_sigmoid_matches_scalar():
    z = np.random.default_rng(7).standard_normal(20_000) * np.repeat([1.0, 8.0, 60.0, 900.0],
                                                                     5_000)
    assert [float(sigmoid(v)) for v in z.tolist()] == sigmoid(z).tolist()
