"""The benchmark's traced path: its span wrappers and its re-assembled search.

`benchmarks/run.py --trace 1` swaps engine names for span wrappers
(`spans.Tracer`) and ranks through `offline.pipeline`, which rebuilds
`EngineHandle.search` from the engine's public names. The end-to-end runs
never take that path, so these tests import both files unedited and check
that it still installs, matches search and uninstalls cleanly.
"""

from __future__ import annotations

import pytest

from conftest import bench_module

import intentrank.engine as engine_mod
import intentrank.evaluation as evaluation_mod
from intentrank.engine import load_engine


@pytest.fixture(scope="module")
def tune_ab(bench_fixtures):
    root, plan = bench_fixtures["tune_ab"]
    return load_engine(root / "engine.json"), plan


def traced_queries(engine, plan):
    """One query of each kind, plus the first with a policy-rejected candidate."""
    picked, kinds = [], set()
    for q in plan.check_queries:
        if q.kind not in kinds:
            kinds.add(q.kind)
            picked.append(q)
    rejected = next(q for q in plan.check_queries
                    if engine.search(q.text, q.user).table.rejected.any())
    return picked + [rejected]


def patched_attributes(tracer_module, registry):
    """(owner, attribute) of everything Tracer.install replaces."""
    targets = [(owner, attr) for owner, attr, _ in tracer_module.PATCHES]
    scorers = list(registry.generic.values()) + list(registry.intent_specific.values())
    targets += [(type(s), "score") for s in scorers]
    return targets + [(evaluation_mod, "paired_bootstrap_p")]


def test_traced_pipeline_matches_search_and_uninstalls(tune_ab):
    engine, plan = tune_ab
    spans, offline = bench_module("spans"), bench_module("offline")
    queries = traced_queries(engine, plan)
    assert {q.kind for q in queries} >= {"self_history", "term"}
    targets = patched_attributes(spans, engine.registry)
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in targets}
    for q in queries:
        expected = engine.search(q.text, q.user)
        tracer = spans.Tracer()
        tracer.install(engine.registry)
        try:
            assert all(owner.__dict__[attr] is not originals[owner, attr]
                       for owner, attr in targets)
            ranked, n_candidates, _ = offline.pipeline(engine_mod, engine, q.text, q.user)
        finally:
            tracer.uninstall()
        assert ranked.items == expected.ranked.items, q
        assert n_candidates == len(expected.candidates)
        calls = tracer.self_time_by_name(tracer.arrays())
        assert calls["build_signals"]["calls"] == n_candidates > 0
        assert calls["detect"]["calls"] == calls["retrieve"]["calls"] == 1
        assert all(owner.__dict__[attr] is originals[owner, attr] for owner, attr in targets)
