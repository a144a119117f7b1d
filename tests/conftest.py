"""Shared fixtures: in-memory corpus helpers and generated engine dirs."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from intentrank.corpus import (
    Corpus,
    Document,
    EngagementCounters,
    QualitySignals,
    QueryContext,
    SocialGraph,
    UserContext,
)
from intentrank.engine import load_engine
from intentrank.synth import (
    build_demo,
    build_engagement_training,
    build_guardrail,
    build_language_conflict,
    build_publisher_conflict,
    build_replay,
    write_fixture,
)


def mk_doc(doc_id, doc_type="post", title="", body="", **kwargs):
    quality = kwargs.pop("quality", QualitySignals())
    engagement = kwargs.pop("engagement", EngagementCounters())
    return Document(doc_id=doc_id, doc_type=doc_type, title=title, body=body,
                    quality=quality, engagement=engagement, **kwargs)


def mk_user(user_id, languages=("en",), **kwargs):
    return UserContext(user_id=user_id, languages=tuple(languages), **kwargs)


def add_friends(graph, a, b):
    """Insert a symmetric friend edge pair."""
    graph.add_edge(a, b, "friend")
    graph.add_edge(b, a, "friend")


def mk_corpus(docs=(), users=(), edges=()) -> Corpus:
    graph = SocialGraph()
    for src, dst, label in edges:
        graph.add_edge(src, dst, label)
    graph.validate()
    return Corpus(
        documents={d.doc_id: d for d in docs},
        users={u.user_id: u for u in users},
        graph=graph,
    )


def mk_ctx(query_text, user=None, **kwargs) -> QueryContext:
    return QueryContext(query_text=query_text, user=user or mk_user("u_t"), **kwargs)


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_fixture")
    write_fixture(build_demo(), out)
    return out


@pytest.fixture(scope="session")
def demo_engine(demo_dir):
    return load_engine(demo_dir / "engine.json")


@pytest.fixture(scope="session")
def publisher_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("publisher_fixture")
    write_fixture(build_publisher_conflict(), out)
    return out


@pytest.fixture(scope="session")
def language_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("language_fixture")
    write_fixture(build_language_conflict(), out)
    return out


@pytest.fixture(scope="session")
def guardrail_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("guardrail_fixture")
    write_fixture(build_guardrail(), out)
    return out


@pytest.fixture(scope="session")
def replay_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("replay_fixture")
    write_fixture(build_replay(), out)
    return out


@pytest.fixture(scope="session")
def engagement_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("engagement_fixture")
    write_fixture(build_engagement_training(), out)
    return out


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def bench_module(name):
    """benchmarks/<name>.py, imported unedited and once, as module bench_<name>."""
    key = f"bench_{name}"
    module = sys.modules.get(key)
    if module is None:
        spec = importlib.util.spec_from_file_location(key, BENCHMARKS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def bench_fixtures(tmp_path_factory):
    """workload -> (engine dir, plan) for the benchmark's own generator at seed 7."""
    out = {}
    for name in ("serve_zipf", "tune_ab"):
        fx, plan = bench_module("gen").BUILDERS[name](7)
        root = tmp_path_factory.mktemp(name)
        write_fixture(fx, root)
        out[name] = (root, plan)
    return out


@pytest.fixture(scope="session")
def bench_engines(bench_fixtures):
    """workload -> engine over its `bench_fixtures` directory, loaded once."""
    return {name: load_engine(root / "engine.json") for name, (root, _) in bench_fixtures.items()}
