"""The field-table decoder: kinds, error positions, unknown fields, oracles."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    load_bvt_suite_oracle,
    load_corpus_oracle,
    load_dictionaries_oracle,
    load_entities_oracle,
    load_judgments_oracle,
    load_patterns_oracle,
    load_query_log_oracle,
    ranker_config_oracle,
    tune_spec_oracle,
)

from intentrank.components.engagement import load_model
from intentrank.components.registry import _load_passthrough_scores
from intentrank.corpus import load_corpus, load_judgments, load_query_log
from intentrank.engine import ENGINE_CONFIG, load_engine
from intentrank.errors import ConfigurationError, IntentRankError, RecordParseError
from intentrank.evaluation import load_bvt_suite
from intentrank.intent.detect import load_dictionaries, load_entities, load_patterns
from intentrank.ranker import RANKER_WEIGHTS, RankerConfig
from intentrank.records import (
    EMPTY_SET,
    Field,
    Table,
    boolean,
    decode_config,
    integer,
    list_of,
    number,
    read_config,
    read_table,
    string,
)
from intentrank.tuning import TUNE_SPEC, TuneSpec


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


# --------------------------------------------------------------------- #
# kinds


POINT = Table(dict, Field("n", integer, 0), Field("x", number, 0.0), Field("flag", boolean, False),
              Field("tags", list_of(string), ()), Field("label", string, None,
                                                          choices=("a", "b")))


@pytest.mark.parametrize("rec, expected", [
    ({"n": 3}, {"n": 3}),
    ({"n": 3.0}, {"n": 3}),
    ({"x": 2}, {"x": 2.0}),
    ({"flag": True}, {"flag": True}),
    ({"tags": ["a", "b"]}, {"tags": ("a", "b")}),
    ({"label": None}, {"label": None}),
    ({"label": "b"}, {"label": "b"}),
])
def test_accepted_values(rec, expected):
    out = decode_config(POINT, rec, "point.json")
    assert {k: out[k] for k in expected} == expected
    assert all(type(out[k]) is type(v) for k, v in expected.items())


@pytest.mark.parametrize("rec, message", [
    ({"n": 2.5}, "key 'n': expected integer, got float"),
    ({"n": True}, "key 'n': expected integer, got bool"),
    ({"n": "3"}, "key 'n': expected integer, got str"),
    ({"x": False}, "key 'x': expected number, got bool"),
    ({"x": "0.5"}, "key 'x': expected number, got str"),
    ({"flag": 1}, "key 'flag': expected boolean, got int"),
    ({"tags": "ab"}, "key 'tags': expected list, got str"),
    ({"tags": ["a", 1]}, "key 'tags[1]': expected string, got int"),
    ({"label": "c"}, "key 'label': expected one of 'a', 'b', got 'c'"),
    ({"n": None}, "key 'n': expected integer, got null"),
    ({"extra": 1}, "key 'extra': unknown key (known: flag, label, n, tags, x)"),
])
def test_rejected_values_name_the_key(rec, message):
    with pytest.raises(ConfigurationError) as exc:
        decode_config(POINT, rec, "point.json")
    assert str(exc.value) == f"point.json: {message}"


def test_file_error_names_file_line_and_field(tmp_path):
    path = tmp_path / "documents.jsonl"
    write_lines(path, [{"doc_id": "d1", "doc_type": "post"},
                       {"doc_id": "d2", "doc_type": "post", "quality": {"authentic": "hi"}}])
    with pytest.raises(RecordParseError) as exc:
        load_corpus(tmp_path)
    assert str(exc.value) == f"{path}:2: field 'quality.authentic': expected number, got str"


@pytest.mark.parametrize("extra, key", [({"mystery": 1}, "mystery"),
                                        ({"quality": {"shine": 1.0}}, "quality.shine")])
def test_unknown_field_warns_once_per_file_and_field(tmp_path, caplog, extra, key):
    path = tmp_path / "documents.jsonl"
    write_lines(path, [{"doc_id": f"d{i}", "doc_type": "post", **extra} for i in range(50)])
    with caplog.at_level("WARNING"):
        corpus = load_corpus(tmp_path)
    assert len(corpus) == 50
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: ignoring unknown field {key!r} in 50 record(s), first at line 1"]


def test_unknown_config_key_is_an_error(demo_dir):
    config = json.loads((demo_dir / "engine.json").read_text())
    config["components"][0]["params"] = {"mixx": [1.0, 0.0, 0.0]}
    with pytest.raises(ConfigurationError, match=r"key 'components\[0\].params.mixx'"):
        decode_config(ENGINE_CONFIG, config, "engine.json")


def test_empty_entity_ids_share_one_set(tmp_path):
    write_lines(tmp_path / "documents.jsonl", [
        {"doc_id": "d1", "doc_type": "post"},
        {"doc_id": "d2", "doc_type": "post", "entity_ids": []},
        {"doc_id": "d3", "doc_type": "post", "entity_ids": ["e1"]},
    ])
    docs = load_corpus(tmp_path).documents
    assert docs["d1"].entity_ids is EMPTY_SET and docs["d2"].entity_ids is EMPTY_SET
    assert docs["d3"].entity_ids == frozenset({"e1"})


def test_read_table_yields_line_numbers(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"n": 1}\n\n{"n": 2}\n', encoding="utf-8")
    assert [(line, rec["n"]) for line, rec in read_table(path, POINT)] == [(1, 1), (3, 2)]


# --------------------------------------------------------------------- #
# one field swapped for another JSON type, on a valid record of each kind

ENGINE = {
    "corpus_dir": "corpus",
    "retrieval": {"num_shards": 2, "k": 20, "per_shard_k": 15, "k1": 1.2, "b": 0.75},
    "intent": {
        "space": ["friend", "video_publisher", "special_grammar", "news"],
        "patterns": "patterns.jsonl",
        "dictionaries": "dictionaries.jsonl",
        "entities": "entities.jsonl",
        "classifiers": [
            {"intent": "news", "kind": "keyword", "name": "news_kw",
             "params": {"keyword_confidence": {"news": 0.6}}},
            {"intent": "news", "kind": "char_ngram", "name": "news_ngram",
             "params": {"ngrams": ["breaking"], "confidence": 0.5}},
            {"intent": "friend", "kind": "friend_name", "params": {}},
        ],
        "link_threshold": 0.3,
    },
    "components": [
        {"component_id": "text", "kind": "text_relevance", "weight": 1.0,
         "params": {"mix": [0.5, 0.25, 0.25]}},
        {"component_id": "social", "kind": "social_relevance", "weight": 0.5,
         "params": {"relation_weights": {"friend": 0.8}}},
        {"component_id": "location", "kind": "location_relevance", "weight": 0.5,
         "params": {"tau_km": 25.0}},
        {"component_id": "language", "kind": "language_match", "weight": 0.75},
        {"component_id": "quality", "kind": "document_quality", "weight": 0.25},
        {"component_id": "engagement", "kind": "engagement", "weight": 0.5},
        {"component_id": "external", "kind": "passthrough", "weight": 0.25, "scope": "generic",
         "params": {"path": "scores.jsonl", "default": 0.1}},
        {"component_id": "friend_match", "kind": "friend_intent", "scope": "intent_specific",
         "intent": "friend", "weight": 1.5},
        {"component_id": "grammar_match", "kind": "grammar_intent", "scope": "intent_specific",
         "intent": "special_grammar", "weight": 1.2},
        {"component_id": "publisher_match", "kind": "video_publisher",
         "scope": "intent_specific", "intent": "video_publisher", "weight": 1.5,
         "params": {"mode": "good_click_weighted"}},
    ],
    "ranker": {"trigger_threshold": 0.05, "k_final": 10},
    "engagement_model": "model.json",
    "query_log": "log.jsonl",
    "judgments": "judgments.jsonl",
    "bvt_suite": "bvts.jsonl",
    "now_ts": 1_750_000_000,
}

VALID = {
    "documents": {
        "doc_id": "d1", "doc_type": "video", "title": "taylor swift live", "body": "concert",
        "author_id": "u1", "publisher_id": "p1", "languages": {"en": 0.75},
        "location": [37.5, -122.25], "created_ts": 1_700_000_000, "entity_ids": ["e1"],
        "quality": {"kids_friendly": 0.5, "authentic": 0.75, "authoritative": 0.5,
                    "readability": 0.25, "video_resolution": 0.5, "policy_reject": False},
        "engagement": {"impressions": 10, "clicks": 4, "good_clicks": 2},
    },
    "users": {"user_id": "u1", "languages": ["en", "es"], "location": [37.5, -122.25],
              "engaged_doc_ids": {"d1": 1_700_000_000}},
    "edges": {"src": "u1", "dst": "d1", "label": "engaged"},
    "query_log": {"query_text": "taylor swift", "user_id": "u1", "ts": 1_700_000_000,
                  "shown_doc_ids": ["d1", "d2"], "clicked": ["d1"], "good_clicked": ["d1"],
                  "suggestion_click": {"entity_id": "e1", "intent_id": "video_publisher"}},
    "judgments": {"query_text": "taylor swift", "user_id": "u1", "doc_id": "d1", "grade": 3},
    "bvts": {"case_id": "c1", "query": "taylor swift", "user_id": "u1",
             "intent_tag": "video_publisher", "language_tag": "en",
             "expectations": ["excludes: d9", "topk: d1 3"]},
    "patterns": {"pattern_id": "p1", "pattern": "videos i watched yesterday",
                 "target_intent": "special_grammar", "base_confidence": 0.9,
                 "grammar": {"doc_type": "video", "self_seen": True, "window": "yesterday"}},
    "dictionaries": {"dictionary_id": "trailers", "phrases": ["trailer", "teaser"]},
    "entities": {"entity_id": "e1", "entity_type": "publisher", "aliases": ["taylor swift"],
                 "description_terms": ["music"], "popularity": 0.75},
    "scores": {"query_text": "taylor swift", "doc_id": "d1", "score": 0.5},
    "model": {"features": ["quality", "social"], "weights": [0.5, -0.25], "bias": 0.125},
    "weights": {"generic_weights": {"text": 1.0}, "intent_weights": {"friend": 1.5},
                "trigger_threshold": 0.05, "k_final": 10},
    "tune_spec": {"free_params": [{"path": "generic_weights.text",
                                   "grid": {"lo": 0.25, "hi": 2.0, "factor": 2.0}},
                                  {"path": "intent_weights.friend",
                                   "grid": {"points": [0.5, 1.5]}}],
                  "objective": {"sgcr": 0.5, "ndcg": 0.25, "bvt": 0.25},
                  "metric_k": 5, "budget": 8, "restarts": 1, "seed": 3,
                  "guardrail_epsilon": 0.05},
    "engine": ENGINE,
}

#: kind -> file the record is written to (relative to the engine directory)
FILES = {
    "documents": "corpus/documents.jsonl", "users": "corpus/users.jsonl",
    "edges": "corpus/edges.jsonl", "query_log": "log.jsonl", "judgments": "judgments.jsonl",
    "bvts": "bvts.jsonl", "patterns": "patterns.jsonl", "dictionaries": "dictionaries.jsonl",
    "entities": "entities.jsonl", "scores": "scores.jsonl", "model": "model.json",
    "weights": "weights.json", "tune_spec": "tune.json", "engine": "engine.json",
}
CONFIG_KINDS = ("model", "weights", "tune_spec", "engine")


def _plain(obj):
    """A comparable view of a loaded scorer or classifier: its plain attributes."""
    return (type(obj).__name__, {k: v for k, v in sorted(vars(obj).items())
                                 if isinstance(v, (int, float, str, tuple, dict))})


def _engine_view(engine):
    ic = engine.intent_config
    return (
        engine.retrieval, engine.ranker_config, engine.now_ts, ic.space, ic.link_threshold,
        ic.patterns, ic.dictionaries, sorted(ic.kb.entities.items()),
        [(c.intent_id, c.name, _plain(c.fn)) for c in ic.classifiers.classifiers],
        sorted((cid, _plain(s)) for cid, s in engine.registry.generic.items()),
        sorted((i, _plain(s)) for i, s in engine.registry.intent_specific.items()),
        engine.query_log, engine.judgments, engine.bvt_suite_path,
    )


def _load(kind, root):
    path = root / FILES[kind]
    if kind in ("documents", "users", "edges"):
        corpus = load_corpus(root / "corpus")
        return list(corpus.documents.values()), list(corpus.users.values()), \
            list(corpus.graph.edges())
    return {
        "query_log": load_query_log,
        "judgments": load_judgments,
        "bvts": load_bvt_suite,
        "patterns": load_patterns,
        "dictionaries": load_dictionaries,
        "entities": lambda p: sorted(load_entities(p).entities.items()),
        "scores": _load_passthrough_scores,
        "model": load_model,
        "weights": lambda p: read_config(p, RANKER_WEIGHTS),
        "tune_spec": lambda p: read_config(p, TUNE_SPEC),
        "engine": lambda p: _engine_view(load_engine(p)),
    }[kind](path)


def _write(kind, root, rec):
    path = root / FILES[kind]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")


def _outcome(kind, root, rec):
    _write(kind, root, rec)
    try:
        return "ok", _load(kind, root)
    except (IntentRankError, FileNotFoundError) as exc:  # what the CLI maps to exit 2
        return type(exc), str(exc)
    finally:
        _write(kind, root, VALID[kind])


def _paths(value, prefix=()):
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, sub in items:
        yield prefix + (key,)
        yield from _paths(sub, prefix + (key,))


def _set(rec, path, value):
    out = copy.deepcopy(rec)
    target = out
    for key in path[:-1]:
        target = target[key]
    if value is _REMOVE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return out


def _get(rec, path):
    for key in path:
        rec = rec[key]
    return rec


def _json_type(value):
    return {bool: "boolean", int: "int", float: "float", str: "string", list: "list",
            dict: "object", type(None): "null"}[type(value)]


def _key_text(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


_REMOVE = object()
SWAPS = (None, True, False, 0, 7, -1, 2.5, 2.0, "", "x", "0.5", [], ["x"], [1.0], {},
         {"x": 1})
CASES = [(kind, path) for kind in VALID for path in _paths(VALID[kind])]


@pytest.fixture(scope="module")
def swap_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("swap")
    for kind, rec in VALID.items():
        _write(kind, root, rec)
    return root


def test_valid_records_load(swap_root):
    for kind in VALID:
        assert _outcome(kind, swap_root, VALID[kind])[0] == "ok", kind


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(CASES), value=st.sampled_from(SWAPS))
def test_one_swapped_field_fails_at_its_position_or_decodes_equal(swap_root, case, value):
    kind, path = case
    original = _get(VALID[kind], path)
    if _json_type(value) == _json_type(original):
        return
    status, result = _outcome(kind, swap_root, _set(VALID[kind], path, value))
    error = RecordParseError if kind not in CONFIG_KINDS else ConfigurationError
    where = f"{FILES[kind]}:1: field" if error is RecordParseError else f"{FILES[kind]}: key"
    if status is error and f"{where} '{_key_text(path)}'" in result:
        return
    # not rejected at its position: only a compatible value may get here
    if _json_type(original) == "float" and _json_type(value) == "int":
        compatible = _set(VALID[kind], path, float(value))
    elif _json_type(original) == "int" and _json_type(value) == "float" and value.is_integer():
        compatible = _set(VALID[kind], path, int(value))
    elif value is None:  # null in a field whose default is None reads as absent
        compatible = _set(VALID[kind], path, _REMOVE)
    else:
        raise AssertionError(f"{kind} {_key_text(path)}={value!r}: {status} {result}")
    assert (status, result) == _outcome(kind, swap_root, compatible)


# --------------------------------------------------------------------- #
# the decoder against the hand-written loaders it replaced


SYNTH_DIRS = ("demo_dir", "publisher_dir", "language_dir", "guardrail_dir", "replay_dir",
              "engagement_dir")


@pytest.mark.parametrize("fixture", SYNTH_DIRS + ("serve_zipf", "tune_ab"))
def test_decoder_matches_hand_written_loaders(fixture, request, bench_fixtures, caplog,
                                              capsys):
    if fixture in bench_fixtures:
        root, plan = bench_fixtures[fixture]
    else:
        root, plan = request.getfixturevalue(fixture), None
    config = json.loads((root / "engine.json").read_text())
    intent = config["intent"]
    capsys.readouterr()
    with caplog.at_level("WARNING"):
        engine = load_engine(root / "engine.json")
        corpus = engine.corpus
        docs, users, edges = load_corpus_oracle(root / config["corpus_dir"])
        assert corpus.documents == docs
        assert corpus.users == users
        assert list(corpus.graph.edges()) == edges
        assert engine.ranker_config == ranker_config_oracle(config)
        assert RankerConfig.from_record(engine.ranker_config.to_record()) == \
            engine.ranker_config
        if "query_log" in config:
            assert engine.query_log == load_query_log_oracle(root / config["query_log"])
        if "judgments" in config:
            assert engine.judgments == load_judgments_oracle(root / config["judgments"])
        if "bvt_suite" in config:
            assert load_bvt_suite(root / config["bvt_suite"]) == \
                load_bvt_suite_oracle(root / config["bvt_suite"])
        if "patterns" in intent:
            assert engine.intent_config.patterns == load_patterns_oracle(root / intent["patterns"])
        if "dictionaries" in intent:
            assert engine.intent_config.dictionaries == \
                load_dictionaries_oracle(root / intent["dictionaries"])
        if "entities" in intent:
            oracle = load_entities_oracle(root / intent["entities"])
            assert engine.intent_config.kb.entities == {e.entity_id: e for e in oracle}
        if plan is not None:
            assert TuneSpec.from_record(plan.tune_spec) == tune_spec_oracle(plan.tune_spec)
    assert not [r for r in caplog.records if r.levelname in ("WARNING", "ERROR")]
    assert capsys.readouterr().err == ""


def test_tune_spec_matches_oracle_on_every_key():
    spec = VALID["tune_spec"]
    assert TuneSpec.from_record(spec) == tune_spec_oracle(spec)


def test_benchmark_fixture_loads_without_warnings(bench_fixtures, caplog):
    """The benchmark's tune_ab inputs pass the decoder's checks, whatever they tighten."""
    root, plan = bench_fixtures["tune_ab"]
    with caplog.at_level("WARNING"):
        engine = load_engine(root / "engine.json")
        spec = TuneSpec.from_record(plan.tune_spec)
    assert engine.query_log and spec.free_params
    assert not [r for r in caplog.records if r.levelname in ("WARNING", "ERROR")]
