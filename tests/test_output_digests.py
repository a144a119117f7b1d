"""Checked-in digests of the outputs the ranking contract keeps bit-identical.

For each fixture (the six synth fixtures and the benchmark's two workloads at
seed 7) and each output kind, every output is dumped as canonical text
(sorted-key JSON, floats as `repr`) and hashed. `tests/data/digests.json`
holds one sha256 per (fixture, kind), plus a short hash of each record, so a
mismatch names what moved and the test prints the first record that differs
with its current output.

Kinds:
- `search`: for every distinct logged and BVT query (and the first 400
  stream queries of `serve_zipf`): the ranked items, the intent
  distribution, the triggered intents, `export_traces` and the `explain`
  text of each returned document;
- `bvt`: the BVT report records and summary;
- `metrics`: sgcr@10, ndcg@10 and err@5 with their per-query values;
- `tune`: the `tune --out` record of a fixed spec;
- `abtest`: the A/B summary and delta records of the start weights against
  the tuned ones;
- `model`: the engagement model trained on the fixture's log. It goes
  through OpenBLAS `ddot`, so it may differ on another CPU. Its digests are
  a hard check only on the machine that wrote the file (the `machine`
  block: python, numpy, CPU architecture and count); elsewhere a moved
  model digest is reported as a warning. Every other kind is a hard check
  everywhere.

A digest changes only in a change whose CHANGES.md names each moved digest
and says why its bits moved. To rewrite the file from the current code:

    PYTHONPATH=src python tests/test_output_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from intentrank.components.engagement import MODEL
from intentrank.engine import load_engine
from intentrank.evaluation import (
    ab_compare, load_bvt_suite, mean_err, mean_ndcg, run_bvts, sgcr_replay,
)
from intentrank.ranker import explain, export_traces
from intentrank.tuning import TuneAssets, TuneSpec, tune

DIGESTS = Path(__file__).resolve().parent / "data" / "digests.json"

SYNTH = ("demo", "publisher", "language", "replay", "guardrail", "engagement")
BENCH = ("serve_zipf", "tune_ab")
#: serve_zipf's first 400 stream queries are searched too
STREAM_QUERIES = 400

# per synth fixture: free parameters (path, grid points) of its tune spec
SYNTH_TUNE = {
    "demo": (("generic_weights.text", (0.5, 1.0, 2.0)),
             ("intent_weights.friend", (0.75, 1.5, 3.0)),
             ("trigger_threshold", (0.0, 0.3))),
    "publisher": (("intent_weights.video_publisher", (0.0, 0.5, 1.0, 2.0)),
                  ("generic_weights.text", (0.5, 1.0))),
    "language": (("generic_weights.language", (0.0, 0.5, 1.0)),
                 ("generic_weights.text", (0.5, 1.0))),
    "replay": (("generic_weights.text", (0.5, 1.0, 2.0)),
               ("generic_weights.social", (0.0, 1.0)),
               ("intent_weights.friend", (0.75, 3.0))),
    "guardrail": (("generic_weights.clickbait_model", (0.0, 0.25, 1.0, 4.0)),
                  ("generic_weights.text", (0.5, 1.0))),
    "engagement": (("generic_weights.engagement", (0.0, 0.5, 2.0)),
                   ("generic_weights.text", (0.5, 1.0))),
}
#: fixtures whose engagement model is trained and digested
TRAINED = ("engagement", "replay")


def dump(value) -> str:
    """Canonical text: sorted-key JSON, floats by repr (json's float form)."""
    return json.dumps(value, sort_keys=True)


def _synth_spec(name: str, engine, suite) -> TuneSpec:
    available = [bool(engine.query_log), bool(engine.judgments), bool(suite)]
    share = 1.0 / sum(available)
    alpha, beta, gamma = (share if a else 0.0 for a in available)
    if alpha and beta and gamma:  # thirds that sum to 1 exactly
        alpha, beta, gamma = 0.4, 0.4, 0.2
    return TuneSpec.from_record({
        "free_params": [{"path": path, "grid": {"points": list(points)}}
                        for path, points in SYNTH_TUNE[name]],
        "objective": {"sgcr": alpha, "ndcg": beta, "bvt": gamma},
        "budget": 12, "restarts": 3, "seed": 5,
    })


def _search_records(engine, keys):
    for text, user, suggestion in keys:
        result = engine.search(text, user, suggestion=suggestion)
        ranked = result.ranked
        yield f"search {text!r} user={user} suggestion={suggestion}", dump({
            "items": [[i.doc_id, i.score] for i in ranked.items],
            "fingerprint": ranked.config_fingerprint,
            "triggered": sorted(ranked.triggered_intents),
            "intents": result.detection.distribution.probs,
            "traces": export_traces(ranked),
            "explain": [explain(ranked, i.doc_id) for i in ranked.items],
        })


def _stream(plan) -> list:
    """The plan's check queries, or for serve_zipf its first stream queries."""
    if plan is None:
        return []
    stream = [q for block in plan.blocks for q in block]
    return stream[:STREAM_QUERIES] if stream else plan.check_queries


def collect(name: str, engine, plan=None) -> dict[str, list[tuple[str, str]]]:
    """kind -> [(label, canonical text)] for one fixture's engine; `plan` is
    the benchmark plan of a benchmark fixture."""
    suite = load_bvt_suite(engine.bvt_suite_path) if engine.bvt_suite_path else []
    keys = [(q.text, q.user, None) for q in _stream(plan)]
    keys += [(r.query_text, r.user_id, r.suggestion_click) for r in engine.query_log]
    keys += [(c.query_text, c.user_id, None) for c in suite if c.user_id in engine.corpus.users]
    out = {"search": list(_search_records(engine, dict.fromkeys(keys)))}

    if suite:
        report = run_bvts(suite, engine)
        out["bvt"] = [(f"bvt {r.case_id}", dump(r.to_record())) for r in report.results]
        out["bvt"].append(("bvt summary", report.summary()))

    metrics = []
    if engine.query_log:
        metrics.append(("sgcr@10", sgcr_replay(engine.query_log, engine)))
    if engine.judgments:
        metrics.append(("ndcg@10", mean_ndcg(engine, engine.judgments)))
        metrics.append(("err@5", mean_err(engine, engine.judgments, k=5)))
    out["metrics"] = [(label, dump([m.to_record(), m.per_query])) for label, m in metrics]

    spec = _synth_spec(name, engine, suite) if plan is None else TuneSpec.from_record(
        plan.tune_spec)
    result = tune(engine.ranker_config, spec, engine, TuneAssets.from_engine(engine, suite))
    out["tune"] = [("tune record", dump(result.to_record()))]

    specs = [s for s, ok in (("sgcr@10", engine.query_log), ("ndcg@10", engine.judgments),
                             ("err@5", engine.judgments)) if ok]
    report = ab_compare(engine, engine.ranker_config, result.best_config, engine.query_log,
                        engine.judgments, suite, metrics=specs, n_resamples=500, seed=3)
    out["abtest"] = [(f"abtest {d.metric}@{d.k}", dump(d.to_record())) for d in report.deltas]
    out["abtest"].append(("abtest summary", report.summary()))

    if name in TRAINED:
        model, _ = engine.train_engagement_model()
        out["model"] = [("model", dump(MODEL.encode(model)))]
    return out


def _record_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest(records: list[tuple[str, str]]) -> dict:
    whole = hashlib.sha256()
    for label, text in records:
        whole.update(f"{label}\n{text}\n".encode("utf-8"))
    return {"sha256": whole.hexdigest(), "records": [_record_hash(text) for _, text in records]}


def machine() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count()}


def first_difference(want: dict, records: list[tuple[str, str]]) -> str:
    """The first record whose hash moved, with its current output."""
    for i, (expected, (label, text)) in enumerate(zip(want["records"], records)):
        if expected != _record_hash(text):
            shown = text if len(text) <= 2000 else text[:2000] + " ..."
            return f"record {i}: {label}\n  current output:\n{shown}"
    return f"record count {len(want['records'])} -> {len(records)}"


# --------------------------------------------------------------------- #
# tier-1 test


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def engines(request, bench_engines, bench_fixtures, demo_engine):
    """name -> (engine, benchmark plan or None)"""
    out = {"demo": (demo_engine, None)}
    for name in SYNTH[1:]:
        root = request.getfixturevalue(f"{name}_dir")
        out[name] = (load_engine(root / "engine.json"), None)
    for name in BENCH:
        out[name] = (bench_engines[name], bench_fixtures[name][1])
    return out


@pytest.mark.parametrize("name", SYNTH + BENCH)
def test_outputs_match_digests(name, engines, recorded):
    outputs = collect(name, *engines[name])
    want = recorded["fixtures"][name]
    assert sorted(outputs) == sorted(want), f"{name}: output kinds changed"
    moved = [kind for kind in sorted(outputs)
             if digest(outputs[kind])["sha256"] != want[kind]["sha256"]]
    report = {kind: f"{name}/{kind} moved; first difference at "
                    f"{first_difference(want[kind], outputs[kind])}" for kind in moved}
    if "model" in report and recorded["machine"] != machine():
        warnings.warn(f"{report.pop('model')}\n(digests written on {recorded['machine']}, "
                      f"this is {machine()}: BLAS results may differ)")
    assert not report, "\n".join(report.values())


# --------------------------------------------------------------------- #
# writer


def write() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import bench_module
    from intentrank.synth import FIXTURE_BUILDERS, write_fixture

    fixtures = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SYNTH + BENCH:
            root, plan = Path(tmp) / name, None
            if name in SYNTH:
                write_fixture(FIXTURE_BUILDERS[name](), root)
            else:
                fx, plan = bench_module("gen").BUILDERS[name](7)
                write_fixture(fx, root)
            outputs = collect(name, load_engine(root / "engine.json"), plan)
            fixtures[name] = {kind: digest(records) for kind, records in sorted(outputs.items())}
    DIGESTS.write_text(json.dumps({"machine": machine(), "fixtures": fixtures}, indent=1,
                                  sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write()
