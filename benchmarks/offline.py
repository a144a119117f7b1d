"""In-process child: load the engine, run the offline phases, export outputs.

Usage: python3 benchmarks/offline.py REQUEST.json

The child prints `ready` as soon as `load_engine` returns; the parent times
set-up from process start to that line. With mode `setup` it exits there.
Otherwise it runs rounds of (search pass, fixed-budget `tune`, `ab_compare`
of the start weights against the tuned ones) until the request's seconds
are spent, then exports the outputs the parent's checks need. With `trace`
set it instead re-runs the queries through a re-assembled pipeline under
spans (see spans.py) and reports the per-layer figures.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text(encoding="utf-8"))
    sys.path.insert(0, req["src"])
    import intentrank.engine as E
    from intentrank.evaluation import load_bvt_suite

    tracer = None
    if req.get("trace"):
        from spans import Tracer

        tracer = Tracer()
    if tracer is None:
        engine = E.load_engine(req["config"])
    else:
        root = tracer.open("phase.load")
        tracer.install()
        engine = tracer.wrap("load_engine", E.load_engine)(req["config"])
        tracer.uninstall()
        tracer.close(root)
    print("ready", flush=True)
    if req["mode"] == "setup":
        return 0

    suite = load_bvt_suite(engine.bvt_suite_path) if engine.bvt_suite_path else []
    queries = [tuple(q) for q in req["queries"]]
    out: dict = {}
    if tracer is None:
        out.update(_rounds(engine, suite, queries, req))
    else:
        out.update(_traced_run(tracer, E, engine, suite, queries, req))
        out["layer"]["index.build_peak_mb"] = _build_peak_mb(E, engine)
    out["peak_rss_mb"] = rss_peak_mb()
    out["export"] = _export(engine, req["export"])
    Path(req["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


def _tune(engine, suite, spec_record):
    from intentrank.tuning import TuneAssets, TuneSpec, tune

    spec = TuneSpec.from_record(spec_record)
    return tune(engine.ranker_config, spec, engine, TuneAssets.from_engine(engine, suite))


def _ab(engine, suite, config_b):
    from intentrank import evaluation

    return evaluation.ab_compare(engine, engine.ranker_config, config_b, engine.query_log,
                                 engine.judgments, bvt_suite=suite,
                                 metrics=("sgcr@10", "ndcg@10"))


def _search_pass(engine, queries) -> list[float]:
    latencies = []
    for text, user in queries:
        t = time.perf_counter()
        engine.search(text, user)
        latencies.append(time.perf_counter() - t)
    return latencies


def _rounds(engine, suite, queries, req) -> dict:
    """Untimed warm-up pass, then whole rounds until the seconds are spent."""
    _search_pass(engine, queries)
    latencies: list[float] = []
    tails, tune_s, ab_s, results, deltas = [], [], [], [], []
    deadline = time.perf_counter() + req["seconds"]
    while len(tune_s) < req["min_rounds"] or time.perf_counter() < deadline:
        # search passes sit between the other phases, so slow spells of a
        # shared host spread over all three figures alike
        this_round = _search_pass(engine, queries) + _search_pass(engine, queries)
        t = time.perf_counter()
        result = _tune(engine, suite, req["tune_spec"])
        tune_s.append(time.perf_counter() - t)
        this_round += _search_pass(engine, queries) + _search_pass(engine, queries)
        t = time.perf_counter()
        report = _ab(engine, suite, result.best_config)
        ab_s.append(time.perf_counter() - t)
        latencies += this_round
        if this_round:
            tails.append(tail(sorted(this_round)))
        results.append(result)
        deltas.append([d.to_record() | {"name": d.metric, "k": d.k} for d in report.deltas])
    return {
        "search_latencies_s": latencies, "round_tails_s": tails,
        "tune_s": tune_s, "abtest_s": ab_s,
        "rounds": len(tune_s),
        "tune_results": [{"initial": r.initial_objective, "best": r.best_objective,
                          "evaluations": r.evaluations_used} for r in results],
        "ab_deltas": deltas,
    }


# --------------------------------------------------------------------- #
# traced run


def _build_peak_mb(E, engine) -> float:
    """Peak traced allocation of a second, untimed build_index."""
    import tracemalloc

    params = engine.retrieval
    tracemalloc.start()
    try:
        E.build_index(engine.corpus, num_shards=params.num_shards, k1=params.k1, b=params.b)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def pipeline(E, engine, text, user):
    """EngineHandle.search re-assembled from the public calls it makes."""
    from intentrank.index import Candidate, tokenize

    ctx = engine.context_for(text, user)
    tokens = tokenize(text)
    detection = E.detect(ctx, engine.intent_config)
    candidates = list(E.retrieve(engine.index, tokens, k=engine.retrieval.k,
                                 per_shard_k=engine.retrieval.per_shard_k) if tokens else [])
    if detection.grammar is not None and detection.grammar.self_seen:
        seen = {c.doc_id for c in candidates}
        for doc_id in sorted(ctx.user.engaged_doc_ids):
            if doc_id not in seen and doc_id in engine.corpus.documents:
                candidates.append(Candidate(doc_id, engine.index.score_doc(tokens, doc_id)))
    inputs = []
    for cand in candidates:
        doc = engine.corpus.documents[cand.doc_id]
        inputs.append((doc, engine.build_signals(ctx, tokens, doc, cand.first_pass_score,
                                                 detection)))
    ranked = E.rank(ctx, inputs, detection.distribution, engine.registry, engine.ranker_config,
                    query_id=text)
    return ranked, len(candidates), sum(engine.index.stats.df.get(t, 0) for t in set(tokens))


def _traced_run(tracer, E, engine, suite, queries, req) -> dict:
    _search_pass(engine, queries)  # warm-up, as in the timed runs
    # each query runs untraced, then traced, so a slow spell of the host
    # falls on both sides of the overhead estimate alike
    reference, plain, traced, traced_s = [], [], [], 0.0
    for text, user in queries:
        t = time.perf_counter()
        reference.append(engine.search(text, user).ranked)
        plain.append(time.perf_counter() - t)
        tracer.install(engine.registry)
        t = time.perf_counter()
        root = tracer.open("phase.search")
        traced.append(pipeline(E, engine, text, user))
        tracer.close(root)
        traced_s += time.perf_counter() - t
        tracer.uninstall()
    untraced_s = sum(plain)

    tracer.install(engine.registry)
    root = tracer.open("phase.tune")
    t = time.perf_counter()
    result = tracer.wrap("tune", lambda: _tune(engine, suite, req["tune_spec"]))()
    tune_s = time.perf_counter() - t
    tracer.close(root)
    root = tracer.open("phase.ab")
    _ab(engine, suite, result.best_config)
    tracer.close(root)
    tracer.uninstall()
    sys.stderr.flush()
    log_lines = count_lines(req["stderr_path"])

    matches = [ranked.items == ref.items for (ranked, _, _), ref in zip(traced, reference)]
    a = tracer.arrays()
    tracer.write(a, Path(req["spans_path"]))
    searches = 3 * len(queries) + len(tracer.durations(a, "engine.search"))

    def total_s(name):
        return float(tracer.durations(a, name).sum())

    def mean_s(name):
        d = tracer.durations(a, name)
        return float(d.mean()) if len(d) else 0.0

    signals_calls = max(len(tracer.durations(a, "build_signals")), 1)
    score_s = sum(total_s(n) for n in tracer.names if n.startswith("score."))
    retrieve = sorted(tracer.durations(a, "retrieve", "phase.search"))
    evals = max(result.evaluations_used, 1)
    layer = {
        "corpus.load_s": total_s("load_corpus"),
        "corpus.social_relations_us": mean_s("social_relations") * 1e6,
        "index.build_s": total_s("build_index"),
        "index.retrieve_p50_us": float(statistics.median(retrieve) * 1e6),
        "index.retrieve_tail_ms": float(tail(retrieve) * 1e3),
        "index.positions_us": mean_s("positions") * 1e6,
        "index.postings_per_query": statistics.fmean(p for _, _, p in traced),
        "intent.detect_us": mean_s("detect") * 1e6,
        "intent.triggered_per_query": statistics.fmean(
            len(r.triggered_intents) for r, _, _ in traced),
        "engine.load_s": total_s("load_engine"),
        "engine.build_signals_us": mean_s("build_signals") * 1e6,
        "engine.candidates_per_query": statistics.fmean(n for _, n, _ in traced),
        "components.score_us": score_s / signals_calls * 1e6,
        "ranker.rank_us": mean_s("rank") * 1e6,
        "evaluation.sgcr_pass_s": mean_s("sgcr_replay"),
        "evaluation.ndcg_pass_s": mean_s("mean_ndcg"),
        "evaluation.bvt_pass_s": mean_s("run_bvts"),
        "evaluation.log_lines_per_search": log_lines / searches,
        "evaluation.bootstrap_s": mean_s("paired_bootstrap_p"),
        "evaluation.bootstrap_peak_mb": max(tracer.peaks_mb.get("paired_bootstrap_p", [0.0])),
        "tuning.evaluations": result.evaluations_used,
        "tuning.eval_s": tune_s / evals,
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
    }
    return {
        "layer": layer,
        "inprocess_latencies_s": plain,
        "pipeline_matches": matches,
        "self_time_by_name": tracer.self_time_by_name(a),
        "tune_results": [{"initial": result.initial_objective, "best": result.best_objective,
                          "evaluations": result.evaluations_used}],
    }


def tail(sorted_values):
    """Highest order statistic with at least ten samples above it (max if fewer)."""
    n = len(sorted_values)
    return sorted_values[n - 11] if n > 10 else sorted_values[-1]


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


# --------------------------------------------------------------------- #
# outputs for the parent's checks


def _export(engine, exp: dict) -> dict:
    from intentrank.evaluation import mean_ndcg, sgcr_replay
    from intentrank.index import retrieve, tokenize
    from intentrank.ranker import export_traces

    out: dict = {"config": engine.ranker_config.to_record(), "retrieve": [], "search": []}
    for text, _ in exp["retrieve"]:
        cands = retrieve(engine.index, tokenize(text), k=engine.retrieval.k,
                         per_shard_k=engine.retrieval.per_shard_k)
        out["retrieve"].append({"q": text, "k": engine.retrieval.k,
                                "cands": [[c.doc_id, c.first_pass_score] for c in cands]})
    for text, user in exp["search"]:
        result = engine.search(text, user)
        traces = {r["doc_id"]: r for r in export_traces(result.ranked)}
        out["search"].append({
            "q": text, "user": user,
            "items": [[i.doc_id, i.score] for i in result.ranked.items],
            "traces": {i.doc_id: traces[i.doc_id] for i in result.ranked.items},
            "filtered": sorted(d for d, r in traces.items() if r["filtered"]),
            "dist": result.detection.distribution.probs,
        })
    lists = [list(engine.rank_for_record(r).doc_ids()) for r in engine.query_log]
    out["sgcr"] = {"value": sgcr_replay(engine.query_log, engine).value, "lists": lists}
    pairs = sorted({(j.query_text, j.user_id) for j in engine.judgments})
    out["ndcg"] = {"value": mean_ndcg(engine, engine.judgments).value,
                   "lists": [[q, u, list(engine.search(q, u).ranked.doc_ids())] for q, u in pairs]}
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
