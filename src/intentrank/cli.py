"""Operator command line: ingest, index, search, explain, evaluate, tune.

Every command takes --config (engine config path) and --seed, and every
command but `index` takes --out where meaningful; outputs are
line-delimited records or plain text and are byte-identical across runs
for fixed inputs. Exit codes: 0 success, 1 usage error, 2 data or
configuration error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

from . import __version__
from .components.engagement import TrainParams, save_model
from .corpus import load_corpus, save_corpus
from .engine import EngineHandle, load_engine
from .errors import IntentRankError
from .evaluation import ab_compare, load_bvt_suite, run_bvts, save_bvt_report
from .index import tokenize
from .ranker import RANKER_WEIGHTS, RankerConfig, explain, export_traces
from .records import read_config, write_records
from .synth import FIXTURE_BUILDERS, write_fixture
from .tuning import TUNE_SPEC, TuneAssets, tune

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

#: `serve` answers a longer `q` with 400 before any search work, since a
#: search's cost grows with the query's terms
MAX_QUERY_CHARS = 256
MAX_QUERY_TERMS = 32


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the documented code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required,
                        help="engine config JSON path")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed where applicable")
    parser.add_argument("--out", default=None, help="output file or directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="intentrank",
                     description="intent-mixture search ranking engine")
    parser.add_argument("--version", action="version", version=f"intentrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="load and validate a corpus directory")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="unused; accepted for uniformity")
    p.add_argument("--out", default=None, help="rewrite the corpus canonically here")

    p = sub.add_parser("index", help="build the sharded index and print its stats")
    p.add_argument("--config", required=True, help="engine config JSON path")
    p.add_argument("--seed", type=int, default=0, help="RNG seed where applicable")

    p = sub.add_parser("search", help="run one query end to end")
    p.add_argument("query")
    p.add_argument("--user", required=True, help="searcher user_id")
    p.add_argument("--k", type=int, default=None, help="result list size override")
    _add_common(p)

    p = sub.add_parser("explain", help="show the score trace for one document")
    p.add_argument("query")
    p.add_argument("doc_id")
    p.add_argument("--user", required=True)
    _add_common(p)

    p = sub.add_parser("intents", help="show the detected intent distribution")
    p.add_argument("query")
    p.add_argument("--user", required=True)
    _add_common(p)

    p = sub.add_parser("bvt", help="run the expectation-test suite")
    p.add_argument("--suite", default=None, help="suite path (default: engine config)")
    _add_common(p)

    p = sub.add_parser("train", help="train the engagement model from the query log")
    p.add_argument("--features", default=None, help="comma-separated feature names")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--learning-rate", type=float, default=1.0)
    _add_common(p)

    p = sub.add_parser("abtest", help="compare two ranker weight files")
    p.add_argument("--weights-a", default=None, help="arm A weights JSON (default: engine)")
    p.add_argument("--weights-b", required=True, help="arm B weights JSON")
    p.add_argument("--metrics", default="sgcr@10,ndcg@10")
    p.add_argument("--resamples", type=int, default=10_000)
    _add_common(p)

    p = sub.add_parser("tune", help="heuristic weight search with guardrails")
    p.add_argument("--spec", required=True, help="tune spec JSON path")
    _add_common(p)
    p.set_defaults(seed=None)  # no flag keeps the spec's seed; --seed 0 overrides it

    p = sub.add_parser("synth", help="generate a synthetic fixture directory")
    p.add_argument("--kind", required=True, choices=sorted(FIXTURE_BUILDERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="unused; accepted for uniformity")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("serve", help="minimal query endpoint over the engine")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    _add_common(p)
    return parser


# --------------------------------------------------------------------- #
# command bodies


def cmd_ingest(args) -> int:
    corpus = load_corpus(args.corpus)
    for doc_type, count in corpus.doc_type_counts().items():
        print(f"{doc_type:>8}  {count}")
    print(f"documents {len(corpus.documents)}  users {len(corpus.users)}  "
          f"edges {corpus.graph.edge_count()}")
    if args.out:
        save_corpus(corpus, args.out)
        print(f"rewrote corpus to {args.out}")
    return EXIT_OK


def cmd_index(args) -> int:
    engine = load_engine(args.config)
    print(f"shards {engine.index.num_shards}  docs {engine.index.stats.n_docs}  "
          f"terms {len(engine.index.stats.df)}  avgdl {engine.index.stats.avgdl:.3f}")
    return EXIT_OK


def _render_ranked(engine: EngineHandle, result) -> str:
    lines = [
        f"# query={result.ranked.query_id!r} config={result.ranked.config_fingerprint} "
        f"candidates={len(result.frame)}"
    ]
    for pos, item in enumerate(result.ranked.items, start=1):
        doc = engine.corpus.documents[item.doc_id]
        lines.append(f"{pos:>3}  {item.doc_id:<16} {item.score:>14.9f}  "
                     f"{doc.doc_type:<6} {doc.title}")
    if not result.ranked.items:
        lines.append("(no results)")
    return "\n".join(lines)


def cmd_search(args) -> int:
    engine = load_engine(args.config)
    result = engine.search(args.query, args.user, k=args.k)
    print(_render_ranked(engine, result))
    if args.out:
        write_records(args.out, export_traces(result.ranked))
        print(f"# traces written to {args.out}")
    return EXIT_OK


def cmd_explain(args) -> int:
    engine = load_engine(args.config)
    result = engine.search(args.query, args.user)
    if args.doc_id not in result.ranked.traces:
        if args.doc_id in engine.corpus.documents:
            print(f"doc {args.doc_id} was not retrieved for query {args.query!r} "
                  f"(matched none of the candidate set)")
        else:
            print(f"doc {args.doc_id} does not exist in the corpus")
        return EXIT_DATA
    print(explain(result.ranked, args.doc_id), end="")
    return EXIT_OK


def cmd_intents(args) -> int:
    engine = load_engine(args.config)
    ctx = engine.context_for(args.query, args.user)
    from .intent.detect import detect

    detection = detect(ctx, engine.intent_config)
    print(f"# query={args.query!r} user={args.user}")
    for intent_id, p in detection.distribution.items():
        if p > 0:
            print(f"P({intent_id}) = {p:.6f}")
    for intent_id, items in detection.evidence.items():
        for item in items:
            print(f"evidence {intent_id}: {item.source}={item.source_id} value={item.value:.6f}")
    for pattern, match, value in detection.pattern_matches:
        captures = " ".join(f"{k}={v}" for k, v in sorted(match.captures.items()))
        print(f"pattern {pattern.pattern_id} -> {pattern.target_intent} "
              f"value={value:.6f} captures: {captures}")
    for span in detection.linked_entities:
        print(f"entity {span.entity_id} type={span.entity_type} "
              f"span=[{span.start},{span.end}) score={span.score:.6f}")
    if detection.friend_target:
        print(f"capture friend_target={detection.friend_target}")
    if detection.publisher_entity:
        print(f"capture publisher_entity={detection.publisher_entity}")
    if detection.grammar:
        g = detection.grammar
        print(f"capture grammar: type={g.doc_type} self_seen={g.self_seen} window={g.window}")
    return EXIT_OK


def cmd_bvt(args) -> int:
    engine = load_engine(args.config)
    suite_path = Path(args.suite) if args.suite else engine.bvt_suite_path
    if suite_path is None:
        print("no BVT suite configured; pass --suite or set bvt_suite in the engine config",
              file=sys.stderr)
        return EXIT_DATA
    suite = load_bvt_suite(suite_path)
    report = run_bvts(suite, engine)
    print(report.summary())
    if args.out:
        save_bvt_report(report, args.out)
        print(f"report written to {args.out}")
    return EXIT_OK if report.passes == report.total else EXIT_DATA


def cmd_train(args) -> int:
    engine = load_engine(args.config)
    if not engine.query_log:
        print("engine config has no query_log; training needs one", file=sys.stderr)
        return EXIT_DATA
    features = None
    if args.features:
        features = tuple(name.strip() for name in args.features.split(",") if name.strip())
    params = TrainParams(learning_rate=args.learning_rate, iterations=args.iterations)
    if features:
        model, report = engine.train_engagement_model(feature_names=features, params=params)
    else:
        model, report = engine.train_engagement_model(params=params)
    print(f"examples {report.n_examples}  positives {report.n_positive}  "
          f"loss {report.final_loss:.6f}  auc {report.train_auc:.6f}")
    if args.out:
        save_model(model, args.out)
        print(f"model written to {args.out}")
    return EXIT_OK


def _load_weights(path: str | None, engine: EngineHandle) -> RankerConfig:
    return engine.ranker_config if path is None else read_config(path, RANKER_WEIGHTS)


def cmd_abtest(args) -> int:
    engine = load_engine(args.config)
    config_a = _load_weights(args.weights_a, engine)
    config_b = _load_weights(args.weights_b, engine)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    suite = load_bvt_suite(engine.bvt_suite_path) if engine.bvt_suite_path else []
    report = ab_compare(
        engine, config_a, config_b, engine.query_log, engine.judgments,
        bvt_suite=suite, metrics=metrics, n_resamples=args.resamples, seed=args.seed,
    )
    print(report.summary())
    if args.out:
        write_records(args.out, (d.to_record() for d in report.deltas))
        print(f"deltas written to {args.out}")
    return EXIT_OK


def cmd_tune(args) -> int:
    engine = load_engine(args.config)
    spec = read_config(args.spec, TUNE_SPEC)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    suite = load_bvt_suite(engine.bvt_suite_path) if engine.bvt_suite_path else []
    assets = TuneAssets.from_engine(engine, suite)
    result = tune(engine.ranker_config, spec, engine, assets)
    print(f"initial objective {result.initial_objective:.6f}")
    print(f"best objective    {result.best_objective:.6f}")
    print(f"evaluations {result.evaluations_used}  "
          f"guardrail rejections {result.guardrail_rejections}  "
          f"incomplete {str(result.incomplete).lower()}")
    for path in sorted({p for e in result.trajectory for p, _ in e.params}):
        from .tuning import get_weight

        print(f"best {path} = {get_weight(result.best_config, path):g}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(result.to_record(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"result written to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    builder = FIXTURE_BUILDERS[args.kind]
    fixture = builder()
    config_path = write_fixture(fixture, args.out)
    print(f"fixture {args.kind!r} written; engine config at {config_path}")
    return EXIT_OK


class _Handler(BaseHTTPRequestHandler):
    engine: EngineHandle = None  # set by cmd_serve

    def log_message(self, fmt, *args):  # silence default stderr chatter
        pass

    def _send(self, status: int, text: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        url = urlparse(self.path)
        params = {k: v[0] for k, v in parse_qs(url.query, keep_blank_values=True).items()}
        try:
            if url.path == "/search":
                result = self.engine.search(_query(params), _param(params, "user"))
                self._send(200, _render_ranked(self.engine, result) + "\n")
            elif url.path == "/explain":
                result = self.engine.search(_query(params), _param(params, "user"))
                self._send(200, explain(result.ranked, _param(params, "doc")))
            else:
                self._send(404, f"unknown path {url.path}\n")
        except KeyError as exc:
            self._send(400, f"missing query parameter {exc}\n")
        except IntentRankError as exc:
            self._send(400, f"error: {exc}\n")
        except Exception as exc:  # the server keeps serving; the client learns it failed
            print(f"internal error: {url.path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self._send(500, "internal error\n")


def _param(params: dict, name: str) -> str:
    value = params[name]
    if not value:
        raise IntentRankError(f"empty query parameter {name!r}")
    return value


def _query(params: dict) -> str:
    text = _param(params, "q")
    if len(text) > MAX_QUERY_CHARS or len(tokenize(text)) > MAX_QUERY_TERMS:
        raise IntentRankError(f"query too long: at most {MAX_QUERY_CHARS} characters "
                              f"and {MAX_QUERY_TERMS} terms")
    return text


def make_server(engine: EngineHandle, host: str, port: int) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"engine": engine})
    return ThreadingHTTPServer((host, port), handler)


def cmd_serve(args) -> int:
    engine = load_engine(args.config)
    server = make_server(engine, args.host, args.port)
    print(f"serving on http://{args.host}:{server.server_address[1]}  "
          f"(GET /search?q=&user=  GET /explain?q=&user=&doc=)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


COMMANDS = {
    "ingest": cmd_ingest,
    "index": cmd_index,
    "search": cmd_search,
    "explain": cmd_explain,
    "intents": cmd_intents,
    "bvt": cmd_bvt,
    "train": cmd_train,
    "abtest": cmd_abtest,
    "tune": cmd_tune,
    "synth": cmd_synth,
    "serve": cmd_serve,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (IntentRankError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
