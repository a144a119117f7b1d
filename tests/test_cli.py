"""CLI behavior: exit codes, determinism, output files, serve mode."""

from __future__ import annotations

import json
import shutil
import threading
from urllib.request import urlopen
from urllib.error import HTTPError

import pytest

from intentrank.cli import build_parser, main, make_server
from intentrank.engine import load_engine


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage_error(self, capsys, demo_dir):
        with pytest.raises(SystemExit) as exc:
            main(["search", "q", "--user", "u_alice",
                  "--config", str(demo_dir / "engine.json"), "--frobnicate"])
        assert exc.value.code == 1

    def test_missing_asset_is_data_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "search", "q", "--user", "u",
                                 "--config", str(tmp_path / "missing.json"))
        assert code == 2
        assert "missing.json" in err

    def test_unknown_user_is_data_error(self, capsys, demo_dir):
        code, out, err = run_cli(capsys, "search", "q", "--user", "u_ghost",
                                 "--config", str(demo_dir / "engine.json"))
        assert code == 2
        assert "u_ghost" in err

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--user", "--k", "--config", "--seed", "--out"):
            assert flag in out

    ALL_COMMANDS = ("ingest", "index", "search", "explain", "intents", "bvt",
                    "train", "abtest", "tune", "synth", "serve")

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_every_command_has_help_with_common_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # `index` only prints stats, so it has no --out
        flags = ("--config", "--seed") if command == "index" else ("--config", "--seed", "--out")
        for flag in flags:
            assert flag in out, f"{command} --help is missing {flag}"

    @pytest.mark.parametrize("command", ALL_COMMANDS)
    def test_unknown_flag_rejected_everywhere(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--no-such-flag"])
        assert exc.value.code == 1


class TestIngest:
    def test_counts_match_manifest(self, capsys, demo_dir):
        code, out, _ = run_cli(capsys, "ingest", "--corpus", str(demo_dir / "corpus"))
        assert code == 0
        manifest = json.loads((demo_dir / "manifest.json").read_text())
        for doc_type, count in manifest["doc_type_counts"].items():
            assert f"{doc_type:>8}  {count}" in out

    def test_rewrite_round_trips(self, capsys, demo_dir, tmp_path):
        out_dir = tmp_path / "copy"
        code, _, _ = run_cli(capsys, "ingest", "--corpus", str(demo_dir / "corpus"),
                             "--out", str(out_dir))
        assert code == 0
        code2, out2, _ = run_cli(capsys, "ingest", "--corpus", str(out_dir))
        assert code2 == 0

    def test_duplicate_doc_id_exits_2(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rec = '{"doc_id": "d1", "doc_type": "post", "title": "x"}\n'
        (corpus / "documents.jsonl").write_text(rec + rec, encoding="utf-8")
        code, _, err = run_cli(capsys, "ingest", "--corpus", str(corpus))
        assert code == 2
        assert "duplicate" in err


class TestInputErrors:
    """A one-field type change to the replay fixture is caught at load, with exit 2."""

    @pytest.mark.parametrize("file, key, value", [
        ("corpus/documents.jsonl", ("title",), 7),
        ("corpus/documents.jsonl", ("doc_id",), 5),
        ("corpus/documents.jsonl", ("quality",), [1]),
        ("corpus/documents.jsonl", ("created_ts",), "x"),
        ("corpus/documents.jsonl", ("languages",), ["en"]),
        ("corpus/documents.jsonl", ("location",), "ab"),
        ("corpus/documents.jsonl", ("quality", "authentic"), "hi"),
        ("engine.json", ("retrieval", "k"), "x"),
        ("engine.json", ("retrieval", "num_shards"), 2.5),
        ("engine.json", ("ranker", "k_final"), "x"),
        ("engine.json", ("ranker", "trigger_threshold"), "x"),
        ("engine.json", ("intent", "link_threshold"), [1]),
        ("engine.json", ("intent", "space"), "abc"),
        ("corpus/users.jsonl", ("languages",), "en"),
        ("query_log.jsonl", ("shown_doc_ids",), "doc001"),
    ])
    def test_one_field_type_change_exits_2_naming_its_place(
            self, capsys, replay_dir, tmp_path, file, key, value):
        root = tmp_path / "fx"
        shutil.copytree(replay_dir, root)
        path = root / file
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        rec = json.loads("".join(lines) if file == "engine.json" else lines[0])
        target = rec
        for part in key[:-1]:
            target = target[part]
        target[key[-1]] = value
        if file == "engine.json":
            path.write_text(json.dumps(rec), encoding="utf-8")
            place = f"engine.json: key '{'.'.join(key)}'"
        else:
            lines[0] = json.dumps(rec) + "\n"
            path.write_text("".join(lines), encoding="utf-8")
            place = f"{path.name}:1: field '{'.'.join(key)}'"
        code, out, err = run_cli(capsys, "search", "subject0 aspect20", "--user", "u0",
                                 "--config", str(root / "engine.json"))
        assert code == 2, err
        assert out == ""
        assert place in err


class TestSearch:
    def test_taylor_swift_demo_mixes_types(self, capsys, demo_dir):
        code, out, _ = run_cli(capsys, "search", "taylor swift", "--user", "u_alice",
                               "--config", str(demo_dir / "engine.json"))
        assert code == 0
        types = {line.split()[3] for line in out.splitlines() if line[:3].strip().isdigit()}
        assert "video" in types and len(types) >= 2  # blended result types

    def test_byte_identical_across_runs(self, capsys, demo_dir):
        args = ("search", "taylor swift", "--user", "u_alice",
                "--config", str(demo_dir / "engine.json"))
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_trace_export(self, capsys, demo_dir, tmp_path):
        out_file = tmp_path / "traces.jsonl"
        code, _, _ = run_cli(capsys, "search", "taylor swift", "--user", "u_alice",
                             "--config", str(demo_dir / "engine.json"),
                             "--out", str(out_file))
        assert code == 0
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert {r["doc_id"] for r in records} >= {"d_vid_shake", "d_post_spam"}
        for rec in records:
            if rec["filtered"] is None:
                total = sum(t[3] for t in rec["generic_terms"]) + sum(
                    t[5] for t in rec["intent_terms"])
                assert abs(total - rec["final_score"]) <= 1e-9


class TestExplain:
    def test_not_retrieved_distinct_from_ranked_low(self, capsys, demo_dir):
        code, out, _ = run_cli(capsys, "explain", "taylor swift", "d_post_bob",
                               "--user", "u_alice",
                               "--config", str(demo_dir / "engine.json"))
        assert code == 2
        assert "not retrieved" in out

    def test_nonexistent_doc(self, capsys, demo_dir):
        code, out, _ = run_cli(capsys, "explain", "taylor swift", "d_nope",
                               "--user", "u_alice",
                               "--config", str(demo_dir / "engine.json"))
        assert code == 2
        assert "does not exist" in out

    def test_filtered_doc_shows_policy(self, capsys, demo_dir):
        code, out, _ = run_cli(capsys, "explain", "taylor swift", "d_post_spam",
                               "--user", "u_alice",
                               "--config", str(demo_dir / "engine.json"))
        assert code == 0
        assert "policy" in out

    def test_scored_doc_matches_golden(self, capsys, demo_dir, request):
        code, out, _ = run_cli(capsys, "explain", "taylor swift", "d_vid_shake",
                               "--user", "u_alice",
                               "--config", str(demo_dir / "engine.json"))
        assert code == 0
        golden = request.path.parent / "data" / "explain_demo_golden.txt"
        assert out == golden.read_text(encoding="utf-8")


class TestIntents:
    def test_avengers_trailers_shows_pattern_intent(self, capsys, demo_dir):
        code, out, _ = run_cli(capsys, "intents", "avengers trailers",
                               "--user", "u_alice",
                               "--config", str(demo_dir / "engine.json"))
        assert code == 0
        assert "P(video_publisher)" in out
        assert "movie=m_avengers" in out
        assert "pattern p_movie_trailers" in out

    def test_friend_query_shows_capture(self, capsys, demo_dir):
        code, out, _ = run_cli(capsys, "intents", "bob stone", "--user", "u_alice",
                               "--config", str(demo_dir / "engine.json"))
        assert code == 0
        assert "friend_target=u_bob" in out


class TestBvtCommand:
    def test_all_pass_exit_zero_and_report(self, capsys, demo_dir, tmp_path):
        report = tmp_path / "report.jsonl"
        code, out, _ = run_cli(capsys, "bvt", "--config", str(demo_dir / "engine.json"),
                               "--out", str(report))
        assert code == 0
        assert "5/5 passed" in out
        assert len(report.read_text().splitlines()) == 5

    def test_failing_suite_exits_2(self, capsys, demo_dir, tmp_path):
        suite = tmp_path / "suite.jsonl"
        suite.write_text(json.dumps({
            "case_id": "c_fail", "query": "taylor swift", "user_id": "u_alice",
            "expectations": ["top1: doc=d_page_5mc"],
        }) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "bvt", "--config", str(demo_dir / "engine.json"),
                               "--suite", str(suite))
        assert code == 2
        assert "FAIL" in out


class TestTrainCommand:
    def test_trains_and_model_loads_back(self, capsys, demo_dir, tmp_path):
        model_path = tmp_path / "model.json"
        code, out, _ = run_cli(capsys, "train", "--config", str(demo_dir / "engine.json"),
                               "--iterations", "50", "--out", str(model_path))
        assert code == 0
        assert "auc" in out
        record = json.loads(model_path.read_text())
        assert set(record) == {"features", "weights", "bias"}
        # an engine config pointing at the trained model must assemble
        config = json.loads((demo_dir / "engine.json").read_text())
        config["corpus_dir"] = str(demo_dir / "corpus")
        for key in ("entities", "dictionaries", "patterns"):
            config["intent"][key] = str(demo_dir / f"{key}.jsonl")
        for key in ("query_log", "judgments", "bvt_suite"):
            config[key] = str(demo_dir / {"query_log": "query_log.jsonl",
                                          "judgments": "judgments.jsonl",
                                          "bvt_suite": "bvts.jsonl"}[key])
        config["engagement_model"] = str(model_path)
        engine_path = tmp_path / "engine.json"
        engine_path.write_text(json.dumps(config), encoding="utf-8")
        engine = load_engine(engine_path)
        scorer = engine.registry.generic["engagement"]
        assert scorer.model.features


class TestAbtestCommand:
    def test_identical_arms_zero_delta(self, capsys, demo_dir, tmp_path):
        weights = tmp_path / "b.json"
        engine = load_engine(demo_dir / "engine.json")
        weights.write_text(json.dumps(engine.ranker_config.to_record()), encoding="utf-8")
        code, out, _ = run_cli(capsys, "abtest", "--config", str(demo_dir / "engine.json"),
                               "--weights-b", str(weights), "--metrics", "sgcr@10,ndcg@10",
                               "--resamples", "500")
        assert code == 0
        assert "delta=+0.000000" in out

    def test_deltas_file(self, capsys, demo_dir, tmp_path):
        engine = load_engine(demo_dir / "engine.json")
        config_b = engine.ranker_config.replace(
            generic_weights={**engine.ranker_config.generic_weights, "language": 2.0})
        weights = tmp_path / "b.json"
        weights.write_text(json.dumps(config_b.to_record()), encoding="utf-8")
        out_path = tmp_path / "deltas.jsonl"
        code, _, _ = run_cli(capsys, "abtest", "--config", str(demo_dir / "engine.json"),
                             "--weights-b", str(weights), "--metrics", "ndcg@10",
                             "--resamples", "200", "--out", str(out_path))
        assert code == 0
        rec = json.loads(out_path.read_text().splitlines()[0])
        assert rec["metric"] == "ndcg@10"


class TestIndexCommand:
    def test_builds_and_prints_stats(self, capsys, demo_dir):
        code, out, _ = run_cli(capsys, "index", "--config", str(demo_dir / "engine.json"))
        assert code == 0
        assert "shards 2  docs 17" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "intentrank" in capsys.readouterr().out


class TestSeededOutputsByteIdentical:
    def test_abtest_output_file_stable(self, capsys, demo_dir, tmp_path):
        engine = load_engine(demo_dir / "engine.json")
        weights = tmp_path / "b.json"
        config_b = engine.ranker_config.replace(
            generic_weights={**engine.ranker_config.generic_weights, "language": 2.0})
        weights.write_text(json.dumps(config_b.to_record()), encoding="utf-8")
        outputs = []
        for name in ("one.jsonl", "two.jsonl"):
            out_path = tmp_path / name
            code, _, _ = run_cli(capsys, "abtest", "--config",
                                 str(demo_dir / "engine.json"),
                                 "--weights-b", str(weights), "--metrics", "ndcg@10",
                                 "--resamples", "300", "--seed", "7",
                                 "--out", str(out_path))
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_tune_output_file_stable(self, capsys, demo_dir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "free_params": [
                {"path": "generic_weights.language", "grid": {"points": [0.25, 1.5]}},
            ],
            "objective": {"sgcr": 1.0, "ndcg": 0.0, "bvt": 0.0},
            "budget": 6, "restarts": 1,
        }), encoding="utf-8")
        outputs = []
        for name in ("r1.json", "r2.json"):
            out_path = tmp_path / name
            code, _, _ = run_cli(capsys, "tune", "--config", str(demo_dir / "engine.json"),
                                 "--spec", str(spec), "--seed", "3",
                                 "--out", str(out_path))
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]


class TestTuneCommand:
    def test_tune_runs_and_writes_result(self, capsys, demo_dir, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "free_params": [
                {"path": "generic_weights.language", "grid": {"points": [0.25, 0.75, 1.5]}},
            ],
            "objective": {"sgcr": 0.5, "ndcg": 0.5, "bvt": 0.0},
            "budget": 10,
        }), encoding="utf-8")
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "tune", "--config", str(demo_dir / "engine.json"),
                               "--spec", str(spec), "--out", str(out_path))
        assert code == 0
        assert "best objective" in out
        record = json.loads(out_path.read_text())
        assert record["best_objective"] >= record["initial_objective"]
        assert record["trajectory"]


    def test_explicit_seed_zero_overrides_spec_seed(self, capsys, demo_dir, tmp_path):
        def run(spec_seed, *flags):
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({
                "free_params": [
                    {"path": "generic_weights.language", "grid": {"points": [0.25, 0.75, 1.5]}},
                    {"path": "generic_weights.social", "grid": {"points": [0.25, 1.0, 2.0]}},
                ],
                "objective": {"sgcr": 0.5, "ndcg": 0.5, "bvt": 0.0},
                "budget": 30, "restarts": 3, "seed": spec_seed,
            }), encoding="utf-8")
            out_path = tmp_path / "result.json"
            code, _, _ = run_cli(capsys, "tune", "--config", str(demo_dir / "engine.json"),
                                 "--spec", str(spec), *flags, "--out", str(out_path))
            assert code == 0
            return out_path.read_bytes()

        spec_seed = run(5)
        assert run(5, "--seed", "0") == run(0) != spec_seed


class TestSynthCommand:
    def test_writes_fixture_with_manifest(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "synth", "--kind", "language",
                               "--out", str(tmp_path / "fx"))
        assert code == 0
        manifest = json.loads((tmp_path / "fx" / "manifest.json").read_text())
        assert manifest["fixture"] == "language_conflict"
        load_engine(tmp_path / "fx" / "engine.json")  # assembles cleanly


class TestServe:
    @pytest.fixture()
    def server(self, demo_dir):
        engine = load_engine(demo_dir / "engine.json")
        server = make_server(engine, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()
        server.server_close()

    def test_search_endpoint(self, server):
        body = urlopen(f"{server}/search?q=taylor+swift&user=u_alice").read().decode()
        assert "d_vid_shake" in body

    def test_explain_endpoint(self, server):
        body = urlopen(
            f"{server}/explain?q=taylor+swift&user=u_alice&doc=d_vid_shake"
        ).read().decode()
        assert "final score" in body

    def test_missing_param_400(self, server):
        with pytest.raises(HTTPError) as exc:
            urlopen(f"{server}/search?q=hi")
        assert exc.value.code == 400

    def test_unknown_path_404(self, server):
        with pytest.raises(HTTPError) as exc:
            urlopen(f"{server}/nope")
        assert exc.value.code == 404

    def test_unknown_user_400(self, server):
        with pytest.raises(HTTPError) as exc:
            urlopen(f"{server}/search?q=hi&user=u_ghost")
        assert exc.value.code == 400


def test_parser_smoke():
    parser = build_parser()
    args = parser.parse_args(["search", "q", "--user", "u", "--config", "c.json"])
    assert args.command == "search" and args.query == "q"
