"""Expectation tests, graded metrics vs enumeration oracles, replay, A/B."""

from __future__ import annotations

import random

import pytest

from oracles import err_oracle, ndcg_oracle, paired_bootstrap_p_oneshot

from intentrank import evaluation
from intentrank.corpus import QueryRecord
from intentrank.errors import IntentRankError, RecordParseError
from intentrank.evaluation import (
    BVTCase,
    ab_compare,
    err_at_k,
    group_judgments,
    load_bvt_suite,
    mean_ndcg,
    ndcg_at_k,
    paired_bootstrap_p,
    parse_expectation,
    run_bvts,
    save_bvt_report,
    sgcr_replay,
)
from intentrank.records import write_records


class TestExpectationParsing:
    def test_top1_predicate(self):
        exp = parse_expectation("top1: relation=friend type=user")
        assert exp.kind == "top1"
        assert exp.predicate == (("relation", "friend"), ("type", "user"))

    def test_doc_at_rank(self):
        exp = parse_expectation("doc@rank: d42 <= 3")
        assert (exp.kind, exp.doc_id, exp.limit) == ("doc_at_rank", "d42", 3)

    def test_topk(self):
        exp = parse_expectation("topk: d42 10")
        assert (exp.kind, exp.doc_id, exp.limit) == ("contains_in_topk", "d42", 10)

    def test_excludes(self):
        exp = parse_expectation("excludes: d7")
        assert (exp.kind, exp.doc_id) == ("excludes", "d7")

    def test_before(self):
        exp = parse_expectation("before: d1 d2")
        assert (exp.kind, exp.doc_id, exp.other_doc_id) == ("ordered_pair", "d1", "d2")

    @pytest.mark.parametrize("bad", [
        "top1:",
        "top1: mystery=x",
        "doc@rank: d42 < 3",
        "doc@rank: d42 <= 0",
        "topk: d42",
        "before: d1",
        "somekind: x",
    ])
    def test_bad_syntax_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_expectation(bad)

    def test_case_requires_expectations(self):
        with pytest.raises(ValueError, match="no expectations"):
            BVTCase(case_id="c", query_text="q", user_id="u", expectations=())

    def test_suite_loader_reports_case_id(self, tmp_path):
        write_records(tmp_path / "suite.jsonl", [{
            "case_id": "c_bad", "query": "q", "user_id": "u",
            "expectations": ["doc@rank: d1 < 1"],
        }])
        with pytest.raises(RecordParseError, match="c_bad"):
            load_bvt_suite(tmp_path / "suite.jsonl")


class TestRunBvts:
    def test_demo_suite_passes(self, demo_engine, demo_dir):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        report = run_bvts(suite, demo_engine)
        assert report.pass_rate() == 1.0
        assert report.pass_rate_by_intent()["friend"] == 1.0

    def test_unknown_user_marks_error_not_fail(self, demo_engine):
        case = BVTCase(case_id="c1", query_text="bob stone", user_id="u_ghost",
                       expectations=(parse_expectation("excludes: d_nothing"),))
        report = run_bvts([case], demo_engine)
        assert report.results[0].status == "error"
        assert report.pass_rate() == 0.0

    def test_order_independence(self, demo_engine, demo_dir):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        report_fwd = run_bvts(suite, demo_engine)
        report_rev = run_bvts(list(reversed(suite)), demo_engine)
        assert [r.to_record() for r in report_fwd.results] == [
            r.to_record() for r in report_rev.results
        ]

    def test_failure_records_first_expectation_and_excerpt(self, demo_engine):
        case = BVTCase(
            case_id="c_fail", query_text="taylor swift", user_id="u_alice",
            expectations=(parse_expectation("top1: doc=d_page_5mc"),
                          parse_expectation("excludes: d_vid_shake")),
        )
        report = run_bvts([case], demo_engine)
        result = report.results[0]
        assert result.status == "fail"
        assert result.failed_expectation == "top1: doc=d_page_5mc"
        assert result.excerpt  # offending head of the ranked list
        assert "d_vid_shake" in dict(result.excerpt)

    def test_report_file_round_trip(self, demo_engine, demo_dir, tmp_path):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        report = run_bvts(suite, demo_engine)
        save_bvt_report(report, tmp_path / "report.jsonl")
        assert (tmp_path / "report.jsonl").read_text().count("\n") == len(suite)

    def test_policy_excluded_doc_passes_excludes(self, demo_engine):
        case = BVTCase(case_id="c_p", query_text="taylor swift", user_id="u_alice",
                       expectations=(parse_expectation("excludes: d_post_spam"),))
        assert run_bvts([case], demo_engine).results[0].status == "pass"


class TestNdcg:
    def test_ideal_ordering_scores_one(self):
        grades = {"a": 4, "b": 2, "c": 1}
        assert ndcg_at_k(["a", "b", "c"], grades, 10) == pytest.approx(1.0)

    def test_all_retrieved_zero_grade(self):
        grades = {"good": 3, "z1": 0, "z2": 0}
        assert ndcg_at_k(["z1", "z2"], grades, 10) == pytest.approx(0.0)

    def test_undefined_without_positive_judgments(self):
        assert ndcg_at_k(["a"], {"a": 0}, 10) is None

    def test_matches_permutation_oracle_on_small_instances(self):
        rng = random.Random(31)
        for trial in range(300):
            n = rng.randint(1, 5)
            docs = [f"d{i}" for i in range(n)]
            grades = {d: rng.randint(0, 4) for d in docs}
            extra_judged = {f"x{i}": rng.randint(0, 4) for i in range(rng.randint(0, 2))}
            grades.update(extra_judged)
            ranking = rng.sample(docs, k=n)
            k = rng.randint(1, 6)
            expected = ndcg_oracle(ranking, grades, k)
            got = ndcg_at_k(ranking, grades, k)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12), f"trial {trial}"


class TestErr:
    def test_single_perfect_at_rank_one(self):
        assert err_at_k(["a"], {"a": 4}, 10) == pytest.approx(15.0 / 16.0)

    def test_all_retrieved_zero(self):
        assert err_at_k(["z"], {"z": 0, "good": 2}, 10) == pytest.approx(0.0)

    def test_undefined_without_positive_judgments(self):
        assert err_at_k(["a"], {"a": 0}, 10) is None

    def test_matches_stop_enumeration_oracle(self):
        rng = random.Random(37)
        for trial in range(300):
            n = rng.randint(1, 4)
            docs = [f"d{i}" for i in range(n)]
            grades = {d: rng.randint(0, 4) for d in docs}
            grades["elsewhere"] = 4  # keeps the metric defined
            ranking = rng.sample(docs, k=n)
            k = rng.randint(1, 5)
            got = err_at_k(ranking, grades, k)
            assert got == pytest.approx(err_oracle(ranking, grades, k), abs=1e-12), (
                f"trial {trial}"
            )

    def test_bounded_by_one(self):
        rng = random.Random(41)
        for _ in range(100):
            docs = [f"d{i}" for i in range(4)]
            grades = {d: rng.randint(0, 4) for d in docs}
            value = err_at_k(docs, grades, 4)
            if value is not None:
                assert 0.0 <= value <= 1.0


class TestSgcrReplay:
    def test_unindexed_good_docs_score_zero(self, demo_engine):
        log = [QueryRecord("taylor swift", "u_alice", shown_doc_ids=("ghost",),
                           clicked=frozenset({"ghost"}), good_clicked=frozenset({"ghost"}))]
        assert sgcr_replay(log, demo_engine, k=10).value == 0.0

    def test_good_doc_at_top_scores_one(self, demo_engine):
        log = [QueryRecord("taylor swift", "u_alice", shown_doc_ids=("d_vid_shake",),
                           clicked=frozenset({"d_vid_shake"}),
                           good_clicked=frozenset({"d_vid_shake"}))]
        assert sgcr_replay(log, demo_engine, k=10).value == 1.0

    def test_empty_log_rejected(self, demo_engine):
        with pytest.raises(IntentRankError, match="nonempty"):
            sgcr_replay([], demo_engine)

    def test_monotone_in_good_click_coverage(self, demo_engine):
        # marking an already-ranked doc as good-clicked can only raise the rate
        base_log = demo_engine.query_log
        value_before = sgcr_replay(base_log, demo_engine, k=10).value
        enriched = []
        for rec in base_log:
            ranked = demo_engine.search(rec.query_text, rec.user_id,
                                        suggestion=rec.suggestion_click).ranked
            top = ranked.doc_ids()[:10]
            extra = next((d for d in top if d in rec.shown_doc_ids), None)
            if extra is None:
                enriched.append(rec)
                continue
            enriched.append(QueryRecord(
                query_text=rec.query_text, user_id=rec.user_id, ts=rec.ts,
                shown_doc_ids=rec.shown_doc_ids,
                clicked=rec.clicked | {extra},
                good_clicked=rec.good_clicked | {extra},
                suggestion_click=rec.suggestion_click,
            ))
        value_after = sgcr_replay(enriched, demo_engine, k=10).value
        assert value_after >= value_before
        assert 0.0 <= value_after <= 1.0

    def test_matches_independent_replay_loop(self, demo_engine):
        log = demo_engine.query_log
        result = sgcr_replay(log, demo_engine, k=5)
        good = 0
        for rec in log:  # replay by hand
            ranked = demo_engine.search(rec.query_text, rec.user_id,
                                        suggestion=rec.suggestion_click).ranked
            if rec.good_clicked & set(ranked.doc_ids()[:5]):
                good += 1
        assert result.value == pytest.approx(good / len(log))
        assert result.query_count == len(log)
        assert 0.0 <= result.value <= 1.0


class TestBootstrap:
    def test_identical_arms_p_one(self):
        values = [0.5, 0.7, 0.2, 0.9] * 25
        assert paired_bootstrap_p(values, values, 2000, seed=1) == 1.0

    def test_consistent_positive_effect_significant(self):
        rng = random.Random(5)
        a = [rng.random() * 0.5 for _ in range(200)]
        b = [v + 0.2 + rng.random() * 0.05 for v in a]
        assert paired_bootstrap_p(a, b, 2000, seed=1) < 0.05

    def test_deterministic_under_seed(self):
        rng = random.Random(6)
        a = [rng.random() for _ in range(50)]
        b = [v + rng.gauss(0.01, 0.05) for v in a]
        p1 = paired_bootstrap_p(a, b, 5000, seed=9)
        p2 = paired_bootstrap_p(a, b, 5000, seed=9)
        assert p1 == p2

    @pytest.mark.parametrize("chunk", [1, 64, 1000, evaluation.BOOTSTRAP_CHUNK])
    def test_chunked_draws_match_one_shot(self, monkeypatch, chunk):
        monkeypatch.setattr(evaluation, "BOOTSTRAP_CHUNK", chunk)
        for seed in range(4):
            rng = random.Random(seed)
            for n, resamples in ((1, 37), (7, 1001), (300, 333), (2000, 1001)):
                # 0/1 outcomes, as sgcr gives, put many resample means exactly at 0
                a = [float(rng.random() < 0.5) for _ in range(n)]
                b = [float(rng.random() < 0.55) for _ in range(n)]
                assert paired_bootstrap_p(a, b, resamples, seed) == \
                    paired_bootstrap_p_oneshot(a, b, resamples, seed)


class TestAbCompare:
    def test_identical_configs_zero_deltas(self, demo_engine, demo_dir):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        report = ab_compare(
            demo_engine, demo_engine.ranker_config, demo_engine.ranker_config,
            demo_engine.query_log, demo_engine.judgments, suite,
            metrics=("sgcr@10", "ndcg@10"), n_resamples=2000, seed=0,
        )
        for delta in report.deltas:
            assert delta.delta == 0.0
            assert delta.p_value >= 0.9
        assert report.bvt_rate_a == report.bvt_rate_b

    def test_swapped_arms_negate_deltas(self, demo_engine):
        config_a = demo_engine.ranker_config
        config_b = config_a.replace(
            generic_weights={k: (v * 2 if k == "language" else v)
                             for k, v in config_a.generic_weights.items()}
        )
        fwd = ab_compare(demo_engine, config_a, config_b, demo_engine.query_log,
                         demo_engine.judgments, metrics=("ndcg@10",), n_resamples=500)
        rev = ab_compare(demo_engine, config_b, config_a, demo_engine.query_log,
                         demo_engine.judgments, metrics=("ndcg@10",), n_resamples=500)
        assert fwd.deltas[0].delta == pytest.approx(-rev.deltas[0].delta, abs=1e-15)

    def test_empty_log_rejected(self, demo_engine):
        with pytest.raises(IntentRankError):
            ab_compare(demo_engine, demo_engine.ranker_config, demo_engine.ranker_config,
                       [], [], metrics=("sgcr@10",))

    def test_unknown_metric_rejected(self, demo_engine):
        with pytest.raises(IntentRankError, match="unknown metric"):
            ab_compare(demo_engine, demo_engine.ranker_config, demo_engine.ranker_config,
                       demo_engine.query_log, [], metrics=("mrr@10",))


def test_group_judgments(demo_engine):
    grouped = group_judgments(demo_engine.judgments)
    assert grouped[("taylor swift", "u_alice")]["d_vid_shake"] == 4
    assert len(grouped) == 3


def test_mean_ndcg_counts_and_exclusions(demo_engine):
    result = mean_ndcg(demo_engine, demo_engine.judgments, k=10)
    assert result.query_count == 3
    assert result.excluded == 0
    assert 0.0 <= result.value <= 1.0
