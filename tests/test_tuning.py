"""Weight search: grids, composite objective, descent, guardrails."""

from __future__ import annotations

import itertools

import pytest

import intentrank.tuning as tuning_mod
from intentrank.engine import load_engine
from intentrank.errors import ConfigurationError, IntentRankError
from intentrank.evaluation import load_bvt_suite, mean_ndcg, run_bvts, sgcr_replay
from intentrank.tuning import (
    GridSpec,
    TuneAssets,
    TuneSpec,
    get_weight,
    objective,
    set_weight,
    tune,
)


class TestGridSpec:
    def test_geometric_ladder(self):
        assert GridSpec(lo=0.5, hi=4.0, factor=2.0).values() == (0.5, 1.0, 2.0, 4.0)

    def test_ladder_stops_at_hi(self):
        assert GridSpec(lo=1.0, hi=5.0, factor=2.0).values() == (1.0, 2.0, 4.0)

    def test_explicit_points_allow_zero(self):
        assert GridSpec(points=(0.0, 0.5, 2.0)).values() == (0.0, 0.5, 2.0)

    def test_zero_lo_needs_points_form(self):
        with pytest.raises(ConfigurationError, match="points"):
            GridSpec(lo=0.0, hi=4.0).values()

    def test_bad_factor(self):
        with pytest.raises(ConfigurationError):
            GridSpec(lo=1.0, hi=4.0, factor=1.0).values()

    def test_negative_point_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(points=(-1.0,)).values()


class TestSpec:
    def grid(self):
        return GridSpec(points=(0.5, 1.0))

    def test_objective_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            TuneSpec(free_params=(("generic_weights.text", self.grid()),),
                     alpha_sgcr=0.5, beta_ndcg=0.5, gamma_bvt=0.5)

    def test_budget_positive(self):
        with pytest.raises(ConfigurationError, match="budget"):
            TuneSpec(free_params=(("generic_weights.text", self.grid()),), budget=0)

    def test_record_round_trip(self):
        spec = TuneSpec.from_record({
            "free_params": [
                {"path": "generic_weights.text", "grid": {"lo": 0.5, "hi": 2.0, "factor": 2.0}},
                {"path": "intent_weights.friend", "grid": {"points": [0.0, 1.0]}},
            ],
            "objective": {"sgcr": 0.5, "ndcg": 0.5, "bvt": 0.0},
            "budget": 30,
            "seed": 4,
        })
        assert spec.free_params[0][1].values() == (0.5, 1.0, 2.0)
        assert spec.free_params[1][1].values() == (0.0, 1.0)
        assert spec.alpha_sgcr == 0.5 and spec.budget == 30 and spec.seed == 4


class TestWeightPaths:
    def test_get_set_generic(self, demo_engine):
        config = demo_engine.ranker_config
        assert get_weight(config, "generic_weights.text") == 1.0
        bumped = set_weight(config, "generic_weights.text", 3.0)
        assert get_weight(bumped, "generic_weights.text") == 3.0
        assert get_weight(config, "generic_weights.text") == 1.0  # original untouched

    def test_get_set_intent_and_threshold(self, demo_engine):
        config = demo_engine.ranker_config
        assert get_weight(config, "intent_weights.friend") == 1.5
        assert get_weight(set_weight(config, "trigger_threshold", 0.2),
                          "trigger_threshold") == 0.2

    def test_set_intent_weight_changes_only_that_weight(self, demo_engine):
        config = demo_engine.ranker_config
        changed = set_weight(config, "intent_weights.friend", 2.0)
        assert changed.intent_weights["friend"] == 2.0
        assert {k: w for k, w in changed.intent_weights.items() if k != "friend"} == {
            k: w for k, w in config.intent_weights.items() if k != "friend"}
        assert changed.generic_weights == config.generic_weights
        assert changed.trigger_threshold == config.trigger_threshold
        assert changed.k_final == config.k_final

    def test_unknown_path_rejected(self, demo_engine):
        with pytest.raises(ConfigurationError, match="weight path"):
            get_weight(demo_engine.ranker_config, "mystery.path")
        with pytest.raises(ConfigurationError, match="not present"):
            set_weight(demo_engine.ranker_config, "generic_weights.ghost", 1.0)


def demo_spec(**kwargs):
    defaults = dict(
        free_params=(("generic_weights.language", GridSpec(points=(0.25, 0.75, 1.5))),),
        alpha_sgcr=1.0 / 3, beta_ndcg=1.0 / 3, gamma_bvt=1.0 / 3,
        budget=40,
    )
    defaults.update(kwargs)
    return TuneSpec(**defaults)


class TestObjective:
    def test_alpha_only_equals_sgcr(self, demo_engine, demo_dir):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        assets = TuneAssets.from_engine(demo_engine, suite)
        spec = demo_spec(alpha_sgcr=1.0, beta_ndcg=0.0, gamma_bvt=0.0)
        value, _ = objective(demo_engine.ranker_config, demo_engine, assets, spec)
        expected = sgcr_replay(demo_engine.query_log, demo_engine,
                               demo_engine.ranker_config, spec.metric_k).value
        assert value == pytest.approx(expected)

    def test_equal_mix_recombines_component_metrics(self, demo_engine, demo_dir):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        assets = TuneAssets.from_engine(demo_engine, suite)
        spec = demo_spec()
        value, rates = objective(demo_engine.ranker_config, demo_engine, assets, spec)
        sgcr = sgcr_replay(demo_engine.query_log, demo_engine, None, 10).value
        ndcg = mean_ndcg(demo_engine, demo_engine.judgments, 10).value
        bvt = run_bvts(suite, demo_engine).pass_rate()
        assert value == pytest.approx((sgcr + ndcg + bvt) / 3)
        assert rates  # per-intent rates exposed for the guardrail

    def test_missing_assets_named(self, demo_engine):
        assets = TuneAssets(log_records=[], judgments=[], bvt_suite=[])
        with pytest.raises(IntentRankError, match="query log"):
            objective(demo_engine.ranker_config, demo_engine, assets,
                      demo_spec(alpha_sgcr=1.0, beta_ndcg=0.0, gamma_bvt=0.0))
        with pytest.raises(IntentRankError, match="judgments"):
            objective(demo_engine.ranker_config, demo_engine, assets,
                      demo_spec(alpha_sgcr=0.0, beta_ndcg=1.0, gamma_bvt=0.0))
        with pytest.raises(IntentRankError, match="BVT suite"):
            objective(demo_engine.ranker_config, demo_engine, assets,
                      demo_spec(alpha_sgcr=0.0, beta_ndcg=0.0, gamma_bvt=1.0))


class TestTune:
    def test_budget_one_returns_initial_flagged_incomplete(self, demo_engine, demo_dir):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        assets = TuneAssets.from_engine(demo_engine, suite)
        result = tune(demo_engine.ranker_config, demo_spec(budget=1), demo_engine, assets)
        assert len(result.trajectory) == 1
        assert result.best_config == demo_engine.ranker_config
        assert result.best_objective == result.initial_objective
        assert result.incomplete is True

    def test_never_regresses(self, demo_engine, demo_dir):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        assets = TuneAssets.from_engine(demo_engine, suite)
        result = tune(demo_engine.ranker_config, demo_spec(), demo_engine, assets)
        assert result.best_objective >= result.initial_objective
        running_max = float("-inf")
        for entry in result.trajectory:
            if entry.accepted:
                running_max = max(running_max, entry.objective)
        assert result.best_objective == pytest.approx(
            max(e.objective for e in result.trajectory if e.guardrail_ok)
        )

    def test_single_weight_recovers_grid_argmax(self, language_dir):
        engine = load_engine(language_dir / "engine.json")
        suite = load_bvt_suite(language_dir / "bvts.jsonl")
        assets = TuneAssets.from_engine(engine, suite)
        grid = GridSpec(points=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0))
        spec = TuneSpec(free_params=(("generic_weights.language", grid),),
                        alpha_sgcr=0.0, beta_ndcg=1.0, gamma_bvt=0.0, budget=20)
        result = tune(engine.ranker_config, spec, engine, assets)
        # brute force: evaluate every grid point, earliest wins ties
        best_value, best_point = None, None
        for point in grid.values():
            candidate = set_weight(engine.ranker_config, "generic_weights.language", point)
            value, _ = objective(candidate, engine, assets, spec)
            if best_value is None or value > best_value:
                best_value, best_point = value, point
        assert get_weight(result.best_config, "generic_weights.language") == best_point
        assert result.best_objective == pytest.approx(best_value)

    def test_intent_weight_recovers_grid_argmax(self, demo_engine, demo_dir):
        """Tuning w_t alone: the configs are built here without set_weight, so
        a set_weight that writes another value cannot also move the answer."""
        assets = TuneAssets.from_engine(demo_engine, load_bvt_suite(demo_dir / "bvts.jsonl"))
        grid = GridSpec(points=(0.0, 0.25, 1.0, 4.0))
        spec = TuneSpec(free_params=(("intent_weights.video_publisher", grid),),
                        budget=20, guardrail_epsilon=1.0)

        def with_weight(point):
            weights = dict(demo_engine.ranker_config.intent_weights, video_publisher=point)
            return demo_engine.ranker_config.replace(intent_weights=weights)

        values = [objective(with_weight(p), demo_engine, assets, spec)[0] for p in grid.values()]
        best = values.index(max(values))  # earliest wins ties
        assert values[0] < values[best]
        result = tune(with_weight(0.0), spec, demo_engine, assets)
        assert result.best_config == with_weight(grid.values()[best])
        assert result.best_objective == values[best]

    def test_guardrail_rejects_objective_improving_candidate(self, guardrail_dir):
        engine = load_engine(guardrail_dir / "engine.json")
        suite = load_bvt_suite(guardrail_dir / "bvts.jsonl")
        assets = TuneAssets.from_engine(engine, suite)
        grid = GridSpec(points=(0.25, 0.5, 1.0, 2.0, 4.0))
        spec = TuneSpec(free_params=(("generic_weights.clickbait_model", grid),),
                        alpha_sgcr=0.0, beta_ndcg=1.0, gamma_bvt=0.0,
                        budget=20, guardrail_epsilon=0.0)
        result = tune(engine.ranker_config, spec, engine, assets)
        assert result.guardrail_rejections >= 1
        # the rejected candidates do beat the accepted objective
        best_rejected = max(
            (e.objective for e in result.trajectory if not e.guardrail_ok), default=None
        )
        assert best_rejected is not None and best_rejected > result.best_objective
        # accepted config still satisfies the guardrail on re-check
        rates = run_bvts(suite, engine, result.best_config).pass_rate_by_intent()
        baseline = run_bvts(suite, engine, engine.ranker_config).pass_rate_by_intent()
        for tag, base in baseline.items():
            assert rates.get(tag, 0.0) >= base - spec.guardrail_epsilon

    def test_exhaustive_restarts_find_global_argmax(self, guardrail_dir):
        engine = load_engine(guardrail_dir / "engine.json")
        suite = load_bvt_suite(guardrail_dir / "bvts.jsonl")
        assets = TuneAssets.from_engine(engine, suite)
        grids = {
            "generic_weights.text": GridSpec(points=(0.5, 1.0)),
            "generic_weights.social": GridSpec(points=(0.5, 1.0, 2.0)),
        }
        spec = TuneSpec(
            free_params=tuple(grids.items()),
            alpha_sgcr=0.0, beta_ndcg=1.0, gamma_bvt=0.0,
            budget=50, restarts=6, seed=11, guardrail_epsilon=1.0,
        )
        result = tune(engine.ranker_config, spec, engine, assets)
        best = None
        for combo in itertools.product(*(g.values() for g in grids.values())):
            candidate = engine.ranker_config
            for path, value in zip(grids, combo):
                candidate = set_weight(candidate, path, value)
            value, _ = objective(candidate, engine, assets, spec)
            best = value if best is None else max(best, value)
        assert result.best_objective == pytest.approx(best)

    def test_deterministic_under_seed(self, demo_engine, demo_dir):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        assets = TuneAssets.from_engine(demo_engine, suite)
        spec = demo_spec(restarts=2, seed=3)
        first = tune(demo_engine.ranker_config, spec, demo_engine, assets)
        second = tune(demo_engine.ranker_config, spec, demo_engine, assets)
        assert first.to_record() == second.to_record()

    def test_bad_free_param_fails_fast(self, demo_engine, demo_dir):
        suite = load_bvt_suite(demo_dir / "bvts.jsonl")
        assets = TuneAssets.from_engine(demo_engine, suite)
        spec = demo_spec(free_params=(("generic_weights.ghost", GridSpec(points=(1.0,))),))
        with pytest.raises(ConfigurationError, match="not present"):
            tune(demo_engine.ranker_config, spec, demo_engine, assets)


class TestSearchBudgetAndRestarts:
    """The search itself, on a made-up objective over a 3 x 3 grid.

    From the start (1, 1), every move along one axis scores 0.1, so
    coordinate descent stops at the local maximum 0.5 after five
    evaluations. Every point off both axes of the start beats it and climbs
    towards (3, 3): a restart that lands there finds a better basin.
    """

    PATHS = ("generic_weights.text", "generic_weights.social")

    @staticmethod
    def value(a: float, b: float) -> float:
        if a == b == 1.0:
            return 0.5
        if a == 1.0 or b == 1.0:
            return 0.1
        return 0.5 + (a + b) / 100

    def run(self, demo_engine, monkeypatch, **spec):
        grid = GridSpec(points=(1.0, 2.0, 3.0))
        evaluated = []

        def made_up(config, engine, assets, spec, memo=None):
            point = tuple(get_weight(config, path) for path in self.PATHS)
            evaluated.append(point)
            return self.value(*point), {}

        monkeypatch.setattr(tuning_mod, "objective", made_up)
        start = demo_engine.ranker_config.replace(
            generic_weights=dict(demo_engine.ranker_config.generic_weights, text=1.0, social=1.0))
        spec = TuneSpec(free_params=tuple((path, grid) for path in self.PATHS), **spec)
        result = tune(start, spec, demo_engine, TuneAssets([], [], []))
        best = tuple(get_weight(result.best_config, path) for path in self.PATHS)
        return result, evaluated, best

    def test_descent_alone_stops_at_the_local_maximum(self, demo_engine, monkeypatch):
        result, evaluated, best = self.run(demo_engine, monkeypatch, budget=50)
        assert (best, result.best_objective, result.incomplete) == ((1.0, 1.0), 0.5, False)
        assert len(evaluated) == result.evaluations_used == 5

    def test_budget_runs_out_inside_the_first_sweep(self, demo_engine, monkeypatch):
        result, evaluated, _ = self.run(demo_engine, monkeypatch, budget=3, restarts=4)
        # the start, then (2, 1) and (3, 1); the sweep stops at (1, 2)
        assert evaluated == [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]
        assert result.evaluations_used == 3 and result.incomplete is True

    def test_restart_finds_a_better_basin_and_descends(self, demo_engine, monkeypatch):
        # seed 8 draws (2, 2) first; the descent from there reaches (3, 3)
        result, evaluated, best = self.run(demo_engine, monkeypatch, budget=50, restarts=1,
                                           seed=8)
        assert evaluated[5] == (2.0, 2.0)
        assert best == (3.0, 3.0) and result.best_objective == self.value(3.0, 3.0)
        assert result.incomplete is False

    def test_budget_runs_out_inside_the_restarts(self, demo_engine, monkeypatch):
        # one evaluation after the first descent: the restart, then nothing
        result, evaluated, best = self.run(demo_engine, monkeypatch, budget=6, restarts=9,
                                           seed=8)
        assert evaluated[5:] == [(2.0, 2.0)] and result.evaluations_used == 6
        assert best == (2.0, 2.0)
        # the first sweep did finish
        assert result.incomplete is False

