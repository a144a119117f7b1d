"""Heuristic weight search over ranker configs with quality guardrails.

Coordinate descent over declared weight paths: sweep the parameters in
order, trying every grid point for one parameter while the others stay
fixed, keep the best accepted candidate, and repeat until a full sweep
stops improving. Remaining budget goes to seeded random restarts drawn
without replacement from the grid cross-product; an improving restart gets
its own descent sweeps.

A candidate is rejected outright, whatever its objective, if any intent's
expectation-test pass rate drops more than epsilon below the starting
config's rate. Every evaluation is cached by config fingerprint, so the
search is deterministic and never spends budget twice on one point. One
TableMemo serves the whole search: each distinct query is searched once,
and every evaluation after the first only re-combines cached score tables.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .corpus import QueryRecord, RelevanceJudgment
from .engine import EngineHandle
from .errors import ConfigurationError, IntentRankError
from .evaluation import BVTCase, TableMemo, mean_ndcg, run_bvts, sgcr_replay
from .ranker import RankerConfig
from .records import Field, Table, decode_config, integer, list_of, number, string

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridSpec:
    """Geometric ladder lo, lo*factor, ... capped at hi; or explicit points."""

    lo: float = 0.0
    hi: float = 0.0
    factor: float = 2.0
    points: tuple[float, ...] = ()

    def values(self) -> tuple[float, ...]:
        if self.points:
            if any(p < 0 for p in self.points):
                raise ConfigurationError(f"grid points must be >= 0, got {self.points}")
            return tuple(dict.fromkeys(self.points))  # dedupe, keep order
        if self.lo <= 0:
            raise ConfigurationError(
                "geometric grids need lo > 0; list zero as an explicit point "
                "via 'points' instead"
            )
        if self.hi < self.lo or self.factor <= 1.0:
            raise ConfigurationError(
                f"invalid grid (lo={self.lo}, hi={self.hi}, factor={self.factor})"
            )
        out = []
        value = self.lo
        while value <= self.hi * (1.0 + 1e-12):
            out.append(value)
            value *= self.factor
        return tuple(out)


@dataclass(frozen=True)
class TuneSpec:
    """Free parameters, objective mix, budget, and the guardrail epsilon."""

    free_params: tuple[tuple[str, GridSpec], ...]
    alpha_sgcr: float = 1.0 / 3.0
    beta_ndcg: float = 1.0 / 3.0
    gamma_bvt: float = 1.0 / 3.0
    metric_k: int = 10
    budget: int = 64
    restarts: int = 0
    seed: int = 0
    guardrail_epsilon: float = 0.02

    def __post_init__(self) -> None:
        if not self.free_params:
            raise ConfigurationError("tune spec declares no free parameters")
        if abs(self.alpha_sgcr + self.beta_ndcg + self.gamma_bvt - 1.0) > 1e-9:
            raise ConfigurationError("objective weights must sum to 1")
        if min(self.alpha_sgcr, self.beta_ndcg, self.gamma_bvt) < 0:
            raise ConfigurationError("objective weights must be nonnegative")
        if self.budget < 1:
            raise ConfigurationError("budget must be >= 1")
        for path, grid in self.free_params:
            if not grid.values():
                raise ConfigurationError(f"empty grid for parameter {path!r}")

    @classmethod
    def from_record(cls, rec: Mapping) -> "TuneSpec":
        return decode_config(TUNE_SPEC, rec, "tune spec")


GRID = Table(
    GridSpec,
    Field("lo", number, 0.0), Field("hi", number, 0.0), Field("factor", number, 2.0),
    Field("points", list_of(number), ()),
)

FREE_PARAM = Table(lambda path, grid: (path, grid), Field("path", string), Field("grid", GRID))

OBJECTIVE = Table(
    dict, Field("sgcr", number, 1 / 3), Field("ndcg", number, 1 / 3), Field("bvt", number, 1 / 3))

TUNE_SPEC = Table(
    lambda objective, **fields: TuneSpec(
        alpha_sgcr=objective["sgcr"], beta_ndcg=objective["ndcg"], gamma_bvt=objective["bvt"],
        **fields),
    Field("free_params", list_of(FREE_PARAM)), Field("objective", OBJECTIVE, OBJECTIVE({})),
    Field("metric_k", integer, 10), Field("budget", integer, 64), Field("restarts", integer, 0),
    Field("seed", integer, 0), Field("guardrail_epsilon", number, 0.02),
)


def get_weight(config: RankerConfig, path: str) -> float:
    group, _, key = path.partition(".")
    if group in ("generic_weights", "intent_weights"):
        weights = getattr(config, group)
        if key not in weights:
            raise ConfigurationError(f"weight path {path!r} not present in config")
        return weights[key]
    if group == "trigger_threshold" and not key:
        return config.trigger_threshold
    raise ConfigurationError(f"unknown weight path {path!r}")


def set_weight(config: RankerConfig, path: str, value: float) -> RankerConfig:
    group, _, key = path.partition(".")
    if group == "generic_weights":
        if key not in config.generic_weights:
            raise ConfigurationError(f"weight path {path!r} not present in config")
        weights = dict(config.generic_weights)
        weights[key] = value
        return config.replace(generic_weights=weights)
    if group == "intent_weights":
        if key not in config.intent_weights:
            raise ConfigurationError(f"weight path {path!r} not present in config")
        weights = dict(config.intent_weights)
        weights[key] = value
        return config.replace(intent_weights=weights)
    if group == "trigger_threshold" and not key:
        return config.replace(trigger_threshold=value)
    raise ConfigurationError(f"unknown weight path {path!r}")


@dataclass
class TuneAssets:
    log_records: Sequence[QueryRecord]
    judgments: Sequence[RelevanceJudgment]
    bvt_suite: Sequence[BVTCase]

    @classmethod
    def from_engine(cls, engine: EngineHandle, bvt_suite: Sequence[BVTCase]) -> "TuneAssets":
        return cls(engine.query_log, engine.judgments, bvt_suite)


def objective(
    config: RankerConfig,
    engine: EngineHandle,
    assets: TuneAssets,
    spec: TuneSpec,
    memo: Optional[TableMemo] = None,
) -> tuple[float, dict[str, float]]:
    """Composite offline objective plus the per-intent BVT rates behind it.

    Pass one memo to every call over the same engine so each distinct query
    is searched once; without one, each call makes its own.
    """
    if memo is None:
        memo = TableMemo(engine)
    value = 0.0
    bvt_rates: dict[str, float] = {}
    if spec.alpha_sgcr > 0:
        if not assets.log_records:
            raise IntentRankError("objective needs a query log (sgcr weight > 0)")
        value += spec.alpha_sgcr * sgcr_replay(
            assets.log_records, engine, config, spec.metric_k, memo=memo).value
    if spec.beta_ndcg > 0:
        if not assets.judgments:
            raise IntentRankError("objective needs judgments (ndcg weight > 0)")
        value += spec.beta_ndcg * mean_ndcg(
            engine, assets.judgments, spec.metric_k, config, memo=memo).value
    if spec.gamma_bvt > 0 and not assets.bvt_suite:
        raise IntentRankError("objective needs a BVT suite (bvt weight > 0)")
    if assets.bvt_suite:
        # rates are computed even at gamma 0: the tuner guardrail needs them
        report = run_bvts(assets.bvt_suite, engine, config, memo=memo)
        bvt_rates = report.pass_rate_by_intent()
        value += spec.gamma_bvt * report.pass_rate()
    return value, bvt_rates


@dataclass(frozen=True)
class TuneEvaluation:
    index: int
    params: tuple[tuple[str, float], ...]
    objective: float
    guardrail_ok: bool
    accepted: bool


@dataclass
class TuneResult:
    best_config: RankerConfig
    best_objective: float
    initial_objective: float
    trajectory: list[TuneEvaluation] = field(default_factory=list)
    evaluations_used: int = 0
    guardrail_rejections: int = 0
    incomplete: bool = False

    def to_record(self) -> dict:
        return {
            "best_config": self.best_config.to_record(),
            "best_objective": self.best_objective,
            "initial_objective": self.initial_objective,
            "evaluations_used": self.evaluations_used,
            "guardrail_rejections": self.guardrail_rejections,
            "incomplete": self.incomplete,
            "trajectory": [
                {
                    "index": e.index,
                    "params": dict(e.params),
                    "objective": e.objective,
                    "guardrail_ok": e.guardrail_ok,
                    "accepted": e.accepted,
                }
                for e in self.trajectory
            ],
        }


class _Search:
    def __init__(self, initial: RankerConfig, spec: TuneSpec, engine: EngineHandle,
                 assets: TuneAssets):
        self.spec = spec
        self.engine = engine
        self.assets = assets
        self.memo = TableMemo(engine)  # one table per distinct query for the whole search
        self.paths = [path for path, _ in spec.free_params]
        self.grids = {path: grid.values() for path, grid in spec.free_params}
        self.cache: dict[str, tuple[float, bool]] = {}
        self.trajectory: list[TuneEvaluation] = []
        self.evaluations = 0
        self.rejections = 0
        self.baseline_rates: dict[str, float] = {}
        self.best_config = initial
        self.best_objective = float("-inf")
        self.first_sweep_exhausted = False

    def budget_left(self) -> bool:
        return self.evaluations < self.spec.budget

    def params_of(self, config: RankerConfig) -> tuple[tuple[str, float], ...]:
        return tuple((path, get_weight(config, path)) for path in self.paths)

    def evaluate(self, config: RankerConfig, is_initial: bool = False) -> Optional[tuple[float, bool]]:
        """Objective + guardrail verdict, cached; None once budget is gone."""
        key = config.fingerprint()
        if key in self.cache:
            return self.cache[key]
        if not self.budget_left():
            return None
        self.evaluations += 1
        value, bvt_rates = objective(config, self.engine, self.assets, self.spec, self.memo)
        if is_initial:
            self.baseline_rates = dict(bvt_rates)
        guardrail_ok = all(
            bvt_rates.get(tag, 0.0) >= base - self.spec.guardrail_epsilon
            for tag, base in self.baseline_rates.items()
        )
        if not guardrail_ok:
            self.rejections += 1
        accepted = guardrail_ok and value > self.best_objective
        if accepted:
            self.best_objective = value
            self.best_config = config
        self.trajectory.append(
            TuneEvaluation(self.evaluations, self.params_of(config), value, guardrail_ok, accepted)
        )
        self.cache[key] = (value, guardrail_ok)
        return value, guardrail_ok

    def sweep(self, start: RankerConfig, is_first: bool = False) -> tuple[RankerConfig, bool]:
        """One coordinate-descent pass; returns (config, improved)."""
        current = start
        improved = False
        for path in self.paths:
            best_value = None
            best_config = current
            for point in self.grids[path]:
                candidate = set_weight(current, path, point)
                result = self.evaluate(candidate)
                if result is None:
                    if is_first:
                        self.first_sweep_exhausted = True
                    return best_config, improved
                value, guardrail_ok = result
                if not guardrail_ok:
                    continue
                # strict > keeps the earliest grid point on ties
                if best_value is None or value > best_value:
                    best_value = value
                    best_config = candidate
            if best_value is not None and best_config.fingerprint() != current.fingerprint():
                current = best_config
                improved = True
        return current, improved

    def descend(self, start: RankerConfig, is_first: bool = False) -> RankerConfig:
        current = start
        first_pass = is_first
        while True:
            if not self.budget_left():
                if first_pass:
                    self.first_sweep_exhausted = True
                break
            current, improved = self.sweep(current, is_first=first_pass)
            first_pass = False
            if not improved:
                break
        return current


def tune(
    initial_config: RankerConfig,
    spec: TuneSpec,
    engine: EngineHandle,
    assets: TuneAssets,
) -> TuneResult:
    """Search the weight grids; never returns a config worse than the start."""
    for path, _ in spec.free_params:
        get_weight(initial_config, path)  # fail fast on bad paths

    search = _Search(initial_config, spec, engine, assets)
    initial_eval = search.evaluate(initial_config, is_initial=True)
    assert initial_eval is not None  # budget >= 1 guaranteed by spec
    initial_objective = initial_eval[0]

    search.descend(initial_config, is_first=True)

    if spec.restarts > 0 and search.budget_left():
        cross = list(itertools.product(*(search.grids[p] for p in search.paths)))
        rng = random.Random(spec.seed)
        rng.shuffle(cross)
        tried = 0
        for point in cross:
            if tried >= spec.restarts or not search.budget_left():
                break
            config = initial_config
            for path, value in zip(search.paths, point):
                config = set_weight(config, path, value)
            before = search.best_objective
            result = search.evaluate(config)
            tried += 1
            if result is None:
                break
            if search.best_objective > before:
                # restart found a better basin; descend from it
                search.descend(config)

    return TuneResult(
        best_config=search.best_config,
        best_objective=search.best_objective,
        initial_objective=initial_objective,
        trajectory=search.trajectory,
        evaluations_used=search.evaluations,
        guardrail_rejections=search.rejections,
        incomplete=search.first_sweep_exhausted,
    )
