"""Score combination, ranking, traces, and trigger monitoring.

The final relevance of a document is

    F = sum_c w_c * sigma_c   +   sum_t P(t|q) * w_t * sigma_t

where c ranges over generic components and t over intents whose probability
clears the trigger threshold. The score is linear in the weights and every
sigma is fixed per query, so ranking is split in two: `frame_table` runs
each component once per query, as one column over the query's
CandidateFrame, into a config-independent ScoreTable, and `combine` applies
one RankerConfig to it (gate, weighted sum, sort). Serving does both once;
tuning and A/B build a table once per distinct query and combine it under
every config they try. `build_table` builds the same table from
per-candidate signals, one `score` call per candidate: the reference path.
The tests check the split against a per-document reference evaluator and
against the expanded mixture form sum_t P(t|q) * (generic sum + w_t *
sigma_t), which must agree whenever the threshold is zero.

Every scored document carries a full trace of its weighted contributions,
which is what makes ranking behavior inspectable after the fact.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Optional

import numpy as np

from .components.registry import ComponentRegistry
from .components.signals import SharedSignals
from .corpus import Document, QueryContext
from .errors import ConfigurationError, IntentRankError
from .intent.space import IntentDistribution
from .records import EMPTY_MAP, Field, Table, decode_config, integer, map_of, number

if TYPE_CHECKING:
    from .frame import CandidateFrame

DEFAULT_TRIGGER_THRESHOLD = 0.05


@dataclass(frozen=True)
class RankerConfig:
    """Weights and knobs that define one ranking arm.

    The weight maps are stored as read-only copies, so the fingerprint
    computed at construction always describes the weights the config holds.
    """

    generic_weights: Mapping[str, float] = field(default_factory=dict)
    intent_weights: Mapping[str, float] = field(default_factory=dict)
    trigger_threshold: float = DEFAULT_TRIGGER_THRESHOLD
    k_final: int = 10
    _fingerprint: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("generic_weights", "intent_weights"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        # computed once: combine stamps every ranked list with it
        canon = json.dumps(self.to_record(), sort_keys=True)
        object.__setattr__(self, "_fingerprint",
                           hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12])

    def validate(self) -> None:
        for name, weights in (("generic", self.generic_weights), ("intent", self.intent_weights)):
            for key, w in weights.items():
                if not (w == w and abs(w) != float("inf")) or w < 0:
                    raise ConfigurationError(f"{name} weight {key!r}={w} must be finite and >= 0")
        if not 0.0 <= self.trigger_threshold <= 1.0:
            raise ConfigurationError(
                f"trigger_threshold {self.trigger_threshold} outside [0,1]"
            )
        if self.k_final < 1:
            raise ConfigurationError(f"k_final must be >= 1, got {self.k_final}")

    def fingerprint(self) -> str:
        return self._fingerprint

    def replace(self, **kwargs) -> "RankerConfig":
        data = {
            "generic_weights": dict(self.generic_weights),
            "intent_weights": dict(self.intent_weights),
            "trigger_threshold": self.trigger_threshold,
            "k_final": self.k_final,
        }
        data.update(kwargs)
        return RankerConfig(**data)

    def to_record(self) -> dict:
        return RANKER_WEIGHTS.encode(self)

    @classmethod
    def from_record(cls, rec: Mapping) -> "RankerConfig":
        return decode_config(RANKER_WEIGHTS, rec, "ranker weights")


def _validated(**fields) -> RankerConfig:
    config = RankerConfig(**fields)
    config.validate()
    return config


#: a ranker weights file; the engine config's "ranker" key holds only the knobs
RANKER_WEIGHTS = Table(
    _validated,
    Field("generic_weights", map_of(number), EMPTY_MAP),
    Field("intent_weights", map_of(number), EMPTY_MAP),
    Field("trigger_threshold", number, DEFAULT_TRIGGER_THRESHOLD), Field("k_final", integer, 10),
)


@dataclass(frozen=True)
class GenericTerm:
    component_id: str
    sigma: float
    weight: float
    contribution: float


@dataclass(frozen=True)
class IntentTerm:
    intent_id: str
    probability: float
    component_id: str
    sigma: Optional[float]  # None when skipped by the trigger threshold
    weight: float
    contribution: float
    skipped: bool = False


@dataclass(frozen=True)
class ScoreTrace:
    """Per-document decomposition of the final score."""

    doc_id: str
    final_score: float
    generic_terms: tuple[GenericTerm, ...] = ()
    intent_terms: tuple[IntentTerm, ...] = ()
    filtered: Optional[str] = None

    def contribution_sum(self) -> float:
        return sum(t.contribution for t in self.generic_terms) + sum(
            t.contribution for t in self.intent_terms
        )

    def to_record(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "final_score": self.final_score,
            "filtered": self.filtered,
            "generic_terms": [
                [t.component_id, t.sigma, t.weight, t.contribution] for t in self.generic_terms
            ],
            "intent_terms": [
                [t.intent_id, t.probability, t.component_id, t.sigma, t.weight,
                 t.contribution, t.skipped]
                for t in self.intent_terms
            ],
        }


@dataclass(frozen=True)
class RankedItem:
    doc_id: str
    score: float


@dataclass(frozen=True)
class RankedList:
    """Final ordering plus the traces behind it."""

    query_id: str
    items: tuple[RankedItem, ...]
    traces: Mapping[str, ScoreTrace]
    config_fingerprint: str
    triggered_intents: frozenset = frozenset()

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(item.doc_id for item in self.items)

    def rank_of(self, doc_id: str) -> Optional[int]:
        """1-based rank, or None if not in the final list."""
        for i, item in enumerate(self.items, start=1):
            if item.doc_id == doc_id:
                return i
        return None


def validate_config(registry: ComponentRegistry, config: RankerConfig) -> None:
    """Raise before scoring starts if the config references unknown components."""
    config.validate()
    missing = sorted(set(config.generic_weights) - set(registry.generic))
    if missing:
        raise ConfigurationError(f"generic weights reference unregistered components: {missing}")
    missing = sorted(set(config.intent_weights) - set(registry.intent_specific))
    if missing:
        raise ConfigurationError(
            f"intent weights reference intents with no registered component: {missing}"
        )


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Everything about one query's candidates that no RankerConfig changes.

    Rows follow the candidate order. Policy-rejected rows are never scored,
    so their sigma entries stay 0. Intents with P(t|q) = 0 get no column:
    no config can trigger them. The others all get one, because the trigger
    threshold is itself a tunable knob.
    """

    doc_ids: tuple[str, ...]
    quality: np.ndarray  # mean quality per row, the first tie-break
    rejected: np.ndarray  # policy-reject mask
    tie_rank: np.ndarray  # position of each doc_id in sorted order, the last tie-break
    intents: IntentDistribution
    generic: Mapping[str, np.ndarray]  # component id -> sigma per row
    intent: Mapping[str, np.ndarray]  # intent id -> sigma per row, intents with p > 0
    registry: ComponentRegistry


def build_table(
    ctx: QueryContext,
    scored_inputs: Sequence[tuple[Document, Optional[SharedSignals]]],
    intents: IntentDistribution,
    registry: ComponentRegistry,
) -> ScoreTable:
    """Run each generic component, and each intent component whose P(t|q) > 0,
    once on every candidate that passes policy. A policy-rejected candidate's
    signals are never read, so they may be None."""
    n = len(scored_inputs)
    quality = np.zeros(n)
    rejected = np.zeros(n, dtype=bool)
    for row, (doc, _) in enumerate(scored_inputs):
        quality[row], rejected[row] = doc.quality.mean, doc.quality.policy_reject
    kept = [(row, doc, signals) for row, (doc, signals) in enumerate(scored_inputs)
            if not rejected[row]]

    def column(scorer) -> np.ndarray:
        sigma = np.zeros(n)
        for row, doc, signals in kept:
            sigma[row] = scorer.score(ctx, doc, signals)
        return sigma

    doc_ids = tuple(doc.doc_id for doc, _ in scored_inputs)
    tie_rank = np.empty(n, dtype=np.int64)
    tie_rank[sorted(range(n), key=doc_ids.__getitem__)] = np.arange(n)
    return ScoreTable(
        doc_ids=doc_ids,
        quality=quality,
        rejected=rejected,
        tie_rank=tie_rank,
        intents=intents,
        generic={cid: column(scorer) for cid, scorer in registry.generic.items()},
        intent={
            intent_id: column(scorer)
            for intent_id, scorer in registry.intent_specific.items()
            if intents.get(intent_id) > 0.0
        },
        registry=registry,
    )


def frame_table(ctx: QueryContext, frame: "CandidateFrame",
                registry: ComponentRegistry) -> ScoreTable:
    """The ScoreTable `build_table` gives for the frame's candidates, bit for
    bit, from one `column` call per component."""
    n = len(frame)

    def column(scorer) -> np.ndarray:
        return np.where(frame.rejected, 0.0, scorer.column(ctx, frame))

    # row order is doc_id order, and a frame holds each row once
    tie_rank = np.empty(n, dtype=np.int64)
    tie_rank[np.argsort(frame.rows)] = np.arange(n)
    intents = frame.detection.distribution
    return ScoreTable(
        doc_ids=frame.doc_ids,
        quality=frame.quality,
        rejected=frame.rejected,
        tie_rank=tie_rank,
        intents=intents,
        generic={cid: column(scorer) for cid, scorer in registry.generic.items()},
        intent={
            intent_id: column(scorer)
            for intent_id, scorer in registry.intent_specific.items()
            if intents.get(intent_id) > 0.0
        },
        registry=registry,
    )


def _triggered(table: ScoreTable, config: RankerConfig) -> list[str]:
    """Weighted intents whose probability clears the threshold, sorted."""
    out = []
    for intent_id in sorted(config.intent_weights):
        p = table.intents.get(intent_id)
        if p >= config.trigger_threshold and p > 0.0:
            out.append(intent_id)
    return out


def combine(table: ScoreTable, config: RankerConfig, query_id: str = "") -> RankedList:
    """Gate, weight and sum the table's columns, then sort and truncate.

    Terms are added in a fixed order (sorted generic ids, then sorted
    intents, each intent term as (p * w) * sigma), the same for every row,
    so a row's score does not depend on the other candidates. Ties break by
    document quality (descending) then doc_id so the order is total and
    reproducible.
    """
    validate_config(table.registry, config)
    total = np.zeros(len(table.doc_ids))
    for component_id in sorted(config.generic_weights):
        total += config.generic_weights[component_id] * table.generic[component_id]
    triggered = _triggered(table, config)
    for intent_id in triggered:
        p = table.intents.get(intent_id)
        total += (p * config.intent_weights[intent_id]) * table.intent[intent_id]

    rows = np.flatnonzero(~table.rejected)
    rows = rows[np.lexsort((table.tie_rank[rows], -table.quality[rows], -total[rows]))]
    rows = rows[: config.k_final]
    items = tuple(
        RankedItem(table.doc_ids[row], score)
        for row, score in zip(rows.tolist(), total[rows].tolist())
    )
    return RankedList(
        query_id=query_id,
        items=items,
        traces=_Traces(table, config),
        config_fingerprint=config.fingerprint(),
        triggered_intents=frozenset(triggered),
    )


class _Traces(Mapping):
    """doc_id -> ScoreTrace for one table under one config, built on first read.

    Offline evaluation reads only the ranked items, so most lists never pay
    for their traces.
    """

    def __init__(self, table: ScoreTable, config: RankerConfig) -> None:
        self._table = table
        self._config = config
        self._traces: Optional[dict[str, ScoreTrace]] = None

    def _built(self) -> dict[str, ScoreTrace]:
        if self._traces is None:
            self._traces = _build_traces(self._table, self._config)
        return self._traces

    def __getitem__(self, doc_id: str) -> ScoreTrace:
        return self._built()[doc_id]

    def __iter__(self):
        return iter(self._built())

    def __len__(self) -> int:
        return len(self._built())


def _build_traces(table: ScoreTable, config: RankerConfig) -> dict[str, ScoreTrace]:
    generic = {cid: table.generic[cid].tolist() for cid in sorted(config.generic_weights)}
    probs = {t: table.intents.get(t) for t in sorted(config.intent_weights)}
    live = set(_triggered(table, config))
    sigmas = {intent_id: table.intent[intent_id].tolist() for intent_id in live}
    traces: dict[str, ScoreTrace] = {}
    for row, doc_id in enumerate(table.doc_ids):
        if table.rejected[row]:
            traces[doc_id] = ScoreTrace(doc_id, 0.0, filtered="policy")
            continue
        total = 0.0
        generic_terms = []
        for component_id, column in generic.items():
            weight = config.generic_weights[component_id]
            contribution = weight * column[row]
            total += contribution
            generic_terms.append(GenericTerm(component_id, column[row], weight, contribution))
        intent_terms = []
        for intent_id, p in probs.items():
            weight = config.intent_weights[intent_id]
            component_id = table.registry.intent_specific[intent_id].component_id
            if intent_id not in live:
                intent_terms.append(
                    IntentTerm(intent_id, p, component_id, None, weight, 0.0, skipped=True)
                )
                continue
            sigma = sigmas[intent_id][row]
            contribution = p * weight * sigma
            total += contribution
            intent_terms.append(
                IntentTerm(intent_id, p, component_id, sigma, weight, contribution)
            )
        traces[doc_id] = ScoreTrace(doc_id, total, tuple(generic_terms), tuple(intent_terms))
    return traces


def rank(
    ctx: QueryContext,
    scored_inputs: Sequence[tuple[Document, Optional[SharedSignals]]],
    intents: IntentDistribution,
    registry: ComponentRegistry,
    config: RankerConfig,
    query_id: str = "",
) -> RankedList:
    """Filter policy-rejected docs, score the rest, sort, truncate."""
    return combine(build_table(ctx, scored_inputs, intents, registry), config, query_id)


def explain(ranked: RankedList, doc_id: str) -> str:
    """Human-readable trace table for one document of a ranked list."""
    trace = ranked.traces.get(doc_id)
    if trace is None:
        near = difflib.get_close_matches(doc_id, sorted(ranked.traces), n=3, cutoff=0.0)
        raise IntentRankError(
            f"doc {doc_id!r} was not scored for query {ranked.query_id!r}; "
            f"nearest traced ids: {', '.join(near) if near else '(none)'}"
        )
    lines = []
    rank_pos = ranked.rank_of(doc_id)
    rank_text = f"rank {rank_pos}" if rank_pos is not None else "below cutoff"
    lines.append(f"doc {doc_id}  query {ranked.query_id!r}  config {ranked.config_fingerprint}")
    if trace.filtered is not None:
        lines.append(f"  filtered out before scoring: reason={trace.filtered}")
        return "\n".join(lines) + "\n"
    lines.append(f"  final score {trace.final_score:.9f}  ({rank_text})")
    lines.append("  scope    component             sigma      weight     p(t|q)   contribution")
    for t in trace.generic_terms:
        lines.append(
            f"  generic  {t.component_id:<20} {t.sigma:>9.6f} {t.weight:>10.4f}        -  "
            f"{t.contribution:>13.9f}"
        )
    for t in trace.intent_terms:
        if t.skipped:
            lines.append(
                f"  intent   {t.intent_id + '/' + t.component_id:<20}      skip "
                f"{t.weight:>10.4f} {t.probability:>8.4f}  {'(below threshold)':>13}"
            )
        else:
            lines.append(
                f"  intent   {t.intent_id + '/' + t.component_id:<20} {t.sigma:>9.6f} "
                f"{t.weight:>10.4f} {t.probability:>8.4f}  {t.contribution:>13.9f}"
            )
    lines.append(f"  contributions sum {trace.contribution_sum():.9f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TriggerStats:
    """How often each intent's component fired over a query batch."""

    counts: Mapping[str, int]
    total_queries: int

    def rate(self, intent_id: str) -> float:
        if self.total_queries == 0:
            return 0.0
        return self.counts.get(intent_id, 0) / self.total_queries


def trigger_stats(ranked_lists: Iterable[RankedList]) -> TriggerStats:
    counts: dict[str, int] = {}
    total = 0
    for ranked in ranked_lists:
        total += 1
        for intent_id in ranked.triggered_intents:
            counts[intent_id] = counts.get(intent_id, 0) + 1
    return TriggerStats(counts=dict(sorted(counts.items())), total_queries=total)


@dataclass(frozen=True)
class TriggerAlert:
    intent_id: str
    rate: float
    baseline_rate: float
    delta: float
    alert: bool


def compare_trigger_stats(
    current: TriggerStats, baseline: TriggerStats, band: float = 0.1
) -> list[TriggerAlert]:
    """Rate deltas against a baseline snapshot; flags |delta| beyond the band."""
    intents = sorted(set(current.counts) | set(baseline.counts))
    alerts = []
    for intent_id in intents:
        rate = current.rate(intent_id)
        base = baseline.rate(intent_id)
        delta = rate - base
        alerts.append(TriggerAlert(intent_id, rate, base, delta, abs(delta) > band))
    return alerts


def export_traces(ranked: RankedList) -> list[dict]:
    """Trace records (one per scored or filtered doc) for offline analysis."""
    return [ranked.traces[doc_id].to_record() for doc_id in sorted(ranked.traces)]
