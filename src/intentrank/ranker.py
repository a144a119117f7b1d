"""Score combination, ranking, traces, and trigger monitoring.

The final relevance of a document is

    F = sum_c w_c * sigma_c   +   sum_t P(t|q) * w_t * sigma_t

where c ranges over generic components and t over intents whose probability
clears the trigger threshold. The score is linear in the weights and every
sigma is fixed per query, so ranking is split in two: `frame_table` runs
each component once per query, as one column over the query's
CandidateFrame, into a config-independent ScoreTable, and `rank_stack`
applies one RankerConfig (gate, weighted sum, sort, cut at k_final) to a
ScoreStack, the rows of one or more tables concatenated. Serving ranks its
one table (`combine`); tuning and A/B stack one table per distinct query
(`evaluation.TableMemo`) and rank every query under a config in one pass.
So the weighted sum and the sort key have one definition for serving,
replay, A/B and tuning. `build_table` builds the same table from
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
import itertools
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


def _fires(p, threshold: float):
    """The trigger gate: does an intent with probability `p` (a float, or an
    array of them) clear `threshold`? P(t|q) = 0 never fires, even at 0."""
    return p >= threshold if threshold > 0.0 else p > 0.0


def _triggered(table: ScoreTable, config: RankerConfig) -> list[str]:
    """Weighted intents whose probability clears the threshold, sorted."""
    return [intent_id for intent_id in sorted(config.intent_weights)
            if _fires(table.intents.get(intent_id), config.trigger_threshold)]


class ScoreStack:
    """The rows of one or more ScoreTables of one registry, concatenated in
    table order, so that `rank_stack` ranks all of them under a config in
    one pass.

    Table i holds rows offsets[i]:offsets[i + 1]. `tie_rank` stays per table,
    since the table index is the first sort key. An intent column is zero in
    the rows of a table that has none; its P(t|q) there is 0, so no config
    reads them. `kept` lists the rows that pass policy, table by table, so
    table i's ranked rows are always positions kept_bounds[i]:kept_bounds[i + 1]
    of a pass's sort order. One table, search's case, is stacked without
    copying its arrays; for tables of a few dozen rows the concatenating
    path costs about half as much again as the rest of `combine`.
    """

    __slots__ = ("tables", "offsets", "segment", "doc_ids", "quality", "tie_rank", "generic",
                 "intent", "probs", "registry", "kept", "kept_bounds")

    def __init__(self, tables: Sequence[ScoreTable]) -> None:
        self.tables = tuple(tables)
        self.registry = self.tables[0].registry
        if len(self.tables) == 1:
            (table,) = self.tables
            n = len(table.doc_ids)
            self.offsets = [0, n]
            self.segment = np.zeros(n, dtype=np.int64)  # table index per row
            self.doc_ids, self.quality, self.tie_rank = table.doc_ids, table.quality, table.tie_rank
            self.generic, self.intent = table.generic, table.intent
            # intent id -> P(t|q) per table, for every intent with a column
            self.probs = {t: np.array([table.intents.get(t)]) for t in table.intent}
            self.kept = np.flatnonzero(~table.rejected)
            self.kept_bounds = [0, len(self.kept)]
            return
        sizes = [len(t.doc_ids) for t in self.tables]
        intent_ids = sorted({intent_id for t in self.tables for intent_id in t.intent})
        self.offsets = list(itertools.accumulate(sizes, initial=0))
        self.segment = np.repeat(np.arange(len(sizes)), sizes)
        self.doc_ids = tuple(doc_id for t in self.tables for doc_id in t.doc_ids)
        self.quality = np.concatenate([t.quality for t in self.tables])
        self.tie_rank = np.concatenate([t.tie_rank for t in self.tables])
        self.generic = {cid: np.concatenate([t.generic[cid] for t in self.tables])
                        for cid in self.registry.generic}
        self.intent = {intent_id: np.concatenate([t.intent.get(intent_id, np.zeros(n))
                                                  for t, n in zip(self.tables, sizes)])
                       for intent_id in intent_ids}
        self.probs = {intent_id: np.array([t.intents.get(intent_id) for t in self.tables])
                      for intent_id in intent_ids}
        self.kept = np.flatnonzero(~np.concatenate([t.rejected for t in self.tables]))
        self.kept_bounds = list(itertools.accumulate(
            np.bincount(self.segment[self.kept], minlength=len(sizes)).tolist(), initial=0))


class StackRanking:
    """Every table of a stack ranked under one config."""

    __slots__ = ("stack", "config", "total", "order", "fires", "_doc_ids")

    def __init__(self, stack: ScoreStack, config: RankerConfig, total: np.ndarray,
                 order: np.ndarray, fires: Mapping[str, np.ndarray]):
        self.stack = stack
        self.config = config
        self.total = total
        self.order = order  # the kept rows, table by table, each table's best first
        self.fires = fires  # intent id -> triggered per table
        self._doc_ids: list[Optional[tuple[str, ...]]] = [None] * len(stack.tables)

    def rows(self, i: int) -> np.ndarray:
        """Table i's ranked rows, cut at k_final."""
        start, stop = self.stack.kept_bounds[i], self.stack.kept_bounds[i + 1]
        return self.order[start:min(stop, start + self.config.k_final)]

    def doc_ids(self, i: int) -> tuple[str, ...]:
        ids = self._doc_ids[i]
        if ids is None:
            ids = self._doc_ids[i] = tuple(map(self.stack.doc_ids.__getitem__,
                                               self.rows(i).tolist()))
        return ids

    def scores(self, i: int) -> list[float]:
        return self.total[self.rows(i)].tolist()

    def top_row(self, i: int) -> Optional[int]:
        """Table i's own row of its first-ranked document; None if it has none."""
        rows = self.rows(i)
        return int(rows[0]) - self.stack.offsets[i] if len(rows) else None

    def ranked(self, i: int, query_id: str = "") -> RankedList:
        """Table i's RankedList, with traces built on first read."""
        rows = self.rows(i)
        return RankedList(
            query_id=query_id,
            items=tuple(map(RankedItem, map(self.stack.doc_ids.__getitem__, rows.tolist()),
                            self.total[rows].tolist())),
            traces=_Traces(self.stack.tables[i], self.config),
            config_fingerprint=self.config.fingerprint(),
            triggered_intents=frozenset(t for t, fires in self.fires.items() if fires[i]),
        )


def rank_stack(stack: ScoreStack, config: RankerConfig) -> StackRanking:
    """Gate, weight and sum every table's columns, then sort.

    Terms are added in a fixed order (sorted generic ids, then sorted
    intents, each intent term as (p * w) * sigma, only in the rows of tables
    where that intent triggers), the same for every row, so a row's score
    depends neither on the other candidates nor on the other tables. Ties
    break by document quality (descending) then doc_id so the order is total
    and reproducible. `StackRanking.rows` cuts each table at k_final.
    """
    validate_config(stack.registry, config)
    total = np.zeros(len(stack.doc_ids))
    for component_id in sorted(config.generic_weights):
        total += config.generic_weights[component_id] * stack.generic[component_id]
    fires = {}
    for intent_id in sorted(config.intent_weights):
        p = stack.probs.get(intent_id)
        if p is None:  # P(t|q) = 0 in every table
            continue
        fires[intent_id] = _fires(p, config.trigger_threshold)
        if fires[intent_id].any():
            coefficient = (p * config.intent_weights[intent_id])[stack.segment]
            np.add(total, coefficient * stack.intent[intent_id], out=total,
                   where=fires[intent_id][stack.segment])
    kept = stack.kept
    order = kept[np.lexsort((stack.tie_rank[kept], -stack.quality[kept], -total[kept],
                             stack.segment[kept]))]
    return StackRanking(stack, config, total, order, fires)


def combine(table: ScoreTable, config: RankerConfig, query_id: str = "") -> RankedList:
    """Rank one table under one config: `rank_stack` over a one-table stack."""
    return rank_stack(ScoreStack([table]), config).ranked(0, query_id)


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
