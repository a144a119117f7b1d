"""Offline evaluation: expectation tests, ranking metrics, replay, A/B.

Expectation tests (BVTs) are declarative (query, user, expectation) cases
executed against the live engine; they double as quality guardrails for
tuning. Metrics are graded-relevance NDCG/ERR plus a replay-based good-click
rate. A/B comparison uses a paired bootstrap over per-query values.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import Document, QueryRecord, RelevanceJudgment, StructuredSuggestion
from .engine import EngineHandle, SearchResult
from .errors import IntentRankError, RecordParseError
from .ranker import RankedList, RankerConfig, ScoreStack, ScoreTable, StackRanking, rank_stack
from .records import EMPTY_SET, Field, Table, list_of, read_table, string, write_records

log = logging.getLogger(__name__)

MAX_GRADE = 4

#: Resample index draws per chunk in paired_bootstrap_p; bounds one call's
#: index and gathered arrays at about 4 MB whatever the query count.
BOOTSTRAP_CHUNK = 1 << 18


class TableMemo:
    """Score tables of one engine, by (query_text, user_id, suggestion), and
    the rankings of all of them under the last two configs.

    A table holds everything about a query's candidates that no RankerConfig
    changes. Each key's table comes from one `engine.search`, on the key's
    first read, in read order. The memo stacks its tables
    (`ranker.ScoreStack`) and ranks every key under a config in one
    `ranker.rank_stack` pass. It keeps the passes of the last two configs:
    the metrics of one `tune` evaluation (sgcr, NDCG, BVTs) share one, and
    `ab_compare`, which alternates its two arms metric by metric, reuses
    both until a new key is searched. It also keeps the searcher relations
    of each table's rows, read by BVT `top1` checks; no config changes them.

    `tune` and `ab_compare` share one memo across every evaluation of a
    call; a standalone evaluation makes its own. Nothing is kept on the
    engine, so a serving process does not grow.
    """

    def __init__(self, engine: EngineHandle) -> None:
        self.engine = engine
        self._index: dict[tuple, int] = {}  # key -> position in _tables
        self._tables: list[ScoreTable] = []
        self._relations: list[tuple[frozenset, ...]] = []  # per table, per row
        self._stack: Optional[ScoreStack] = None  # None once a search adds a table
        # fingerprint -> pass, of the last two configs (ab_compare's two arms)
        self._rankings: dict[str, StackRanking] = {}

    def _search(self, key: tuple, config: Optional[RankerConfig]) -> SearchResult:
        query_text, user_id, suggestion = key
        result = self.engine.search(query_text, user_id, config=config, suggestion=suggestion)
        self._index[key] = len(self._tables)
        self._tables.append(result.table)
        self._relations.append(result.frame.relations)
        self._stack = None
        return result

    def positions(self, keys: Sequence[tuple], config: Optional[RankerConfig]) -> list[int]:
        """Each key's table position, searching each new key once, in order."""
        out = []
        for key in keys:
            if key not in self._index:
                self._search(key, config)
            out.append(self._index[key])
        return out

    def ranking(self, config: Optional[RankerConfig]) -> StackRanking:
        """Every memoised key ranked under `config` (default: the engine's)."""
        config = config if config is not None else self.engine.ranker_config
        if self._stack is None:
            self._stack = ScoreStack(self._tables)
            self._rankings.clear()
        ranking = self._rankings.get(config.fingerprint())
        if ranking is None:
            if len(self._rankings) == 2:
                del self._rankings[next(iter(self._rankings))]
            ranking = self._rankings[config.fingerprint()] = rank_stack(self._stack, config)
        return ranking

    def doc_ids(self, keys: Sequence[tuple], config: Optional[RankerConfig]) -> list[tuple]:
        """Each key's ranked doc ids under `config`."""
        positions = self.positions(keys, config)
        if not positions:
            return []
        ranking = self.ranking(config)
        return [ranking.doc_ids(i) for i in positions]

    def top_relations(self, ranking: StackRanking, i: int) -> frozenset:
        """The searcher's relations to table i's first-ranked document."""
        return self._relations[i][ranking.top_row(i)]

    def ranked(
        self,
        query_text: str,
        user_id: str,
        config: Optional[RankerConfig] = None,
        suggestion: Optional[StructuredSuggestion] = None,
    ) -> RankedList:
        key = (query_text, user_id, suggestion)
        if key not in self._index:
            return self._search(key, config).ranked
        return self.ranking(config).ranked(self._index[key], query_id=query_text)


def _memo_for(engine: EngineHandle, memo: Optional[TableMemo]) -> TableMemo:
    if memo is None:
        return TableMemo(engine)
    if memo.engine is not engine:
        raise IntentRankError("table memo was built for a different engine")
    return memo


# --------------------------------------------------------------------- #
# Expectations and cases


@dataclass(frozen=True)
class Expectation:
    """One declarative check against a RankedList."""

    kind: str  # top1 | doc_at_rank | contains_in_topk | excludes | ordered_pair
    doc_id: str = ""
    other_doc_id: str = ""
    limit: int = 1
    predicate: tuple = ()  # (key, value) pairs for top1

    def describe(self) -> str:
        if self.kind == "top1":
            return "top1: " + " ".join(f"{k}={v}" for k, v in self.predicate)
        if self.kind == "doc_at_rank":
            return f"doc@rank: {self.doc_id} <= {self.limit}"
        if self.kind == "contains_in_topk":
            return f"topk: {self.doc_id} {self.limit}"
        if self.kind == "excludes":
            return f"excludes: {self.doc_id}"
        return f"before: {self.doc_id} {self.other_doc_id}"


TOP1_KEYS = ("type", "relation", "author", "publisher", "doc", "lang")


def parse_expectation(text: str) -> Expectation:
    """Parse the expectation mini-language; raises ValueError on bad syntax."""
    head, _, rest = text.partition(":")
    head = head.strip()
    rest = rest.strip()
    if head == "top1":
        pairs = []
        for part in rest.split():
            if "=" not in part:
                raise ValueError(f"top1 predicate needs key=value terms, got {part!r}")
            key, _, value = part.partition("=")
            if key not in TOP1_KEYS:
                raise ValueError(f"unknown top1 key {key!r}; valid: {', '.join(TOP1_KEYS)}")
            pairs.append((key, value))
        if not pairs:
            raise ValueError("top1 expectation has no predicate terms")
        return Expectation(kind="top1", predicate=tuple(pairs))
    if head == "doc@rank":
        parts = rest.split()
        if len(parts) != 3 or parts[1] != "<=":
            raise ValueError(f"doc@rank expects 'DOC <= N', got {rest!r}")
        limit = int(parts[2])
        if limit < 1:
            raise ValueError("doc@rank limit must be >= 1")
        return Expectation(kind="doc_at_rank", doc_id=parts[0], limit=limit)
    if head == "topk":
        parts = rest.split()
        if len(parts) != 2:
            raise ValueError(f"topk expects 'DOC K', got {rest!r}")
        limit = int(parts[1])
        if limit < 1:
            raise ValueError("topk limit must be >= 1")
        return Expectation(kind="contains_in_topk", doc_id=parts[0], limit=limit)
    if head == "excludes":
        if not rest or len(rest.split()) != 1:
            raise ValueError(f"excludes expects one doc id, got {rest!r}")
        return Expectation(kind="excludes", doc_id=rest)
    if head == "before":
        parts = rest.split()
        if len(parts) != 2:
            raise ValueError(f"before expects 'DOC_A DOC_B', got {rest!r}")
        return Expectation(kind="ordered_pair", doc_id=parts[0], other_doc_id=parts[1])
    raise ValueError(f"unknown expectation kind {head!r}")


@dataclass(frozen=True)
class BVTCase:
    case_id: str
    query_text: str
    user_id: str
    intent_tag: str = "generic"
    language_tag: str = "en"
    expectations: tuple[Expectation, ...] = ()

    def __post_init__(self) -> None:
        if not self.expectations:
            raise ValueError(f"case {self.case_id!r} has no expectations")


BVT_CASE = Table(
    lambda query, **fields: dict(fields, query_text=query),
    Field("case_id", string), Field("query", string), Field("user_id", string),
    Field("intent_tag", string, "generic"), Field("language_tag", string, "en"),
    Field("expectations", list_of(string)),
)


def load_bvt_suite(path: str | Path) -> list[BVTCase]:
    cases = []
    for line_no, rec in read_table(path, BVT_CASE):
        try:
            rec["expectations"] = tuple(parse_expectation(t) for t in rec["expectations"])
            cases.append(BVTCase(**rec))
        except ValueError as exc:
            raise RecordParseError(str(path), line_no, f"case {rec['case_id']!r}: {exc}") from exc
    return cases


def _rank_of(ids: Sequence[str], doc_id: str) -> Optional[int]:
    """1-based rank of doc_id in ids, or None."""
    return ids.index(doc_id) + 1 if doc_id in ids else None


def _check_expectation(
    exp: Expectation, ids: Sequence[str], top: Optional[Document], top_relations: frozenset
) -> tuple[bool, str]:
    """Check one expectation against a ranked list's doc ids; `top` is the
    first-ranked document and `top_relations` the searcher's relations to it."""
    if exp.kind == "top1":
        if top is None:
            return False, "result list is empty"
        for key, value in exp.predicate:
            if key == "type" and top.doc_type != value:
                return False, f"top1 {top.doc_id} has type {top.doc_type}, wanted {value}"
            if key == "relation" and value not in top_relations:
                return False, (
                    f"top1 {top.doc_id} relations {sorted(top_relations)} lack {value!r}"
                )
            if key == "author" and top.author_id != value:
                return False, f"top1 {top.doc_id} author {top.author_id}, wanted {value}"
            if key == "publisher" and top.publisher_id != value:
                return False, f"top1 {top.doc_id} publisher {top.publisher_id}, wanted {value}"
            if key == "doc" and top.doc_id != value:
                return False, f"top1 is {top.doc_id}, wanted {value}"
            if key == "lang":
                best = max(top.languages, key=lambda c: (top.languages[c], c), default=None)
                if best != value:
                    return False, f"top1 {top.doc_id} main language {best}, wanted {value}"
        return True, ""
    if exp.kind == "doc_at_rank":
        rank_pos = _rank_of(ids, exp.doc_id)
        if rank_pos is None or rank_pos > exp.limit:
            return False, f"{exp.doc_id} at rank {rank_pos}, wanted <= {exp.limit}"
        return True, ""
    if exp.kind == "contains_in_topk":
        if exp.doc_id in ids[: exp.limit]:
            return True, ""
        return False, f"{exp.doc_id} not in top {exp.limit}"
    if exp.kind == "excludes":
        if exp.doc_id in ids:
            return False, f"{exp.doc_id} present at rank {_rank_of(ids, exp.doc_id)}"
        return True, ""
    if exp.kind == "ordered_pair":
        rank_a = _rank_of(ids, exp.doc_id)
        rank_b = _rank_of(ids, exp.other_doc_id)
        if rank_a is None:
            return False, f"{exp.doc_id} not in results"
        if rank_b is not None and rank_b <= rank_a:
            return False, f"{exp.other_doc_id} (rank {rank_b}) not after {exp.doc_id} (rank {rank_a})"
        return True, ""
    raise IntentRankError(f"unhandled expectation kind {exp.kind!r}")


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    status: str  # "pass" | "fail" | "error"
    intent_tag: str
    language_tag: str
    failed_expectation: Optional[str] = None
    detail: Optional[str] = None
    excerpt: tuple = ()

    def to_record(self) -> dict:
        return {
            "case_id": self.case_id,
            "status": self.status,
            "intent_tag": self.intent_tag,
            "language_tag": self.language_tag,
            "failed_expectation": self.failed_expectation,
            "detail": self.detail,
            "excerpt": [[d, s] for d, s in self.excerpt],
        }


@dataclass
class BVTReport:
    results: list[CaseResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def passes(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    def pass_rate(self) -> float:
        return self.passes / self.total if self.total else 0.0

    def pass_rate_by_intent(self) -> dict[str, float]:
        groups: dict[str, list[CaseResult]] = {}
        for result in self.results:
            groups.setdefault(result.intent_tag, []).append(result)
        return {
            tag: sum(1 for r in rs if r.status == "pass") / len(rs)
            for tag, rs in sorted(groups.items())
        }

    def summary(self) -> str:
        lines = [f"BVT report: {self.passes}/{self.total} passed ({self.pass_rate():.1%})"]
        for tag, rate in self.pass_rate_by_intent().items():
            lines.append(f"  intent {tag:<18} {rate:.1%}")
        for result in self.results:
            if result.status != "pass":
                lines.append(
                    f"  [{result.status.upper()}] {result.case_id}: "
                    f"{result.failed_expectation or ''} {result.detail or ''}".rstrip()
                )
        return "\n".join(lines)


def run_bvts(
    suite: Sequence[BVTCase],
    engine: EngineHandle,
    config: Optional[RankerConfig] = None,
    memo: Optional[TableMemo] = None,
) -> BVTReport:
    """Run every case through retrieve+rank; report is sorted by case_id."""
    memo = _memo_for(engine, memo)
    cases = sorted(suite, key=lambda c: c.case_id)
    users, documents = engine.corpus.users, engine.corpus.documents
    positions = iter(memo.positions(
        [(case.query_text, case.user_id, None) for case in cases if case.user_id in users],
        config))
    ranking: Optional[StackRanking] = None
    report = BVTReport()
    for case in cases:
        if case.user_id not in users:
            report.results.append(
                CaseResult(case.case_id, "error", case.intent_tag, case.language_tag,
                           detail=f"unknown user_id {case.user_id!r}")
            )
            continue
        i = next(positions)
        ranking = ranking or memo.ranking(config)
        ids = ranking.doc_ids(i)
        top = documents[ids[0]] if ids else None
        relations = memo.top_relations(ranking, i) if ids else EMPTY_SET
        failure: Optional[tuple[str, str]] = None
        for exp in case.expectations:
            ok, detail = _check_expectation(exp, ids, top, relations)
            if not ok:
                failure = (exp.describe(), detail)
                break
        excerpt = tuple(zip(ids[:5], ranking.scores(i)[:5]))
        if failure is None:
            report.results.append(
                CaseResult(case.case_id, "pass", case.intent_tag, case.language_tag,
                           excerpt=excerpt)
            )
        else:
            report.results.append(
                CaseResult(case.case_id, "fail", case.intent_tag, case.language_tag,
                           failed_expectation=failure[0], detail=failure[1], excerpt=excerpt)
            )
    return report


def save_bvt_report(report: BVTReport, path: str | Path) -> None:
    write_records(path, (r.to_record() for r in report.results))


# --------------------------------------------------------------------- #
# Graded-relevance metrics


def gain(grade: int) -> float:
    return float(2 ** grade - 1)


@functools.lru_cache(maxsize=None)
def _discounts(k: int) -> tuple[float, ...]:
    """log2(i + 1) for ranks i = 1..k, each numpy's scalar log2 as a float."""
    return tuple(float(np.log2(i + 1)) for i in range(1, k + 1))


def ndcg_at_k(ranked_doc_ids: Sequence[str], grades: Mapping[str, int], k: int) -> Optional[float]:
    """Graded NDCG@k, or None when the query has no positive judgments."""
    if not any(g > 0 for g in grades.values()):
        return None
    discounts = _discounts(k)
    dcg = 0.0
    for doc_id, discount in zip(ranked_doc_ids, discounts):
        dcg += gain(grades.get(doc_id, 0)) / discount
    ideal = sorted(grades.values(), reverse=True)
    idcg = sum(gain(g) / discount for g, discount in zip(ideal, discounts))
    return float(dcg / idcg) if idcg > 0 else None


def err_at_k(ranked_doc_ids: Sequence[str], grades: Mapping[str, int], k: int) -> Optional[float]:
    """Cascade expected reciprocal rank with stop probability (2^g - 1) / 2^4."""
    judged_positive = [g for g in grades.values() if g > 0]
    if not judged_positive:
        return None
    err = 0.0
    continue_p = 1.0
    for i, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        stop = gain(grades.get(doc_id, 0)) / (2 ** MAX_GRADE)
        err += continue_p * stop / i
        continue_p *= 1.0 - stop
    return float(err)


def group_judgments(
    judgments: Sequence[RelevanceJudgment],
) -> dict[tuple[str, str], dict[str, int]]:
    """(query_text, user_id) -> doc grades."""
    grouped: dict[tuple[str, str], dict[str, int]] = {}
    for j in judgments:
        grouped.setdefault((j.query_text, j.user_id), {})[j.doc_id] = j.grade
    return grouped


@dataclass(frozen=True)
class MetricResult:
    name: str
    value: float
    k: int
    query_count: int
    per_query: tuple[float, ...]
    excluded: int = 0  # queries with no positive judgments

    def to_record(self) -> dict:
        return {
            "metric": self.name,
            "value": self.value,
            "k": self.k,
            "query_count": self.query_count,
            "excluded": self.excluded,
        }


def _ranking_metric(
    engine: EngineHandle,
    judgments: Sequence[RelevanceJudgment],
    k: int,
    config: Optional[RankerConfig],
    fn,
    name: str,
    memo: Optional[TableMemo],
) -> MetricResult:
    memo = _memo_for(engine, memo)
    grouped = group_judgments(judgments)
    keys = sorted(grouped)
    lists = memo.doc_ids([(query_text, user_id, None) for query_text, user_id in keys], config)
    scored = [fn(ids, grouped[key], k) for ids, key in zip(lists, keys)]
    values = [value for value in scored if value is not None]  # None: no positive judgment
    excluded = len(scored) - len(values)
    if not values:
        raise IntentRankError(f"{name}@{k} undefined: no query with positive judgments")
    return MetricResult(
        name=name,
        value=float(np.mean(values)),
        k=k,
        query_count=len(values),
        per_query=tuple(values),
        excluded=excluded,
    )


def mean_ndcg(engine, judgments, k=10, config=None, memo=None) -> MetricResult:
    return _ranking_metric(engine, judgments, k, config, ndcg_at_k, "ndcg", memo)


def mean_err(engine, judgments, k=10, config=None, memo=None) -> MetricResult:
    return _ranking_metric(engine, judgments, k, config, err_at_k, "err", memo)


def sgcr_replay(
    log_records: Sequence[QueryRecord],
    engine: EngineHandle,
    config: Optional[RankerConfig] = None,
    k: int = 10,
    memo: Optional[TableMemo] = None,
) -> MetricResult:
    """Replay the log; an impression is good iff a good-clicked doc reaches top-k."""
    if not log_records:
        raise IntentRankError("sgcr replay needs a nonempty query log")
    memo = _memo_for(engine, memo)
    lists = memo.doc_ids(
        [(r.query_text, r.user_id, r.suggestion_click) for r in log_records], config)
    per_query = [1.0 if record.good_clicked.intersection(ids[:k]) else 0.0
                 for record, ids in zip(log_records, lists)]
    return MetricResult(
        name="sgcr",
        value=float(np.mean(per_query)),
        k=k,
        query_count=len(per_query),
        per_query=tuple(per_query),
    )


# --------------------------------------------------------------------- #
# A/B comparison


@dataclass(frozen=True)
class MetricDelta:
    metric: str
    k: int
    value_a: float
    value_b: float
    delta: float
    p_value: float

    def to_record(self) -> dict:
        return {
            "metric": f"{self.metric}@{self.k}",
            "value_a": self.value_a,
            "value_b": self.value_b,
            "delta": self.delta,
            "p_value": self.p_value,
        }


@dataclass
class ABReport:
    deltas: list[MetricDelta] = field(default_factory=list)
    bvt_rate_a: dict = field(default_factory=dict)
    bvt_rate_b: dict = field(default_factory=dict)

    def summary(self) -> str:
        lines = ["A/B comparison"]
        for d in self.deltas:
            lines.append(
                f"  {d.metric}@{d.k}: A={d.value_a:.6f} B={d.value_b:.6f} "
                f"delta={d.delta:+.6f} p={d.p_value:.4f}"
            )
        for tag in sorted(set(self.bvt_rate_a) | set(self.bvt_rate_b)):
            a = self.bvt_rate_a.get(tag, 0.0)
            b = self.bvt_rate_b.get(tag, 0.0)
            lines.append(f"  bvt[{tag}]: A={a:.1%} B={b:.1%} delta={b - a:+.1%}")
        return "\n".join(lines)


def paired_bootstrap_p(
    values_a: Sequence[float], values_b: Sequence[float], n_resamples: int, seed: int
) -> float:
    """Two-sided bootstrap p-value for mean(B - A) != 0.

    Resamples are drawn in row chunks of at most BOOTSTRAP_CHUNK indices.
    Chunked draws continue one generator stream, so the p-value equals that
    of drawing all resamples at once.
    """
    diffs = np.asarray(values_b, dtype=np.float64) - np.asarray(values_a, dtype=np.float64)
    n = len(diffs)
    if n == 0:
        raise IntentRankError("bootstrap needs at least one paired value")
    rng = np.random.default_rng(seed)
    rows = max(1, BOOTSTRAP_CHUNK // n)
    low = high = 0
    for start in range(0, n_resamples, rows):
        boot = diffs[rng.integers(0, n, size=(min(rows, n_resamples - start), n))].mean(axis=1)
        low += int(np.count_nonzero(boot <= 0.0))
        high += int(np.count_nonzero(boot >= 0.0))
    return min(1.0, 2.0 * min(low / n_resamples, high / n_resamples))


def parse_metric_spec(spec: str) -> tuple[str, int]:
    name, _, k_text = spec.partition("@")
    name = name.strip().lower()
    if name not in ("sgcr", "ndcg", "err"):
        raise IntentRankError(f"unknown metric {name!r}; valid: sgcr, ndcg, err")
    return name, int(k_text) if k_text else 10


def ab_compare(
    engine: EngineHandle,
    config_a: RankerConfig,
    config_b: RankerConfig,
    log_records: Sequence[QueryRecord],
    judgments: Sequence[RelevanceJudgment],
    bvt_suite: Sequence[BVTCase] = (),
    metrics: Sequence[str] = ("sgcr@10",),
    n_resamples: int = 10_000,
    seed: int = 0,
) -> ABReport:
    """Paired per-query comparison of two ranking arms over the same assets."""
    memo = TableMemo(engine)
    report = ABReport()
    for spec in metrics:
        name, k = parse_metric_spec(spec)
        if name == "sgcr":
            if not log_records:
                raise IntentRankError("sgcr comparison needs a nonempty query log")
            result_a = sgcr_replay(log_records, engine, config_a, k, memo=memo)
            result_b = sgcr_replay(log_records, engine, config_b, k, memo=memo)
        else:
            if not judgments:
                raise IntentRankError(f"{name} comparison needs judgments")
            fn = mean_ndcg if name == "ndcg" else mean_err
            result_a = fn(engine, judgments, k, config_a, memo=memo)
            result_b = fn(engine, judgments, k, config_b, memo=memo)
        if len(result_a.per_query) != len(result_b.per_query):
            raise IntentRankError(
                f"{name}@{k}: arms evaluated different query sets "
                f"({len(result_a.per_query)} vs {len(result_b.per_query)})"
            )
        p = paired_bootstrap_p(result_a.per_query, result_b.per_query, n_resamples, seed)
        report.deltas.append(
            MetricDelta(name, k, result_a.value, result_b.value,
                        result_b.value - result_a.value, p)
        )
    if bvt_suite:
        report.bvt_rate_a = run_bvts(bvt_suite, engine, config_a, memo).pass_rate_by_intent()
        report.bvt_rate_b = run_bvts(bvt_suite, engine, config_b, memo).pass_rate_by_intent()
    return report
