"""Output checks computed apart from the program, from the raw generated inputs.

Nothing here imports the engine: BM25, quality means, score sums, sgcr and
NDCG are recomputed from the generated records and compared with what the
program returned. Every check is one operation; a failed check is a failed
operation and makes the run incorrect.
"""

from __future__ import annotations

import math
from collections import Counter

from gen import tokens

K1, B = 1.2, 0.75
SCORE_TOL = 1e-9


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class RawCorpus:
    """Token statistics and document facts straight from the generated records."""

    def __init__(self, documents: list[dict]):
        self.docs = {d["doc_id"]: d for d in documents}
        self.tf = {d["doc_id"]: Counter(tokens(d["title"] + " " + d["body"])) for d in documents}
        self.length = {doc_id: sum(c.values()) for doc_id, c in self.tf.items()}
        self.postings: dict[str, list[str]] = {}
        for doc_id, counts in self.tf.items():
            for term in counts:
                self.postings.setdefault(term, []).append(doc_id)
        self.avgdl = sum(self.length.values()) / len(self.length)

    def rejected(self, doc_id: str) -> bool:
        return bool(self.docs[doc_id].get("quality", {}).get("policy_reject", False))

    def quality_mean(self, doc_id: str) -> float:
        q = self.docs[doc_id].get("quality", {})
        subs = [q.get("kids_friendly", 1.0), q.get("authentic", 1.0),
                q.get("authoritative", 0.5), q.get("readability", 0.5)]
        if q.get("video_resolution") is not None:
            subs.append(q["video_resolution"])
        return sum(subs) / len(subs)

    def bm25_top(self, query: str, k: int) -> list[tuple[str, float]]:
        n = len(self.docs)
        scores: dict[str, float] = {}
        for term in sorted(set(tokens(query))):
            docs = self.postings.get(term, [])
            idf = math.log(1.0 + (n - len(docs) + 0.5) / (len(docs) + 0.5))
            for doc_id in docs:
                tf = self.tf[doc_id][term]
                denom = tf + K1 * (1.0 - B + B * self.length[doc_id] / self.avgdl)
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (K1 + 1.0) / denom
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def check_retrieve(checks: Checks, raw: RawCorpus, exported: list[dict]) -> None:
    """Exact top-k and scores within 1e-9 of BM25 recomputed from the raw texts."""
    for rec in exported:
        want = raw.bm25_top(rec["q"], rec["k"])
        got = rec["cands"]
        ok = [d for d, _ in want] == [d for d, _ in got] and all(
            abs(s1 - s2) <= SCORE_TOL for (_, s1), (_, s2) in zip(want, got))
        checks.check(ok, f"retrieve {rec['q']!r}: top-k differs from BM25 over the raw texts")


def check_ranked(checks: Checks, raw: RawCorpus, config: dict, rec: dict, kind: str,
                 friend_names: set) -> None:
    """Trace sums, tie-break order, policy filter, token match, P(t|q)."""
    q = rec["q"]
    dist = rec["dist"]
    checks.check(abs(sum(dist.values()) - 1.0) <= SCORE_TOL
                 and all(0.0 <= p <= 1.0 for p in dist.values()),
                 f"{q!r}: P(t|q) does not sum to 1")
    if kind == "friend":
        checks.check(q in friend_names and dist.get("friend", 0.0) > 0.0,
                     f"{q!r}: a friend's full name gave the friend intent no mass")
    threshold = config["trigger_threshold"]
    ok = True
    for doc_id, score in rec["items"]:
        trace = rec["traces"][doc_id]
        total = 0.0
        for cid, sigma, weight, _ in trace["generic_terms"]:
            ok &= weight == config["generic_weights"][cid] and 0.0 <= sigma <= 1.0
            total += weight * sigma
        for intent, p, _, sigma, weight, _, skipped in trace["intent_terms"]:
            ok &= weight == config["intent_weights"][intent] and p == dist.get(intent, 0.0)
            ok &= skipped == (p < threshold or p == 0.0)
            if not skipped:
                ok &= 0.0 <= sigma <= 1.0
                total += p * weight * sigma
        ok &= abs(total - score) <= SCORE_TOL and trace["final_score"] == score
    checks.check(ok, f"{q!r}: a score differs from sum w*sigma + sum p*w*sigma of its trace")
    check_list(checks, raw, q, kind, [d for d, _ in rec["items"]],
               [s for _, s in rec["items"]])


def check_list(checks: Checks, raw: RawCorpus, q: str, kind: str, doc_ids: list[str],
               scores: list[float] | None) -> None:
    """Properties every returned list has, whatever path produced it."""
    checks.check(not any(raw.rejected(d) for d in doc_ids),
                 f"{q!r}: a policy-rejected document was returned")
    if kind != "self_history":
        qt = set(tokens(q))
        checks.check(all(qt & set(raw.tf[d]) for d in doc_ids),
                     f"{q!r}: a returned document holds no query token")
    if scores is not None:
        keys = [(-s, -raw.quality_mean(d), d) for d, s in zip(doc_ids, scores)]
        checks.check(keys == sorted(keys),
                     f"{q!r}: order is not (score desc, quality desc, doc_id)")


def ndcg10(ranked: list[str], grades: dict[str, int]) -> float | None:
    if not any(g > 0 for g in grades.values()):
        return None
    dcg = sum((2 ** grades.get(d, 0) - 1) / math.log2(i + 2) for i, d in enumerate(ranked[:10]))
    ideal = sorted(grades.values(), reverse=True)[:10]
    idcg = sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg


def check_offline(checks: Checks, query_log: list[dict], judgments: list[dict], export: dict,
                  tune_results: list[dict], ab_deltas: list[list[dict]]) -> None:
    """sgcr and NDCG from the ranked lists; tune and A/B self-consistency."""
    hits = [1.0 if set(r["good_clicked"]) & set(lst[:10]) else 0.0
            for r, lst in zip(query_log, export["sgcr"]["lists"])]
    sgcr = sum(hits) / len(hits)
    checks.check(len(hits) == len(query_log) and abs(sgcr - export["sgcr"]["value"]) <= 1e-12,
                 f"sgcr_replay {export['sgcr']['value']} != recomputed {sgcr}")
    grades: dict[tuple[str, str], dict[str, int]] = {}
    for j in judgments:
        grades.setdefault((j["query_text"], j["user_id"]), {})[j["doc_id"]] = j["grade"]
    values = [ndcg10(lst, grades[(q, u)]) for q, u, lst in export["ndcg"]["lists"]]
    values = [v for v in values if v is not None]
    ndcg = sum(values) / len(values)
    checks.check(abs(ndcg - export["ndcg"]["value"]) <= SCORE_TOL,
                 f"mean_ndcg {export['ndcg']['value']} != recomputed {ndcg}")
    start = {"sgcr": export["sgcr"]["value"], "ndcg": export["ndcg"]["value"]}
    for r in tune_results:
        checks.check(r["best"] >= r["initial"],
                     f"tune returned {r['best']} below its start {r['initial']}")
    for deltas in ab_deltas:
        for d in deltas:
            checks.check(d["delta"] == d["value_b"] - d["value_a"]
                         and abs(d["value_a"] - start[d["name"]]) <= 1e-12,
                         f"ab_compare {d['metric']}: delta or arm A value inconsistent")
