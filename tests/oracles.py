"""Independent reference implementations used to check the package.

Everything here is deliberately written from the definitions, against raw
inputs (edge lists, raw texts, permutations), without touching the package's
data structures, so a bug cannot hide in both paths at once. The input
loaders at the end are the exception: they build the package's classes, so
that their output can be compared with the decoder's.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from pathlib import Path


# --------------------------------------------------------------------- #
# social relations: explicit path enumeration over a raw edge list


def relations_oracle(edges, searcher, doc_id, author):
    edge_set = set(edges)
    nodes = {n for e in edges for n in (e[0], e[1])}

    def has(src, dst, label):
        return (src, dst, label) in edge_set

    rels = set()
    if author is not None and author == searcher:
        rels.add("self")
    if author is not None and author != searcher:
        if has(searcher, author, "friend"):
            rels.add("friend")
        else:
            for mid in nodes:  # every length-2 friend path, brute force
                if has(searcher, mid, "friend") and has(mid, author, "friend"):
                    rels.add("friend_of_friend")
                    break
        if has(author, searcher, "pending_friend"):
            rels.add("pending_friend")
    if has(searcher, doc_id, "engaged"):
        rels.add("self_engaged")
    for mid in nodes:
        if has(searcher, mid, "friend") and has(mid, doc_id, "engaged"):
            rels.add("friend_engaged")
            break
    targets = {doc_id} | ({author} if author is not None else set())
    if any(has(searcher, t, "follow") for t in targets):
        rels.add("followee")
    if any(has(t, searcher, "follow") for t in targets if t != searcher):
        rels.add("follower")
    if has(searcher, doc_id, "pending_join"):
        rels.add("pending_joining")
    return rels


# --------------------------------------------------------------------- #
# BM25 recomputed from raw texts, no index structures


def _tok(text):
    return re.findall(r"[^\W_]+", text.lower())


def bm25_oracle(texts_by_doc, query_text, k1=1.2, b=0.75):
    """doc_id -> score for every doc with any query-term overlap."""
    token_lists = {d: _tok(t) for d, t in texts_by_doc.items()}
    n = len(texts_by_doc)
    avgdl = sum(len(toks) for toks in token_lists.values()) / n if n else 0.0
    terms = sorted(set(_tok(query_text)))
    df = {
        term: sum(1 for toks in token_lists.values() if term in toks) for term in terms
    }
    scores = {}
    for doc_id, toks in token_lists.items():
        s = 0.0
        for term in terms:
            tf = toks.count(term)
            if tf == 0:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            s += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(toks) / avgdl))
        if s != 0.0:
            scores[doc_id] = s
    return scores


# --------------------------------------------------------------------- #
# minimal covering window by quadratic scan


def min_window_oracle(stream, terms):
    """Smallest window of `stream` containing every term; None if impossible."""
    terms = set(terms)
    if not terms or not terms <= set(stream):
        return None
    best = None
    for i in range(len(stream)):
        seen = set()
        for j in range(i, len(stream)):
            if stream[j] in terms:
                seen.add(stream[j])
            if seen == terms:
                width = j - i + 1
                if best is None or width < best:
                    best = width
                break
    return best


# --------------------------------------------------------------------- #
# pattern matching by exhaustive segmentation


def segmentations_oracle(pattern_tokens, query, entities, dictionaries):
    """All-valid-assignments matcher.

    pattern_tokens: list of ("lit", word) | ("ent", type) | ("dict", dict_id)
    entities: list of (entity_id, entity_type, alias_tuple, popularity)
    dictionaries: dict_id -> set of phrase tuples
    Returns the winning assignment as a list of per-token captures
    (word | entity_id | phrase string), or None.
    """
    k = len(pattern_tokens)
    n = len(query)
    if k == 0:
        return None
    valid = []
    for split in itertools.product(range(1, n + 1), repeat=k):
        if sum(split) != n:
            continue
        pos = 0
        captures = []
        ok = True
        for (kind, arg), length in zip(pattern_tokens, split):
            chunk = tuple(query[pos:pos + length])
            if kind == "lit":
                if length != 1 or chunk[0] != arg:
                    ok = False
                    break
                captures.append(chunk[0])
            elif kind == "ent":
                hits = [
                    (pop, eid)
                    for eid, etype, alias, pop in entities
                    if etype == arg and alias == chunk
                ]
                if not hits:
                    ok = False
                    break
                best = min(hits, key=lambda h: (-h[0], h[1]))
                captures.append(best[1])
            else:
                if chunk not in dictionaries[arg]:
                    ok = False
                    break
                captures.append(" ".join(chunk))
            pos += length
        if ok:
            valid.append((split, captures))
    if not valid:
        return None
    # the matcher prefers the longest span at each position, left to right
    split, captures = max(valid, key=lambda v: v[0])
    return captures


# --------------------------------------------------------------------- #
# graded metrics by definition and enumeration


def dcg_oracle(grades_in_order, k):
    return sum(
        (2 ** g - 1) / math.log2(i + 1)
        for i, g in enumerate(grades_in_order[:k], start=1)
    )


def ndcg_oracle(ranked_ids, grades, k):
    """IDCG found by trying every permutation of the judged docs."""
    positives = [g for g in grades.values() if g > 0]
    if not positives:
        return None
    dcg = dcg_oracle([grades.get(d, 0) for d in ranked_ids], k)
    best = 0.0
    for perm in itertools.permutations(grades.values()):
        best = max(best, dcg_oracle(list(perm), k))
    return dcg / best


def err_oracle(ranked_ids, grades, k):
    """Expected 1/stop-rank by enumerating every satisfaction outcome."""
    positives = [g for g in grades.values() if g > 0]
    if not positives:
        return None
    probs = [(2 ** grades.get(d, 0) - 1) / 16.0 for d in ranked_ids[:k]]
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=len(probs)):
        p = 1.0
        for satisfied, r in zip(outcome, probs):
            p *= r if satisfied else (1.0 - r)
        stops = [i for i, satisfied in enumerate(outcome, start=1) if satisfied]
        if stops:
            total += p / stops[0]
    return total


# --------------------------------------------------------------------- #
# geometry and calculus


def haversine_oracle(a, b, radius_km=6371.0):
    """atan2 form of the great-circle distance (implementation uses asin)."""
    phi1, lam1 = math.radians(a[0]), math.radians(a[1])
    phi2, lam2 = math.radians(b[0]), math.radians(b[1])
    h = (
        math.sin((phi2 - phi1) / 2) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin((lam2 - lam1) / 2) ** 2
    )
    return 2 * radius_km * math.atan2(math.sqrt(h), math.sqrt(1 - h))


def central_difference_gradient(f, x, h=1e-6):
    """Componentwise central finite differences of a scalar function."""
    import numpy as np

    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(len(x)):
        up = x.copy()
        down = x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2 * h)
    return grad


# --------------------------------------------------------------------- #
# text and location features from raw tokens and coordinates; the engine
# reads the first from the index's positions and the second from a distance


def title_hit_ratio(query_tokens, title_tokens):
    """Share of the distinct query terms that occur among the title's tokens."""
    terms = set(query_tokens)
    if not terms:
        return 0.0
    return len(terms & set(title_tokens)) / len(terms)


def location_relevance_value(user_location, doc_location, tau_km=50.0):
    """exp(-d / tau) over the atan2 distance; 0 when either side has no location."""
    if user_location is None or doc_location is None:
        return 0.0
    return math.exp(-haversine_oracle(user_location, doc_location) / tau_km)


# --------------------------------------------------------------------- #
# score combination: one document at a time, the way the ranker used to
# score before it split into build_table + combine


def score_candidate(ctx, doc, signals, intents, registry, config):
    """Factored scoring: generic sum plus threshold-gated intent terms."""
    from intentrank.ranker import GenericTerm, IntentTerm, ScoreTrace

    generic_terms = []
    total = 0.0
    for component_id in sorted(config.generic_weights):
        weight = config.generic_weights[component_id]
        sigma = registry.generic[component_id].score(ctx, doc, signals)
        contribution = weight * sigma
        total += contribution
        generic_terms.append(GenericTerm(component_id, sigma, weight, contribution))

    intent_terms = []
    for intent_id in sorted(config.intent_weights):
        weight = config.intent_weights[intent_id]
        scorer = registry.intent_specific[intent_id]
        p = intents.get(intent_id)
        if p < config.trigger_threshold or p == 0.0:
            intent_terms.append(
                IntentTerm(intent_id, p, scorer.component_id, None, weight, 0.0, skipped=True)
            )
            continue
        sigma = scorer.score(ctx, doc, signals)
        contribution = p * weight * sigma
        total += contribution
        intent_terms.append(
            IntentTerm(intent_id, p, scorer.component_id, sigma, weight, contribution)
        )

    trace = ScoreTrace(
        doc_id=doc.doc_id,
        final_score=total,
        generic_terms=tuple(generic_terms),
        intent_terms=tuple(intent_terms),
    )
    return total, trace


def score_candidate_mixture(ctx, doc, signals, intents, registry, config):
    """Reference evaluator in expanded mixture form, with no thresholding.

    Computes sum over every intent in the distribution of P(t|q) times the
    full generic sum plus that intent's own weighted term.
    """
    generic_sum = 0.0
    for component_id in sorted(config.generic_weights):
        weight = config.generic_weights[component_id]
        generic_sum += weight * registry.generic[component_id].score(ctx, doc, signals)

    total = 0.0
    for intent_id, p in intents.items():
        specific = 0.0
        if intent_id in config.intent_weights:
            scorer = registry.intent_specific[intent_id]
            specific = config.intent_weights[intent_id] * scorer.score(ctx, doc, signals)
        total += p * (generic_sum + specific)
    return total


def rank_oracle(ctx, scored_inputs, intents, registry, config):
    """(items as (doc_id, score) pairs, traces by doc_id): score each doc, sort, cut."""
    from intentrank.ranker import ScoreTrace

    traces = {}
    scored = []
    for doc, signals in scored_inputs:
        subs = doc.quality.subscores()
        if doc.quality.policy_reject:
            traces[doc.doc_id] = ScoreTrace(doc.doc_id, 0.0, filtered="policy")
            continue
        score, trace = score_candidate(ctx, doc, signals, intents, registry, config)
        traces[doc.doc_id] = trace
        scored.append((score, sum(subs) / len(subs), doc.doc_id))
    scored.sort(key=lambda row: (-row[0], -row[1], row[2]))
    return [(doc_id, score) for score, _, doc_id in scored[: config.k_final]], traces


# --------------------------------------------------------------------- #
# paired bootstrap with every resample drawn at once


def paired_bootstrap_p_oneshot(values_a, values_b, n_resamples, seed):
    import numpy as np

    diffs = np.asarray(values_b, dtype=np.float64) - np.asarray(values_a, dtype=np.float64)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(diffs), size=(n_resamples, len(diffs)))
    boot = diffs[idx].mean(axis=1)
    p_low = float(np.mean(boot <= 0.0))
    p_high = float(np.mean(boot >= 0.0))
    return min(1.0, 2.0 * min(p_low, p_high))


# --------------------------------------------------------------------- #
# the dict-of-postings index and per-candidate graph walk that the
# columnar index and the searcher view replaced


class DictIndexOracle:
    """Per shard, term -> [(doc_id, tf, positions)] sorted by doc_id.

    Each shard scores its postings one document at a time with BM25 over
    global statistics, keeps its top `per_shard_k`, and the lists meet in
    the same two-tier merge as the package's.
    """

    def __init__(self, documents, num_shards=1, k1=1.2, b=0.75):
        import zlib

        self.num_shards, self.k1, self.b = num_shards, k1, b
        self.postings = [{} for _ in range(num_shards)]
        self.doc_lengths = [{} for _ in range(num_shards)]
        self.shard_by_doc = {}
        self.df = {}
        total_len = 0
        for doc_id in sorted(documents):
            doc = documents[doc_id]
            stream = _tok(doc.title) + _tok(doc.body)
            shard = zlib.crc32(doc_id.encode("utf-8")) % num_shards
            self.shard_by_doc[doc_id] = shard
            self.doc_lengths[shard][doc_id] = len(stream)
            total_len += len(stream)
            by_term = {}
            for pos, term in enumerate(stream):
                by_term.setdefault(term, []).append(pos)
            for term, positions in by_term.items():
                self.postings[shard].setdefault(term, []).append(
                    (doc_id, len(positions), tuple(positions)))
                self.df[term] = self.df.get(term, 0) + 1
        for postings in self.postings:
            for plist in postings.values():
                plist.sort()
        self.n_docs = len(documents)
        self.avgdl = total_len / self.n_docs if self.n_docs else 0.0

    def _score(self, terms, tfs, doc_length):
        if self.avgdl <= 0:
            return 0.0
        k1, b = self.k1, self.b
        norm = k1 * (1.0 - b + b * doc_length / self.avgdl)
        score = 0.0
        for term in terms:
            tf = tfs.get(term, 0)
            if tf == 0:
                continue
            df = self.df.get(term, 0)
            idf = math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + norm)
        return score

    def _shard_top(self, shard, query_tokens, limit):
        terms = sorted(set(query_tokens))
        tf_by_doc = {}
        for term in terms:
            for doc_id, tf, _ in self.postings[shard].get(term, ()):
                tf_by_doc.setdefault(doc_id, {})[term] = tf
        scored = [(doc_id, self._score(terms, tfs, self.doc_lengths[shard][doc_id]))
                  for doc_id, tfs in tf_by_doc.items()]
        scored.sort(key=lambda c: (-c[1], c[0]))
        return scored[:limit]

    def retrieve(self, query_tokens, k, per_shard_k):
        """[(doc_id, score)] in (score desc, doc_id asc) order."""
        if not query_tokens:
            return []

        def merge(lists, limit):
            merged = [c for lst in lists for c in lst]
            merged.sort(key=lambda c: (-c[1], c[0]))
            return merged[:limit]

        tops = [self._shard_top(s, query_tokens, per_shard_k) for s in range(self.num_shards)]
        num_aggs = max(1, math.isqrt(self.num_shards))
        groups = [[] for _ in range(num_aggs)]
        for i, top in enumerate(tops):
            groups[i % num_aggs].append(top)
        return merge([merge(group, per_shard_k) for group in groups if group], k)

    def _posting(self, term, doc_id):
        shard = self.shard_by_doc.get(doc_id)
        if shard is None:
            return None
        for posting in self.postings[shard].get(term, ()):  # linear scan
            if posting[0] == doc_id:
                return posting
        return None

    def positions(self, term, doc_id):
        posting = self._posting(term, doc_id)
        return posting[2] if posting else ()

    def term_frequencies(self, doc_id, terms):
        return {t: p[1] for t in set(terms) if (p := self._posting(t, doc_id))}

    def score_doc(self, query_tokens, doc_id):
        shard = self.shard_by_doc.get(doc_id)
        if shard is None:
            return 0.0
        return self._score(sorted(set(query_tokens)), self.term_frequencies(doc_id, query_tokens),
                           self.doc_lengths[shard][doc_id])


def social_relations_walk(graph, searcher, doc):
    """Relations found by walking the SocialGraph for one document."""
    rels = set()
    author = doc.author_id
    if author is not None and author == searcher:
        rels.add("self")
    searcher_friends = graph.friends(searcher)
    if author is not None and author != searcher:
        if author in searcher_friends:
            rels.add("friend")
        elif any(author in graph.friends(x) for x in searcher_friends):
            rels.add("friend_of_friend")
        if graph.has_edge(author, searcher, "pending_friend"):
            rels.add("pending_friend")
    if graph.has_edge(searcher, doc.doc_id, "engaged"):
        rels.add("self_engaged")
    if any(graph.has_edge(f, doc.doc_id, "engaged") for f in searcher_friends):
        rels.add("friend_engaged")
    targets = {doc.doc_id} | ({author} if author is not None else set())
    if any(graph.has_edge(searcher, t, "follow") for t in targets):
        rels.add("followee")
    if any(graph.has_edge(t, searcher, "follow") for t in targets if t != searcher):
        rels.add("follower")
    if graph.has_edge(searcher, doc.doc_id, "pending_join"):
        rels.add("pending_joining")
    return rels


# --------------------------------------------------------------------- #
# input loaders as written before the field-table decoder: one hand-written
# coercion per record kind over raw JSON. They build the package's own
# classes, so their output can be compared with the decoder's for equality.


def _raw_records(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def _loc(loc):
    return (float(loc[0]), float(loc[1])) if loc else None


def document_oracle(rec):
    from intentrank.corpus import Document, EngagementCounters, QualitySignals

    q = rec.get("quality", {})
    e = rec.get("engagement", {})
    return Document(
        doc_id=rec["doc_id"],
        doc_type=rec["doc_type"],
        title=rec.get("title", ""),
        body=rec.get("body", ""),
        author_id=rec.get("author_id"),
        publisher_id=rec.get("publisher_id"),
        languages={str(k): float(v) for k, v in rec.get("languages", {}).items()},
        location=_loc(rec.get("location")),
        created_ts=int(rec.get("created_ts", 0)),
        entity_ids=frozenset(rec.get("entity_ids", [])),
        quality=QualitySignals(
            kids_friendly=float(q.get("kids_friendly", 1.0)),
            authentic=float(q.get("authentic", 1.0)),
            authoritative=float(q.get("authoritative", 0.5)),
            readability=float(q.get("readability", 0.5)),
            video_resolution=(float(q["video_resolution"])
                              if q.get("video_resolution") is not None else None),
            policy_reject=bool(q.get("policy_reject", False)),
        ),
        engagement=EngagementCounters(
            impressions=int(e.get("impressions", 0)),
            clicks=int(e.get("clicks", 0)),
            good_clicks=int(e.get("good_clicks", 0)),
        ),
    )


def user_oracle(rec):
    from intentrank.corpus import UserContext

    return UserContext(
        user_id=rec["user_id"],
        languages=tuple(rec.get("languages", [])),
        location=_loc(rec.get("location")),
        engaged_doc_ids={str(k): int(v) for k, v in rec.get("engaged_doc_ids", {}).items()},
    )


def load_corpus_oracle(root):
    """(documents, users, edge triples in SocialGraph.edges() order) of a corpus directory."""
    root = Path(root)
    docs = {d.doc_id: d for d in map(document_oracle, _raw_records(root / "documents.jsonl"))}
    users = {u.user_id: u for u in map(user_oracle, _raw_records(root / "users.jsonl"))}
    edges = sorted({(r["src"], r["dst"], r["label"]) for r in _raw_records(root / "edges.jsonl")},
                   key=lambda e: (e[0], e[2], e[1]))
    return docs, users, edges


def load_query_log_oracle(path):
    from intentrank.corpus import QueryRecord, StructuredSuggestion

    out = []
    for rec in _raw_records(path):
        sug = rec.get("suggestion_click")
        out.append(QueryRecord(
            query_text=rec["query_text"],
            user_id=rec["user_id"],
            ts=int(rec.get("ts", 0)),
            shown_doc_ids=tuple(rec.get("shown_doc_ids", [])),
            clicked=frozenset(rec.get("clicked", [])),
            good_clicked=frozenset(rec.get("good_clicked", [])),
            suggestion_click=(StructuredSuggestion(sug["entity_id"], sug["intent_id"])
                              if sug else None),
        ))
    return out


def load_judgments_oracle(path):
    from intentrank.corpus import GRADE_NAMES, RelevanceJudgment

    out = []
    for rec in _raw_records(path):
        grade = rec["grade"]
        if isinstance(grade, str):
            grade = GRADE_NAMES.get(grade.lower(), -1)
        out.append(RelevanceJudgment(rec["query_text"], rec["user_id"], rec["doc_id"],
                                     int(grade)))
    return out


def load_bvt_suite_oracle(path):
    from intentrank.evaluation import BVTCase, parse_expectation

    return [
        BVTCase(
            case_id=rec["case_id"],
            query_text=rec["query"],
            user_id=rec["user_id"],
            intent_tag=rec.get("intent_tag", "generic"),
            language_tag=rec.get("language_tag", "en"),
            expectations=tuple(parse_expectation(t) for t in rec["expectations"]),
        )
        for rec in _raw_records(path)
    ]


def load_patterns_oracle(path):
    from intentrank.intent.patterns import SpecialGrammar, parse_pattern

    out = []
    for rec in _raw_records(path):
        g = rec.get("grammar")
        grammar = (SpecialGrammar(g["doc_type"], bool(g.get("self_seen", False)),
                                  g.get("window")) if g else None)
        out.append(parse_pattern(source=rec["pattern"], pattern_id=rec["pattern_id"],
                                 target_intent=rec["target_intent"],
                                 base_confidence=float(rec.get("base_confidence", 0.8)),
                                 grammar=grammar))
    return out


def load_dictionaries_oracle(path):
    from intentrank.index import tokenize
    from intentrank.intent.patterns import Dictionary

    return {
        rec["dictionary_id"]: Dictionary(
            rec["dictionary_id"], frozenset(tuple(tokenize(p)) for p in rec["phrases"]))
        for rec in _raw_records(path)
    }


def load_entities_oracle(path):
    from intentrank.index import tokenize
    from intentrank.intent.patterns import EntityRecord

    return [
        EntityRecord(
            entity_id=rec["entity_id"],
            entity_type=rec["entity_type"],
            aliases=frozenset(tuple(tokenize(a)) for a in rec["aliases"]),
            description_terms=frozenset(rec.get("description_terms", [])),
            popularity=float(rec.get("popularity", 0.5)),
        )
        for rec in _raw_records(path)
    ]


def ranker_config_oracle(engine_config):
    """The RankerConfig an engine config defines: component weights plus ranker knobs."""
    from intentrank.ranker import DEFAULT_TRIGGER_THRESHOLD, RankerConfig

    generic, intent = {}, {}
    for rec in engine_config.get("components", []):
        weight = float(rec.get("weight", 1.0))
        if rec["kind"] in ("friend_intent", "grammar_intent", "video_publisher") \
                or rec.get("scope") == "intent_specific":
            intent[rec["intent"]] = weight
        else:
            generic[rec["component_id"]] = weight
    knobs = engine_config.get("ranker", {})
    return RankerConfig(
        generic_weights=generic,
        intent_weights=intent,
        trigger_threshold=float(knobs.get("trigger_threshold", DEFAULT_TRIGGER_THRESHOLD)),
        k_final=int(knobs.get("k_final", 10)),
    )


def tune_spec_oracle(rec):
    from intentrank.tuning import GridSpec, TuneSpec

    params = []
    for entry in rec["free_params"]:
        g = entry["grid"]
        params.append((entry["path"], GridSpec(
            lo=float(g.get("lo", 0.0)), hi=float(g.get("hi", 0.0)),
            factor=float(g.get("factor", 2.0)),
            points=tuple(float(p) for p in g.get("points", ())))))
    objective = rec.get("objective", {})
    return TuneSpec(
        free_params=tuple(params),
        alpha_sgcr=float(objective.get("sgcr", 1.0 / 3.0)),
        beta_ndcg=float(objective.get("ndcg", 1.0 / 3.0)),
        gamma_bvt=float(objective.get("bvt", 1.0 / 3.0)),
        metric_k=int(rec.get("metric_k", 10)),
        budget=int(rec.get("budget", 64)),
        restarts=int(rec.get("restarts", 0)),
        seed=int(rec.get("seed", 0)),
        guardrail_epsilon=float(rec.get("guardrail_epsilon", 0.02)),
    )
