"""Seeded workload generators for the benchmark.

Each builder turns a seed into a `Fixture` (written with
`intentrank.synth.write_fixture`) plus a plan: the query stream the
benchmark sends and the samples its checks use. The make-up of every
fixture (sizes, shares, counts) is fixed; the seed only picks which words,
users and documents fill it, so figures from different seeds stay
comparable. Generation runs before any timed phase.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
import re
from dataclasses import dataclass, field

from intentrank.synth import DEMO_NOW_TS, Fixture, default_components, doc, quality

DAY = 86400
CITIES = ([37.77, -122.42], [40.71, -74.01], [51.51, -0.13], [48.86, 2.35], [35.68, 139.69])
FIRST = ("ann bob cara dev eli fay gus hana ivo jade kai lena milo nora omar pia quin rosa "
         "sam tara umar vera wade xena yuri zoe abel bria cole dina ezra flor gwen hugo iris "
         "joel kira liam maya nico opal pete ruth seth tess ugo vic will yara zane").split()
LAST = ("stone reyes park field quinn moss hale vance cruz lund frost sato kerr diaz oakes "
        "pike rowe shaw tate wolfe yates ames bell cho dunn ernst fox gray holt ives jung "
        "kemp lowe marsh nash ortiz price rhee snow thorn underhill voss ward young zhang "
        "blake").split()
PUB_A = ("bright quiet rapid golden silver hidden urban wild cosmic simple daily lucky "
         "little modern royal sunny clever happy").split()
PUB_B = ("studio kitchen garage theater workshop lab channel gallery academy club arcade "
         "garden harbor tower").split()
SELF_HISTORY = ("posts i have seen", "videos i watched yesterday")
BVT_TAG = {"term": "generic", "friend": "friend", "publisher": "video_publisher",
           "movie": "video_publisher", "self_history": "special_grammar", "sports": "sports",
           "news": "news"}
SPORTS = ("nba", "finals", "playoffs", "soccer")
NEWS = ("news", "election", "breaking")

_TOKEN = re.compile(r"[^\W_]+")


def tokens(text: str) -> list[str]:
    """The benchmark's own tokenizer; the engine documents the same rule."""
    return _TOKEN.findall(text.lower())


@dataclass
class Query:
    text: str
    user: str
    kind: str  # head | term | friend | publisher | self_history | movie | sports | news
    suggestion: dict | None = None


@dataclass
class Plan:
    blocks: list[list[Query]] = field(default_factory=list)  # the timed query stream
    check_queries: list[Query] = field(default_factory=list)
    tune_spec: dict = field(default_factory=dict)
    makeup: dict = field(default_factory=dict)


class Zipf:
    """Seeded Zipf sampler over a vocabulary of `size` made-up words."""

    def __init__(self, rng: random.Random, size: int, exponent: float, prefix: str):
        ids = list(range(size))
        rng.shuffle(ids)  # which word is the head changes with the seed
        self.words = [f"{prefix}{i}" for i in ids]
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** exponent for r in range(size)))
        self.rng = rng

    def draw(self, n: int) -> list[str]:
        top = self.cum[-1]
        return [self.words[bisect_left(self.cum, self.rng.random() * top)] for _ in range(n)]

    def stratified(self, n: int, min_rank: int) -> list[str]:
        """n words at the same Zipf quantiles on every call, commonest first:
        the seed changes the words but not their ranks."""
        lo = self.cum[min_rank - 1] if min_rank else 0.0
        return [self.words[bisect_left(self.cum, lo + (i + 0.5) / n * (self.cum[-1] - lo))]
                for i in range(n)]


def group(words: list[str], sizes: list[int]) -> list[str]:
    """Consecutive words joined into queries of the given term counts."""
    it = iter(words)
    return [" ".join(next(it) for _ in range(size)) for size in sizes]


def shapes(n: int) -> list[int]:
    """Term counts of n term queries: 1, 2, 2, 3, 1, 2, 2, 3, ..."""
    return [(1, 2, 2, 3)[i % 4] for i in range(n)]


def _names(rng: random.Random, n: int, first, last) -> list[str]:
    pool = [f"{a} {b}" for a in first for b in last]
    return rng.sample(pool, n)


def _social_world(fx: Fixture, rng: random.Random, n_users: int, degree: int,
                  edgeless_share: float, n_publishers: int):
    """Users with names and locations, a friend graph and publisher pages."""
    names = _names(rng, n_users, FIRST, LAST)
    users = [f"u{i:04d}" for i in range(n_users)]
    n_edgeless = round(n_users * edgeless_share)
    edgeless = set(rng.sample(users, n_edgeless))
    connected = [u for u in users if u not in edgeless]
    friends: dict[str, set[str]] = {u: set() for u in users}
    for _ in range(degree):  # one random matching per round: degrees stay near `degree`
        order = connected[:]
        rng.shuffle(order)
        for a, b in zip(order[::2], order[1::2]):
            if b not in friends[a]:
                friends[a].add(b)
                friends[b].add(a)
                fx.edges += [{"src": a, "dst": b, "label": "friend"},
                             {"src": b, "dst": a, "label": "friend"}]
    pubs = _names(rng, n_publishers, PUB_A, PUB_B)
    pub_ids = [f"pg{k:03d}" for k in range(n_publishers)]
    for pid, name in zip(pub_ids, pubs):
        fx.documents.append(doc(f"d_{pid}", "page", f"{name} official", body="official page",
                                author_id=pid, quality=quality(0.85)))
        fx.entities.append({"entity_id": pid, "entity_type": "publisher", "aliases": [name],
                            "description_terms": ["video", "official"],
                            "popularity": round(rng.uniform(0.5, 0.95), 2)})
    for u in connected:
        for pid in rng.sample(pub_ids, 3):
            fx.edges.append({"src": u, "dst": pid, "label": "follow"})
    for uid, name in zip(users, names):
        fx.documents.append(doc(f"d_{uid}", "user", name, author_id=uid))
    return users, names, connected, edgeless, friends, list(zip(pub_ids, pubs))


def _content(fx: Fixture, rng: random.Random, zipf: Zipf, p: dict, authors, pubs):
    """Posts, videos, photos, groups and events with Zipf-worded text."""
    created_lo = DEMO_NOW_TS - 60 * DAY
    # publisher popularity is Zipf with exact per-rank video counts
    publisher_of = [pubs[r] for r, c in enumerate(
        _apportion([1.0 / (r + 1) for r in range(len(pubs))], p["content"]["video"]))
        for _ in range(c)]
    rng.shuffle(publisher_of)
    for doc_type, n in p["content"].items():
        for i in range(n):
            rejected = rng.random() < p["policy_reject_share"]
            title_words = zipf.draw(rng.randint(*p["title_words"]))
            body_words = zipf.draw(rng.randint(*p["body_words"]))
            lang = rng.choices(("en", "es", "ar"), (0.85, 0.1, 0.05))[0]
            kwargs = {
                "languages": {lang: 1.0},
                "created_ts": rng.randrange(created_lo, DEMO_NOW_TS - DAY),
                "engagement": _engagement(rng),
            }
            mean = 0.1 if rejected else round(rng.uniform(0.3, 0.95), 2)
            if doc_type == "video":
                pid, name = publisher_of[i]
                title_words = name.split() + title_words
                kwargs["publisher_id"] = pid
                kwargs["quality"] = quality(mean, rejected, video=round(rng.uniform(0.3, 1.0), 2))
            else:
                kwargs["quality"] = quality(mean, rejected)
            if doc_type in ("post", "photo"):
                kwargs["author_id"] = rng.choice(authors)
            if doc_type in ("event", "group") or rng.random() < 0.1:
                base = rng.choice(CITIES)
                kwargs["location"] = [base[0] + rng.uniform(-0.3, 0.3),
                                      base[1] + rng.uniform(-0.3, 0.3)]
            fx.documents.append(doc(f"d_{doc_type}{i:05d}", doc_type, " ".join(title_words),
                                    body=" ".join(body_words), **kwargs))


def _engagement(rng: random.Random) -> dict:
    impressions = rng.randrange(0, 2000)
    clicks = rng.randrange(0, impressions // 4 + 1)
    return {"impressions": impressions, "clicks": clicks,
            "good_clicks": rng.randrange(0, clicks + 1)}


def _users(fx: Fixture, rng: random.Random, users, edgeless, engageable, per_user: int):
    """User records with languages, locations and an engagement history."""
    yesterday = DEMO_NOW_TS - DEMO_NOW_TS % DAY - DAY // 2
    for uid in users:
        history = {}
        if uid not in edgeless:
            for doc_id in rng.sample(engageable, per_user):
                ts = yesterday if rng.random() < 0.3 else DEMO_NOW_TS - rng.randrange(2, 20) * DAY
                history[doc_id] = ts
                fx.edges.append({"src": uid, "dst": doc_id, "label": "engaged"})
        rec = {"user_id": uid, "languages": ["en", "es"] if rng.random() < 0.2 else ["en"],
               "engaged_doc_ids": dict(sorted(history.items()))}
        if rng.random() < 0.6:
            rec["location"] = rng.choice(CITIES)
        fx.users.append(rec)


def _config(fx: Fixture, shards: int, k: int) -> None:
    fx.retrieval = {"num_shards": shards, "k": k}
    fx.patterns = [
        {"pattern_id": "p_publisher", "pattern": "<publisher:entity>",
         "target_intent": "video_publisher", "base_confidence": 0.85},
        {"pattern_id": "p_posts_seen", "pattern": "posts i have seen",
         "target_intent": "special_grammar", "base_confidence": 0.9,
         "grammar": {"doc_type": "post", "self_seen": True}},
        {"pattern_id": "p_videos_yday", "pattern": "videos i watched yesterday",
         "target_intent": "special_grammar", "base_confidence": 0.9,
         "grammar": {"doc_type": "video", "self_seen": True, "window": "yesterday"}},
    ]
    fx.classifiers = [{"intent": "friend", "kind": "friend_name", "name": "friend_name"}]
    fx.components = default_components(publisher_mode="good_click_weighted")


# ------------------------------------------------------------------ #
# serve_zipf: a large social corpus queried over HTTP

SERVE = {
    "users": 500, "friend_degree": 50, "edgeless_share": 0.05, "publishers": 120,
    "content": {"post": 14400, "video": 3000, "photo": 1200, "group": 300, "event": 500},
    "vocabulary": 5000, "zipf_exponent": 1.0, "head_terms": 5, "policy_reject_share": 0.03,
    "title_words": (2, 5), "body_words": (10, 22),
    "engaged_per_user": 15, "shards": 4, "k": 50,
    # one block of 50 queries; the stream repeats whole blocks
    "block": {"head": 2, "term": 39, "friend": 4, "publisher": 3, "self_history": 2},
    "edgeless_searchers_per_block": 2, "blocks": 40,
    "labelled": {"term": 15, "friend": 4, "publisher": 3, "self_history": 2},
}


def build_serve_zipf(seed: int) -> tuple[Fixture, Plan]:
    rng = random.Random(seed)
    p = SERVE
    fx = Fixture(name="serve_zipf")
    zipf = Zipf(rng, p["vocabulary"], p["zipf_exponent"], "w")
    users, names, connected, edgeless, friends, pubs = _social_world(
        fx, rng, p["users"], p["friend_degree"], p["edgeless_share"], p["publishers"])
    _content(fx, rng, zipf, p, connected, pubs)
    engageable = [d["doc_id"] for d in fx.documents if d["doc_type"] in ("post", "video")]
    _users(fx, rng, users, edgeless, engageable, p["engaged_per_user"])
    _config(fx, p["shards"], p["k"])
    name_of = dict(zip(users, names))
    with_friends = [u for u in connected if friends[u]]
    edgeless = sorted(edgeless)

    def named(counts: dict) -> list[Query]:
        """Friend full names, publisher names and self-history queries."""
        out = []
        for _ in range(counts["friend"]):
            u = rng.choice(with_friends)
            out.append(Query(name_of[rng.choice(sorted(friends[u]))], u, "friend"))
        out += [Query(rng.choice(pubs)[1], rng.choice(users), "publisher")
                for _ in range(counts["publisher"])]
        out += [Query(rng.choice(SELF_HISTORY), rng.choice(connected), "self_history")
                for _ in range(counts["self_history"])]
        return out

    plan = Plan()
    b = p["block"]
    for n_block in range(p["blocks"]):
        sizes = [1] * b["head"] + shapes(b["term"])
        words = zipf.stratified(sum(sizes), p["head_terms"])
        rng.shuffle(words)
        texts = group(words, sizes)
        block = []
        for j in range(b["head"]):  # head ranks cycle, so every run sees the same mix
            head = zipf.words[(n_block * b["head"] + j) % p["head_terms"]]
            block.append(Query(f"{head} {texts[j]}", rng.choice(users), "head"))
        searchers = [rng.choice(edgeless) for _ in range(p["edgeless_searchers_per_block"])]
        searchers += [rng.choice(connected) for _ in range(b["term"] - len(searchers))]
        block += [Query(t, u, "term") for t, u in zip(texts[b["head"]:], searchers)]
        block += named(b)
        rng.shuffle(block)
        plan.blocks.append(block)
    # the checks use the first two blocks of the stream
    plan.check_queries = [q for block in plan.blocks[:2] for q in block]
    # a small labelled sample, built like the stream, drives the offline loop
    lab = p["labelled"]
    labelled = [Query(t, rng.choice(connected), "term")
                for t in group(zipf.stratified(sum(shapes(lab["term"])), p["head_terms"]),
                               shapes(lab["term"]))]
    labelled += named(lab)
    _labels(fx, rng, labelled, labelled)
    plan.tune_spec = {
        "free_params": [
            {"path": "generic_weights.text", "grid": {"points": [0.5, 1.0, 2.0]}},
            {"path": "intent_weights.friend", "grid": {"points": [0.75, 1.5]}},
        ],
        "objective": {"sgcr": 0.4, "ndcg": 0.4, "bvt": 0.2},
        "budget": 4,
    }
    plan.makeup = _makeup(fx, p, plan)
    return fx, plan


# ------------------------------------------------------------------ #
# tune_ab: the offline tune / A-B loop on a repeated query log

TUNE = {
    "users": 200, "friend_degree": 20, "edgeless_share": 0.1, "publishers": 60,
    "movies": 40,
    "content": {"post": 1000, "video": 500, "photo": 150, "group": 50, "event": 100},
    "vocabulary": 3000, "zipf_exponent": 1.0, "query_min_rank": 30, "policy_reject_share": 0.05,
    "title_words": (2, 4), "body_words": (6, 12),
    "engaged_per_user": 10, "shards": 4, "k": 20,
    "distinct_queries": {"term": 60, "friend": 20, "publisher": 20, "movie": 15,
                         "self_history": 10, "sports": 8, "news": 7},
    "log_records": 300, "log_popularity_exponent": 1.1,
}


def build_tune_ab(seed: int) -> tuple[Fixture, Plan]:
    rng = random.Random(seed)
    p = TUNE
    fx = Fixture(name="tune_ab")
    zipf = Zipf(rng, p["vocabulary"], p["zipf_exponent"], "w")
    users, names, connected, edgeless, friends, pubs = _social_world(
        fx, rng, p["users"], p["friend_degree"], p["edgeless_share"], p["publishers"])
    _content(fx, rng, zipf, p, connected, pubs)
    movies = [(f"m{k:03d}", f"{a} {b}") for k, (a, b) in
              enumerate(rng.sample(list(itertools.product(LAST, PUB_B)), p["movies"]))]
    for mid, title in movies:
        fx.entities.append({"entity_id": mid, "entity_type": "movie", "aliases": [title],
                            "description_terms": ["movie", "trailer"],
                            "popularity": round(rng.uniform(0.5, 0.95), 2)})
        pid = rng.choice(pubs)[0]
        for n in range(3):
            fx.documents.append(doc(f"d_{mid}_{n}", "video", f"{title} trailer {n}",
                                    body="official trailer", publisher_id=pid,
                                    entity_ids=[mid], engagement=_engagement(rng),
                                    quality=quality(0.8, video=0.9)))
    for i, word in enumerate(SPORTS + NEWS):
        for n in range(5):
            fx.documents.append(doc(f"d_kw{i}_{n}", "post", f"{word} " + " ".join(zipf.draw(3)),
                                    body=" ".join(zipf.draw(12)), author_id=rng.choice(connected),
                                    engagement=_engagement(rng)))
    engageable = [d["doc_id"] for d in fx.documents if d["doc_type"] in ("post", "video")]
    _users(fx, rng, users, edgeless, engageable, p["engaged_per_user"])
    _config(fx, p["shards"], p["k"])
    fx.dictionaries = [{"dictionary_id": "trailers", "phrases": ["trailer", "trailers", "teaser"]}]
    fx.patterns.append({"pattern_id": "p_movie_trailers",
                        "pattern": "<movie:entity> <trailers:dictionary>",
                        "target_intent": "video_publisher", "base_confidence": 0.85})
    fx.classifiers += [
        {"intent": "sports", "kind": "keyword", "name": "sports_kw",
         "params": {"keyword_confidence": {w: 0.7 for w in SPORTS}}},
        {"intent": "news", "kind": "keyword", "name": "news_kw",
         "params": {"keyword_confidence": {w: 0.65 for w in NEWS}}},
        {"intent": "news", "kind": "char_ngram", "name": "news_ngram",
         "params": {"ngrams": ["breaking", "headline"], "confidence": 0.6}},
    ]
    name_of = dict(zip(users, names))
    with_friends = [u for u in connected if friends[u]]
    pub_of = dict(pubs)
    d = p["distinct_queries"]
    edgeless = sorted(edgeless)

    def searchers(n: int) -> list[str]:  # every tenth searcher has no graph edges
        return [rng.choice(edgeless) if i % 10 == 3 else rng.choice(connected) for i in range(n)]

    by_kind: dict[str, list[Query]] = {}
    by_kind["term"] = [Query(t, u, "term") for t, u in zip(
        group(zipf.stratified(sum(shapes(d["term"])), p["query_min_rank"]), shapes(d["term"])),
        searchers(d["term"]))]
    by_kind["friend"] = []
    for _ in range(d["friend"]):
        u = rng.choice(with_friends)
        by_kind["friend"].append(Query(name_of[rng.choice(sorted(friends[u]))], u, "friend"))
    by_kind["publisher"] = []
    for u in searchers(d["publisher"]):
        pid = rng.choice(sorted(pub_of))
        sug = {"entity_id": pid, "intent_id": "video_publisher"} if rng.random() < 0.5 else None
        by_kind["publisher"].append(Query(pub_of[pid], u, "publisher", sug))
    by_kind["movie"] = [Query(f"{rng.choice(movies)[1]} {rng.choice(('trailer', 'trailers', 'teaser'))}",
                              u, "movie") for u in searchers(d["movie"])]
    by_kind["self_history"] = [Query(rng.choice(SELF_HISTORY), rng.choice(connected),
                                     "self_history") for _ in range(d["self_history"])]
    for kind, words in (("sports", SPORTS), ("news", NEWS)):
        extra = zipf.stratified(d[kind], p["query_min_rank"])
        by_kind[kind] = [Query(f"{rng.choice(words)} {w}", u, kind)
                         for w, u in zip(extra, searchers(d[kind]))]
    # popularity order takes the kinds in turn, so the most repeated queries
    # always have the same kinds; log counts follow Zipf exactly
    pool = [q for group in itertools.zip_longest(*by_kind.values()) for q in group if q]
    weights = [1.0 / (r + 1) ** p["log_popularity_exponent"] for r in range(len(pool))]
    counts = _apportion(weights, p["log_records"])
    log_queries = [q for q, c in zip(pool, counts) for _ in range(c)]
    rng.shuffle(log_queries)
    _labels(fx, rng, pool, log_queries)
    plan = Plan()
    plan.check_queries = pool
    plan.tune_spec = {
        "free_params": [
            {"path": "generic_weights.text", "grid": {"points": [0.5, 1.0, 2.0]}},
            {"path": "generic_weights.social", "grid": {"points": [0.5, 1.0, 2.0]}},
            {"path": "intent_weights.video_publisher", "grid": {"points": [0.75, 1.5, 3.0]}},
        ],
        "objective": {"sgcr": 0.4, "ndcg": 0.4, "bvt": 0.2},
        "budget": 3,
    }
    plan.makeup = _makeup(fx, p, plan)
    plan.makeup["distinct_queries"] = len(pool)
    plan.makeup["repeated_log_share"] = round(
        1 - len({(q.text, q.user) for q in log_queries}) / len(log_queries), 3)
    return fx, plan


def _apportion(weights: list[float], total: int) -> list[int]:
    """Integer counts proportional to weights, summing to total (largest remainder)."""
    raw = [w * total / sum(weights) for w in weights]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


# ------------------------------------------------------------------ #
# labels: query log with clicks, graded judgments, BVT cases


def _labels(fx: Fixture, rng: random.Random, queries: list[Query],
            log_queries: list[Query]) -> None:
    """Log records for `log_queries`; judgments and a BVT case for every query.

    Labels come from the generated text, never from the engine's output.
    """
    docs = {d["doc_id"]: d for d in fx.documents}
    postings: dict[str, set[str]] = {}
    for d in fx.documents:
        for t in set(tokens(d["title"] + " " + d["body"])):
            postings.setdefault(t, set()).add(d["doc_id"])
    users = {u["user_id"]: u for u in fx.users}

    def matching(q: Query) -> list[str]:
        """Docs holding every query token, else any; title hits first."""
        toks = tokens(q.text)
        if q.kind == "self_history":
            want = "post" if "posts" in toks else "video"
            return [d for d in sorted(users[q.user]["engaged_doc_ids"])
                    if docs[d]["doc_type"] == want]
        sets = [postings.get(t, set()) for t in toks]
        hits = set.intersection(*sets) if sets else set()
        hits = hits or set().union(*sets)
        hits = [d for d in hits if not docs[d].get("quality", {}).get("policy_reject")]
        return sorted(hits, key=lambda d: (-len(set(toks) & set(tokens(docs[d]["title"]))), d))

    for q in log_queries:
        shown = matching(q)[:6]
        clicked = [d for d in shown if rng.random() < 0.4]
        good = [d for d in clicked if rng.random() < 0.6]
        rec = {"query_text": q.text, "user_id": q.user, "ts": DEMO_NOW_TS - rng.randrange(1, 30) * DAY,
               "shown_doc_ids": shown, "clicked": clicked, "good_clicked": good}
        if q.suggestion:
            rec["suggestion_click"] = q.suggestion
        fx.query_log.append(rec)
    for q in queries:
        cands = matching(q)[:8]
        for i, d in enumerate(cands):
            grade = 4 if i == 0 else rng.randrange(0, 4)
            fx.judgments.append({"query_text": q.text, "user_id": q.user, "doc_id": d,
                                 "grade": grade})
    pub_of = {e["aliases"][0]: e["entity_id"] for e in fx.entities
              if e["entity_type"] == "publisher"}
    per_kind: dict[str, int] = {}
    for q in queries:
        n = per_kind[q.kind] = per_kind.get(q.kind, 0) + 1
        if q.kind == "friend":
            exp = ["top1: relation=friend type=user"]
        elif q.kind == "publisher":
            exp = [f"top1: publisher={pub_of[q.text]} type=video"]
        elif q.kind == "self_history":
            exp = ["top1: type=" + ("post" if q.text.startswith("posts") else "video")]
        elif q.kind == "movie":
            exp = ["top1: type=video"]
        else:
            best = matching(q)
            exp = [f"topk: {best[0]} 10"] if best else ["top1: lang=en"]
        fx.bvt_cases.append({"case_id": f"bvt_{q.kind}_{n - 1:02d}", "query": q.text,
                             "user_id": q.user, "intent_tag": BVT_TAG[q.kind],
                             "expectations": exp})


def _makeup(fx: Fixture, params: dict, plan: Plan) -> dict:
    queries = [q for block in plan.blocks for q in block] or plan.check_queries
    kinds: dict[str, int] = {}
    for q in queries:
        kinds[q.kind] = kinds.get(q.kind, 0) + 1
    out = dict(fx.manifest())
    out.update({k: v for k, v in params.items() if not isinstance(v, dict)})
    out["query_kinds"] = dict(sorted(kinds.items()))
    return out


BUILDERS = {"serve_zipf": build_serve_zipf, "tune_ab": build_tune_ab}
