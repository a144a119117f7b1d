"""One engine shared by many threads: every output equals a sequential run's.

The engine keeps no per-query state: each search builds its own searcher
view, candidate frame and score table. Eight threads with a very short switch
interval, so that the interpreter switches threads inside every stage of a
search, must each get exactly what one thread gets.
"""

from __future__ import annotations

import json
import sys
import threading
from urllib.parse import urlencode
from urllib.request import urlopen

import pytest

from intentrank.cli import _render_ranked, make_server
from intentrank.ranker import export_traces

THREADS = 8
QUERIES = 200
TIMEOUT_S = 120


@pytest.fixture(scope="module")
def shared(bench_fixtures, bench_engines):
    engine, (_, plan) = bench_engines["serve_zipf"], bench_fixtures["serve_zipf"]
    queries = [(q.text, q.user) for block in plan.blocks for q in block][:QUERIES]
    return engine, queries


def search_output(engine, text, user) -> str:
    result = engine.search(text, user)
    return _render_ranked(engine, result) + "\n" + json.dumps(export_traces(result.ranked))


def run_threads(work) -> list:
    """work(thread_no) in THREADS threads at once; their results, in thread order."""
    results: list = [None] * THREADS
    errors: list = []

    def target(no):
        try:
            results[no] = work(no)
        except BaseException as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(no,)) for no in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    return results


def share(queries, no):
    """Thread `no`'s queries: every query goes to two threads, and each thread
    starts at another query, so different queries overlap."""
    shift, size = no * len(queries) // THREADS, 2 * len(queries) // THREADS
    return (queries[shift:] + queries[:shift])[:size]


def test_threads_share_one_engine(shared):
    engine, queries = shared
    expected = {q: search_output(engine, *q) for q in queries}
    outputs = run_threads(lambda no: {q: search_output(engine, *q) for q in share(queries, no)})
    assert sum(len(out) for out in outputs) == 2 * len(queries)
    for out in outputs:
        assert out == {q: expected[q] for q in out}


def test_threads_share_one_server(shared):
    engine, queries = shared
    expected = {q: _render_ranked(engine, engine.search(*q)) + "\n" for q in queries}
    server = make_server(engine, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}/search?"
    try:
        def fetch_all(no):
            return {(text, user): urlopen(base + urlencode({"q": text, "user": user}),
                                          timeout=TIMEOUT_S).read().decode("utf-8")
                    for text, user in share(queries, no)}

        outputs = run_threads(fetch_all)
        assert sum(len(out) for out in outputs) == 2 * len(queries)
        for out in outputs:
            assert out == {q: expected[q] for q in out}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(TIMEOUT_S)
