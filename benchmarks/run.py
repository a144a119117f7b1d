"""Benchmark entry point.

    python3 benchmarks/run.py --workload serve_zipf|tune_ab --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/`, nothing is installed. The workload is generated from the seed, the
program runs in child processes (`intentrank serve` or benchmarks/offline.py)
with PYTHONHASHSEED fixed and stderr sent to a file, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
is a separate traced run that reports the per-layer ones. Outputs land in
.bench_runs/<workload>-seed<N>-trace<T>/ (result.json, stderr logs, spans).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlencode

from offline import count_lines, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")


class Child:
    """A child process whose set-up ends at its first stdout line; always reaped."""

    def __init__(self, argv: list[str], stderr_path: Path):
        self._err = open(stderr_path, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                     stderr=self._err, stdin=subprocess.DEVNULL)
        self.first_line = self._read_line(CHILD_TIMEOUT_S)
        self.setup_s = time.perf_counter() - t0

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line:
            self.stop()
            raise BenchError(f"{self.proc.args[1:3]} gave no ready line (exit {self.proc.poll()})")
        return line

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        finally:
            self.stop()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


def start_server(config: Path, stderr_path: Path) -> tuple[Child, int]:
    child = Child([sys.executable, "-m", "intentrank.cli", "serve", "--config", str(config),
                   "--port", "0"], stderr_path)
    # "serving on http://127.0.0.1:PORT  (...)"
    port = int(child.first_line.split()[2].rsplit(":", 1)[1])
    return child, port


def offline_child(request: dict, run_dir: Path, name: str) -> Child:
    req_path = run_dir / f"{name}.request.json"
    req_path.write_text(json.dumps(request), encoding="utf-8")
    return Child([sys.executable, str(ROOT / "benchmarks" / "offline.py"), str(req_path)],
                 Path(request["stderr_path"]))


def http_search(port: int, text: str, user: str) -> tuple[int, str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", "/search?" + urlencode({"q": text, "user": user}))
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8")
    finally:
        conn.close()


def returned_doc_ids(body: str) -> list[str]:
    """Doc ids from the rendered list: '  1  d_post00012   0.123456789  post ...'."""
    return [line.split()[1] for line in body.splitlines()[1:] if line.strip()
            and line.split()[0].isdigit()]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.exists():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha()}


# --------------------------------------------------------------------- #
# workloads


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import gen
        from checks import Checks, RawCorpus
        from intentrank.synth import write_fixture

        self.seconds, self.trace = seconds, trace
        self.dir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.fx, self.plan = gen.BUILDERS[workload](seed)
        self.config = write_fixture(self.fx, self.dir / "fixture")
        self.raw = RawCorpus(self.fx.documents)
        self.checks = Checks()
        self.replies: list[tuple] = []  # (query, status, body) of the timed HTTP phase
        self.requests = 0
        self.failed_requests = 0
        self.friend_names = {d["title"] for d in self.fx.documents if d["doc_type"] == "user"}

    def request(self, **fields) -> dict:
        name = "trace" if self.trace else "offline"
        base = {
            "src": str(SRC), "config": str(self.config), "mode": "run",
            "out": str(self.dir / f"{name}.result.json"),
            "stderr_path": str(self.dir / f"{name}.stderr"),
            "spans_path": str(self.dir / "spans"),
            "trace": self.trace, "tune_spec": self.plan.tune_spec,
            "queries": [], "seconds": 0.0, "min_rounds": 1,
            "export": {"retrieve": [[q.text, q.user] for q in self.plan.check_queries[:30]],
                       "search": [[q.text, q.user] for q in self.plan.check_queries]},
        }
        base.update(fields)
        return base

    def run_offline(self, request: dict, child: Child | None = None) -> dict:
        child = child or offline_child(request, self.dir, "trace" if self.trace else "offline")
        if child.wait() != 0:
            raise BenchError(f"offline child failed; see {request['stderr_path']}")
        out = json.loads(Path(request["out"]).read_text(encoding="utf-8"))
        self.check_outputs(out)
        return out

    def check_outputs(self, out: dict) -> None:
        from checks import check_offline, check_ranked, check_retrieve

        export = out["export"]
        check_retrieve(self.checks, self.raw, export["retrieve"])
        for q, rec in zip(self.plan.check_queries, export["search"]):
            check_ranked(self.checks, self.raw, export["config"], rec, q.kind, self.friend_names)
        check_offline(self.checks, self.fx.query_log, self.fx.judgments, export,
                      out["tune_results"], out.get("ab_deltas", []))
        for q, same in zip(self.plan.check_queries, out.get("pipeline_matches", [])):
            self.checks.check(same, f"{q.text!r}: re-assembled pipeline differs from search")

    def http_pass(self, port: int, queries, keep: bool = True) -> list[float]:
        """Closed loop, one client; kept replies are checked after the timed phase."""
        latencies = []
        for q in queries:
            t = time.perf_counter()
            try:
                status, body = http_search(port, q.text, q.user)
            except (OSError, http.client.HTTPException) as exc:
                status, body = 0, str(exc)
            latencies.append(time.perf_counter() - t)
            if keep:
                self.replies.append((q, status, body))
        return latencies

    def check_replies(self) -> None:
        from checks import Checks, check_list

        for q, status, body in self.replies:
            one = Checks()
            if status == 200:
                check_list(one, self.raw, q.text, q.kind, returned_doc_ids(body), None)
            self.requests += 1
            if status != 200 or one.failed:
                self.failed_requests += 1
                if len(self.checks.failures) < 20:
                    self.checks.failures.append(f"{q.text!r}: HTTP {status} {one.failures}")

    # ----------------------------------------------------------------- #

    def serve_zipf(self) -> tuple[dict, dict]:
        err = self.dir / "server.stderr"
        setups = [self.server_setup_s(err)]
        server, port = start_server(self.config, err)
        setups.append(server.setup_s)
        try:
            self.http_pass(port, self.plan.blocks[0], keep=False)  # warm-up
            latencies: list[float] = []
            t0 = time.perf_counter()
            for block in self.plan.blocks * 10:
                latencies += self.http_pass(port, block)
                if time.perf_counter() - t0 >= self.seconds:
                    break
            elapsed = time.perf_counter() - t0
            peak = server.peak_rss_mb()
        finally:
            server.stop()
        setups.append(self.server_setup_s(err))
        self.check_replies()
        out = self.run_offline(self.request(min_rounds=3))
        lat = sorted(latencies)
        return {
            "setup_s": statistics.median(setups),
            "mem.peak_mb": peak,
            "search.p50_ms": statistics.median(lat) * 1e3,
            "search.tail_ms": tail(lat) * 1e3,
            "search.per_s": len(lat) / elapsed,
            "tune_s": statistics.median(out["tune_s"]),
            "abtest_s": statistics.median(out["abtest_s"]),
        }, {"samples": len(lat), "tail_percentile": tail_percentile(len(lat)),
            "setup_samples_s": setups, "rounds": out["rounds"], "operations": 2 * out["rounds"],
            "server_stderr_lines": count_lines(err), "offline_peak_mb": out["peak_rss_mb"]}

    def tune_ab(self) -> tuple[dict, dict]:
        queries = [[q.text, q.user] for q in self.plan.check_queries]
        request = self.request(queries=queries, seconds=self.seconds)
        setups = [self.child_setup_s(request)]
        child = offline_child(request, self.dir, "offline")
        setups.append(child.setup_s)
        out = self.run_offline(request, child)
        setups.append(self.child_setup_s(request))
        lat = sorted(out["search_latencies_s"])
        return {
            "setup_s": statistics.median(setups),
            "mem.peak_mb": out["peak_rss_mb"],
            "search.p50_ms": statistics.median(lat) * 1e3,
            "search.tail_ms": statistics.median(out["round_tails_s"]) * 1e3,
            "search.per_s": len(lat) / sum(lat),
            "tune_s": statistics.median(out["tune_s"]),
            "abtest_s": statistics.median(out["abtest_s"]),
        }, {"samples": len(lat),
            "tail_percentile": tail_percentile(len(lat) // out["rounds"]),
            "setup_samples_s": setups, "rounds": out["rounds"],
            "operations": out["rounds"] * (4 * len(queries) + 2),
            "offline_stderr_lines": count_lines(Path(request["stderr_path"]))}

    # set-up samples sit before and after the timed phase, so that one slow
    # spell of the shared host does not decide their median
    def server_setup_s(self, err: Path) -> float:
        child, _ = start_server(self.config, err)
        child.stop()
        return child.setup_s

    def child_setup_s(self, request: dict) -> float:
        child = offline_child(dict(request, mode="setup"), self.dir, "setup")
        if child.wait() != 0:
            raise BenchError("set-up child failed")
        return child.setup_s

    def traced(self) -> tuple[dict, dict]:
        """Per-layer run: HTTP pass for the cli layer, then the traced child."""
        queries = self.plan.check_queries
        err = self.dir / "server.stderr"
        server, port = start_server(self.config, err)
        try:
            self.http_pass(port, queries, keep=False)  # warm-up
            http_lat = self.http_pass(port, queries)
        finally:
            server.stop()
        self.check_replies()
        out = self.run_offline(self.request(queries=[[q.text, q.user] for q in queries]))
        layer = dict(out["layer"])
        diffs = sorted(h - i for h, i in zip(http_lat, out["inprocess_latencies_s"]))
        layer["cli.serve_overhead_ms"] = statistics.median(diffs) * 1e3
        layer["cli.log_lines_per_request"] = count_lines(err) / (2 * len(queries))
        top = sorted(out["self_time_by_name"].items(), key=lambda kv: -kv[1]["self_s"])[:12]
        return layer, {"trace_overhead_pct": layer["trace.overhead_pct"], "operations": 2,
                       "self_time_top": dict(top)}


def tail_percentile(n: int) -> float:
    return round(100.0 * (n - 10) / n, 2) if n > 10 else 100.0


UNITS_PATH = ROOT / "BENCHMARK.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("serve_zipf", "tune_ab"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "intentrank" / "__init__.py", UNITS_PATH):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a source checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still unwinds, so every child is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads(UNITS_PATH.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        if args.trace:
            metrics, detail = run.traced()
        else:
            metrics, detail = getattr(run, args.workload)()
    finally:
        shutil.rmtree(run.dir / "fixture", ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    failed = run.checks.failed + run.failed_requests
    result = {
        "correct": failed == 0,
        "attempted": run.checks.attempted + run.requests + detail["operations"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine(), detail=detail,
                  failures=run.checks.failures, makeup=run.plan.makeup)
    (run.dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for m in wanted:
        print(f"{m['name']:<34} {metrics[m['name']]:>14.4f} {m['unit']}")
    print(f"# {json.dumps(record['machine'])} detail={json.dumps(detail)[:400]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
