"""Span recording around the program's public calls, for the traced run.

`Tracer.install` swaps the module attributes the engine, evaluation and
tuning code call through (`intentrank.engine.detect`, ...) for wrappers
that record a span per call; `uninstall` puts the originals back. Spans go
into flat arrays in memory (start, end, name, parent) and are written out
once at the end, with the self time of each span: its duration minus the
time its child spans cover. Spans of one phase share the phase's root span.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

import intentrank.engine as engine_mod
import intentrank.evaluation as evaluation_mod
import intentrank.index as index_mod
import intentrank.tuning as tuning_mod

# (module or class, attribute, span name)
PATCHES = (
    (engine_mod, "load_corpus", "load_corpus"),
    (engine_mod, "build_index", "build_index"),
    (engine_mod, "detect", "detect"),
    (engine_mod, "retrieve", "retrieve"),
    (engine_mod, "social_relations", "social_relations"),
    (engine_mod, "rank", "rank"),
    (engine_mod.EngineHandle, "search", "engine.search"),
    (engine_mod.EngineHandle, "build_signals", "build_signals"),
    (index_mod.ShardedIndex, "positions", "positions"),
    (tuning_mod, "sgcr_replay", "sgcr_replay"),
    (tuning_mod, "mean_ndcg", "mean_ndcg"),
    (tuning_mod, "run_bvts", "run_bvts"),
    (evaluation_mod, "sgcr_replay", "sgcr_replay"),
    (evaluation_mod, "mean_ndcg", "mean_ndcg"),
    (evaluation_mod, "run_bvts", "run_bvts"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.peaks_mb: dict[str, list[float]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        self._name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def wrap_peak(self, name: str, fn):
        """Span plus the peak of traced allocations during the call."""
        inner = self.wrap(name, fn)

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                self.peaks_mb.setdefault(name, []).append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        return measured

    def install(self, registry=None) -> None:
        """Wrap the public calls; with a registry, each scorer class's score too."""
        targets = list(PATCHES)
        scorers = [] if registry is None else (
            list(registry.generic.values()) + list(registry.intent_specific.values()))
        for scorer in scorers:
            cls = type(scorer)
            if not any(t[0] is cls for t in targets):
                targets.append((cls, "score", f"score.{cls.__name__}"))
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        original = evaluation_mod.paired_bootstrap_p
        self._saved.append((evaluation_mod, "paired_bootstrap_p", original))
        evaluation_mod.paired_bootstrap_p = self.wrap_peak("paired_bootstrap_p", original)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- #

    def arrays(self) -> dict:
        """Copies of the span arrays plus duration, self time and phase root."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        root = np.arange(len(parent), dtype=np.int32)
        for i in np.nonzero(has_parent)[0]:  # parents precede children
            root[i] = root[parent[i]]
        return {"start": start, "end": end, "name": name, "parent": parent,
                "root": root, "duration": dur, "self": dur - child}

    def durations(self, a: dict, name: str, phase: str | None = None) -> np.ndarray:
        """Durations of the spans called `name`, optionally within one phase root."""
        if name not in self._ids:
            return np.zeros(0)
        mask = a["name"] == self._ids[name]
        if phase is not None:
            mask &= a["name"][a["root"]] == self._ids.get(phase, -1)
        return a["duration"][mask]

    def self_time_by_name(self, a: dict) -> dict[str, dict]:
        out = {}
        for i, name in enumerate(self.names):
            mask = a["name"] == i
            out[name] = {"calls": int(mask.sum()), "total_s": float(a["duration"][mask].sum()),
                         "self_s": float(a["self"][mask].sum())}
        return out

    def write(self, a: dict, path: Path) -> None:
        np.savez(path.with_suffix(".npz"), **a)
        path.with_suffix(".json").write_text(json.dumps(
            {"names": self.names, "self_time_by_name": self.self_time_by_name(a)}, indent=1))
