"""Spans, counters and Spark job accounting recorded from outside each layer.

A :class:`Bench` wraps every call the benchmark makes into a layer's public
functions. Untraced it only times the call and counts it; traced it also
records a span (name, start, end, parent, trace id), puts the call's Spark
jobs in a job group of their own, and reads jobs, stages and tasks for that
group from ``statusTracker`` when the call returns. Executor run time, CPU
time, GC time and shuffle bytes come from the session's event log, read by
:func:`event_log_totals` after the session has stopped.
"""
from __future__ import annotations

import glob
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: the layers the benchmark calls into; a span's layer is its name's prefix
LAYERS = (
    "profiler.consumption",
    "profiler.storage",
    "core.consumption",
    "core.storage",
    "core.erosion",
    "store.segment_store",
    "query.alternatives",
    "query.cascade",
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name.startswith(layer + "."):
            return layer
    return "bench"


class Bench:
    """Times, counts and (when traced) records each call into a layer."""

    def __init__(self, traced: bool, trace_id: str) -> None:
        self.traced = traced
        self.trace_id = trace_id
        self.sc = None  # set once a session exists; job groups need it
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count(1)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- calls ---------------------------------------------------------------

    def call(self, name: str, fn, *args, _tag: str, _spark: bool = True, **kwargs):
        """Call ``fn`` as the public function ``name`` of a layer.

        The wall time is appended to ``durations[_tag]``; the tag names the
        workload phase the call belongs to. A call that raises counts as
        failed and the exception propagates to the workload."""
        self.attempted += 1
        rec = self._open(name, _spark, {"tag": _tag})
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.failures.append(f"call {name} raised")
            raise
        finally:
            dt = time.perf_counter() - t0
            self.durations[_tag].append(dt)
            self._close(rec)

    @contextmanager
    def span(self, name: str, *, spark: bool = True, **attrs):
        """A benchmark-level span (set-up, cycle, check) or a proxied call."""
        rec = self._open(name, spark, attrs)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str, spark: bool, attrs: dict):
        if not self.traced:
            return None
        rec = {
            "id": next(self._ids),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "trace": self.trace_id,
            "name": name,
            "layer": layer_of(name),
            "attrs": attrs,
            "start": time.perf_counter(),
        }
        if spark and self.sc is not None:
            rec["group"] = f"{name}#{rec['id']}"
            self.sc.setJobGroup(rec["group"], name)
        self._stack.append(rec)
        return rec

    def _close(self, rec) -> None:
        if rec is None:
            return
        rec["end"] = time.perf_counter()
        self._stack.pop()
        if "group" in rec:
            rec.update(_group_counts(self.sc, rec["group"]))
            outer = next((s["group"] for s in reversed(self._stack) if "group" in s), "bench")
            self.sc.setJobGroup(outer, "bench")
        self.spans.append(rec)

    def mark(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.durations.items()}

    def since(self, mark: dict[str, int]) -> dict[str, list[float]]:
        """Durations recorded after ``mark``, per tag."""
        return {k: v[mark.get(k, 0):] for k, v in self.durations.items() if len(v) > mark.get(k, 0)}

    # -- checks and counters -------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Count one correctness check; a failed one is reported on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed {detail}".strip())
            print(f"[perfbench] check failed: {name} {detail}", file=sys.stderr)

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    def gauge(self, key: str, value: float) -> None:
        """Set a counter that is a snapshot, not a total."""
        self.counters[key] = value

    # -- per-layer totals from spans ----------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total wall seconds and self seconds (wall minus the
        part covered by child spans), plus Spark jobs, tasks, failed tasks."""
        children = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            d = out[s["name"]]
            wall = s["end"] - s["start"]
            d["calls"] += 1
            d["wall_s"] += wall
            d["self_s"] += wall - children[s["id"]]
            for k in ("jobs", "stages", "tasks", "failed_tasks"):
                d[k] += s.get(k, 0)
        return out

    def dump_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"trace": self.trace_id, "spans": self.spans}, fh)


class TracedProfiler:
    """Stands in for a profiler passed to a layer: forwards every attribute,
    and records each ``profile`` call as a span of ``layer``. Used only in
    traced runs; the spans' total is the profiler's busy time."""

    def __init__(self, inner, bench: Bench, layer: str, *, spark: bool) -> None:
        self._inner = inner
        self._bench = bench
        self._layer = layer
        self._spark = spark

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != "profile":
            return attr

        def traced(*args, **kwargs):
            with self._bench.span(f"{self._layer}.{name}", spark=self._spark):
                return attr(*args, **kwargs)

        return traced


def _group_counts(sc, group: str) -> dict[str, int]:
    tracker = sc.statusTracker()
    jobs = list(tracker.getJobIdsForGroup(group))
    stages = [sid for j in jobs if (info := tracker.getJobInfo(j)) for sid in info.stageIds]
    tasks = failed = 0
    for sid in stages:
        st = tracker.getStageInfo(sid)
        if st is not None:
            tasks += st.numTasks
            failed += st.numFailedTasks
    return {"jobs": len(jobs), "stages": len(stages), "tasks": tasks, "failed_tasks": failed}


def event_log_totals(log_dir: str) -> dict[str, dict[str, float]]:
    """Sum task metrics from the event log per layer (via each job's group),
    plus the session-wide totals under ``"spark"``."""
    stage_layer: dict[int, str] = {}
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    files = sorted(p for p in glob.glob(os.path.join(log_dir, "**", "*"), recursive=True) if os.path.isfile(p))
    for path in files:
        with open(path) as fh:
            for line in fh:
                e = json.loads(line)
                kind = e.get("Event")
                if kind == "SparkListenerJobStart":
                    group = (e.get("Properties") or {}).get("spark.jobGroup.id") or "bench"
                    layer = layer_of(group.split("#")[0])
                    for sid in e["Stage IDs"]:
                        stage_layer[sid] = layer
                    out["spark"]["jobs"] += 1
                elif kind == "SparkListenerTaskEnd":
                    m = e.get("Task Metrics") or {}
                    ok = (e.get("Task End Reason") or {}).get("Reason") == "Success"
                    sr = m.get("Shuffle Read Metrics") or {}
                    sw = m.get("Shuffle Write Metrics") or {}
                    vals = {
                        "tasks": 1,
                        "failed_tasks": 0 if ok else 1,
                        "executor_run_s": m.get("Executor Run Time", 0) / 1e3,
                        "executor_cpu_s": m.get("Executor CPU Time", 0) / 1e9,
                        "gc_s": m.get("JVM GC Time", 0) / 1e3,
                        "shuffle_bytes": sr.get("Remote Bytes Read", 0)
                        + sr.get("Local Bytes Read", 0)
                        + sw.get("Shuffle Bytes Written", 0),
                    }
                    layer = stage_layer.get(e.get("Stage ID"), "bench")
                    for k, v in vals.items():
                        out[layer][k] += v
                        out["spark"][k] += v
    return out
