"""VStore reproduction benchmark: one seeded workload, wall clock end to end.

    python3 perfbench/run.py --workload configure|lifecycle --seed N \
        --seconds S --trace 0|1

Run from the repository root. The program is imported from ``src/``; Spark
runs in this process on ``local[min(4, nproc)]``. An untraced run sets up
three times (session start, warm-up, base configuration; the later two
restart the Spark context in the same JVM) and reports the median, then
repeats the workload's cycle while the next cycle still fits in ``--seconds``
(at least one). A traced run sets up once, makes one cycle, records a span
and the Spark jobs of every call into a layer, writes an event log, and
reports per-layer metrics instead. The last line of stdout is the JSON
result; everything the run produces goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DRIVER_MEMORY = "512m"
#: the jobs' own session factory uses 32 shuffle partitions
SHUFFLE_PARTITIONS = "32"
SETUPS_UNTRACED = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("configure", "lifecycle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_env(run_dir: str) -> None:
    """Point Spark, its Python workers and temp files at this checkout."""
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # repro is not installed: Spark's Python workers import it from src/
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)


def spark_conf(run_dir: str, traced: bool) -> dict[str, str]:
    tmp = os.path.join(run_dir, "tmp")
    conf = {
        "spark.master": f"local[{min(4, os.cpu_count() or 1)}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.driver.host": "127.0.0.1",
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={tmp}",
        "spark.local.dir": tmp,
        "spark.sql.warehouse.dir": os.path.join(tmp, "warehouse"),
        "spark.sql.shuffle.partitions": SHUFFLE_PARTITIONS,
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
    }
    if traced:
        log_dir = os.path.join(run_dir, "eventlog")
        os.makedirs(log_dir, exist_ok=True)
        conf.update({
            "spark.eventLog.enabled": "true",
            "spark.eventLog.dir": "file://" + log_dir,
            "spark.eventLog.compress": "false",
            "spark.eventLog.rolling.enabled": "false",
        })
    return conf


def start_session(conf: dict[str, str]):
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in conf.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def child_pids() -> list[int]:
    """Every live descendant of this process."""
    parent = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as fh:
                    parent[int(d)] = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
    out, frontier = [], [os.getpid()]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out += kids
        frontier += kids
    return out


def stop_all(spark) -> None:
    """Stop the session and the JVM, and wait for every child process."""
    from pyspark import SparkContext

    pids = child_pids()
    if spark is not None:
        spark.stop()
    gw = SparkContext._gateway
    if gw is not None:
        proc = getattr(gw, "proc", None)
        gw.shutdown()
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None
    deadline = time.monotonic() + 60
    for pid in pids:
        while os.path.exists(f"/proc/{pid}") and _alive(pid):
            if time.monotonic() > deadline:
                os.kill(pid, 9)
            time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def peak_rss_mb(spark) -> float:
    """Peak resident memory of this Python driver plus the Spark JVM."""
    py_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{jvm_pid}/status") as fh:
        jvm_kb = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
    return (py_kb + jvm_kb) / 1024.0


def host_info() -> dict:
    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "mem_total_gb": round(mem_kb / 1024**2, 1),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "machine": platform.machine(),
    }


def source_digest() -> str:
    """Hash of the program and benchmark sources, to key determinism records."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for d, dirs, names in sorted(os.walk(base)):
            dirs[:] = sorted(x for x in dirs if x not in ("out", "__pycache__"))
            for n in sorted(names):
                if n.endswith(".py"):
                    with open(os.path.join(d, n), "rb") as fh:
                        h.update(n.encode() + fh.read())
    return h.hexdigest()[:16]


def tail(samples: list[float]) -> tuple[float, int] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return sorted(samples)[max(0, math.ceil(p / 100 * n) - 1)], p


def per_layer(b, log: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, named ``<module>.<metric>``."""
    t = b.layer_times()
    c = b.counters

    def wall(*names):
        return sum(t[n]["wall_s"] for n in names if n in t)

    def ratio(num, den):
        return num / den if den else 0.0

    q = max(1.0, c["query.cascade.queries"])
    prof_names = [n for n in t if n.startswith("profiler.consumption.")]
    busy = wall(*prof_names)
    storage_budgeted = sum(
        s["end"] - s["start"] for s in b.spans
        if s["name"] == "core.storage.derive_storage_plan" and s["attrs"]["tag"] == "budget"
    )
    m = {
        "profiler.consumption.runs": (c["profiler.consumption.runs"], "count"),
        "profiler.consumption.hits": (c["profiler.consumption.hits"], "count"),
        "profiler.consumption.hit_ratio": (ratio(c["profiler.consumption.hits"], c["profiler.consumption.hits"] + c["profiler.consumption.runs"]), "ratio"),
        "profiler.consumption.spark_jobs": (sum(t[n]["jobs"] for n in prof_names), "count"),
        "profiler.consumption.spark_tasks": (sum(t[n]["tasks"] for n in prof_names), "count"),
        "profiler.consumption.busy_s": (busy, "s"),
        "profiler.consumption.executor_run_s": (log["profiler.consumption"]["executor_run_s"], "s"),
        "core.consumption.derivations": (c["core.consumption.derivations"], "count"),
        "core.consumption.self_s": (t["core.consumption.derive_consumption_format"]["self_s"], "s"),
        "profiler.storage.runs": (c["profiler.storage.runs"], "count"),
        "profiler.storage.hits": (c["profiler.storage.hits"], "count"),
        "profiler.storage.hit_ratio": (ratio(c["profiler.storage.hits"], c["profiler.storage.hits"] + c["profiler.storage.runs"]), "ratio"),
        "core.storage.coalesce_s": (wall("core.storage.derive_storage_plan") - storage_budgeted, "s"),
        "core.storage.rounds": (c["core.storage.rounds"], "count"),
        "core.storage.pairs_examined": (c["core.storage.pairs_examined"], "count"),
        "core.storage.budget_s": (storage_budgeted, "s"),
        "core.storage.budget_moves": (c["core.storage.budget_moves"], "count"),
        "core.storage.budget_unmet": (c["core.storage.budget_unmet"], "count"),
        "core.erosion.plan_s": (wall("core.erosion.plan_erosion"), "s"),
        "core.erosion.budget_unreachable": (c["core.erosion.budget_unreachable"], "count"),
        "store.segment_store.ingest_s": (wall("store.segment_store.ingest"), "s"),
        "store.segment_store.rows_written": (c["store.segment_store.rows_written"], "count"),
        "store.segment_store.bytes_on_disk": (c["store.segment_store.bytes_on_disk"], "B"),
        "store.segment_store.files_on_disk": (c["store.segment_store.files_on_disk"], "count"),
        "store.segment_store.bytes_per_video_s": (ratio(c["store.segment_store.bytes_on_disk"], c["store.segment_store.stored_video_s"]), "B/video-s"),
        "store.segment_store.accounting_s": (wall("store.segment_store.storage_by_sf", "store.segment_store.storage_kb_per_s"), "s"),
        "store.segment_store.spark_jobs": (sum(t[n]["jobs"] for n in t if n.startswith("store.segment_store.")), "count"),
        "store.segment_store.erode_s": (wall("store.segment_store.apply_erosion"), "s"),
        "store.segment_store.rows_deleted": (c["store.segment_store.rows_deleted"], "count"),
        "store.segment_store.bytes_rewritten": (c["store.segment_store.bytes_rewritten"], "B"),
        "store.segment_store.write_amp": (ratio(c["store.segment_store.bytes_rewritten"], c["store.segment_store.bytes_live_after"]), "ratio"),
        "query.alternatives.provider_s": (wall("query.alternatives.make_provider"), "s"),
        "query.cascade.run_s": (wall("query.cascade.run_query"), "s"),
        "query.cascade.queries": (c["query.cascade.queries"], "count"),
        "query.cascade.spark_jobs_per_query": (t["query.cascade.run_query"]["jobs"] / q, "count"),
        "query.cascade.tasks_per_query": (t["query.cascade.run_query"]["tasks"] / q, "count"),
        "query.cascade.executor_run_s": (log["query.cascade"]["executor_run_s"], "s"),
        "query.cascade.executor_cpu_s": (log["query.cascade"]["executor_cpu_s"], "s"),
        "query.cascade.gc_s": (log["query.cascade"]["gc_s"], "s"),
        "query.cascade.shuffle_bytes": (log["query.cascade"]["shuffle_bytes"], "B"),
        "query.cascade.segments": (c["query.cascade.segments"], "count"),
        "query.cascade.sampling_mismatch_stages": (c["query.cascade.sampling_mismatch_stages"], "count"),
        "spark.jobs": (log["spark"]["jobs"], "count"),
        "spark.tasks": (log["spark"]["tasks"], "count"),
        "spark.failed_tasks": (log["spark"]["failed_tasks"], "count"),
        "spark.gc_s": (log["spark"]["gc_s"], "s"),
    }
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops the JVM and its workers (see stop_all)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT, f"run-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir: str) -> int:
    """Set up, run the cycles, stop Spark, then report; returns the exit code."""
    prepare_env(run_dir)
    traced = bool(args.trace)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"

    import workloads
    from tracer import Bench, event_log_totals

    make_inputs, cycle, phases, warm = workloads.WORKLOADS[args.workload]
    if traced:
        warm = workloads.ALL_PATHS
    b = Bench(traced, trace_id=tag)
    conf = spark_conf(run_dir, traced)
    spark = None
    setups, cycles, sims = [], [], []
    try:
        for _ in range(1 if traced else SETUPS_UNTRACED):
            t0 = time.perf_counter()
            with b.span("bench.setup", spark=False):
                if spark is not None:
                    spark.stop()  # restart the context; the JVM stays up
                spark = start_session(conf)
                b.sc = spark.sparkContext
                base = workloads.set_up(b, spark, run_dir, warm)
            setups.append(time.perf_counter() - t0)

        t_start = time.perf_counter()
        while True:
            rng = random.Random(f"{args.workload}/{args.seed}/{len(cycles)}")
            inputs = make_inputs(rng)
            mark = b.mark()
            t0 = time.perf_counter()
            try:
                with b.span("bench.cycle", spark=False, index=len(cycles)):
                    sims.append(cycle(b, spark, base, inputs, run_dir))
            except Exception as e:
                traceback.print_exc(file=sys.stderr)
                b.check("cycle_completed", False, repr(e)[:200])
                break
            wall = time.perf_counter() - t0
            d = b.since(mark)
            cycles.append({"cycle_s": sum(sum(v) for v in d.values()), "wall_s": wall, "durations": d})
            # a traced run makes one cycle, so its per-layer totals do not
            # scale with how many cycles fit in the run
            if traced or time.perf_counter() - t_start + wall > args.seconds:
                break
        rss = peak_rss_mb(spark)
        settings = {k: conf[k] for k in ("spark.master", "spark.driver.memory", "spark.sql.shuffle.partitions", "spark.sql.execution.arrow.pyspark.enabled")}
        settings["event_log"] = traced
    finally:
        stop_all(spark)

    if not cycles:
        print("perfbench: no cycle completed", file=sys.stderr)
        return 1

    # run-to-run determinism of the simulated record, per seed and source
    digest = source_digest()
    sim_path = os.path.join(OUT, f"sim-{args.workload}-s{args.seed}.json")
    if os.path.exists(sim_path):
        with open(sim_path) as fh:
            prev = json.load(fh)
        if prev.get("digest") == digest:
            b.check("simulated_repeatable_across_runs", workloads.same(prev["sim"], json.loads(json.dumps(sims[0]))))
    with open(sim_path, "w") as fh:
        json.dump({"digest": digest, "sim": sims[0]}, fh)

    named: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(setups), "s"),
        "cycle_s": (statistics.median(c["cycle_s"] for c in cycles), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    per_cycle = [phases(c["durations"]) for c in cycles]
    for k in per_cycle[0]:
        named[k] = (statistics.median(p[k][0] for p in per_cycle), per_cycle[0][k][1])
    grid = [x for c in cycles for x in c["durations"].get("grid", [])]
    named["failed_frac"] = (b.failed / max(1, b.attempted), "ratio")

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "why": workloads.WHY[args.workload], "host": host_info(), "session": settings,
        "setups_s": setups, "cycles": [{k: c[k] for k in ("cycle_s", "wall_s")} for c in cycles],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "failures": b.failures, "simulated": sims, "digest": digest,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print(f"why: {result['why']}")
    print("host: " + " ".join(f"{k}={v}" for k, v in result["host"].items()))
    print("session: " + " ".join(f"{k}={v}" for k, v in settings.items()))
    print("set-ups (s): " + " ".join(f"{s:.2f}" for s in setups) + f"; cycles: {len(cycles)}")
    print("end-to-end (wall clock):")
    for k, (v, u) in named.items():
        print(f"  {k:22s} {v:12.4f} {u}")
    if grid:
        t = tail(grid)
        print(f"  {'query_tail_s':22s} " + (f"{t[0]:12.4f} s (p{t[1]}, n={len(grid)})" if t else f"{'n/a':>12s} (n={len(grid)}; needs 11 samples)"))
    print(f"checks and calls: attempted={b.attempted} failed={b.failed}")

    # cycle_s and the phases are printed, not returned: see README, "Steadiness"
    metrics = {k: named[k] for k in ("setup_s", "peak_rss_mb")}
    if traced:
        log = event_log_totals(os.path.join(run_dir, "eventlog"))
        metrics = per_layer(b, log)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        b.dump_spans(os.path.join(OUT, f"spans-{tag}.json"))
        print("per-layer (traced):")
        for k, (v, u) in metrics.items():
            print(f"  {k:42s} {v:14.4f} {u}")
        last = os.path.join(OUT, f"last-{args.workload}-t0.json")
        if os.path.exists(last):
            with open(last) as fh:
                ref = json.load(fh)
            # set-up is left out: a traced set-up warms every path
            for k, (v, u) in named.items():
                if u == "s" and k != "setup_s" and k in ref["end_to_end"]:
                    ref_v = ref["end_to_end"][k]["value"]
                    result.setdefault("trace_overhead", {})[k] = v / ref_v - 1
                    print(f"trace overhead {k}: traced {v:.4f} s vs untraced {ref_v:.4f} s ({100 * (v / ref_v - 1):+.1f}%)")
    print("simulated (paper quantities, not wall clock): " + json.dumps(sims[0], sort_keys=True))
    with open(os.path.join(OUT, f"last-{args.workload}-t{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
