"""The benchmark's set-up, its two workloads and the checks on their outputs.

Each workload is a closed loop with one client: a cycle of calls into the
program's public functions, repeated while the run lasts. The seed picks the
cycle's inputs (budgets, streams, accuracies, order); the program sees only
those inputs. Every call goes through :meth:`Bench.call`, so it is timed,
counted and, in a traced run, recorded as a span with its Spark jobs.

A cycle returns its *simulated* record: the paper's quantities (formats,
profiling runs, KB/s, cores, k, x-realtime). They are deterministic outputs
of the cost models, kept apart from the wall-clock metrics.
"""
from __future__ import annotations

import dataclasses
import math
import os
import random
import statistics
from fractions import Fraction

from repro.codec.model import raw_retrieval_speed_x
from repro.codec.transcode import ingest_cores_per_stream, storage_kb_per_s
from repro.core.config import ConfigOptions, VStoreConfig, derive_config
from repro.core.consumption import derive_consumption_format
from repro.core.erosion import plan_erosion
from repro.core.storage import Consumer, derive_storage_plan
from repro.formats import FPS, SEGMENT_SECONDS, Fidelity
from repro.ops.library import ACCURACY_LEVELS, CASCADES, OPERATORS
from repro.oracle import assert_equivalent
from repro.profiler.consumption import ConsumptionProfiler
from repro.profiler.storage import StorageProfiler
from repro.query.alternatives import make_provider
from repro.query.cascade import run_query
from repro.store.segment_store import SegmentStore
from repro.video.datasets import DATASETS, PROFILING_DATASET
from repro.video.frames import sampled_frame_mask

from tracer import Bench, TracedProfiler

LIFESPAN_DAYS = 10
DAY_S = 86_400.0
#: Table 3's per-stream ingest budgets, in cores
TABLE3_BUDGETS = (12.0, 8.0, 4.0, 3.0, 2.0, 1.0)
#: Fig 12's storage budgets, as shares of the no-erosion lifespan cost
FIG12_SHARES = (1.1, 0.85, 0.68)
#: configure's Spark-mode consumer set: the cheapest consumer to derive on
#: each profiling dataset (11 + 19 probes, about 2 Spark jobs each)
CONFIGURE_CONSUMERS = ("nn", "ocr")
CONFIGURE_ACCURACY = 0.95
#: lifecycle's ingested and scanned video per stream, and its short clips
LIFECYCLE_HOURS = 4.0
SHORT_HOURS = 0.25
PROVIDERS = ("vstore", "1->1", "1->N", "N->N")
STORAGE_DS = DATASETS[PROFILING_DATASET["B"]]

WHY = {
    "configure": (
        "control plane only: Spark-mode CF derivation (one Spark job pair per "
        "probe), a Table 3 ingest-budget sweep and a Fig 12 erosion-budget "
        "sweep; no query, no ingest"
    ),
    "lifecycle": (
        "data plane: ingest 4 h of one query-A and one query-B stream, "
        "account storage, scan the same hours, run a Fig 11 grid of short "
        "queries, then plan and apply one erosion budget"
    ),
}


# ---- derivation -----------------------------------------------------------

def derive(b: Bench, spark, opts: ConfigOptions) -> VStoreConfig:
    """Derive a configuration. Untraced this is one ``derive_config`` call;
    traced it calls each layer in turn, as ``derive_config`` does, so each
    layer gets its own spans (the checks compare the two)."""
    if not b.traced:
        return b.call("core.config.derive_config", derive_config, spark, opts, _tag="derive")
    spark_mode = opts.profiler_mode == "spark"
    profilers = {
        q: ConsumptionProfiler(DATASETS[PROFILING_DATASET[q]], spark, mode=opts.profiler_mode)
        for q in ("A", "B")
    }
    proxies = {
        q: TracedProfiler(p, b, "profiler.consumption", spark=spark_mode)
        for q, p in profilers.items()
    }
    consumers, derived = [], {}
    for name in opts.op_names:
        op = OPERATORS[name]
        for acc in sorted(opts.accuracies, reverse=True):
            d = b.call(
                "core.consumption.derive_consumption_format",
                derive_consumption_format, proxies[op.query], op, acc,
                _tag="derive", _spark=spark_mode,
            )
            derived[(name, acc)] = d
            demand = min(d.speed_x, raw_retrieval_speed_x(d.fidelity, d.fidelity.sampling))
            consumers.append(Consumer(op_name=name, target_acc=acc, cf=d.fidelity, speed_x=demand))
    runs = sum(p.runs for p in profilers.values())
    b.count("profiler.consumption.runs", runs)
    b.count("profiler.consumption.hits", sum(p.hits for p in profilers.values()))
    b.count("core.consumption.derivations", len(consumers))
    storage = b.call(
        "core.storage.derive_storage_plan", derive_storage_plan,
        StorageProfiler(STORAGE_DS), consumers,
        ingest_budget_cores=opts.ingest_budget_cores, motion=STORAGE_DS.motion,
        _tag="derive", _spark=False,
    )
    return VStoreConfig(consumers, derived, storage, runs, 10.0 * runs)


def count_plan(b: Bench, plan, budget: float | None = None) -> None:
    b.count("core.storage.rounds", plan.rounds)
    b.count("core.storage.pairs_examined", plan.pairs_examined)
    b.count("profiler.storage.runs", plan.profiling_runs)
    b.count("profiler.storage.hits", plan.profiling_hits)
    if budget is not None:
        b.count("core.storage.budget_moves", len(plan.budget_moves))
        b.count("core.storage.budget_unmet", plan.ingest_cores(STORAGE_DS.motion) > budget)


def check_plan(b: Bench, label: str, plan, consumers) -> None:
    """R1 and R2 for every SF and each of its consumers; every consumer
    subscribed to exactly one SF."""
    pairs = [(n, c) for n in plan.nodes for c in n.consumers]
    b.check(f"{label}.covers_consumers", sorted(c.label() for _, c in pairs) == sorted(c.label() for c in consumers))
    b.check(f"{label}.R1", all(n.fidelity.richer_eq(c.cf) for n, c in pairs))
    b.check(f"{label}.R2", all(n.retrieval_speed_for(c) >= c.speed_x * (1 - 1e-12) for n, c in pairs))


def same(a, b_) -> bool:
    """Equal, with floats equal up to the order of addition: Spark sums
    partial aggregates in the order their shuffle blocks arrive."""
    if isinstance(a, float) and isinstance(b_, float):
        return math.isclose(a, b_, rel_tol=1e-12)
    if isinstance(a, dict) and isinstance(b_, dict):
        return a.keys() == b_.keys() and all(same(a[k], b_[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b_, (list, tuple)):
        return len(a) == len(b_) and all(same(x, y) for x, y in zip(a, b_))
    return a == b_


def same_config(a: VStoreConfig, b_: VStoreConfig) -> bool:
    return [c.cf for c in a.consumers] == [c.cf for c in b_.consumers] and [
        n.storage_format() for n in a.storage.nodes
    ] == [n.storage_format() for n in b_.storage.nodes]


def erosion(b: Bench, plan, share: float, label: str):
    """Plan erosion for a storage budget of ``share`` x the no-erosion cost."""
    no_erosion = plan.storage_kb_per_s() * 1024 * DAY_S * LIFESPAN_DAYS
    budget = share * no_erosion
    ep = b.call(
        "core.erosion.plan_erosion", plan_erosion, plan,
        lifespan_days=LIFESPAN_DAYS, storage_budget_bytes=budget, _tag="erosion", _spark=False,
    )
    b.count("core.erosion.budget_unreachable", ep.total_storage_kb_s > budget / 1024 / DAY_S)
    b.check(f"{label}.golden_never_eroded", all(d.get(0, 0.0) == 0.0 for d in ep.deleted_by_age))
    return ep


def sim_config(cfg: VStoreConfig) -> dict:
    return {
        "cfs": [f"{c.label()}={c.cf.label()}" for c in cfg.consumers],
        "sfs": [n.storage_format().label() for n in cfg.storage.nodes],
        "profiling_runs": cfg.profiling_runs_consumption,
        "storage_runs": cfg.storage.profiling_runs,
        "storage_hits": cfg.storage.profiling_hits,
        "rounds": cfg.storage.rounds,
        "storage_kb_s": cfg.storage.storage_kb_per_s(),
    }


# ---- set-up ----------------------------------------------------------------

def set_up(b: Bench, spark, root: str, warm: tuple[str, ...]) -> VStoreConfig:
    """Derive the base (Table 2) configuration in ``local`` mode, then run
    the Spark paths named in ``warm`` once on tiny inputs, so that the Python
    workers have imported everything and the JVM has compiled the plans."""
    base = derive(b, None, ConfigOptions(profiler_mode="local"))
    count_plan(b, base.storage)
    check_plan(b, "setup.base", base.storage, base.consumers)
    if b.traced:
        with b.span("bench.check.derive_config", spark=False):
            ref = derive_config(None, ConfigOptions(profiler_mode="local"))
        b.check("setup.traced_equals_derive_config", same_config(base, ref))
    ds = DATASETS[PROFILING_DATASET["A"]]
    if "profiler" in warm:
        prof = ConsumptionProfiler(ds, spark, mode="spark")
        richest = Fidelity("best", 720, Fraction(1), 1.0)
        b.call("profiler.consumption.profile", prof.profile, OPERATORS["diff"], richest, _tag="warm")
        b.count("profiler.consumption.runs", prof.runs)
    if "query" in warm:
        provider = b.call("query.alternatives.make_provider", make_provider, "vstore", base, ds.motion, _tag="warm", _spark=False)
        result = b.call("query.cascade.run_query", run_query, spark, provider, ds, 0.9, hours=0.05, _tag="warm")
        count_query(b, provider, result, 0.05)
    if "store" in warm:
        provider = make_provider("vstore", base, ds.motion)
        store = SegmentStore(os.path.join(root, "warm"))
        ingest(b, spark, store, ds, provider, 0.05, "warm")
        count_disk(b, store, segments(0.05) * SEGMENT_SECONDS)
        if "erode" in warm:
            erodible = {k: 0.5 for k in provider.sfs if k != "SFg"}
            before = files_of(store)
            b.call("store.segment_store.apply_erosion", store.apply_erosion, spark, ds.name, erodible, _tag="warm")
            count_rewrite(b, store, before)
    return base


# ---- shared data-plane helpers -----------------------------------------------

def files_of(store: SegmentStore) -> dict[str, tuple[int, int]]:
    """Size and mtime of every file under the store's root."""
    out = {}
    for d, _, names in os.walk(store.root):
        for n in names:
            st = os.stat(os.path.join(d, n))
            out[os.path.join(d, n)] = (st.st_size, st.st_mtime_ns)
    return out


def count_disk(b: Bench, store: SegmentStore, video_s: float) -> None:
    """Snapshot the store's files after an ingest of ``video_s`` seconds;
    a later snapshot replaces an earlier one."""
    files = files_of(store)
    b.gauge("store.segment_store.bytes_on_disk", sum(s for s, _ in files.values()))
    b.gauge("store.segment_store.files_on_disk", len(files))
    b.gauge("store.segment_store.stored_video_s", video_s)


def ingest(b: Bench, spark, store: SegmentStore, ds, provider, hours: float, tag: str):
    """Ingest, then account the stored streams; returns storage_by_sf rows."""
    account = "warm" if tag == "warm" else "account"
    b.call("store.segment_store.ingest", store.ingest, spark, ds, provider.sfs, hours=hours, _tag=tag)
    by_sf = b.call(
        "store.segment_store.storage_by_sf",
        lambda: store.storage_by_sf(spark, ds.name).toPandas(), _tag=account,
    ).set_index("sf_id")
    b.call("store.segment_store.storage_kb_per_s", store.storage_kb_per_s, spark, ds.name, _tag=account)
    b.count("store.segment_store.rows_written", int(by_sf["segments"].sum()))
    return by_sf


def count_rewrite(b: Bench, store: SegmentStore, before: dict) -> None:
    after = files_of(store)
    b.count("store.segment_store.bytes_rewritten", sum(s for p, (s, m) in after.items() if before.get(p) != (s, m)))
    b.count("store.segment_store.bytes_live_after", sum(s for s, _ in after.values()))


def segments(hours: float) -> int:
    return max(1, int(hours * 3600 / SEGMENT_SECONDS))


def count_query(b: Bench, provider, result, hours: float) -> None:
    """Count the query and its cascade stages whose sampling mask processes
    a different number of frames than the n*s the cost model charges."""
    n = FPS * SEGMENT_SECONDS
    ds = DATASETS[result.dataset]
    mismatched = 0
    for op_name in CASCADES[ds.query]:
        s = provider.entry(op_name, result.accuracy).cf.sampling
        mismatched += int(sampled_frame_mask(n, s).sum()) != n * s
    b.count("query.cascade.queries")
    b.count("query.cascade.segments", segments(hours))
    b.count("query.cascade.sampling_mismatch_stages", mismatched)


# ---- configure ---------------------------------------------------------------

def configure_inputs(rng: random.Random) -> dict:
    ops = list(CONFIGURE_CONSUMERS)
    rng.shuffle(ops)
    ingest_budgets = [x * rng.uniform(0.97, 1.03) for x in TABLE3_BUDGETS]
    ingest_budgets.append(rng.uniform(0.1, 0.2))  # below the 0.27-core floor
    storage_shares = [x * rng.uniform(0.98, 1.02) for x in FIG12_SHARES]
    storage_shares.append(rng.uniform(0.08, 0.15))  # below golden-only cost
    rng.shuffle(ingest_budgets)
    rng.shuffle(storage_shares)
    return {"op_names": ops, "ingest_budgets": ingest_budgets, "storage_shares": storage_shares}


def configure_cycle(b: Bench, spark, base: VStoreConfig, inp: dict, root: str) -> dict:
    opts = ConfigOptions(
        accuracies=(CONFIGURE_ACCURACY,), op_names=tuple(inp["op_names"]), profiler_mode="spark"
    )
    cfg = derive(b, spark, opts)
    count_plan(b, cfg.storage)
    with b.span("bench.check.derive_config", spark=False):
        ref = derive_config(None, dataclasses.replace(opts, profiler_mode="local"))
    b.check("configure.spark_config_equals_local", same_config(cfg, ref))
    check_plan(b, "configure.derived", cfg.storage, cfg.consumers)

    sim = {"config": sim_config(cfg), "ingest_budgets": [], "erosion": []}
    for budget in inp["ingest_budgets"]:
        plan = b.call(
            "core.storage.derive_storage_plan", derive_storage_plan,
            StorageProfiler(STORAGE_DS), base.consumers,
            ingest_budget_cores=budget, motion=STORAGE_DS.motion, _tag="budget", _spark=False,
        )
        count_plan(b, plan, budget)
        check_plan(b, "configure.budget", plan, base.consumers)
        sim["ingest_budgets"].append({
            "budget": budget,
            "cores": plan.ingest_cores(STORAGE_DS.motion),
            "storage_kb_s": plan.storage_kb_per_s(),
            "codings": [n.coding.label() for n in plan.nodes],
            "moves": len(plan.budget_moves),
        })
    for share in inp["storage_shares"]:
        ep = erosion(b, base.storage, share, "configure.erosion")
        sim["erosion"].append({"share": share, "k": ep.k, "total_storage_kb_s": ep.total_storage_kb_s})
    return sim


def configure_phases(d: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    return {
        "derive_s": (sum(d["derive"]), "s"),
        "budget_adapt_s": (statistics.median(d["budget"]), "s"),
        "erosion_plan_s": (statistics.median(d["erosion"]), "s"),
    }


# ---- lifecycle ----------------------------------------------------------------

def lifecycle_inputs(rng: random.Random) -> dict:
    a = rng.choice([n for n, d in DATASETS.items() if d.query == "A"])
    bq = rng.choice([n for n, d in DATASETS.items() if d.query == "B"])
    order = list(PROVIDERS)
    rng.shuffle(order)
    return {
        "streams": [a, bq],
        "scan_accuracy": [rng.choice(ACCURACY_LEVELS), rng.choice(ACCURACY_LEVELS)],
        "ingest_budget": rng.uniform(3.5, 7.5),
        "grid_dataset": rng.choice(sorted(DATASETS)),
        "grid_accuracy": rng.choice(ACCURACY_LEVELS),
        "grid_order": order,
        "storage_share": 0.7,
        "age": rng.randint(2, LIFESPAN_DAYS),
    }


def lifecycle_cycle(b: Bench, spark, base: VStoreConfig, inp: dict, root: str) -> dict:
    budget = inp["ingest_budget"]
    plan = b.call(
        "core.storage.derive_storage_plan", derive_storage_plan,
        StorageProfiler(STORAGE_DS), base.consumers,
        ingest_budget_cores=budget, motion=STORAGE_DS.motion, _tag="budget", _spark=False,
    )
    count_plan(b, plan, budget)
    check_plan(b, "lifecycle.plan", plan, base.consumers)
    cfg = dataclasses.replace(base, storage=plan)
    store = SegmentStore(os.path.join(root, "store"))
    sim = {"sfs": [n.storage_format().label() for n in plan.nodes], "streams": {}, "queries": []}

    providers, by_sf = {}, {}
    for name in inp["streams"]:
        ds = DATASETS[name]
        providers[name] = b.call(
            "query.alternatives.make_provider", make_provider, "vstore", cfg, ds.motion,
            _tag="provider", _spark=False,
        )
        by_sf[name] = ingest(b, spark, store, ds, providers[name], LIFECYCLE_HOURS, "ingest")
        sim["streams"][name] = check_store(b, spark, store, ds, providers[name], by_sf[name])
    count_disk(b, store, len(inp["streams"]) * segments(LIFECYCLE_HOURS) * SEGMENT_SECONDS)

    for name, acc in zip(inp["streams"], inp["scan_accuracy"]):
        r = b.call(
            "query.cascade.run_query", run_query, spark, providers[name], DATASETS[name], acc,
            hours=LIFECYCLE_HOURS, _tag="scan",
        )
        count_query(b, providers[name], r, LIFECYCLE_HOURS)
        sim["queries"].append(sim_query(r))

    gds, gacc = DATASETS[inp["grid_dataset"]], inp["grid_accuracy"]
    grid = {}
    for kind in inp["grid_order"]:
        p = b.call("query.alternatives.make_provider", make_provider, kind, cfg, gds.motion, _tag="provider", _spark=False)
        grid[kind] = b.call("query.cascade.run_query", run_query, spark, p, gds, gacc, hours=SHORT_HOURS, _tag="grid")
        count_query(b, p, grid[kind], SHORT_HOURS)
        sim["queries"].append(sim_query(grid[kind]))
        if kind == "vstore":
            vstore = p
    again = b.call("query.cascade.run_query", run_query, spark, vstore, gds, gacc, hours=SHORT_HOURS, _tag="grid")
    count_query(b, vstore, again, SHORT_HOURS)
    b.check("lifecycle.query_repeatable", same(dataclasses.asdict(again), dataclasses.asdict(grid["vstore"])))
    b.check(
        "lifecycle.fig11_vstore_at_least_1toN",
        grid["vstore"].speed_x >= grid["1->N"].speed_x,
        f"{grid['vstore'].speed_x} < {grid['1->N'].speed_x}",
    )

    ep = erosion(b, plan, inp["storage_share"], "lifecycle.erosion")
    ids = list(providers[inp["streams"][0]].sfs)  # SF ids in plan-node order
    fracs = {ids[i]: f for i, f in ep.deleted_by_age[inp["age"] - 1].items() if f > 0}
    sim["erosion"] = {"k": ep.k, "age": inp["age"], "deleted": fracs}
    n_seg = segments(LIFECYCLE_HOURS)
    for name in inp["streams"]:
        before = files_of(store)
        b.call("store.segment_store.apply_erosion", store.apply_erosion, spark, name, fracs, _tag="erode")
        count_rewrite(b, store, before)
        with b.span("bench.check.erosion"):
            after = store.storage_by_sf(spark, name).toPandas().set_index("sf_id")
        removed = (by_sf[name]["segments"] - after["segments"].reindex(by_sf[name].index, fill_value=0)).to_dict()
        b.count("store.segment_store.rows_deleted", sum(removed.values()))
        planned = {sf: int(round(fracs.get(sf, 0.0) * n_seg)) for sf in removed}
        b.check("lifecycle.erosion_removed_planned_rows", removed == planned, f"{removed} != {planned}")
        b.check(
            "lifecycle.erosion_golden_untouched",
            after.loc["SFg", "segments"] == by_sf[name].loc["SFg", "segments"]
            # sums over partitions: equal up to the order of addition
            and math.isclose(after.loc["SFg", "total_kb"], by_sf[name].loc["SFg", "total_kb"], rel_tol=1e-12),
        )
    return sim


def check_store(b: Bench, spark, store: SegmentStore, ds, provider, by_sf) -> dict:
    """The store's totals against DuckDB and against the codec model."""
    with b.span("bench.check.store"):
        stored = store.load(spark, ds.name).toPandas()
        try:
            assert_equivalent(
                store.storage_by_sf(spark, ds.name),
                "SELECT sf_id, SUM(size_kb) AS total_kb, COUNT(*) AS segments, "
                "SUM(ingest_core_s) AS ingest_core_s FROM stored GROUP BY sf_id",
                stored=stored,
            )
            ok, detail = True, ""
        except AssertionError as e:
            ok, detail = False, str(e)[:200]
    b.check("lifecycle.store_totals_equal_duckdb", ok, detail)
    segs = stored.drop_duplicates("segment_id")
    secs = float(segs["seconds"].sum())
    model_kb = sum(storage_kb_per_s(provider.sfs, m) * s for m, s in zip(segs["motion"], segs["seconds"]))
    model_cores = sum(ingest_cores_per_stream(provider.sfs, m) * s for m, s in zip(segs["motion"], segs["seconds"]))
    kb_s = float(by_sf["total_kb"].sum()) / secs
    cores = float(by_sf["ingest_core_s"].sum()) / secs
    b.check("lifecycle.store_kb_s_equals_codec_model", math.isclose(kb_s, model_kb / secs, rel_tol=1e-9))
    b.check("lifecycle.store_cores_equal_codec_model", math.isclose(cores, model_cores / secs, rel_tol=1e-9))
    b.check("lifecycle.rows_written", len(stored) == len(segs) * len(provider.sfs))
    return {"storage_kb_s": kb_s, "ingest_cores": cores, "rows": len(stored)}


def sim_query(r) -> dict:
    return {"q": f"{r.provider}/{r.dataset}@{r.accuracy}/{r.video_seconds:.0f}s", "speed_x": r.speed_x}


def lifecycle_phases(d: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
    video_s = 2 * LIFECYCLE_HOURS * 3600
    grid = d["grid"]
    return {
        "budget_adapt_s": (statistics.median(d["budget"]), "s"),
        "ingest_video_s_per_s": (video_s / sum(d["ingest"]), "video-s/s"),
        "accounting_s": (sum(d["account"]), "s"),
        "scan_video_s_per_s": (video_s / sum(d["scan"]), "video-s/s"),
        "erode_s": (sum(d["erosion"]) + sum(d["erode"]), "s"),
        "queries_per_s": (len(grid) / sum(grid), "1/s"),
        "query_p50_s": (statistics.median(grid), "s"),
    }


#: per workload: inputs, cycle, phase metrics, and the Spark paths its
#: untraced set-up warms (a traced set-up warms all, so that every layer has
#: spans in every workload)
WORKLOADS = {
    "configure": (configure_inputs, configure_cycle, configure_phases, ("profiler",)),
    "lifecycle": (lifecycle_inputs, lifecycle_cycle, lifecycle_phases, ("query", "store")),
}
ALL_PATHS = ("profiler", "query", "store", "erode")
