"""§6.2 end-to-end query execution: VStore vs 1->1, 1->N, N->N (Fig 11)."""
import numpy as np
import pandas as pd
import pytest

from repro.codec.model import decode_speed_x
from repro.codec.transcode import ingest_cores_per_stream, storage_kb_per_s
from repro.core.config import ConfigOptions, derive_config
from repro.core.storage import initial_nodes
from repro.formats import SEGMENT_SECONDS
from repro.ops.library import CASCADES, OPERATORS
from repro.oracle import assert_equivalent
from repro.profiler.storage import StorageProfiler
from repro.query.alternatives import make_provider
from repro.query.cascade import (
    OVERHEAD_S,
    cascade_rows,
    detections_df,
    run_query,
    stage_plan,
)
from repro.video.datasets import DATASETS, PROFILING_DATASET
from repro.video.frames import sampled_frame_mask, segment_frames


@pytest.fixture(scope="module")
def cfg():
    return derive_config(options=ConfigOptions(profiler_mode="local"))


@pytest.fixture(scope="module")
def providers(cfg):
    ds = DATASETS["jackson"]
    return {k: make_provider(k, cfg, ds.motion) for k in ("vstore", "1->1", "1->N", "N->N")}


class TestProviders:
    def test_vstore_has_few_sfs(self, providers, cfg):
        assert len(providers["vstore"].sfs) < cfg.unique_cf_count()

    def test_single_format_providers(self, providers):
        assert set(providers["1->1"].sfs) == {"SFg"}
        assert set(providers["1->N"].sfs) == {"SFg"}

    def test_n_to_n_one_sf_per_cf(self, providers, cfg):
        assert len(providers["N->N"].sfs) == cfg.unique_cf_count()

    def test_n_to_n_is_initial_sf_set_without_golden(self, providers, cfg):
        # N->N stores §4.3's starting point: one min-size adequate SF per CF
        sp = StorageProfiler(DATASETS[PROFILING_DATASET["B"]])
        nodes = initial_nodes(sp, cfg.consumers)[1:]
        nn = providers["N->N"]
        assert nn.sfs == {f"SF{i:02d}": n.storage_format() for i, n in enumerate(nodes)}
        for n in nodes:
            for c in n.consumers:
                assert nn.entry(c.op_name, c.target_acc).sf == n.storage_format()

    def test_one_to_one_consumes_golden_fidelity(self, providers, cfg):
        g = cfg.storage.golden.fidelity
        for e in providers["1->1"].entries.values():
            assert e.cf == g

    def test_one_to_n_uses_vstore_cfs(self, providers, cfg):
        for c in cfg.consumers:
            assert providers["1->N"].entry(c.op_name, c.target_acc).cf == c.cf

    def test_one_to_n_retrieval_capped_by_golden_decode(self, providers, cfg):
        # §6.2: 1->N caps every consumer at the golden format's decode speed
        g = cfg.storage.golden.fidelity
        for e in providers["1->N"].entries.values():
            cap = decode_speed_x(g, e.sf.coding, 1, DATASETS["jackson"].motion)
            assert e.retrieval_x <= cap * 7  # sparse samplers gain from skips


class TestQuerySpeed:
    @pytest.fixture(scope="class")
    def speeds(self, spark, providers):
        ds = DATASETS["jackson"]
        out = {}
        for kind in ("vstore", "1->1", "1->N", "N->N"):
            for acc in (0.95, 0.7):
                out[(kind, acc)] = run_query(
                    spark, providers[kind], ds, acc, hours=0.05
                ).speed_x
        return out

    def test_vstore_beats_one_to_n(self, speeds):
        # Fig 11a: VStore outperforms 1->N by 3x-16x
        for acc in (0.95, 0.7):
            assert speeds[("vstore", acc)] > 2 * speeds[("1->N", acc)]

    def test_vstore_beats_one_to_one_at_low_accuracy(self, speeds):
        assert speeds[("vstore", 0.7)] > 5 * speeds[("1->1", 0.7)]

    def test_one_to_one_fixed_operating_point(self, speeds):
        # 1->1 cannot exploit accuracy/cost tradeoffs
        assert speeds[("1->1", 0.95)] == pytest.approx(speeds[("1->1", 0.7)])

    def test_vstore_elastic_with_accuracy(self, speeds):
        # lowering the target accuracy accelerates the query
        assert speeds[("vstore", 0.7)] > 1.5 * speeds[("vstore", 0.95)]

    def test_n_to_n_matches_vstore_speed(self, speeds):
        # N->N reads the same CFs from dedicated SFs: same query speed,
        # it only pays more storage/ingest (Fig 11b/c)
        for acc in (0.95, 0.7):
            assert speeds[("N->N", acc)] == pytest.approx(
                speeds[("vstore", acc)], rel=0.25
            )


class TestQueryExecution:
    def test_cascade_fractions_decrease(self, spark, providers):
        r = run_query(spark, providers["vstore"], DATASETS["jackson"], 0.9, hours=0.05)
        fracs = [s.frac_in for s in r.stages]
        assert fracs[0] == pytest.approx(1.0)
        assert fracs == sorted(fracs, reverse=True)

    def test_stage_ops_match_cascade(self, spark, providers):
        r = run_query(spark, providers["vstore"], DATASETS["jackson"], 0.9, hours=0.05)
        assert [s.op_name for s in r.stages] == ["diff", "snn", "nn"]

    def test_query_b_cascade(self, spark, cfg):
        ds = DATASETS["park"]
        prov = make_provider("vstore", cfg, ds.motion)
        r = run_query(spark, prov, ds, 0.8, hours=0.05)
        assert [s.op_name for s in r.stages] == ["motion", "license", "ocr"]
        assert r.speed_x > 10

    def test_speed_accounting_consistent(self, spark, providers):
        r = run_query(spark, providers["vstore"], DATASETS["jackson"], 0.8, hours=0.05)
        assert r.sim_time_s == pytest.approx(sum(s.sim_time_s for s in r.stages))
        assert r.speed_x == pytest.approx(r.video_seconds / r.sim_time_s)

    def test_deterministic(self, spark, providers):
        a = run_query(spark, providers["vstore"], DATASETS["miami"], 0.9, hours=0.02)
        b = run_query(spark, providers["vstore"], DATASETS["miami"], 0.9, hours=0.02)
        assert a.speed_x == pytest.approx(b.speed_x)

    def test_detections_oracle(self, spark, providers):
        # per-stage flagged totals agree between Spark SQL and DuckDB
        det = detections_df(
            spark, providers["vstore"], DATASETS["jackson"], 0.9, hours=0.02
        ).cache()
        got = (
            det.groupBy("op").sum("flagged").withColumnRenamed("sum(flagged)", "n")
        )
        assert_equivalent(
            got, "SELECT op, sum(flagged) AS n FROM det GROUP BY op", det=det
        )

    def test_detections_bounded_by_processed(self, spark, providers):
        # each stage flags a subset of the frames it actually processed;
        # (raw counts are not monotone across stages because each stage
        # samples the propagated active set at its own CF rate)
        det = detections_df(
            spark, providers["vstore"], DATASETS["jackson"], 0.9, hours=0.02
        )
        assert det.filter("flagged < 0").count() == 0
        last = det.filter("stage = 2").agg({"flagged": "sum"}).collect()[0][0]
        first = det.filter("stage = 0").agg({"flagged": "sum"}).collect()[0][0]
        assert 0 <= last and first > 0


def reference_rows(ds, plan, segment_ids) -> pd.DataFrame:
    """The cascade the long way, one frame at a time: each active frame goes
    on to the next stage with the verdict of the latest processed frame at or
    before it (the first processed frame's, for frames before that)."""
    rows = []
    for seg in segment_ids:
        frames = segment_frames(ds, seg)
        n = len(frames)
        active = np.ones(n, dtype=bool)
        for stage, (op_name, e) in enumerate(zip(CASCADES[ds.query], plan)):
            frac_in = active.sum() / n
            mask = active & sampled_frame_mask(n, e.cf.sampling)
            idx = np.flatnonzero(mask)
            pred = (
                OPERATORS[op_name].detect(frames[mask], e.cf, ds.motion, ds.event_rate)
                if len(idx)
                else np.zeros(0, dtype=bool)
            )
            t = frac_in * SEGMENT_SECONDS * max(
                1.0 / e.retrieval_x, 1.0 / e.consumption_speed_x
            ) + (OVERHEAD_S if frac_in > 0 else 0.0)
            rows.append(
                (seg, stage, op_name, frac_in, pred.sum(), len(idx), t, SEGMENT_SECONDS)
            )
            verdict = dict(zip(idx, pred))
            last = pred[0] if len(pred) else False
            nxt = np.zeros(n, dtype=bool)
            for i in range(n):
                last = verdict.get(i, last)
                nxt[i] = active[i] and last
            active = nxt
    return pd.DataFrame(
        rows,
        columns=[
            "segment_id", "stage", "op", "frac_in", "flagged", "processed",
            "sim_time_s", "seconds",
        ],
    )


class TestCascadeKernel:
    @pytest.mark.parametrize(
        "kind,name,acc", [("vstore", "jackson", 0.9), ("N->N", "park", 0.7)]
    )
    def test_run_query_aggregates_kernel_rows(self, spark, cfg, kind, name, acc):
        # the kernel's rows match the frame-by-frame reference, and run_query's
        # per-stage numbers are DuckDB's aggregate of those same rows
        ds, hours = DATASETS[name], 0.02
        provider = make_provider(kind, cfg, ds.motion)
        plan = stage_plan(provider, ds, acc)
        rows = cascade_rows(spark, ds, plan, hours=hours).toPandas()
        n_segs = int(hours * 3600 / SEGMENT_SECONDS)
        pd.testing.assert_frame_equal(
            rows.sort_values(["segment_id", "stage"]).reset_index(drop=True),
            reference_rows(ds, plan, range(n_segs)),
            check_dtype=False,
        )
        r = run_query(spark, provider, ds, acc, hours=hours)
        got = spark.createDataFrame(
            [(i, s.op_name, s.frac_in, s.sim_time_s) for i, s in enumerate(r.stages)],
            "stage long, op string, frac_in double, sim_time_s double",
        )
        assert_equivalent(
            got,
            "SELECT stage, op, avg(frac_in) AS frac_in, sum(sim_time_s) AS sim_time_s "
            "FROM rows GROUP BY stage, op",
            rows=rows,
        )


class TestStorageAndIngestCosts:
    def test_storage_ordering(self, cfg, providers):
        # Fig 11b: N->N >> VStore > 1->1 == 1->N
        m = DATASETS["dashcam"].motion
        nn = storage_kb_per_s(providers["N->N"].sfs, m)
        vs = storage_kb_per_s(providers["vstore"].sfs, m)
        one = storage_kb_per_s(providers["1->1"].sfs, m)
        assert nn > 1.5 * vs
        assert vs > one

    def test_ingest_ordering(self, providers):
        # Fig 11c: N->N > VStore >> 1->1
        m = DATASETS["jackson"].motion
        nn = ingest_cores_per_stream(providers["N->N"].sfs, m)
        vs = ingest_cores_per_stream(providers["vstore"].sfs, m)
        one = ingest_cores_per_stream(providers["1->1"].sfs, m)
        assert nn > vs > one

    def test_vstore_ingest_cores_plausible(self, providers):
        # Fig 11c: around 10 cores per stream
        m = DATASETS["dashcam"].motion
        assert 3 < ingest_cores_per_stream(providers["vstore"].sfs, m) < 25

    def test_dashcam_costs_most(self, providers):
        kinds = providers["vstore"].sfs
        costs = {
            name: storage_kb_per_s(kinds, d.motion) for name, d in DATASETS.items()
        }
        assert max(costs, key=costs.get) == "dashcam"
