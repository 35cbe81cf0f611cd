"""The profiling kernel and the §4.3 per-fidelity coding table against their
per-call reference paths: same numbers bit for bit, same counters."""
import functools
import uuid
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.storage import Consumer, _feasible, derive_storage_plan
from repro.formats import RAW, Fidelity, coding_space, fidelity_space
from repro.ops.base import Operator, f1_score
from repro.ops.library import OPERATORS
from repro.profiler.consumption import ConsumptionProfiler, ProfileResult
from repro.profiler.storage import StorageProfiler
from repro.video.datasets import DATASETS
from repro.video.frames import segment_frames

S = Fraction


def reference(op, f, ds, segment_ids) -> ProfileResult:
    """One profiling run the long way: generate the clip, run the detector,
    score F1 against the operator's full-fidelity output."""
    gts, preds = [], []
    for seg in segment_ids:
        frames = segment_frames(ds, seg)
        gts.append(op.ground_truth(frames, ds.motion, ds.event_rate))
        preds.append(op.detect(frames, f, ds.motion, ds.event_rate))
    f1 = f1_score(np.concatenate(gts), np.concatenate(preds))
    return ProfileResult(f1=f1, speed_x=op.consumption_speed_x(f))


def random_op(name, p):
    return Operator(name=name, query="A", runs_on="cpu", stage=0, **p)


random_ops = st.builds(
    random_op,
    st.text("abcdefgh", min_size=1, max_size=6),
    st.fixed_dictionaries(
        {
            "mq": st.floats(0.0, 1.0),
            "ar": st.floats(0.0, 0.8),
            "pr": st.floats(1.0, 14.0),
            "asamp": st.floats(0.0, 0.3),
            "psamp": st.floats(0.5, 2.0),
            "ac": st.floats(0.0, 0.3),
            "iota": st.floats(0.0, 8.0),
            "a": st.floats(1e-5, 1e-2),
            "gamma": st.floats(0.2, 1.5),
            "b": st.floats(1e-6, 1e-3),
            "pos_base": st.floats(0.0, 0.9),
            "pos_motion": st.floats(0.0, 0.3),
            "pos_event": st.floats(0.0, 0.3),
        }
    ),
)
operators = st.sampled_from(list(OPERATORS.values())) | random_ops
batches = st.lists(st.sampled_from(fidelity_space()), min_size=1, max_size=8).flatmap(
    lambda fs: st.permutations(fs + fs[: len(fs) // 2])
)
segment_ids = st.lists(st.integers(0, 200), min_size=1, max_size=3).map(tuple)


@given(
    op=operators,
    ds=st.sampled_from(list(DATASETS.values())),
    fs=batches,
    segs=segment_ids,
)
@settings(max_examples=60, deadline=None)
def test_kernel_equals_reference_path(op, ds, fs, segs):
    p = ConsumptionProfiler(ds, mode="local", segment_ids=segs)
    want = [reference(op, f, ds, segs) for f in fs]
    assert p.profile_many(op, fs) == want
    assert (p.runs, p.hits) == (len(set(fs)), 0)
    assert p.profile_many(op, fs) == want
    assert (p.runs, p.hits) == (len(set(fs)), len(fs))


def test_spark_kernel_equals_reference_path(spark):
    op = random_op("unregistered", dict(
        mq=0.4, ar=0.5, pr=3.0, asamp=0.2, psamp=1.0, ac=0.2, iota=2.0,
        a=1e-3, gamma=0.8, b=1e-4, pos_base=0.3, pos_motion=0.1, pos_event=0.1,
    ))
    ds, segs = DATASETS["park"], (0, 5)
    fs = list(fidelity_space()[::37])
    fs = fs + fs[:3]
    for o in (op, OPERATORS["license"]):
        p = ConsumptionProfiler(ds, spark, mode="spark", segment_ids=segs)
        assert p.profile_many(o, fs) == [reference(o, f, ds, segs) for f in fs]


def _jobs_of(spark, fn):
    """Run ``fn`` in a job group of its own; (jobs, [tasks per stage])."""
    sc = spark.sparkContext
    group = f"profile-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "profiling batch")
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    jobs = list(tracker.getJobIdsForGroup(group))
    stages = [sid for j in jobs for sid in tracker.getJobInfo(j).stageIds]
    return jobs, [tracker.getStageInfo(sid).numTasks for sid in stages]


def test_one_spark_job_per_batch(spark):
    op = OPERATORS["snn"]
    p = ConsumptionProfiler(DATASETS["tucson"], spark, mode="spark")
    fs = list(fidelity_space()[:40])
    jobs, tasks = _jobs_of(spark, lambda: p.profile_many(op, fs))
    assert len(jobs) == 1 and tasks == [16]
    one = Fidelity("good", 360, S(1, 2), 0.75)
    jobs, tasks = _jobs_of(spark, lambda: p.profile(op, one))
    assert len(jobs) == 1 and tasks == [1]
    jobs, _ = _jobs_of(spark, lambda: p.profile_many(op, fs))
    assert jobs == []  # all memoized


# ---- §4.3: the per-fidelity coding table ------------------------------------

def per_call_choose_coding(sp, fidelity, consumers):
    """``choose_coding`` as one profiler lookup per (fidelity, coding)."""
    best = None
    for c in coding_space():
        prof = sp.profile(fidelity, c)
        if _feasible(prof, consumers):
            if best is None or prof.size_kb_per_s < best.size_kb_per_s:
                best = prof
    if best is not None:
        return best
    raw = sp.profile(fidelity, RAW)
    return raw if _feasible(raw, consumers) else None


def test_coding_table_counts_like_single_lookups():
    f = Fidelity("bad", 540, S(1, 6), 1.0)
    table, single = StorageProfiler(DATASETS["dashcam"]), StorageProfiler(DATASETS["dashcam"])
    for sp in (table, single):
        sp.profile(f, coding_space()[3])
    for _ in range(2):
        row = table.coding_profiles(f)
        ref = [single.profile(f, c) for c in coding_space()]
        assert list(row) == ref
        assert (table.runs, table.hits) == (single.runs, single.hits)


@functools.cache
def consumers_of_table2() -> tuple[Consumer, ...]:
    """The 24 Table 2 consumers (analytic profiling keeps this fast)."""
    from repro.core.config import ConfigOptions, derive_config

    return tuple(derive_config(options=ConfigOptions(profiler_mode="analytic")).consumers)


def plan_record(plan):
    return (
        [(n.storage_format(), n.golden, [c.label() for c in n.consumers]) for n in plan.nodes],
        plan.rounds,
        plan.pairs_examined,
        plan.profiling_runs,
        plan.profiling_hits,
        plan.budget_moves,
    )


@given(
    picks=st.sets(st.integers(0, 23), min_size=1),
    budget=st.none() | st.floats(0.2, 12.0),
)
@settings(max_examples=25, deadline=None)
def test_coding_table_plan_equals_per_call_plan(picks, budget):
    consumers: list[Consumer] = [consumers_of_table2()[i] for i in sorted(picks)]
    ds = DATASETS["dashcam"]

    def derive():
        return derive_storage_plan(
            StorageProfiler(ds), consumers, ingest_budget_cores=budget, motion=ds.motion
        )

    got = derive()
    with mock.patch("repro.core.storage.choose_coding", per_call_choose_coding):
        want = derive()
    assert plan_record(got) == plan_record(want)
