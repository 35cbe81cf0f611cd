"""Operator profiling: fidelity -> (measured F1, consumption speed).

The paper (§4.2) profiles each (operator, fidelity) pair by preparing a
10-second sample clip at that fidelity, running the operator, and measuring
accuracy and consumption speed. Here one kernel, :func:`evaluate`, profiles a
batch of fidelities of one operator:

1. :func:`clip_latents` generates the sample clip's frames (deterministic
   latents) once and derives the operator's latent streams and its ground
   truth (its full-fidelity output, the paper's ground truth) from them;
2. for each fidelity, the kernel counts the frames the operator's detector
   gets right and wrong — the thresholds and comparisons of
   ``Operator.detect`` — and scores F1 from those counts with the integer
   formula of ``f1_score``; consumption speed is read off the calibrated
   cost model.

Every execution mode calls the kernel; they differ in where it runs:

- ``spark`` (default for jobs/benchmarks): one Spark job per batch. The
  requested fidelities are sliced into at most 16 partitions (no shuffle) and
  a ``mapInPandas`` UDF builds the clip's latents once per task and scores
  its slice — the data plane the repro brief asks for.
- ``local``: the kernel on the driver, with the clip's latents built once per
  (profiler, operator); results are bit-identical to ``spark``.
- ``analytic``: the kernel without a clip — F1 is the operator's analytic
  surface (noise-free); used by algorithm-equivalence tests (staircase vs
  exhaustive).

Results are memoized per (operator, fidelity); ``runs`` counts cache misses
(actual profiling work) and ``hits`` counts memoized reuse — the quantities
Fig 13 reports. Nothing is cached beyond the profiler's lifetime.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.formats import Fidelity
from repro.ops.base import Operator, f1_from_counts
from repro.video.datasets import Dataset
from repro.video.frames import segment_frames

MODES = ("spark", "local", "analytic")
#: most Spark tasks one profiling batch is split into
MAX_TASKS = 16


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of one profiling run."""

    f1: float
    speed_x: float  # consumption speed, x-realtime

    @property
    def cost(self) -> float:
        """Consumption cost — reciprocal of speed (paper §2.2)."""
        return 1.0 / self.speed_x


@dataclass(frozen=True)
class ClipLatents:
    """One operator's latent streams over a sample clip, split by ground
    truth and sorted, so the detections at any fidelity are two counts."""

    pos: float  # the operator's positive rate on the clip's dataset
    v_pos: np.ndarray  # detection latents of ground-truth positives, sorted
    w_neg: np.ndarray  # false-positive latents of ground-truth negatives, sorted


def clip_latents(op: Operator, ds: Dataset, segment_ids: tuple[int, ...]) -> ClipLatents:
    """Generate the clip's frames and split the operator's streams by its
    ground truth (``u < pos``, as in ``Operator.ground_truth``)."""
    streams = [op.streams(segment_frames(ds, seg)) for seg in segment_ids]
    u, v, w = (np.concatenate(x) for x in zip(*streams))
    pos = op.positive_rate(ds.motion, ds.event_rate)
    gt = u < pos
    return ClipLatents(pos=pos, v_pos=np.sort(v[gt]), w_neg=np.sort(w[~gt]))


def evaluate(
    op: Operator, fs: Iterable[Fidelity], motion: float, clip: ClipLatents | None
) -> list[ProfileResult]:
    """The profiling kernel: score each fidelity of ``fs`` for ``op``.

    With a clip, F1 is measured over *all* clip frames: the operator
    physically processes only the sampled subset (that is what the cost model
    charges for), and its labels propagate to the skipped frames; the
    propagation loss is part of the detection-retention model
    (``Operator.accuracy`` includes the sampling loss term). Evaluating on a
    fixed frame set is also what keeps measured F1 exactly monotone across
    sampling rates. A positive frame is detected iff ``v < retention`` and a
    negative one iff ``w < fp``, so each count is a binary search in a sorted
    stream. Without a clip (``analytic``), F1 is ``Operator.accuracy``.
    """
    out = []
    for f in fs:
        if clip is None:
            f1 = op.accuracy(f, motion)
        else:
            r, fp = op.detection_thresholds(f, motion, clip.pos)
            tp = int(np.searchsorted(clip.v_pos, r))
            f1 = f1_from_counts(tp, int(np.searchsorted(clip.w_neg, fp)), len(clip.v_pos) - tp)
        out.append(ProfileResult(f1=f1, speed_x=op.consumption_speed_x(f)))
    return out


class ConsumptionProfiler:
    """Memoizing operator profiler over one dataset's sample clips."""

    def __init__(
        self,
        ds: Dataset,
        spark: SparkSession | None = None,
        *,
        segment_ids: tuple[int, ...] = (0,),
        mode: str = "spark",
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"profiler mode must be one of {MODES}, not {mode!r}")
        if mode == "spark" and spark is None:
            raise ValueError("spark mode needs a SparkSession")
        self.ds = ds
        self.spark = spark
        self.segment_ids = segment_ids
        self.mode = mode
        self.memo: dict[tuple[str, Fidelity], ProfileResult] = {}
        self.runs = 0
        self.hits = 0
        self._clips: dict[str, ClipLatents] = {}

    # -- public API -----------------------------------------------------------

    def profile(self, op: Operator, f: Fidelity) -> ProfileResult:
        """Profile one (operator, fidelity); memoized."""
        return self.profile_many(op, [f])[0]

    def profile_many(self, op: Operator, fs: list[Fidelity]) -> list[ProfileResult]:
        """Profile a batch of fidelities for one operator (one Spark job)."""
        missing = [f for f in fs if (op.name, f) not in self.memo]
        self.hits += len(fs) - len(missing)
        missing = list(dict.fromkeys(missing))
        if missing:
            self.runs += len(missing)
            for f, r in zip(missing, self._evaluate(op, missing)):
                self.memo[(op.name, f)] = r
        return [self.memo[(op.name, f)] for f in fs]

    def _evaluate(self, op: Operator, fs: list[Fidelity]) -> list[ProfileResult]:
        """Run the kernel on this profiler's executor."""
        if self.mode == "spark":
            return self._evaluate_spark(op, fs)
        clip = None if self.mode == "analytic" else self._clip(op)
        return evaluate(op, fs, self.ds.motion, clip)

    def _clip(self, op: Operator) -> ClipLatents:
        if op.name not in self._clips:
            self._clips[op.name] = clip_latents(op, self.ds, self.segment_ids)
        return self._clips[op.name]

    # -- Spark data plane -----------------------------------------------------

    def _evaluate_spark(self, op: Operator, fs: list[Fidelity]) -> list[ProfileResult]:
        """One job, one stage: row ``i`` of a sliced range is fidelity
        ``fs[i]``; each task builds the clip's latents once."""
        ds, segment_ids = self.ds, self.segment_ids

        def run(batches: Iterable[pd.DataFrame]):
            clip = None
            for pdf in batches:
                if clip is None:
                    clip = clip_latents(op, ds, segment_ids)
                idx = pdf["id"].to_numpy()
                rs = evaluate(op, [fs[i] for i in idx], ds.motion, clip)
                yield pd.DataFrame(
                    {"idx": idx, "f1": [r.f1 for r in rs], "speed_x": [r.speed_x for r in rs]}
                )

        out = (
            self.spark.range(len(fs), numPartitions=min(len(fs), MAX_TASKS))
            .mapInPandas(run, schema="idx long, f1 double, speed_x double")
            .toPandas()
            .sort_values("idx")
        )
        return [
            ProfileResult(f1=float(f1), speed_x=float(sx))
            for f1, sx in zip(out["f1"], out["speed_x"])
        ]
