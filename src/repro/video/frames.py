"""Deterministic synthetic frame / segment generation.

VStore splits streams into 10-second segments (paper §4.1) and retrieves /
deletes each independently. A *frame* here is a row of latent variables, not
pixels: the operator substrate turns latents into detections with the shared-
latent construction that makes measured F1 exactly monotone in fidelity
(DESIGN.md §2). Latents are seeded by (dataset, segment, frame) so every
profiling run, test, and the DuckDB oracle see identical content.

Per-frame columns:
- ``u``    — event latent; frame is ground-truth positive for op *i* iff
             ``u_i < positive_rate`` (one independent stream per operator,
             derived from ``u`` via a per-op hash offset).
- ``v``    — detection latent (true-positive survival under fidelity loss).
- ``w``    — false-positive latent.
- ``local_motion`` — per-frame motion around the dataset mean.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.formats import FPS, SEGMENT_SECONDS
from repro.video.datasets import Dataset

_LATENTS = ("u", "v", "w")


def _seed(dataset_name: str, segment_id: int, salt: int = 0) -> int:
    # crc32 is stable across processes (unlike built-in hash(), which is
    # randomized per interpreter and would differ between Spark workers).
    return zlib.crc32(f"{dataset_name}/{int(segment_id)}/{salt}".encode())


def segment_frames(
    ds: Dataset,
    segment_id: int,
    *,
    seconds: int = SEGMENT_SECONDS,
    fps: int = FPS,
) -> pd.DataFrame:
    """All frames of one segment as a pandas DataFrame (deterministic)."""
    n = seconds * fps
    g = np.random.default_rng(_seed(ds.name, segment_id))
    local_motion = np.clip(
        ds.motion + 0.1 * g.standard_normal(n), 0.01, 0.99
    )
    pdf = pd.DataFrame(
        {
            "dataset": ds.name,
            "segment_id": np.int64(segment_id),
            "frame_id": np.arange(n, dtype=np.int64),
            "local_motion": local_motion,
        }
    )
    for i, c in enumerate(_LATENTS):
        gl = np.random.default_rng(_seed(ds.name, segment_id, salt=i + 1))
        pdf[c] = gl.random(n)
    return pdf


def sampled_frame_mask(n_frames: int, sampling) -> np.ndarray:
    """Boolean mask of frames an operator actually processes at a given
    frame-sampling rate (every k-th frame, k = 1/sampling)."""
    k = int(round(1.0 / float(sampling)))
    idx = np.arange(n_frames)
    return idx % max(1, k) == 0


def segments_df(
    spark: SparkSession,
    ds: Dataset,
    *,
    hours: float = 1.0,
    seconds_per_segment: int = SEGMENT_SECONDS,
) -> DataFrame:
    """Segment metadata for ``hours`` of one stream as a Spark DataFrame."""
    n = max(1, int(hours * 3600 / seconds_per_segment))
    seg = np.arange(n, dtype=np.int64)
    g = np.random.default_rng(_seed(ds.name, -1))
    pdf = pd.DataFrame(
        {
            "dataset": ds.name,
            "segment_id": seg,
            "start_s": seg * seconds_per_segment,
            "seconds": np.int64(seconds_per_segment),
            "motion": np.clip(ds.motion + 0.05 * g.standard_normal(n), 0.02, 0.98),
        }
    )
    return spark.createDataFrame(pdf)
