"""Synthetic video substrate: dataset content profiles and frame generators."""
from repro.video.datasets import DATASETS, Dataset, dataset  # noqa: F401
from repro.video.frames import segment_frames, segments_df  # noqa: F401
