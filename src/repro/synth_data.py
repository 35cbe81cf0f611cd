"""Synthetic camera-stream data as Spark DataFrames.

The paper evaluates on six camera streams; the synthetic video substrate
lives in ``repro.video`` (see DESIGN.md §2 for the substitution). Generators
are deterministic so the DuckDB oracle sees identical input.
"""
from pyspark.sql import DataFrame, SparkSession


def video_segments(spark: SparkSession, *, dataset: str = "jackson", hours: float = 0.1) -> DataFrame:
    """Segment metadata (10 s segments) for one synthetic camera stream."""
    from repro.video.datasets import DATASETS
    from repro.video.frames import segments_df

    return segments_df(spark, DATASETS[dataset], hours=hours)
