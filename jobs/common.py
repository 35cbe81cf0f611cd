"""Shared helpers for spark-submit entrypoints.

Each job is a thin wrapper over a function that takes a SparkSession; run as
``spark-submit jobs/<name>.py`` or ``python jobs/<name>.py``. Results print
to stdout and are also appended to ``results/<name>.txt`` so EXPERIMENTS.md
can be assembled from saved runs.
"""
from __future__ import annotations

import os
import sys

from pyspark.sql import SparkSession

from repro.session import spark_session

RESULTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results")


def get_spark(app: str) -> SparkSession:
    """The shared session factory: driver memory follows the host (or
    ``SPARK_DRIVER_MEM``), 32 shuffle partitions."""
    return spark_session(app, shuffle_partitions=32)


class Tee:
    """Print to stdout and to results/<name>.txt."""

    def __init__(self, name: str) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        self.path = os.path.join(RESULTS_DIR, f"{name}.txt")
        self.fh = open(self.path, "w")

    def __call__(self, *args) -> None:
        line = " ".join(str(a) for a in args)
        print(line)
        self.fh.write(line + "\n")
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()
        print(f"[saved {self.path}]", file=sys.stderr)
