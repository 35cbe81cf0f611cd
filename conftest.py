import os
import sys

import pytest
from pyspark.sql import SparkSession

from repro.session import set_submit_args, spark_session

# Driver memory (SPARK_DRIVER_MEM > cgroup limit > host memory) goes into
# PYSPARK_SUBMIT_ARGS at conftest import, before any test can start the JVM.
set_submit_args()


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, from the
    factory the jobs use, with 64 shuffle partitions."""
    s = spark_session("repro", shuffle_partitions=64)
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
