"""The one SparkSession factory, shared by the test suite and the jobs.

The driver's heap is fixed when the JVM launches, so it goes into
``PYSPARK_SUBMIT_ARGS`` before the first session starts; settings honoured
after launch (shuffle partitions, Arrow, broadcast threshold) are set on the
builder. Environment overrides: ``SPARK_DRIVER_MEM``, ``SPARK_MASTER`` and
``SPARK_SHUFFLE_PARTITIONS``.
"""
from __future__ import annotations

import os

_CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


def driver_memory() -> str:
    """Heap for the Spark driver JVM, e.g. ``"6g"``.

    Precedence: ``SPARK_DRIVER_MEM`` (explicit override) > 75% of the
    cgroup v2/v1 memory limit > half the host's memory, between 1g and 8g.
    The source is recorded in ``_SPARK_DRIVER_MEM_SRC``.

    The cgroup read is best-effort: sandboxes may not pass the host limit
    through their sysfs emulation. An unbounded value (cgroup-v1's ~9.2e18
    "unlimited" sentinel, or a missing limit) is treated as absent so the
    JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in _CGROUP_LIMITS:
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "meminfo"
    return f"{max(1, min(8, int(_host_gib() / 2)))}g"


def _host_gib() -> float:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / (1 << 20)
    except (OSError, ValueError, IndexError):
        pass
    return 2.0


def set_submit_args() -> None:
    """Put master and driver memory into ``PYSPARK_SUBMIT_ARGS`` unless the
    caller has set them; must run before the JVM launches."""
    os.environ.setdefault("SPARK_DRIVER_MEM", driver_memory())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )


def spark_session(app: str, *, shuffle_partitions: int = 32):
    """Get or create the process's SparkSession.

    Broadcast joins are disabled so shuffle/join code paths are exercised at
    small scale; a query that wants a broadcast join sets the threshold back.
    """
    from pyspark.sql import SparkSession

    set_submit_args()
    s = (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", str(shuffle_partitions)),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
