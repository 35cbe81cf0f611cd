"""Storage-format profiling: (fidelity, coding) -> (size, decode cost).

Paper §4.3: "for each pair, VStore profiles a video sample in the would-be
coalesced SF, testing decoding speed and the video sample size". Here one
profiling run evaluates the codec model on a sample segment of the profiling
dataset; results are memoized per (fidelity, coding) and the run/hit counters
feed the §6.4 overhead accounting (the paper reports 475 profiled of 15K
possible, 92% of examined formats memoized).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.codec.model import (
    decode_frame_cost_s,
    decode_speed_x_from_cost,
    raw_retrieval_speed_x,
    size_kb_per_s,
)
from repro.formats import Coding, Fidelity, coding_space
from repro.video.datasets import Dataset


@dataclass(frozen=True)
class StorageProfile:
    """Measured properties of one storage format on the sample video."""

    fidelity: Fidelity
    coding: Coding
    size_kb_per_s: float
    decode_frame_cost_s: float  # 0 for RAW

    def retrieval_speed_x(self, consumer_sampling: Fraction | float) -> float:
        """Retrieval speed (x-realtime) for a consumer sampling at the given
        rate — decode-bound for encoded formats, disk-bound for RAW."""
        if self.coding.raw:
            return raw_retrieval_speed_x(self.fidelity, consumer_sampling)
        return decode_speed_x_from_cost(
            self.decode_frame_cost_s, consumer_sampling, self.coding.keyframe_interval
        )


class StorageProfiler:
    """Memoizing storage-format profiler over one dataset's sample segment."""

    def __init__(self, ds: Dataset) -> None:
        self.ds = ds
        self.memo: dict[tuple[Fidelity, Coding], StorageProfile] = {}
        self.runs = 0  # actual profiling work (cache misses)
        self.hits = 0  # memoized reuse
        # per fidelity, its profiles under every encoded coding
        self._rows: dict[Fidelity, tuple[StorageProfile, ...]] = {}

    def profile(self, f: Fidelity, c: Coding) -> StorageProfile:
        key = (f, c)
        if key in self.memo:
            self.hits += 1
            return self.memo[key]
        self.runs += 1
        motion = self.ds.motion
        prof = StorageProfile(
            fidelity=f,
            coding=c,
            size_kb_per_s=size_kb_per_s(f, c, motion),
            decode_frame_cost_s=0.0 if c.raw else decode_frame_cost_s(f, c, motion),
        )
        self.memo[key] = prof
        return prof

    def coding_profiles(self, f: Fidelity) -> tuple[StorageProfile, ...]:
        """Profiles of ``f`` under every encoded coding, in ``coding_space()``
        order. Runs and hits advance exactly as one ``profile`` call per
        coding would advance them; the fidelity is hashed once per call."""
        row = self._rows.get(f)
        if row is None:
            row = self._rows[f] = tuple(self.profile(f, c) for c in coding_space())
        else:
            self.hits += len(row)
        return row
