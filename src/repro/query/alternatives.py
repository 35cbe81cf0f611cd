"""Format providers: VStore vs the §6.2 alternative configurations.

A *format provider* answers, for one <operator, accuracy> stage of a query:
which fidelity does the operator consume (CF), and which stored version is it
retrieved from (SF)? The four providers mirror the paper's comparison:

- ``vstore``  — CFs and coalesced SFs from backward derivation;
- ``1->1``    — golden SF only, consumed at golden fidelity (a video database
  oblivious to algorithmic consumers; fixed operating point, accuracy = 1);
- ``1->N``    — golden SF only, converted at retrieval into VStore's CFs
  (configuring consumption but not storage: every consumer is capped by the
  golden format's decode speed);
- ``N->N``    — one SF per unique CF (no coalescing).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.codec.model import retrieval_speed_x
from repro.core.config import VStoreConfig
from repro.core.storage import initial_nodes
from repro.formats import Fidelity, GOLDEN_CODING, StorageFormat
from repro.ops.base import Operator
from repro.ops.library import OPERATORS
from repro.profiler.storage import StorageProfiler
from repro.video.datasets import DATASETS, PROFILING_DATASET


@dataclass(frozen=True)
class StagePlanEntry:
    """Retrieval/consumption plan for one operator at one accuracy."""

    cf: Fidelity
    sf: StorageFormat
    sf_id: str
    consumption_speed_x: float
    retrieval_x: float  # retrieval speed for this consumer's sampling rate


class FormatProvider:
    """Maps (operator, accuracy) -> StagePlanEntry, plus the stored SF set."""

    def __init__(self, name: str, entries: dict[tuple[str, float], StagePlanEntry], sfs: dict[str, StorageFormat]):
        self.name = name
        self.entries = entries
        self.sfs = sfs

    def entry(self, op_name: str, acc: float) -> StagePlanEntry:
        return self.entries[(op_name, acc)]


def _golden_fidelity(cfg: VStoreConfig) -> Fidelity:
    return cfg.storage.golden.fidelity


def _entry(cf: Fidelity, sf: StorageFormat, sf_id: str, op: Operator, motion: float) -> StagePlanEntry:
    return StagePlanEntry(
        cf=cf,
        sf=sf,
        sf_id=sf_id,
        consumption_speed_x=op.consumption_speed_x(cf),
        retrieval_x=retrieval_speed_x(sf, cf.sampling, motion),
    )


def vstore_provider(cfg: VStoreConfig, motion: float) -> FormatProvider:
    sfs = {
        ("SFg" if n.golden else f"SF{i}"): n.storage_format()
        for i, n in enumerate(cfg.storage.nodes)
    }
    ids = list(sfs)
    entries = {}
    assignment = cfg.storage.assignment()
    for c in cfg.consumers:
        idx = assignment[c]
        sf_id = ids[idx]
        entries[(c.op_name, c.target_acc)] = _entry(
            c.cf, sfs[sf_id], sf_id, OPERATORS[c.op_name], motion
        )
    return FormatProvider("vstore", entries, sfs)


def one_to_one_provider(cfg: VStoreConfig, motion: float) -> FormatProvider:
    """Golden format in, golden fidelity out (consumers get full fidelity)."""
    g = StorageFormat(_golden_fidelity(cfg), GOLDEN_CODING)
    sfs = {"SFg": g}
    entries = {
        (c.op_name, c.target_acc): _entry(
            g.fidelity, g, "SFg", OPERATORS[c.op_name], motion
        )
        for c in cfg.consumers
    }
    return FormatProvider("1->1", entries, sfs)


def one_to_n_provider(cfg: VStoreConfig, motion: float) -> FormatProvider:
    """Golden format in, VStore CFs out (decode golden, convert per consumer)."""
    g = StorageFormat(_golden_fidelity(cfg), GOLDEN_CODING)
    sfs = {"SFg": g}
    entries = {}
    for c in cfg.consumers:
        # retrieval must decode the golden stream at the consumer's sampling
        entries[(c.op_name, c.target_acc)] = _entry(
            c.cf, g, "SFg", OPERATORS[c.op_name], motion
        )
    return FormatProvider("1->N", entries, sfs)


def n_to_n_provider(cfg: VStoreConfig, motion: float) -> FormatProvider:
    """One SF per unique CF, adequate min-size coding, no coalescing: the
    §4.3 initial SF set without its golden format."""
    nodes = initial_nodes(
        StorageProfiler(DATASETS[PROFILING_DATASET["B"]]), cfg.consumers
    )[1:]
    sfs = {f"SF{i:02d}": n.storage_format() for i, n in enumerate(nodes)}
    sf_ids = {c: sf_id for sf_id, n in zip(sfs, nodes) for c in n.consumers}
    entries = {}
    for c in cfg.consumers:
        sf_id = sf_ids[c]
        entries[(c.op_name, c.target_acc)] = _entry(
            c.cf, sfs[sf_id], sf_id, OPERATORS[c.op_name], motion
        )
    return FormatProvider("N->N", entries, sfs)


_PROVIDERS = {
    "vstore": vstore_provider,
    "1->1": one_to_one_provider,
    "1->N": one_to_n_provider,
    "N->N": n_to_n_provider,
}


def make_provider(kind: str, cfg: VStoreConfig, motion: float) -> FormatProvider:
    """Build one of the four §6.2 configurations."""
    return _PROVIDERS[kind](cfg, motion)
