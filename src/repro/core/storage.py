"""§4.3 — Configuring storage formats by greedy pairwise coalescing.

From the consumption formats (CFs) and their consumers, derive a small set of
storage formats (SFs) that jointly satisfy

- R1 (satisfiable fidelity): an SF's fidelity is richer-or-equal to every
  downstream CF;
- R2 (adequate retrieval speed): the SF's retrieval speed (decode, or disk
  read for RAW) exceeds every downstream consumer's consumption speed;
- R3 (consolidation): one SF serves many consumers;
- R4 (budgets): ingestion cost under the transcoding budget.

Algorithm (paper Fig 9): start from one SF per unique CF plus the *golden*
format (knob-wise max fidelity, slowest/cheapest-storage coding — the
never-eroded ultimate fallback). Repeatedly coalesce the pair whose merged
format (knob-wise max fidelity, min-size coding that keeps R2 for the union
of consumers, RAW if no encoded coding is fast enough) reduces storage cost.
Once no coalesce is storage-free, adapt to the ingestion budget: step coding
speed up (cheaper encode, larger size — never violates R2 since cheaper
coding decodes faster), and when coding is exhausted, coalesce further or
fall back to RAW (Table 3's trajectory).

``enumerate_storage_plan`` is the exhaustive set-partition baseline of §6.4,
used to validate that coalescing finds equally storage-efficient plans.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.formats import Coding, Fidelity, GOLDEN_CODING, RAW, StorageFormat, cheaper_coding, knobwise_max
from repro.profiler.storage import StorageProfile, StorageProfiler


@dataclass(frozen=True)
class Consumer:
    """<operator, target accuracy> with its derived CF and consumption speed."""

    op_name: str
    target_acc: float
    cf: Fidelity
    speed_x: float

    def label(self) -> str:
        return f"{self.op_name}@{self.target_acc}"


@dataclass
class SFNode:
    """One storage format under construction, with its subscribed consumers."""

    fidelity: Fidelity
    coding: Coding
    consumers: list[Consumer]
    profile: StorageProfile
    golden: bool = False

    @property
    def size_kb_per_s(self) -> float:
        return self.profile.size_kb_per_s

    def retrieval_speed_for(self, consumer: Consumer) -> float:
        return self.profile.retrieval_speed_x(consumer.cf.sampling)

    def storage_format(self) -> StorageFormat:
        return StorageFormat(self.fidelity, self.coding)


@dataclass
class StoragePlan:
    """Derived SF set plus derivation statistics (for §6.4 accounting)."""

    nodes: list[SFNode]  # index 0 is the golden format
    rounds: int = 0
    pairs_examined: int = 0
    profiling_runs: int = 0
    profiling_hits: int = 0
    budget_moves: list[str] = field(default_factory=list)

    @property
    def golden(self) -> SFNode:
        return self.nodes[0]

    def storage_kb_per_s(self) -> float:
        return sum(n.size_kb_per_s for n in self.nodes)

    def ingest_cores(self, motion: float) -> float:
        from repro.codec.model import encode_cost_cores

        return sum(
            encode_cost_cores(n.fidelity, n.coding, motion) for n in self.nodes
        )

    def assignment(self) -> dict[Consumer, int]:
        return {c: i for i, n in enumerate(self.nodes) for c in n.consumers}


# ---- coding selection -------------------------------------------------------

def _feasible(prof: StorageProfile, consumers: list[Consumer]) -> bool:
    """R2: retrieval from this profile outruns every consumer."""
    return all(
        prof.retrieval_speed_x(c.cf.sampling) >= c.speed_x for c in consumers
    )


def choose_coding(
    sp: StorageProfiler, fidelity: Fidelity, consumers: list[Consumer]
) -> StorageProfile | None:
    """Min-storage coding for ``fidelity`` that keeps R2 for ``consumers``;
    falls back to RAW; None if even RAW is too slow (coalesce infeasible)."""
    best: StorageProfile | None = None
    for prof in sp.coding_profiles(fidelity):
        if (best is None or prof.size_kb_per_s < best.size_kb_per_s) and _feasible(prof, consumers):
            best = prof
    if best is not None:
        return best
    raw = sp.profile(fidelity, RAW)
    return raw if _feasible(raw, consumers) else None


# ---- coalescing -------------------------------------------------------------

def _merged(sp: StorageProfiler, a: SFNode, b: SFNode) -> SFNode | None:
    """The would-be coalesced node of a and b (None if infeasible)."""
    f2 = knobwise_max(a.fidelity, b.fidelity)
    consumers = a.consumers + b.consumers
    if a.golden or b.golden:
        # The golden format's coding is pinned: the slowest coding with the
        # lowest storage cost (§4.3) — or whatever cheaper coding the budget
        # phase has already tuned it to (Table 3). A CF merges into golden
        # only if that coding's retrieval speed suffices; re-coding golden
        # just to absorb a fast consumer would defeat its purpose as the
        # cheap-to-store ultimate fallback.
        golden_coding = a.coding if a.golden else b.coding
        prof = sp.profile(f2, golden_coding)
        if not _feasible(prof, consumers):
            return None
    else:
        prof = choose_coding(sp, f2, consumers)
    if prof is None:
        return None
    return SFNode(
        fidelity=f2,
        coding=prof.coding,
        consumers=consumers,
        profile=prof,
        golden=a.golden or b.golden,
    )


def _replace_pair(
    nodes: list[SFNode], pair: tuple[int, int], merged: SFNode
) -> list[SFNode]:
    """``nodes`` with the two nodes at ``pair`` replaced by their coalesced
    node, keeping the golden format at index 0."""
    rest = [n for k, n in enumerate(nodes) if k not in pair]
    return ([merged] + rest) if merged.golden else (rest[:1] + [merged] + rest[1:])


def initial_nodes(sp: StorageProfiler, consumers: list[Consumer]) -> list[SFNode]:
    """Full SF set: golden + one SF per unique CF (paper Fig 9, right side)."""
    by_cf: dict[Fidelity, list[Consumer]] = {}
    for c in consumers:
        by_cf.setdefault(c.cf, []).append(c)
    golden_f = knobwise_max(*by_cf.keys())
    golden = SFNode(
        fidelity=golden_f,
        coding=GOLDEN_CODING,
        consumers=[],
        profile=sp.profile(golden_f, GOLDEN_CODING),
        golden=True,
    )
    nodes = [golden]
    for cf, cons in sorted(by_cf.items(), key=lambda kv: kv[0].label()):
        prof = choose_coding(sp, cf, cons)
        if prof is None:
            raise ValueError(f"no feasible coding for CF {cf.label()}")
        nodes.append(SFNode(fidelity=cf, coding=prof.coding, consumers=cons, profile=prof))
    return nodes


def derive_storage_plan(
    sp: StorageProfiler,
    consumers: list[Consumer],
    *,
    ingest_budget_cores: float | None = None,
    motion: float | None = None,
) -> StoragePlan:
    """Greedy coalescing (phase 1) + ingestion-budget adaptation (phase 2)."""
    if ingest_budget_cores is not None and motion is None:
        raise ValueError("budget adaptation needs the stream's motion")
    runs0, hits0 = sp.runs, sp.hits
    nodes = initial_nodes(sp, consumers)
    plan = StoragePlan(nodes=nodes)

    # Phase 1: coalesce while storage cost does not increase.
    while True:
        best_delta, best_pair, best_node = 0.0, None, None
        for i, j in itertools.combinations(range(len(nodes)), 2):
            plan.pairs_examined += 1
            m = _merged(sp, nodes[i], nodes[j])
            if m is None:
                continue
            delta = m.size_kb_per_s - nodes[i].size_kb_per_s - nodes[j].size_kb_per_s
            if delta <= best_delta + 1e-12:
                best_delta, best_pair, best_node = delta, (i, j), m
        if best_pair is None:
            break
        nodes = _replace_pair(nodes, best_pair, best_node)
        plan.rounds += 1
        plan.nodes = nodes

    # Phase 2: respect the ingestion budget (Table 3).
    if ingest_budget_cores is not None:
        _adapt_to_budget(sp, plan, ingest_budget_cores, motion)

    plan.profiling_runs = sp.runs - runs0
    plan.profiling_hits = sp.hits - hits0
    return plan


def _adapt_to_budget(
    sp: StorageProfiler, plan: StoragePlan, budget: float, motion: float
) -> None:
    """Greedy: apply the ingest-reducing move with the least storage growth
    until the cost fits; moves are coding speed-ups, RAW bypass, coalesces."""
    from repro.codec.model import encode_cost_cores

    def cost(n: SFNode) -> float:
        return encode_cost_cores(n.fidelity, n.coding, motion)

    while plan.ingest_cores(motion) > budget:
        moves: list[tuple[float, float, str, object]] = []  # (d_storage, d_ingest, label, action)
        nodes = plan.nodes
        for idx, n in enumerate(nodes):
            if n.coding.raw:
                continue
            c2 = cheaper_coding(n.coding)
            if c2 is not None:
                prof = sp.profile(n.fidelity, c2)
                d_sto = prof.size_kb_per_s - n.size_kb_per_s
                d_ing = encode_cost_cores(n.fidelity, c2, motion) - cost(n)
                if d_ing < 0:
                    moves.append((d_sto, d_ing, f"speedup:{idx}", ("retune", idx, prof)))
            if not n.golden:
                raw = sp.profile(n.fidelity, RAW)
                if _feasible(raw, n.consumers):
                    d_sto = raw.size_kb_per_s - n.size_kb_per_s
                    d_ing = encode_cost_cores(n.fidelity, RAW, motion) - cost(n)
                    if d_ing < 0:
                        moves.append((d_sto, d_ing, f"raw:{idx}", ("retune", idx, raw)))
        for i, j in itertools.combinations(range(len(nodes)), 2):
            m = _merged(sp, nodes[i], nodes[j])
            if m is None:
                continue
            d_sto = m.size_kb_per_s - nodes[i].size_kb_per_s - nodes[j].size_kb_per_s
            d_ing = cost(m) - cost(nodes[i]) - cost(nodes[j])
            if d_ing < 0:
                moves.append((d_sto, d_ing, f"coalesce:{i},{j}", ("merge", (i, j), m)))
        if not moves:
            break  # budget unreachable; leave the cheapest achievable plan
        d_sto, d_ing, label, action = min(moves, key=lambda t: (t[0], t[1]))
        plan.budget_moves.append(label)
        if action[0] == "retune":
            _, idx, prof = action
            n = plan.nodes[idx]
            plan.nodes[idx] = SFNode(
                fidelity=n.fidelity,
                coding=prof.coding,
                consumers=n.consumers,
                profile=prof,
                golden=n.golden,
            )
        else:
            _, pair, m = action
            plan.nodes = _replace_pair(plan.nodes, pair, m)
        plan.rounds += 1


# ---- exhaustive enumeration baseline (§6.4) ---------------------------------

def _partitions(items: list):
    """All set partitions (Bell-number many — only viable for small inputs)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_storage_plan(
    sp: StorageProfiler, consumers: list[Consumer]
) -> StoragePlan:
    """Try every partition of the CF set into SF groups; keep the cheapest
    feasible plan (golden always included). Exponential — validation only."""
    by_cf: dict[Fidelity, list[Consumer]] = {}
    for c in consumers:
        by_cf.setdefault(c.cf, []).append(c)
    cfs = sorted(by_cf.keys(), key=lambda f: f.label())
    golden_f = knobwise_max(*cfs)
    best_nodes, best_cost = None, float("inf")
    for part in _partitions(cfs):
        nodes = [
            SFNode(
                fidelity=golden_f,
                coding=GOLDEN_CODING,
                consumers=[],
                profile=sp.profile(golden_f, GOLDEN_CODING),
                golden=True,
            )
        ]
        ok = True
        for group in part:
            f = knobwise_max(*group)
            cons = [c for cf in group for c in by_cf[cf]]
            if f == golden_f:
                # merge into the golden node if its coding stays feasible
                prof = sp.profile(golden_f, GOLDEN_CODING)
                if _feasible(prof, cons):
                    nodes[0].consumers.extend(cons)
                    continue
            prof = choose_coding(sp, f, cons)
            if prof is None:
                ok = False
                break
            nodes.append(SFNode(fidelity=f, coding=prof.coding, consumers=cons, profile=prof))
        if not ok:
            continue
        total = sum(n.size_kb_per_s for n in nodes)
        if total < best_cost - 1e-12:
            best_cost, best_nodes = total, nodes
    assert best_nodes is not None
    return StoragePlan(nodes=best_nodes)
