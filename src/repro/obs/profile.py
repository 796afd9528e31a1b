"""Per-kernel f-plan profiling: the serving-layer twin of fig 7/8.

The paper's restructuring experiments time whole plans; this module
times each *operator kernel* of a compiled arena pipeline
(:func:`~repro.ops.arena_kernels.compiled_plan_for`) individually --
elapsed seconds plus the output arena's entry/singleton counts and
byte volume, i.e. the throughput each kernel sustained on the
columns.  Profiling is strictly **opt-in**: the hot
``CompiledArenaPlan.execute`` path stays a generated straight-line
driver; :func:`profile_plan` replays the same prepared kernels one at
a time with a clock around each -- the kernels of a chain (an absorb
is a restriction followed by push-ups) each get their own row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class KernelTiming:
    """One kernel's run: what it did and what it produced."""

    index: int  # the f-plan step; the rows of one chain share it
    op: str  # the f-plan step, e.g. "chi(a, b)"
    kind: str  # swap / merge / absorb / push
    kernel: str  # the kernel class that ran
    seconds: float
    out_entries: int
    out_singletons: int
    out_nbytes: int

    @property
    def singletons_per_second(self) -> float:
        return self.out_singletons / self.seconds if self.seconds > 0 else 0.0


@dataclass
class PlanProfile:
    """The per-kernel breakdown of one profiled plan execution."""

    rows: List[KernelTiming] = field(default_factory=list)
    total_seconds: float = 0.0
    in_entries: int = 0
    in_singletons: int = 0
    empty: bool = False
    pruned_at: Optional[int] = None  # kernel index that emptied the run

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [
            {
                "index": r.index,
                "op": r.op,
                "kind": r.kind,
                "kernel": r.kernel,
                "seconds": r.seconds,
                "out_entries": r.out_entries,
                "out_singletons": r.out_singletons,
                "out_nbytes": r.out_nbytes,
                "singletons_per_second": r.singletons_per_second,
            }
            for r in self.rows
        ]

    def format_table(self) -> str:
        """The per-operator table ``repro explain --profile`` prints."""
        if not self.rows:
            return "(identity plan: no restructuring kernels to profile)"
        headers = (
            "#", "operator", "kind", "kernel",
            "ms", "entries", "|E|", "KiB", "|E|/s",
        )
        body: List[Tuple[str, ...]] = []
        for r in self.rows:
            body.append((
                str(r.index),
                r.op,
                r.kind,
                r.kernel,
                f"{r.seconds * 1e3:.3f}",
                str(r.out_entries),
                str(r.out_singletons),
                f"{r.out_nbytes / 1024:.1f}",
                f"{r.singletons_per_second:,.0f}",
            ))
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in body))
            for i in range(len(headers))
        ]
        def fmt(row: Tuple[str, ...]) -> str:
            cells = []
            for i, cell in enumerate(row):
                # left-align the name columns, right-align numbers
                if i in (1, 2, 3):
                    cells.append(cell.ljust(widths[i]))
                else:
                    cells.append(cell.rjust(widths[i]))
            return "  ".join(cells).rstrip()
        lines = [fmt(headers)]
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt(row) for row in body)
        lines.append(
            f"total: {self.total_seconds * 1e3:.3f} ms over "
            f"{len(self.rows)} kernels "
            f"(input |E| {self.in_singletons})"
        )
        if self.pruned_at is not None:
            lines.append(
                f"(run emptied at kernel {self.pruned_at}; "
                "later kernels never ran)"
            )
        return "\n".join(lines)


def profile_plan(plan, fr):
    """Execute ``plan`` on ``fr``, timing every kernel.

    Returns ``(result, PlanProfile)`` where ``result`` is the same
    :class:`~repro.core.factorised.FactorisedRelation` the fused
    driver would have produced.  The kernels themselves are the
    prepared (cached) ones -- only the driver differs, so profiled
    numbers are honest about the production code path.
    """
    from repro.core.factorised import FactorisedRelation
    from repro.ops.arena_kernels import KernelChain, compiled_plan_for

    compiled = compiled_plan_for(plan)
    profile = PlanProfile()
    if fr.is_empty():
        profile.empty = True
        return FactorisedRelation(compiled.out_tree, None), profile

    arena = fr.rep
    profile.in_entries = arena.entry_count
    profile.in_singletons = arena.singleton_count()
    for index, (step, kernel) in enumerate(
        zip(compiled.steps, compiled.kernels)
    ):
        # A chain (absorb = the restriction plus the replayed push-ups
        # of the normalisation) reports every kernel it runs as a row
        # of its own, under the step's index and operator.
        chain = isinstance(kernel, KernelChain)
        for part in kernel.kernels if chain else (kernel,):
            start = perf_counter()
            out = part.run(arena)
            seconds = perf_counter() - start
            profile.total_seconds += seconds
            profile.rows.append(KernelTiming(
                index=index,
                op=str(step),
                kind=step.kind,
                kernel=type(part).__name__,
                seconds=seconds,
                out_entries=0 if out is None else out.entry_count,
                out_singletons=0 if out is None else out.singleton_count(),
                out_nbytes=0 if out is None else out.nbytes(),
            ))
            if out is None:
                # A pruning kernel emptied the representation: the
                # result is the empty relation over the plan's output
                # f-tree.
                profile.pruned_at = index
                return (
                    FactorisedRelation(compiled.out_tree, None),
                    profile,
                )
            arena = out
    return FactorisedRelation(compiled.out_tree, arena), profile
