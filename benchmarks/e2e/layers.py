"""Per-layer metrics: their names, units and definitions.

Everything here is derived from the traced run's spans (``spans.py``)
and the workload's public counters; none of it is gated.  ``*_ms`` and
``*_us`` metrics are the mean busy time of one call into the layer,
counts are per traced round, ``share.<layer>`` is the layer's self time
over the summed op time (see :func:`spans.layer_table`).  A layer that
a workload does not exercise reports 0; a layer whose probe symbol is
missing from ``repro`` reports 0 and is listed as unavailable.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import spans as spans_mod

#: name -> (unit, better)
PER_LAYER = {
    "query.parse_us": ("us", "lower"),
    "optimiser.ftree_ms": ("ms", "lower"),
    "optimiser.fplan_ms": ("ms", "lower"),
    "optimiser.plans": ("count", "lower"),
    "core.factorise_ms": ("ms", "lower"),
    "core.singletons_per_s": ("1/s", "higher"),
    "core.fact_ratio": ("ratio", "higher"),
    "core.consume_ms": ("ms", "lower"),
    "ops.fplan_exec_ms": ("ms", "lower"),
    "ops.steps": ("count", "lower"),
    "ops.project_ms": ("ms", "lower"),
    "ops.union_ms": ("ms", "lower"),
    "exec.tasks_per_query": ("count", "lower"),
    "storage.partition_s": ("s", "lower"),
    "service.plan_hit_rate": ("ratio", "higher"),
    "service.result_hit_rate": ("ratio", "higher"),
    "service.self_ms": ("ms", "lower"),
    "ivm.mutate_ms": ("ms", "lower"),
    "ivm.delta_read_ms": ("ms", "lower"),
    "ivm.delta_merges": ("count", "lower"),
    "persist.save_s": ("s", "lower"),
    "persist.load_s": ("s", "lower"),
    "persist.bytes_per_singleton": ("bytes", "lower"),
    "net.pack_ms": ("ms", "lower"),
    "net.unpack_ms": ("ms", "lower"),
    "net.frame_bytes": ("bytes", "lower"),
    "net.rtt_ms": ("ms", "lower"),
    "trace_overhead": ("ratio", "higher"),
    "unattributed_share": ("ratio", "lower"),
    "unavailable_layers": ("count", "lower"),
}
PER_LAYER.update(
    {f"share.{layer}": ("ratio", "lower") for layer in spans_mod.LAYERS}
)


def _mean(spans: List[dict], scale: float) -> float:
    if not spans:
        return 0.0
    return sum(spans_mod.duration(s) for s in spans) / len(spans) * scale


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(
    spans: List[dict],
    counters: Counter,
    rounds: int,
    overhead: float,
    unavailable: List[str],
) -> Dict[str, dict]:
    named = spans_mod.by_name(spans)
    own = spans_mod.self_times(spans)
    table = spans_mod.layer_table(
        [s for s in spans if s["op_id"] != "setup"]  # shares are of op time
    )
    factorise = named["core.factorise"]
    factorise_s = sum(spans_mod.duration(s) for s in factorise)
    singletons = sum(s.get("singletons", 0) for s in factorise)
    runs = named["service.run"]
    # The client-observed span plays the session call's part when the
    # session sits in another process.
    attributed = named["net.request"] or runs
    attributed_s = sum(spans_mod.duration(s) for s in attributed)
    unexplained = sum(max(0.0, own[s["id"]]) for s in attributed)
    c = counters  # a Counter: absent keys read 0
    values = {
        "query.parse_us": _mean(named["query.parse"], 1e6),
        "optimiser.ftree_ms": _mean(named["optimiser.ftree"], 1e3),
        "optimiser.fplan_ms": _mean(named["optimiser.fplan"], 1e3),
        "optimiser.plans": (
            len(named["optimiser.ftree"]) + len(named["optimiser.fplan"])
        )
        / rounds,
        "core.factorise_ms": _mean(factorise, 1e3),
        "core.singletons_per_s": _ratio(singletons, factorise_s),
        "core.fact_ratio": _ratio(
            sum(s.get("flat_elements", 0) for s in factorise), singletons
        ),
        "core.consume_ms": _mean(named["core.consume"], 1e3),
        "ops.fplan_exec_ms": _mean(named["ops.fplan_exec"], 1e3),
        "ops.steps": sum(s["steps"] for s in named["ops.fplan_exec"]) / rounds,
        "ops.project_ms": _mean(named["ops.project"], 1e3),
        "ops.union_ms": _mean(named["ops.union"], 1e3),
        "exec.tasks_per_query": _ratio(
            c["shard_tasks"], c["fanout_queries"]
        ),
        "storage.partition_s": _mean(named["storage.partition"], 1.0),
        "service.plan_hit_rate": _ratio(
            c["plan_hits"], c["plan_hits"] + c["plan_misses"]
        ),
        "service.result_hit_rate": _ratio(
            c["result_hits"], c["result_hits"] + c["result_misses"]
        ),
        "service.self_ms": _ratio(
            sum(own[s["id"]] for s in runs if not s.get("replay")) * 1e3,
            sum(1 for s in runs if not s.get("replay")),
        ),
        "ivm.mutate_ms": _mean(named["ivm.mutate"], 1e3),
        "ivm.delta_read_ms": _mean(named["ivm.delta_read"], 1e3),
        "ivm.delta_merges": _ratio(c["delta_merges"], c["sessions"]),
        "persist.save_s": _mean(named["persist.save"], 1.0),
        "persist.load_s": _mean(named["persist.load"], 1.0),
        "persist.bytes_per_singleton": c["bytes_per_singleton"],
        "net.pack_ms": _mean(named["net.pack"], 1e3),
        "net.unpack_ms": _mean(named["net.unpack"], 1e3),
        "net.frame_bytes": _ratio(
            sum(s["bytes"] for s in named["net.pack"]), len(named["net.pack"])
        ),
        "net.rtt_ms": c["rtt_ms"],
        "trace_overhead": overhead,
        "unattributed_share": _ratio(unexplained, attributed_s),
        "unavailable_layers": len(unavailable),
    }
    for layer in spans_mod.LAYERS:
        values[f"share.{layer}"] = table.get(layer, {}).get("share", 0.0)
    return {
        name: {"value": float(values[name]), "unit": PER_LAYER[name][0]}
        for name in PER_LAYER
    }
