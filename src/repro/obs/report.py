"""Human-readable rendering of a registry snapshot.

The CLI used to carry three hand-rolled copies of the counter lines
(local ``repro batch``, ``repro batch --connect``, the serve banner's
drain summary) that had already drifted once.  They now all consume
the *same* structure -- the nested dict of
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` (which is also
exactly what a ``stats`` wire frame carries) -- through this one
formatter, so local and remote output cannot diverge again.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


def result_cache_line(counters: Optional[Dict[str, Any]]) -> Optional[str]:
    """The ``results:`` line of incremental-maintenance counters, so
    CI smoke runs can assert warm behaviour across a mutation."""
    if not counters:
        return None
    return (
        f"results: {counters['hits']} warm hits, "
        f"{counters['misses']} misses, "
        f"{counters['delta_merges']} delta merges "
        f"({counters['delta_rows']} rows), "
        f"{counters['delta_skips']} skipped, "
        f"{counters['invalidations']} invalidated"
    )


def optimiser_line(counters: Optional[Dict[str, Any]]) -> Optional[str]:
    """The ``optimiser:`` line: how much searching the plans cost.

    All counts but the LP ones repeat exactly for a fixed workload, so
    a jump between two runs is a different search, not noise.
    """
    if not counters:
        return None
    return (
        f"optimiser: {counters['ftree_searches']} f-tree searches "
        f"({counters['ftree_subproblems']} subproblems, "
        f"{counters['ftree_pruned']} pruned), "
        f"{counters['fplan_searches']} f-plan searches "
        f"({counters['fplan_states_expanded']} states expanded, "
        f"{counters['fplan_states_generated']} generated), "
        f"{counters['cover_lp_solves']} cover LPs solved, "
        f"{counters['cover_memo_hits']} memo hits, "
        f"memo size {counters['cover_memo_size']} "
        f"({counters['cover_memo_drops']} drops)"
    )


def factorise_line(counters: Optional[Dict[str, Any]]) -> Optional[str]:
    """The ``factorise:`` line: what building representations from
    flat relations cost.  Every count repeats exactly for a fixed
    workload; a trie build where a hit was expected means a relation
    object was replaced (or queried along more paths than it keeps)."""
    if not counters:
        return None
    return (
        f"factorise: {counters['calls']} calls, "
        f"{counters['trie_builds']} tries built "
        f"({counters['trie_rows_scanned']} rows scanned), "
        f"{counters['trie_hits']} trie hits, "
        f"{counters['entries_committed']} entries committed, "
        f"{counters['entries_rolled_back']} rolled back"
    )


def kernels_line(counters: Optional[Dict[str, Any]]) -> Optional[str]:
    """The ``kernels:`` line: what the f-plan operator kernels did.
    ``pruned`` are the entries their mask cascades dropped (merge,
    absorb); ``None`` until a kernel has run."""
    if not counters or not counters["runs"]:
        return None
    return (
        f"kernels: {counters['runs']} runs, "
        f"{counters['entries_in']} entries in -> "
        f"{counters['entries_out']} out "
        f"({counters['entries_pruned']} pruned), "
        f"{counters['gathers']} forest gathers, "
        f"{counters['cache_size']} prepared "
        f"({counters['cache_evictions']} evicted)"
    )


def union_line(counters: Optional[Dict[str, Any]]) -> Optional[str]:
    """The ``union:`` line: what recombining shard results cost and
    saved.  ``entries in -> out`` is the replicated work of the
    fan-outs (each shard re-derives the subtrees off the partitioned
    relation's path; the union collapses the copies).  ``None`` until
    a union has run -- unsharded sessions never print it."""
    if not counters or not counters["calls"]:
        return None
    return (
        f"union: {counters['calls']} calls over "
        f"{counters['parts']} parts, "
        f"{counters['entries_in']} entries in -> "
        f"{counters['entries_out']} out "
        f"({counters['entries_in'] / max(counters['entries_out'], 1):.2f}x "
        f"replicated), {counters['ids_remapped']} ids remapped"
    )


def session_lines(
    snapshot: Dict[str, Any],
    total_queries: Optional[int] = None,
    plan_store_path: Optional[str] = None,
) -> List[str]:
    """The counter summary of one registry snapshot, line by line.

    ``snapshot`` is :meth:`~repro.obs.metrics.MetricsRegistry.
    snapshot` output -- the local session's or a remote server's
    ``stats`` frame, the keys are identical.  ``total_queries`` adds
    the reuse-rate suffix to the plans line; ``plan_store_path`` the
    entries-at-path suffix to the plan-store line.
    """
    lines: List[str] = []
    sess = snapshot.get("session") or {}
    caches = snapshot.get("caches") or {}

    plans = (
        f"plans: {sess.get('plan_misses', 0)} compiled, "
        f"{sess.get('plan_hits', 0)} cache hits, "
        f"{sess.get('plan_evictions', 0)} evicted, "
        f"{sess.get('batch_deduped', 0)} batch-deduplicated"
    )
    if total_queries:
        reused = sess.get("plan_hits", 0) + sess.get("batch_deduped", 0)
        plans += f" (reuse rate {reused / max(total_queries, 1):.0%})"
    lines.append(plans)
    lines.append(
        f"fallbacks to flat engine: {sess.get('fallbacks', 0)}; "
        f"statistics built {sess.get('stats_builds', 0)}x; "
        f"invalidations: {sess.get('invalidations', 0)}"
    )
    results = result_cache_line(caches.get("results"))
    if results is not None:
        lines.append(results)
    optimiser = optimiser_line(snapshot.get("optimiser"))
    if optimiser is not None:
        lines.append(optimiser)
    factorised = factorise_line(snapshot.get("factorise"))
    if factorised is not None:
        lines.append(factorised)
    kernels = kernels_line(snapshot.get("kernels"))
    if kernels is not None:
        lines.append(kernels)
    unioned = union_line(snapshot.get("union"))
    if unioned is not None:
        lines.append(unioned)
    store = snapshot.get("plan_store")
    if store is not None:
        line = (
            f"plan store: {sess.get('store_hits', 0)} hits, "
            f"{sess.get('store_misses', 0)} misses, "
            f"{store['writes']} written, "
            f"{store['stale_evictions']} stale-evicted"
        )
        if plan_store_path is not None:
            line += f" ({store['size']} entries at {plan_store_path})"
        lines.append(line)
    srv = snapshot.get("server")
    if srv is not None:
        lines.append(
            f"server: {srv['requests']} requests over "
            f"{srv['connections']} connections, "
            f"peak pending {srv['peak_pending']}"
        )
    slow = snapshot.get("slow_log")
    if slow is not None:
        lines.append(
            f"slow queries: {slow['recorded']} over "
            f"{slow['threshold']:g}s (of {slow['observed']} observed)"
        )
    return lines


def cluster_lines(
    view: Dict[str, Any],
    advice: Optional[List[Dict[str, Any]]] = None,
) -> List[str]:
    """The ``repro cluster-status`` rendering of a federated view.

    ``view`` is :meth:`repro.obs.cluster.ClusterFederation.view`
    output; ``advice`` the matching :func:`repro.obs.cluster.advise`
    result.  One worker line each (liveness, staleness age, load,
    the key server counters), then the per-shard heat map against
    the replica chains, then the advisor's recommendations.
    """
    lines: List[str] = []
    lines.append(
        f"cluster: {view['live_workers']}/{view['workers_total']} "
        f"workers live, "
        f"{view['shard_count'] if view['shard_count'] is not None else '?'} "
        f"shards, R={view['replication_factor']} "
        f"(poll {view['polls']}, {view['scrape_failures']} scrape "
        f"failures)"
    )
    for name, worker in view["workers"].items():
        age = worker["staleness"]
        aged = "never scraped" if age is None else f"age {age:.1f}s"
        status = "live" if worker["live"] else f"DOWN ({aged})"
        line = f"{name} {worker['address']}: {status}"
        if worker["live"]:
            line += f", {aged}"
        srv = worker.get("server") or {}
        if srv:
            line += (
                f", {srv.get('requests', 0)} requests, "
                f"{srv.get('ownership_rejections', 0)} ownership "
                f"rejections"
            )
        line += f", heat {worker['heat_queries']:.0f} queries"
        shards = worker.get("ring_shards")
        if shards:
            line += f", ring shards {shards}"
        if not worker["live"] and worker.get("error"):
            line += f" [{worker['error']}]"
        lines.append(line)
    shards = (view.get("heat") or {}).get("shards") or {}
    if shards:
        lines.append("heat map (shard: queries rows seconds replicas):")
        for shard, entry in shards.items():
            chain = entry.get("replicas")
            suffix = f" -> {chain}" if chain else ""
            lines.append(
                f"  shard {shard}: {entry['queries']} queries, "
                f"{entry['rows']} rows, {entry['seconds']:.3f}s"
                f"{suffix}"
            )
        skew = (view.get("heat") or {}).get("skew")
        if skew is not None:
            lines.append(f"  load skew: {skew:.2f}x mean")
    if advice is not None:
        if advice:
            lines.append("advisor:")
            for item in advice:
                lines.append(
                    f"  [{item['action']}] {item['reason']}"
                )
        else:
            lines.append("advisor: cluster looks healthy")
    return lines
