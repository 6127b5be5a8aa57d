"""serve-xmark: reads through the sharded serving tier.

A read-only XMark document under 2-level rUID labels is deployed on a
4-site ``ShardedCluster`` (rf=2, healthy) behind a
``ScatterGatherExecutor`` with admission control. Reads are XMark
templates, Zipf-skewed with seeded parameters (more distinct plans
than the executor's 256-entry plan cache): one closed-loop client for
the service-time metrics, and a ladder of seeded open-loop Poisson
rates, timed from due time, for max_ok_rate_qps. Writes are document
publishes: parse, label, freeze a view and place its shards on the
ring. Six in seven publish one region of the XMark document (≈50
nodes) as a document of its own, the seventh all six regions (≈290
nodes), so the write tail is the large publishes' cost.
"""

from __future__ import annotations

import asyncio
import gc
import random
import statistics
import time
import tracemalloc

import harness
import spans
from harness import Phase, Report
from queries import xmark_templates
from repro.baselines.registry import get_scheme
from repro.concurrent import StructuralView
from repro.generator import generate_xmark
from repro.resilience import AdmissionController
from repro.serving import ScatterGatherExecutor, ShardedCluster, rank_block_shards
from repro.xmltree import XmlTree, parse, serialize

SCALE = 0.25  # ≈1.5k nodes, ≈30 KB of XML
SITES = 4
REPLICATION = 2
SHARDS = 8
PUBLISH_COUNT = 200
PUBLISH_HZ = 40.0
#: reads slower than this miss (and fail a ladder rung)
LIMIT_S = 0.25
#: fivefold rates: the seed's capacity (≈150-250 reads/s on one CPU
#: of a 2-vCPU VM, depending on the seed's deck) stays clear of the
#: rungs on either side
LADDER_HZ = (80.0, 400.0, 2000.0)
PROBE_QUERIES = 64
DOC = "xmark"
CHECK_QUERY = "//item/name"


def deploy(cluster, scheme, name: str, xml: str, rec):
    """parse → label → freeze a view → place its shards on the ring;
    returns (tree, view, timings)."""
    timings = {}
    started = time.thread_time()
    tree = rec.call("xmltree.parse", "xmltree", parse, xml)
    timings["parse_s"] = time.thread_time() - started
    started = time.thread_time()
    labeling = scheme.build(tree)
    timings["build_s"] = time.thread_time() - started
    view = rec.call("concurrent.view", "concurrent", StructuralView.from_labeling, labeling)
    rec.call(
        "serving.add_document", "serving", cluster.add_document,
        name, view, rank_block_shards(name, len(view.ids_by_rank), SHARDS),
    )
    return tree, view, timings


def new_cluster() -> ShardedCluster:
    return ShardedCluster(site_count=SITES, replication_factor=REPLICATION)


class Stack:
    """One deployment: what setup builds and the run measures."""

    def __init__(self, seed: int, rec):
        self.rec = rec
        self.xml = serialize(generate_xmark(scale=SCALE, seed=seed))
        regions = parse(self.xml).root.children[0]
        whole = serialize(XmlTree(regions.detach()))
        single = [serialize(XmlTree(region.detach())) for region in list(regions.children)]
        self.publish_xml = single + [whole]
        self.scheme = get_scheme("ruid2")
        rec.wrap(self.scheme, "build", "core.build", "core")
        self.cluster = new_cluster()
        self.admission = AdmissionController(
            max_concurrent=8, max_queue=4096, queue_timeout_s=10.0
        )
        self.executor = ScatterGatherExecutor(
            self.cluster, admission=self.admission, max_rounds=3
        )
        self.tree, _view, self.timings = deploy(self.cluster, self.scheme, DOC, self.xml, rec)
        self.key = harness.tree_key(self.tree)
        self.deck = harness.query_deck(xmark_templates(self.tree), 4096, random.Random(seed))
        self._install(rec)
        #: publishes go to a staging cluster of the same shape, replaced
        #: after every batch so published documents do not pile up
        self.staging = new_cluster()
        self.published = {}
        # warm: every template shape once, so lazy per-site state is built
        asyncio.run(self._sequential(self.deck[:32]))

    def _install(self, rec) -> None:
        executor = self.executor
        rec.wrap(executor, "select", "serving.select", "serving")
        rec.wrap(executor.admission, "acquire", "resilience.admission_acquire", "resilience")
        rec.wrap(self.cluster, "call_site", "serving.call_site", "serving", count=True)
        for site in self.cluster.sites.values():
            evaluator = site.evaluator_for(DOC)
            rec.wrap(evaluator, "select", "concurrent.snapshot_select", "concurrent", count=True)
        self.plan_calls = 0
        self.plan_hits = 0
        if not rec.enabled:
            return
        # plan-cache hits are read off the executor's return value: the
        # LRU hands back the identical plan object until it evicts it
        last_plan = {}
        compile_plan = executor.compile

        def compile_counted(expression):
            plan = compile_plan(expression)
            self.plan_calls += 1
            if last_plan.get(expression) is plan:
                self.plan_hits += 1
            last_plan[expression] = plan
            return plan

        rec.install(executor, "compile", compile_counted)
        rec.wrap(executor, "compile", "query.compile", "query")

    async def read(self, query: str) -> tuple:
        with self.rec.span("bench.read", "bench"):
            return self.key(await self.executor.select(DOC, query))

    async def _sequential(self, queries) -> None:
        for query in queries:
            await self.read(query)

    def publish(self, index: str) -> tuple:
        """One write: a new document deployed across the cluster."""
        name = f"pub{index}"
        xml = self.publish_xml[int(index) % len(self.publish_xml)]
        with self.rec.span("bench.write", "bench"):
            tree, view, _ = deploy(self.staging, self.scheme, name, xml, self.rec)
        self.published[name] = tree
        return (len(view.ids_by_rank),)

    def settle(self, writes: Phase) -> None:
        """Check every publish of a batch against navigation on its own
        tree, then start the next batch on an empty staging cluster."""
        executor = ScatterGatherExecutor(self.staging)
        for outcome in writes.outcomes:
            if outcome.status != "ok":
                continue
            name = f"pub{outcome.query}"
            tree = self.published.pop(name)
            got = harness.tree_key(tree)(executor.select_sync(name, CHECK_QUERY))
            if got != harness.oracle(tree)(CHECK_QUERY):
                outcome.status = "wrong"
        self.staging = new_cluster()


def space_bytes(xml: str) -> int:
    """Bytes a cluster retains for one deployed document: the tree its
    view serves nodes from, the view, the shard placement."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cluster = new_cluster()
        deployed = deploy(cluster, get_scheme("ruid2"), DOC, xml, spans.OFF)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del cluster, deployed
    return retained


def run(seed: int, seconds: float, rec, report: Report) -> Stack:
    stack, timings = harness.set_up(report, lambda: Stack(seed, rec))
    report.notes["document"] = {
        "nodes": len(stack.tree.nodes()),
        "xml_bytes": len(stack.xml),
        "sites": SITES,
        "replication": REPLICATION,
        "shards": SHARDS,
        "plan_cache": 256,
        "distinct_queries_in_deck": len(set(stack.deck)),
    }

    # measured before the timed phase, whose length varies, can leave
    # the allocator in a different state
    report.put("space_amp", space_bytes(stack.xml) / len(stack.xml), "ratio")

    # count pass: a fixed prefix of the deck, one request at a time
    before = stack.executor.stats_snapshot()
    asyncio.run(stack._sequential(stack.deck[32:96]))
    after = stack.executor.stats_snapshot()
    requests = after["requests"] - before["requests"]
    routed = after["routed"] - before["routed"]
    broadcasts = after["broadcasts"] - before["broadcasts"]
    report.put_layer(
        "serving.site_calls_per_request",
        harness.ratio(after["scatter_messages"] - before["scatter_messages"], requests),
        "count",
    )
    report.put_layer("serving.routed_ratio", harness.ratio(routed, routed + broadcasts), "fraction")

    closed_s = 0.5 * seconds / harness.SLICES
    rung_s = 0.1 * seconds
    cursor = harness.Cursor(stack.deck, 96)

    async def closed_loop():
        closed = await harness.closed_loop_async("closed", cursor.rest(), stack.read, closed_s)
        cursor.advance(len(closed.outcomes))
        return closed

    def rung(index, rate):
        offsets = harness.poisson_offsets(rate, harness.rung_seconds(rate, rung_s), seed + index + 1)
        return asyncio.run(harness.open_loop_async(
            f"rung{rate:g}", cursor.take(len(offsets)), offsets, stack.read, rate))

    closed_parts, write_parts, ladder = [], [], []
    first = 0
    for slice_index, count in enumerate(harness.slices(PUBLISH_COUNT)):
        closed_parts.append(asyncio.run(closed_loop()))
        write_parts.append(harness.paced_writes(first, count, PUBLISH_HZ, stack.publish, stack.settle))
        first += count
        if slice_index == harness.SLICES // 2:
            ladder = harness.climb(LADDER_HZ, rung, LIMIT_S)
    writes = harness.merge("writes", write_parts)

    # correctness: every answer against single-site navigation
    reads = ladder + closed_parts
    harness.verify(reads, harness.oracle(stack.tree))

    harness.read_metrics(report, closed_parts, ladder, LIMIT_S)
    harness.write_metrics(report, write_parts)
    harness.ingest_rate(report, write_parts)
    harness.count_outcomes(report, reads + [writes])
    harness.lag_metrics(report, ladder)
    published_nodes = sum(o.key[0] for o in writes.outcomes if o.status == "ok")
    report.notes["writes"] = {"kind": "document publish", "count": PUBLISH_COUNT,
                              "rate_hz": PUBLISH_HZ, "nodes_each": published_nodes / max(1, PUBLISH_COUNT)}

    # per-layer numbers from the recorder and the published counters
    report.put_layer("xmltree.parse_s", statistics.median(t["parse_s"] for t in timings), "s")
    report.put_layer("core.build_s", statistics.median(t["build_s"] for t in timings), "s")
    report.put_layer("query.compile_us", rec.mean_ms("query.compile") * 1e3, "us")
    report.put_layer("query.plan_hit_ratio", harness.ratio(stack.plan_hits, stack.plan_calls), "fraction")
    batched = fallback = 0
    for site in stack.cluster.sites.values():
        stats = site.evaluator_for(DOC).stats
        batched += stats.batched_steps
        fallback += stats.fallback_steps
    report.put_layer("query.batched_step_ratio", harness.ratio(batched, batched + fallback), "fraction")
    report.put_layer("concurrent.snapshot_select_ms", rec.mean_ms("concurrent.snapshot_select"), "ms")
    report.put_layer("serving.site_execute_ms", rec.mean_ms("serving.call_site"), "ms")
    report.put_layer(
        "serving.site_useful_ratio",
        harness.ratio(rec.count_sum("serving.call_site"), rec.count_sum("concurrent.snapshot_select")),
        "fraction",
    )
    report.put_layer("resilience.admission_wait_ms", rec.mean_ms("resilience.admission_acquire"), "ms")
    admission = stack.admission.as_dict()
    report.put_layer("resilience.in_flight_peak", admission["peak_in_flight"], "count")
    stats = stack.executor.stats_snapshot()
    report.put_layer("resilience.shed_frac", harness.ratio(stats["shed"], stats["requests"]), "fraction")
    return stack


def probe(stack: Stack, queries) -> list:
    """Back-to-back read service times for the tracing-overhead probe."""

    async def timed():
        times = []
        for query in queries:
            began = time.thread_time()
            await stack.read(query)
            times.append(time.thread_time() - began)
        return times

    return asyncio.run(timed())
