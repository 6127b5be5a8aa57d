"""write-mix-xmark: paced edits beside snapshot reads on one document.

One ``ConcurrentDocument`` (2-level rUID, WAL with group commit of 4).
A writer thread applies ``generate_update_workload`` inserts and
deletes at a fixed rate (open-loop, timed from due time) while the
main thread reads XMark templates through ``pin()``: at a fixed rate
for the read metrics, then a ladder of open-loop rates for
max_ok_rate_qps. The run is cut into bursts; between bursts both
threads quiesce, the published delta chain is checked label for label
against a fresh ``StructuralView.from_labeling``, the next few check
queries against navigation on the live tree, and the document is loaded
once more from its bytes to sample ingest_nodes_per_s.
"""

from __future__ import annotations

import gc
import random
import statistics
import threading
import time
import tracemalloc

import harness
import spans
from harness import Outcome, Phase, Report
from queries import xmark_templates
from repro.baselines.registry import get_scheme
from repro.concurrent import ConcurrentDocument, StructuralView
from repro.generator import UpdateWorkloadConfig, generate_update_workload, generate_xmark
from repro.query.engine import XPathEngine
from repro.storage.iostats import IoStats
from repro.storage.wal import Wal
from repro.xmltree import parse, serialize
from repro.xmltree.node import NodeKind, XmlNode

SCALE = 0.2  # ≈1.2k nodes, ≈24 KB of XML
#: fixed write rate: the write-preferring RW lock's reader wait stays
#: visible (concurrent.reader_wait_share) without starving the reader,
#: and a run times at least 200 writes. The writer is busy for about a
#: fifth of the time: the reader shares the CPU with it, and a busier
#: writer turned a 25% slower host into a 50% lower read_qps.
WRITE_HZ = 16.0
#: fixed read rate, so every run makes the same number of reads per
#: published generation (≈6). A closed-loop reader made more of them on
#: a faster host and so hit the per-generation caches more often: its
#: read_qps moved half as much again as the host's speed (ten seeds:
#: quartile spread 0.27 against 0.10-0.18 on the other workloads)
READ_HZ = 100.0
GROUP_COMMIT = 4
LIMIT_S = 1.0
#: the seed's read capacity beside the writer (≈200-300 reads/s on one
#: CPU of a noisy VM, busy 40-60% at 120/s) stays clear of the rungs on
#: either side; a 100/s rung keeps passing through slower spells
LADDER_HZ = (100.0, 600.0, 3000.0)
#: each quiesce point checks the next few of the deck's first
#: CHECK_QUERIES distinct queries against navigation
CHECK_QUERIES = 32
CHECK_PER_QUIESCE = 4
PROBE_QUERIES = 32


def load(xml: str, scheme, rec):
    """parse → label → ConcurrentDocument with its first published
    view; returns (tree, document, wal, io stats, timings)."""
    timings = {}
    started = time.thread_time()
    tree = rec.call("xmltree.parse", "xmltree", parse, xml)
    timings["parse_s"] = time.thread_time() - started
    started = time.thread_time()
    labeling = scheme.build(tree)
    timings["build_s"] = time.thread_time() - started
    started = time.thread_time()
    io = IoStats()
    wal = Wal(stats=io, group_commit_size=GROUP_COMMIT)
    doc = ConcurrentDocument(labeling=labeling, wal=wal)
    doc.pin().release()
    timings["store_s"] = time.thread_time() - started
    return tree, doc, wal, io, timings


class Stack:
    def __init__(self, seed: int, seconds: float, rec):
        self.rec = rec
        self.xml = serialize(generate_xmark(scale=SCALE, seed=seed))
        self.scheme = get_scheme("ruid2")
        rec.wrap(self.scheme, "build", "core.build", "core")
        self.tree, self.doc, self.wal, self.io, self.timings = load(self.xml, self.scheme, rec)
        self.deck = harness.query_deck(xmark_templates(self.tree), 4096, random.Random(seed))
        self.checks = list(dict.fromkeys(self.deck))[:CHECK_QUERIES]
        self.quiesces = 0
        # every burst's writes, planned up front against a scratch copy
        self.ops = generate_update_workload(
            self.tree, UpdateWorkloadConfig(operations=max_writes(seconds)), seed=seed
        )
        self.next_op = 0
        self._install(rec)
        for query in self.deck[:16]:
            self.read(query)

    def _install(self, rec) -> None:
        doc = self.doc
        rec.wrap(doc, "pin", "concurrent.pin", "concurrent")
        rec.wrap(doc, "insert", "concurrent.insert", "concurrent")
        rec.wrap(doc, "delete", "concurrent.delete", "concurrent")
        rec.wrap(doc, "compile", "query.compile", "query")
        rec.wrap(doc.labeling, "insert", "core.update", "core")
        rec.wrap(doc.labeling, "delete", "core.update", "core")
        rec.wrap(self.wal, "append_commit", "storage.wal_commit", "storage")
        if not rec.enabled:
            return
        evaluator_for = doc.evaluator_for

        def evaluator_for_traced(view):
            # one evaluator per generation: wrap each as it appears
            evaluator = evaluator_for(view)
            if "select" not in vars(evaluator):
                rec.wrap(evaluator, "select", "concurrent.snapshot_select", "concurrent")
            return evaluator

        rec.install(doc, "evaluator_for", evaluator_for_traced)

    def read(self, query: str) -> tuple:
        with self.rec.span("bench.read", "bench"):
            with self.doc.pin() as snap:
                return tuple(node.node_id for node in snap.select(query))

    def write(self, index: str) -> tuple:
        op = self.ops[int(index)]
        with self.rec.span("bench.write", "bench"):
            target = op.locate(self.doc.tree)
            if op.kind == "insert":
                report = self.doc.insert(target, op.position, XmlNode(op.tag, NodeKind.ELEMENT))
            else:
                report = self.doc.delete(target)
        return (report.relabeled_count,)


def burst_plan(seconds: float):
    """(paced-read burst seconds, ladder rung seconds per rate)."""
    paced = 0.5 * seconds / harness.SLICES
    rungs = [harness.rung_seconds(rate, 0.1 * seconds) for rate in LADDER_HZ]
    return paced, rungs


def burst_writes(duration: float) -> int:
    return int(WRITE_HZ * duration) + 1


def max_writes(seconds: float) -> int:
    paced, rungs = burst_plan(seconds)
    # Poisson rungs run a little past their nominal length
    return burst_writes(paced) * harness.SLICES + sum(burst_writes(2 * r) for r in rungs)


def space_bytes(xml: str) -> int:
    """Bytes the document's data retains: tree, labeling and the first
    published view. The ConcurrentDocument's own bookkeeping (a few KB)
    is left out: its wait-time counters are ints whose size follows the
    clock, which would make the figure differ between runs."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = parse(xml)
        labeling = get_scheme("ruid2").build(tree)
        view = StructuralView.from_labeling(labeling)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del tree, labeling, view
    return retained


def quiesce_check(stack: Stack, check: Phase) -> None:
    """Chain ≡ fresh rebuild label for label; answers ≡ navigation."""
    doc = stack.doc
    outcome = Outcome("<delta chain>")
    check.outcomes.append(outcome)
    reference = StructuralView.from_labeling(doc.labeling)
    with doc.pin() as snap:
        view = snap.view
        size = reference.size()
        same = view.generation == reference.generation and view.size() == size
        for rank in range(size if same else 0):
            label = reference.label_at(rank)
            if (
                view.label_at(rank) != label
                or view.end_of(label) != reference.end_of(label)
                or view.parent_of(label) != reference.parent_of(label)
                or view.record(label).tag != reference.record(label).tag
            ):
                same = False
                break
    if not same:
        outcome.status = "wrong"
    engine = XPathEngine(doc.tree)
    first = stack.quiesces * CHECK_PER_QUIESCE
    stack.quiesces += 1
    for index in range(first, first + CHECK_PER_QUIESCE):
        query = stack.checks[index % len(stack.checks)]
        outcome = Outcome(query)
        harness.run_request(stack.read, outcome)
        want = tuple(n.node_id for n in engine.select(query, strategy="navigational"))
        if outcome.status == "ok" and outcome.key != want:
            outcome.status = "wrong"
        check.outcomes.append(outcome)


def run(seed: int, seconds: float, rec, report: Report):
    stack, _timings = harness.set_up(report, lambda: Stack(seed, seconds, rec))
    nodes = len(stack.tree.nodes())
    report.notes["document"] = {"nodes": nodes, "xml_bytes": len(stack.xml),
                                "write_hz": WRITE_HZ, "group_commit": GROUP_COMMIT,
                                "threads": 2}

    # measured before the timed phase, whose length varies, can leave
    # the allocator in a different state
    report.put("space_amp", space_bytes(stack.xml) / len(stack.xml), "ratio")

    doc = stack.doc
    paced_s, rung_s = burst_plan(seconds)
    before = doc.stats_snapshot()
    cursor = harness.Cursor(stack.deck, 16)
    write_parts, read_parts, loads = [], [], []
    check = Phase("quiesce")
    timed_s = 0.0

    def burst(duration: float, reader) -> Phase:
        """The writer at WRITE_HZ beside ``reader()``, then a quiesce."""
        nonlocal timed_s
        count = burst_writes(duration)
        first = stack.next_op
        stack.next_op += count
        box = {}

        def writer():
            box["phase"] = harness.open_loop_sync(
                "writes", [str(first + i) for i in range(count)],
                harness.periodic_offsets(WRITE_HZ, count), stack.write, WRITE_HZ,
            )

        thread = threading.Thread(target=writer, name="perfbench-writer")
        started = time.perf_counter()
        thread.start()
        try:
            phase = reader()
        finally:
            thread.join()
        timed_s += time.perf_counter() - started
        write_parts.append(box["phase"])
        quiesce_check(stack, check)
        gc.collect()  # each sample starts from the same heap, not the burst's garbage
        loads.append(load(stack.xml, stack.scheme, spans.OFF)[4])
        return phase

    def paced_burst() -> Phase:
        count = int(READ_HZ * paced_s)
        return harness.open_loop_sync(
            "reads", cursor.take(count), harness.periodic_offsets(READ_HZ, count),
            stack.read, READ_HZ)

    def rung(index: int, rate: float) -> Phase:
        offsets = harness.poisson_offsets(rate, rung_s[index], seed + index + 1)
        queries = cursor.take(len(offsets))
        return burst(rung_s[index], lambda: harness.open_loop_sync(
            f"rung{rate:g}", queries, offsets, stack.read, rate))

    rungs = []
    for slice_index in range(harness.SLICES):
        read_parts.append(burst(paced_s, paced_burst))
        if slice_index == harness.SLICES // 2:
            rungs = harness.climb(LADDER_HZ, rung, LIMIT_S)
    after = doc.stats_snapshot()
    reads = harness.merge("reads", read_parts)
    writes = harness.merge("writes", write_parts)
    # the exact count covers the same writes in every run: the first burst's
    relabeled = [o.key[0] for o in write_parts[0].outcomes if o.status == "ok"]

    harness.read_metrics(report, read_parts, rungs, LIMIT_S, checks=[check])
    harness.write_metrics(report, write_parts)
    load_s = sum(t["parse_s"] + t["build_s"] + t["store_s"] for t in loads)
    report.put("ingest_nodes_per_s", nodes * len(loads) / load_s, "1/s")
    harness.count_outcomes(report, [reads, check, writes] + rungs)
    harness.lag_metrics(report, rungs + [reads, writes])

    report.put_layer("xmltree.parse_s", statistics.median(t["parse_s"] for t in loads), "s")
    report.put_layer("core.build_s", statistics.median(t["build_s"] for t in loads), "s")
    report.put_layer("core.update_ms", rec.mean_ms("core.update"), "ms")
    report.put_layer("core.relabeled_per_write", harness.mean(relabeled), "count")
    harness.query_layer_metrics(report, doc.stats.as_dict(), rec.mean_ms("query.compile"))
    report.put_layer("concurrent.snapshot_select_ms", rec.mean_ms("concurrent.snapshot_select"), "ms")
    report.put_layer("concurrent.publish_delta_us", after["snapshot_build_delta_ns_mean"] / 1e3, "us")
    report.put_layer("concurrent.publish_full_ms", after["snapshot_build_full_ns_mean"] / 1e6, "ms")
    delta = after["snapshot_builds_delta"] - before["snapshot_builds_delta"]
    full = after["snapshot_builds_full"] - before["snapshot_builds_full"]
    report.put_layer("concurrent.delta_ratio", harness.ratio(delta, delta + full), "fraction")
    report.put_layer("concurrent.compactions",
                     after["snapshot_compactions"] - before["snapshot_compactions"], "count")
    reader_wait = after["reader_wait_ns"] - before["reader_wait_ns"]
    writer_wait = after["writer_wait_ns"] - before["writer_wait_ns"]
    report.put_layer("concurrent.reader_wait_ms", harness.ratio(
        reader_wait, after["read_acquisitions"] - before["read_acquisitions"]) / 1e6, "ms")
    report.put_layer("concurrent.writer_wait_ms", harness.ratio(
        writer_wait, after["write_acquisitions"] - before["write_acquisitions"]) / 1e6, "ms")
    report.put_layer("concurrent.reader_wait_share", harness.ratio(reader_wait / 1e9, timed_s), "fraction")
    wal_stats = stack.wal.wal_stats
    report.put_layer("storage.wal_syncs_per_commit",
                     harness.ratio(wal_stats.syncs, wal_stats.logical_commits), "ratio")
    report.put_layer("storage.wal_bytes_per_write",
                     harness.ratio(stack.io.wal_bytes, len(writes.outcomes)), "B")
    return stack

