"""ingest-sql-dblp and ingest-paged-dblp: DBLP bytes in, queries out.

Both workloads take generated DBLP-like XML through ``parse`` and the
2-level rUID build into a durable backend, then answer DBLP templates
through the ``store`` strategy of ``XPathEngine``:

* ``sql``: ``SqliteNodeStore.shred`` to a file, ``close``, then a cold
  ``attach``; steps are pushed down to SQL where the store can. The
  main document has more rows than the store's 4096-row cache. Write
  documents are shredded into in-memory databases: creating, syncing
  and removing a file per write took from 6 to 26 ms for the same
  document between minutes on the test VM, which no change to the
  program can move.
* ``paged``: ``XmlDatabase`` with a WAL (``store_document`` commits),
  queried through ``node_store("paged")`` with a buffer pool far
  smaller than the document's page count.

Setup ingests the main document; writes are further small documents
ingested on an open-loop schedule (``ingest_nodes_per_s`` is theirs).
After each batch of writes, every written document is checked against
navigation and then removed (sqlite: its in-memory database is
closed; paged: the staging database the batch wrote to is replaced),
so what is written does not pile up.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import harness
from harness import Phase, Report
from queries import dblp_templates
from repro.baselines.registry import get_scheme
from repro.errors import UnknownLabelError
from repro.generator import generate_dblp
from repro.query.engine import XPathEngine
from repro.storage.database import XmlDatabase, label_key
from repro.store.sqlite import SqliteNodeStore
from repro.xmltree import parse, serialize

#: per backend: main document entries (≈15 nodes each), the write
#: documents ingested during the run (ingest_nodes_per_s is theirs) and
#: the share of the run spent in closed-loop reads (enough for 200
#: reads). Every seventh write document has ``large_entries``, so the
#: write tail (95th percentile) lies inside the large writes' cluster
SIZES = {
    "sql": {"main_entries": 340, "write_entries": 4, "large_entries": 20, "writes": 200,
            "write_hz": 80.0, "closed_share": 0.7},
    "paged": {"main_entries": 100, "write_entries": 1, "large_entries": 2, "writes": 200,
              "write_hz": 40.0, "closed_share": 0.45},
}
#: distinct write documents, ingested in turn under fresh names; every
#: LARGE_EVERY-th has ``large_entries``
WRITE_DISTINCT = 28
LARGE_EVERY = 7
PAGE_SIZE = 1024
POOL_PAGES = 16
LIMIT_S = 1.0
#: fourfold and fivefold ladders; the seed's capacity (≈12-25 and
#: ≈60-90 reads/s on one CPU) stays clear of the rungs on either side
LADDER_HZ = {"sql": (6.0, 30.0, 150.0), "paged": (25.0, 100.0, 400.0)}
#: the deck's first twelve reads cover every template
PROBE_QUERIES = 12
WARM = 16
COUNT_PASS = 24
CHECK_QUERY = "//article/title"
MEMORY = ":memory:"


class Stack:
    def __init__(self, backend: str, seed: int, workdir: str, rec):
        self.backend = backend
        self.rec = rec
        sizes = SIZES[backend]
        self.xml = serialize(balanced_dblp(sizes["main_entries"], seed))
        self.write_xml = [
            serialize(generate_dblp(
                entries=sizes["large_entries" if index % LARGE_EVERY == LARGE_EVERY - 1
                              else "write_entries"],
                seed=seed * 1000 + index,
            ))
            for index in range(WRITE_DISTINCT)
        ]
        self.timings = {}
        self.scheme = get_scheme("ruid2")
        rec.wrap(self.scheme, "build", "core.build", "core")
        self.db = self.staging = None
        if backend == "paged":
            self.db = self.new_database()
            #: write documents go to a staging database of the same shape,
            #: replaced after every batch so they do not pile up
            self.staging = self.new_database()
        self.path = os.path.join(workdir, "dblp.sqlite")
        self.tree, self.labeling, self.store, timings = self.ingest(
            "main", self.xml, self.path if backend == "sql" else self.db)
        self.timings.update(timings)
        if backend == "sql":
            self.stored_bytes = os.path.getsize(self.path)
        else:
            io = self.db.io_snapshot()
            self.stored_bytes = self.db.pager.page_count * PAGE_SIZE + io["wal_bytes"]
            self.wal_bytes = io["wal_bytes"]
        self.engine = XPathEngine(None, store=self.store)
        rec.wrap(self.engine, "select", "query.select", "query")
        rec.wrap(self.engine, "compile", "query.compile", "query")
        rec.wrap(self.engine.evaluator("store"), "select", "store.evaluator_select", "store")
        self.deck = harness.query_deck(
            dblp_templates(self.tree, backend), 4096, random.Random(seed)
        )
        self.written = {}
        for query in self.deck[:WARM]:
            self.read(query)

    def new_database(self) -> XmlDatabase:
        db = XmlDatabase(page_size=PAGE_SIZE, pool_pages=POOL_PAGES, durable=True)
        self.rec.wrap(db, "store_document", "storage.store_document", "storage")
        self.rec.wrap(db, "node_store", "storage.node_store", "storage")
        return db

    def ingest(self, name: str, xml: str, where):
        """parse → label → store into ``where`` (sqlite: a file path,
        shredded, closed and attached afresh, or ``":memory:"``, whose
        store stays open; paged: an ``XmlDatabase``); returns (tree,
        labeling, store, timings)."""
        rec = self.rec
        timings = {}
        started = time.thread_time()
        tree = rec.call("xmltree.parse", "xmltree", parse, xml)
        timings["parse_s"] = time.thread_time() - started
        started = time.thread_time()
        labeling = self.scheme.build(tree)
        timings["build_s"] = time.thread_time() - started
        started = time.thread_time()
        if self.backend == "sql" and where != MEMORY:
            if os.path.exists(where):
                os.remove(where)
            shredded = rec.call(
                "store.shred", "store", SqliteNodeStore.shred, name, labeling, path=where
            )
            rec.call("store.close", "store", shredded.close)
            timings["shred_s"] = time.thread_time() - started
            store = rec.call("store.attach", "store", SqliteNodeStore.attach, name, path=where)
        elif self.backend == "sql":
            store = rec.call("store.shred", "store", SqliteNodeStore.shred, name, labeling)
        else:
            where.store_document(name, tree, labeling)
            timings["store_document_s"] = time.thread_time() - started
            store = where.node_store(name)
        timings["store_s"] = time.thread_time() - started
        return tree, labeling, store, timings

    def read(self, query: str) -> tuple:
        with self.rec.span("bench.read", "bench"):
            nodes = self.engine.select(query, strategy="store")
        return result_labels(self.store, nodes)

    def write(self, index: str) -> tuple:
        """One write: a further document ingested end to end."""
        name = f"w{index}"
        xml = self.write_xml[int(index) % WRITE_DISTINCT]
        where = MEMORY if self.backend == "sql" else self.staging
        with self.rec.span("bench.write", "bench"):
            tree, labeling, store, _ = self.ingest(name, xml, where)
        self.written[name] = (tree, labeling, store)
        return (len(tree.nodes()),)

    def settle(self, writes: Phase) -> None:
        """Check every document a batch wrote against navigation on its
        source tree, then remove it."""
        for outcome in writes.outcomes:
            if outcome.status != "ok":
                continue
            name = f"w{outcome.query}"
            tree, labeling, store = self.written.pop(name)
            engine = XPathEngine(None, store=store)
            got = translate(result_labels(store, engine.select(CHECK_QUERY, strategy="store")),
                            self.key_map(labeling, store))
            if got != harness.oracle(tree)(CHECK_QUERY):
                outcome.status = "wrong"
            if self.backend == "sql":
                store.close()
        if self.backend == "paged":
            self.staging = self.new_database()

    def key_map(self, labeling, store) -> dict:
        """Store label → source node id (the checker's translation)."""
        if self.backend == "sql":
            index = labeling.rank_index()
            return {rank: labeling.node_of(label).node_id for label, rank in index.rank.items()}
        return {
            label_key(labeling.label_of(node)): node.node_id
            for node in labeling.tree.preorder()
        }

    def close(self) -> None:
        if self.backend == "sql":
            self.store.close()


def balanced_dblp(entries: int, seed: int):
    """A generated DBLP tree with exactly ``entries // 2`` articles and
    as many inproceedings (the first of each in a tree twice as large).
    The generator draws each entry's kind at random, and the article
    predicates' cost follows the article count: over ten seeds it
    ranged 44-60 of 100 entries and moved ingest-paged's read tail from
    32 to 62 ms."""
    tree = generate_dblp(entries=2 * entries, seed=seed)
    kept = {"article": 0, "inproceedings": 0}
    for entry in list(tree.root.children):
        if kept[entry.tag] < entries // 2:
            kept[entry.tag] += 1
        else:
            entry.detach()
    return tree


def result_labels(store, nodes) -> tuple:
    """Store-side identity of a result: labels, attributes by owner."""
    key = []
    for node in nodes:
        try:
            key.append(store.label_for(node))
        except UnknownLabelError:
            owner = store.label_for(node.parent) if node.parent is not None else None
            key.append(("attr", owner, node.tag, node.text))
    return tuple(key)


def translate(key: tuple, mapping: dict) -> tuple:
    return tuple(
        ("attr", mapping.get(item[1]), item[2], item[3])
        if isinstance(item, tuple) and item and item[0] == "attr"
        else mapping[item]
        for item in key
    )


def run(backend: str, seed: int, seconds: float, rec, report: Report, workdir: str):
    stack, timings = harness.set_up(report, lambda: Stack(backend, seed, workdir, rec))
    nodes = len(stack.tree.nodes())
    report.put("space_amp", stack.stored_bytes / len(stack.xml), "ratio")
    sizes = SIZES[backend]
    report.notes["document"] = {
        "nodes": nodes,
        "xml_bytes": len(stack.xml),
        "stored_bytes": stack.stored_bytes,
        **({"sqlite_row_cache": 4096} if backend == "sql" else {
            "pages": stack.db.pager.page_count, "pool_pages": POOL_PAGES, "page_size": PAGE_SIZE}),
        "write_documents": sizes["writes"],
        "write_hz": sizes["write_hz"],
    }

    # count pass: a fixed deck slice, right after the deterministic warm
    store = stack.store
    stats0 = store.stats_snapshot()
    io0 = stack.db.io_snapshot() if stack.db is not None else None
    results = 0
    for query in stack.deck[WARM:WARM + COUNT_PASS]:
        results += len(stack.read(query))
    stats1 = store.stats_snapshot()
    delta = {name: stats1[name] - stats0[name] for name in stats1}
    report.put_layer("store.sql_queries_per_read", delta["sql_queries"] / COUNT_PASS, "count")
    report.put_layer("store.sql_rows_per_result", harness.ratio(delta["sql_rows"], results), "ratio")
    report.put_layer("store.pushdown_steps_per_read", delta["pushdown_steps"] / COUNT_PASS, "count")
    report.put_layer("store.fetches_per_read", delta["fetches"] / COUNT_PASS, "count")
    report.put_layer("store.rank_probes_per_read", delta["rank_probes"] / COUNT_PASS, "count")
    if io0 is not None:
        io1 = stack.db.io_snapshot()
        hits = io1["buffer_hits"] - io0["buffer_hits"]
        misses = io1["buffer_misses"] - io0["buffer_misses"]
        report.put_layer("store.page_hit_ratio", harness.ratio(hits, hits + misses), "fraction")
        report.put_layer("storage.disk_reads_per_read",
                         (io1["disk_reads"] - io0["disk_reads"]) / COUNT_PASS, "count")
        report.put_layer("storage.evictions_per_read",
                         (io1["evictions"] - io0["evictions"]) / COUNT_PASS, "count")

    cursor = harness.Cursor(stack.deck, WARM + COUNT_PASS)
    closed_s = sizes["closed_share"] * seconds / harness.SLICES

    def rung(index, rate):
        offsets = harness.poisson_offsets(rate, harness.rung_seconds(rate, 0.1 * seconds), seed + index + 1)
        return harness.open_loop_sync(f"rung{rate:g}", cursor.take(len(offsets)), offsets, stack.read, rate)

    write_parts, closed_parts, ladder = [], [], []
    first = 0
    for slice_index, count in enumerate(harness.slices(sizes["writes"])):
        write_parts.append(harness.paced_writes(first, count, sizes["write_hz"], stack.write, stack.settle))
        first += count
        closed = harness.closed_loop_sync("closed", cursor.rest(), stack.read, closed_s)
        cursor.advance(len(closed.outcomes))
        closed_parts.append(closed)
        if slice_index == harness.SLICES // 2:
            ladder = harness.climb(LADDER_HZ[backend], rung, LIMIT_S)
    writes = harness.merge("writes", write_parts)

    # correctness: store answers against navigation on the source tree
    mapping = stack.key_map(stack.labeling, stack.store)
    reads = ladder + closed_parts
    for phase in reads:
        for outcome in phase.outcomes:
            if outcome.status == "ok":
                outcome.key = translate(outcome.key, mapping)
    harness.verify(reads, harness.oracle(stack.tree))

    harness.read_metrics(report, closed_parts, ladder, LIMIT_S)
    harness.write_metrics(report, write_parts)
    harness.ingest_rate(report, write_parts)
    harness.count_outcomes(report, reads + [writes])
    harness.lag_metrics(report, ladder + [writes])

    report.put_layer("xmltree.parse_s", statistics.median(t["parse_s"] for t in timings), "s")
    report.put_layer("core.build_s", statistics.median(t["build_s"] for t in timings), "s")
    if backend == "sql":
        report.put_layer("store.shred_s", statistics.median(t["shred_s"] for t in timings), "s")
    else:
        report.put_layer("storage.store_document_s",
                         statistics.median(t["store_document_s"] for t in timings), "s")
        report.put_layer("storage.wal_bytes_per_input_byte", stack.wal_bytes / len(stack.xml), "ratio")
    harness.query_layer_metrics(report, stack.engine.stats.as_dict(), rec.mean_ms("query.compile"))
    return stack
