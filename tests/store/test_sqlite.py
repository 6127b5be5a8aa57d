"""SqliteNodeStore specifics: accel schema, build-or-attach, pushdown.

The protocol contract battery in test_nodestore.py already runs this
store through every shared assertion; this module covers what is
unique to the SQL backend — the self-describing accel table, the
``end = post + level`` identity the range predicates rely on, the
restart lifecycle (attach to a previously shredded file, answer with
zero re-shred), SQL axis pushdown vs the batched Python path, the
deadline/error-taxonomy integration, and the resilient fallback over
the rank label dialect.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.scheme import Ruid2Scheme
from repro.errors import (
    QueryTimeout,
    StorageError,
    TransientFetchError,
    UnknownLabelError,
)
from repro.query.engine import XPathEngine
from repro.query.parser import parse_xpath
from repro.resilience import Deadline
from repro.resilience.store import ResilientNodeStore
from repro.store import MemoryNodeStore, SqliteNodeStore, StoreEvaluator
from repro.xmltree import parse

DOC = """<site>
 <people>
  <person id="p1"><name>Alice</name><age>31</age></person>
  <person id="p2"><name>Bob</name><age>17</age></person>
 </people>
 <items><item id="i1"><name>Lamp</name><price>19</price></item></items>
</site>"""

QUERIES = (
    "/site/people/person",
    "//name",
    "//person[age > 20]/name",
    "//price/ancestor::item",
    "//item/following-sibling::*",
    "//name/preceding-sibling::node()",
    "//person[@id = 'p2']/name",
    "/descendant-or-self::node()",
)


def _shred(tree=None, path=":memory:", name="doc"):
    tree = parse(DOC) if tree is None else tree
    labeling = Ruid2Scheme().build(tree)
    return SqliteNodeStore.shred(name, labeling, path=path), tree, labeling


def _paths(store, nodes):
    return [store.path_of(store.label_for(n)) for n in nodes]


class TestAccelSchema:
    def test_accel_table_is_self_describing(self):
        store, tree, labeling = _shred()
        row = store.connection.execute(
            "SELECT post, value FROM \"doc__accel\" WHERE pre = -1"
        ).fetchone()
        assert row == (labeling.generation, "ruid2")
        count = store.connection.execute(
            "SELECT COUNT(*) FROM \"doc__accel\" WHERE pre >= 0"
        ).fetchone()[0]
        assert count == tree.size() == store.size()

    def test_indexes_cover_the_axis_predicates(self):
        store, _, _ = _shred()
        indexes = {
            row[0]
            for row in store.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
        assert {"doc__accel_tag", "doc__accel_parent", "doc__accel_post"} <= indexes

    def test_end_is_post_plus_level(self):
        """The identity every descendant range scan relies on:
        post = pre + size − 1 − level, hence end = post + level."""
        store, _, labeling = _shred()
        memory = MemoryNodeStore(labeling)
        for rank in range(store.size()):
            label = memory.label_at(rank)
            assert store.end_of(rank) == memory.end_of(label)
            assert store.rank_of(rank) == rank == memory.rank_of(label)

    def test_parent_column_matches_scheme_arithmetic(self):
        store, _, labeling = _shred()
        memory = MemoryNodeStore(labeling)
        for rank in range(store.size()):
            parent = store.parent_of(rank)
            mem_parent = memory.parent_of(memory.label_at(rank))
            if mem_parent is None:
                assert parent is None
            else:
                assert parent == memory.rank_of(mem_parent)

    def test_unusable_document_name_is_rejected(self):
        tree = parse(DOC)
        labeling = Ruid2Scheme().build(tree)
        with pytest.raises(StorageError, match="unusable document name"):
            SqliteNodeStore.shred('x"; DROP TABLE y; --', labeling)


class _FailingAttrsConnection(sqlite3.Connection):
    """Fails the attribute-table insert, after all three tables exist."""

    fail = True

    def executemany(self, sql, rows):
        if self.fail and "__attrs" in sql:
            raise sqlite3.OperationalError("disk I/O error (injected)")
        return super().executemany(sql, rows)


def _doc_tables(connection):
    return [
        row[0]
        for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name LIKE 'doc%' ORDER BY name"
        )
    ]


class TestBuildOrAttach:
    def test_shred_then_attach_same_connection(self):
        store, _, labeling = _shred()
        assert store.built
        again = SqliteNodeStore("doc", connection=store.connection)
        assert not again.built  # attached, not re-shredded
        assert again.size() == store.size()
        assert again.scheme_name == "ruid2"
        assert again.generation == labeling.generation

    def test_failed_shred_leaves_no_tables_and_retry_succeeds(self, tmp_path):
        """The shred is one transaction: a failure part-way rolls back
        every table it created, and a retry on the same file shreds
        cleanly."""
        path = str(tmp_path / "torn.db")
        connection = sqlite3.connect(path, factory=_FailingAttrsConnection)
        labeling = Ruid2Scheme().build(parse(DOC))
        with pytest.raises(StorageError, match="shred failed"):
            SqliteNodeStore.shred("doc", labeling, connection=connection)
        assert _doc_tables(connection) == []
        assert _doc_tables(sqlite3.connect(path)) == []  # nothing committed

        connection.fail = False
        store = SqliteNodeStore.shred("doc", labeling, connection=connection)
        assert store.built
        assert len(store.labels_with_tag("person")) == 2
        assert store.attributes_of(store.labels_with_tag("person")[0]) == (("id", "p1"),)
        assert _doc_tables(sqlite3.connect(path)) == [
            "doc__accel",
            "doc__attrs",
            "doc__tags",
        ]

    def test_attach_without_table_raises(self, tmp_path):
        with pytest.raises(StorageError, match="no accel table"):
            SqliteNodeStore.attach("doc", path=str(tmp_path / "empty.db"))

    def test_restart_lifecycle_zero_reshred(self, tmp_path):
        """Acceptance: a store attached to a previously shredded file
        answers the full query battery — node-for-node against the
        navigational baseline — through SQL alone: no labeling object,
        no re-shred, ``sql_queries > 0``."""
        path = str(tmp_path / "site.db")
        store, tree, labeling = _shred(path=path)
        row_count = store.connection.execute(
            'SELECT COUNT(*) FROM "doc__accel"'
        ).fetchone()[0]
        store.close()
        del store, labeling  # nothing label-shaped survives the restart

        attached = SqliteNodeStore.attach("doc", path=path)
        assert not attached.built  # no labeling rebuild happened
        assert attached.connection.execute(
            'SELECT COUNT(*) FROM "doc__accel"'
        ).fetchone()[0] == row_count  # and no rows were re-written

        baseline = XPathEngine(tree)
        evaluator = StoreEvaluator(attached)
        for query in QUERIES:
            want = [n.path() for n in baseline.select(query, "navigational")]
            got = []
            for node in evaluator.select(parse_xpath(query)):
                try:
                    got.append(attached.path_of(attached.label_for(node)))
                except UnknownLabelError:
                    got.append(node.path())  # transient / document node
            if query.startswith("/descendant-or-self"):
                # both sides spell the virtual document node their own
                # way; compare the labeled remainder
                want, got = want[-attached.size():], got[-attached.size():]
            assert got == want, f"attached store diverged on {query}"
        assert attached.stats.sql_queries > 0
        assert attached.stats.pushdown_steps > 0

    def test_memory_and_disk_files_agree(self, tmp_path):
        mem_store, tree, labeling = _shred()
        disk_store = SqliteNodeStore.shred(
            "doc", labeling, path=str(tmp_path / "d.db")
        )
        for query in QUERIES:
            a = _paths_safe(mem_store, StoreEvaluator(mem_store), query)
            b = _paths_safe(disk_store, StoreEvaluator(disk_store), query)
            assert a == b


def _paths_safe(store, evaluator, query):
    out = []
    for node in evaluator.select(parse_xpath(query)):
        try:
            out.append(store.path_of(store.label_for(node)))
        except UnknownLabelError:
            out.append(("transient", node.tag, node.text))
    return out


class TestAxisPushdown:
    def test_pushdown_equals_batched_python_path(self):
        store, _, _ = _shred()
        pushdown = StoreEvaluator(store)
        python = StoreEvaluator(store, pushdown=False)
        for query in QUERIES:
            a = _paths_safe(store, pushdown, query)
            b = _paths_safe(store, python, query)
            assert a == b, f"pushdown diverged from python path on {query}"
        assert pushdown.stats.pushdown_steps > 0
        assert python.stats.pushdown_steps == 0

    def test_pushdown_charges_store_counters(self):
        store, _, _ = _shred()
        before = store.stats_snapshot()
        StoreEvaluator(store).select(parse_xpath("//person/name"))
        delta = store.stats_delta(before)
        assert delta["pushdown_steps"] > 0
        assert delta["sql_queries"] > 0
        assert delta["sql_rows"] > 0

    def test_unknown_tag_answers_empty_without_fallback(self):
        store, _, _ = _shred()
        evaluator = StoreEvaluator(store)
        assert evaluator.select(parse_xpath("//nonexistent")) == []
        assert evaluator.stats.pushdown_steps > 0

    def test_explain_analyze_surfaces_sql_counters(self):
        store, _, _ = _shred()
        engine = XPathEngine(None, store=store)
        plan = engine.explain("//person/name", strategy="store", analyze=True)
        assert plan.physical is not None
        assert plan.physical["sql_queries"] > 0
        assert plan.physical["pushdown_steps"] > 0

    def test_wide_context_chunks_statements(self, medium_tree):
        """A frontier larger than the SQL parameter budget must split
        into several statements and still agree with the Python path."""
        labeling = Ruid2Scheme().build(medium_tree)
        store = SqliteNodeStore.shred("wide", labeling)
        pushdown = StoreEvaluator(store)
        python = StoreEvaluator(store, pushdown=False)
        query = "//*/following-sibling::*"
        assert _paths_safe(store, pushdown, query) == _paths_safe(
            store, python, query
        )


class TestDeadlinesAndErrors:
    def test_expired_deadline_raises_query_timeout(self):
        store, _, _ = _shred()
        evaluator = StoreEvaluator(store)
        clock = iter(range(0, 10**12, 10**9)).__next__  # 1s per read
        evaluator.set_deadline(Deadline(0.5, clock=clock, check_interval=1))
        with pytest.raises(QueryTimeout):
            evaluator.select(parse_xpath("//name"))

    def test_busy_errors_map_to_transient_fetch(self):
        store, _, _ = _shred()

        def boom(sql):
            raise sqlite3.OperationalError("database is locked")

        real = store.connection

        class Locked:
            def execute(self, sql, params=()):
                boom(sql)

        store.connection = Locked()
        with pytest.raises(TransientFetchError):
            store.children_of(0)
        store.connection = real

    def test_structural_errors_map_to_storage_error(self):
        store, _, _ = _shred()

        class Broken:
            def execute(self, sql, params=()):
                raise sqlite3.OperationalError("no such table: doc__accel")

        real = store.connection
        store.connection = Broken()
        store._row_cache.clear()
        with pytest.raises(StorageError):
            store.children_of(0)
        store.connection = real

    def test_before_query_hook_is_a_fault_point(self):
        store, _, _ = _shred()
        calls = []

        def hook(sql):
            calls.append(sql)

        store.before_query = hook
        store.children_of(0)
        assert calls and "doc__accel" in calls[-1]


class TestResilientSqlite:
    def test_fallback_answers_when_sql_path_fails(self):
        store, tree, labeling = _shred()
        fallback = MemoryNodeStore(labeling)
        resilient = ResilientNodeStore(
            store, fallback=fallback, sleep=lambda _s: None
        )
        budget = {"n": 0}

        def chaos(sql):
            if budget["n"] > 0:
                budget["n"] -= 1
                raise TransientFetchError("injected sqlite fault")

        store.before_query = chaos
        evaluator = StoreEvaluator(resilient)
        want = [
            n.text_content()
            for n in XPathEngine(tree).select("//name", "navigational")
        ]
        budget["n"] = 10 ** 6  # every SQL statement fails: full degrade
        got = [
            resilient.string_value(resilient.label_for(n))
            for n in evaluator.select(parse_xpath("//name"))
        ]
        assert got == want
        assert resilient.degraded()

    def test_rank_dialect_translation_round_trips(self):
        store, _, labeling = _shred()
        fallback = MemoryNodeStore(labeling)
        resilient = ResilientNodeStore(
            store, fallback=fallback, sleep=lambda _s: None
        )
        # every label the resilient store exposes stays a rank int,
        # even when the answer came from the fallback dialect
        store.before_query = lambda sql: (_ for _ in ()).throw(
            TransientFetchError("down")
        )
        labels = resilient.labels_with_tag("name")
        assert labels == sorted(labels)
        assert all(isinstance(lb, int) for lb in labels)
        assert resilient.degraded()
