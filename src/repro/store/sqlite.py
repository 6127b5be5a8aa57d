"""Durable NodeStore over stdlib ``sqlite3`` — the XPath Accelerator.

The paper's pre/post numbering makes every major axis a *pure range
predicate*: ``u`` is an ancestor of ``v`` iff ``pre(u) < pre(v) AND
post(u) > post(v)``, descendant is the mirror, siblings are a
parent-equality scan. That is exactly Grust's XPath Accelerator
relational encoding, and it means an off-the-shelf SQL engine — with
nothing XML-specific in it — can answer whole axis steps with one
indexed ``SELECT``. :class:`SqliteNodeStore` shreds a labeled document
into such an **accel table** inside a SQLite database (in-memory or a
real file on disk) and serves the full :class:`NodeStore` protocol
from it, which buys the system three things at once:

* a **restart-durable** backend: a store attached to a previously
  shredded ``.db`` file answers queries with *zero* re-shred and no
  labeling object anywhere in the process;
* **axis pushdown**: :class:`SqlAxisPushdown` turns predicate-free
  child / descendant / ancestor / sibling steps into single SQL
  statements the embedded C engine executes, while the evaluator's
  batched Python paths remain as fallbacks;
* an honest benchmark partner for the Python evaluators — E17 now
  compares memory, paged and sqlite on one workload.

Layout of ``{name}__accel`` (primary key: ``pre``):

========== ======= ====================================================
column     type    contents
========== ======= ====================================================
pre        INTEGER preorder rank (pk; pre order = document order)
post       INTEGER postorder rank
level      INTEGER depth below the root element (root = 0)
parent_pre INTEGER parent's ``pre``, NULL at the root
kind       INTEGER node-kind code (:mod:`repro.core.columnar` codes)
tag_id     INTEGER id into ``{name}__tags`` (−1 for untagged kinds)
value      TEXT    string-value contribution (text of TEXT/ELEMENT
                   rows, comment/attribute text)
========== ======= ====================================================

A **meta row at pre −1** (kind −1) carries the labeling generation in
``post`` and the scheme name in ``value``, so an attached store knows
what it serves without a labeling. Companion tables ``{name}__tags``
(the tag dictionary) and ``{name}__attrs`` (dict-form attribute pairs
per element ``pre``) complete the shred. Indexes: ``(tag_id, pre)``
for per-tag candidate range scans, ``parent_pre`` for child scans,
``post`` for the ancestor range predicate.

Because ``pre``/``post``/``level`` are assigned over the same DFS,
the subtree-end rank every interval consumer needs is *derivable*:
``end(v) = post(v) + level(v)`` (a node's postorder rank counts its
``size−1`` descendants plus the ``pre(v) − level(v)`` preceding
non-ancestors, so ``post = pre + size − 1 − level``). Descendant
scans therefore run on the primary key — ``pre BETWEEN pre(v)+1 AND
post(v)+level(v)`` — with no self-join on post at all.

Labels in this store's dialect are the ``pre`` ranks themselves
(plain ints), mirroring the snapshot view's ``node_id`` ints: opaque
to consumers, trivially stable across attach, and free to translate
to ranks.

Every statement goes through one guarded execution point that charges
``sql_queries`` / ``sql_rows`` on :class:`StoreStats`, ticks the
query's deadline between fetched batches, and maps ``sqlite3`` errors
into the storage taxonomy (``TransientFetchError`` for
busy/locked-class failures, ``StorageError`` for the rest), so
:class:`~repro.resilience.store.ResilientNodeStore` can guard this
backend exactly like the paged one.
"""

from __future__ import annotations

import re
import sqlite3
from array import array
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.columnar import (
    KIND_ATTRIBUTE,
    KIND_COMMENT,
    KIND_DOCUMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
    NO_RANK,
)
from repro.errors import (
    NoParentError,
    StorageError,
    TransientFetchError,
    UnknownLabelError,
)
from repro.query.ast import NodeTest
from repro.store.base import Label, NodeRecord, NodeStore
from repro.xmltree.node import NodeKind, XmlNode

_META_PRE = -1
_META_KIND = -1

#: kind code → NodeKind (inverse of the columnar code table)
_KIND_BY_CODE = {
    KIND_ELEMENT: NodeKind.ELEMENT,
    KIND_TEXT: NodeKind.TEXT,
    KIND_COMMENT: NodeKind.COMMENT,
    KIND_ATTRIBUTE: NodeKind.ATTRIBUTE,
    KIND_PI: NodeKind.PROCESSING_INSTRUCTION,
    KIND_DOCUMENT: NodeKind.DOCUMENT,
}
_CODE_BY_KIND = {kind: code for code, kind in _KIND_BY_CODE.items()}

#: bounded LRU over point-row probes (mirrors the paged store's cache)
_ROW_CACHE_LIMIT = 4096

#: rows pulled per fetchmany batch — each batch boundary is a deadline
#: cancellation point, so a runaway scan is interruptible mid-flight
_FETCH_BATCH = 1024

#: bound on SQL parameters per statement (SQLite guarantees ≥999 host
#: parameters; range predicates use two each)
_MAX_PARAMS = 800

_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: sqlite3 error texts that indicate a condition a retry may clear
_TRANSIENT_MARKERS = ("locked", "busy", "disk i/o", "ioerr")


def _quoted(name: str) -> str:
    if not _NAME_RE.match(name):
        raise StorageError(f"unusable document name for sqlite tables: {name!r}")
    return f'"{name}"'


def _merge_intervals(spans: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Coalesce overlapping/adjacent [lo, hi] ranges (sorted output)."""
    if not spans:
        return spans
    spans.sort()
    merged = [spans[0]]
    for lo, hi in spans[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi + 1:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return [span for span in merged if span[1] >= span[0]]


def _chunks(items: Sequence, size: int) -> Iterable[Sequence]:
    for start in range(0, len(items), size):
        yield items[start : start + size]


class SqlAxisPushdown:
    """Whole axis steps as single SQL range predicates.

    The helper the :class:`~repro.store.evaluator.StoreEvaluator`
    consults before its batched Python paths: given a context frontier
    (a list of ``pre`` ranks) and a step, it emits the accelerator
    predicate for the axis — descendant/child/ancestor/sibling — with
    the node test folded in as an indexed filter, and returns the
    matching ``pre`` ranks in document order. Returns ``None`` when
    the node test is not expressible as a SQL filter (the evaluator
    falls back to Python).

    Each pushed step is one to a handful of ``SELECT`` statements
    (context frontiers are chunked to stay under SQLite's host-
    parameter limit), counted in ``StoreStats.pushdown_steps``.
    """

    #: axes this helper can translate; ``following``/``preceding`` are
    #: rare enough to leave on the evaluator's per-node path
    AXES = frozenset(
        {
            "child",
            "descendant",
            "descendant-or-self",
            "ancestor",
            "ancestor-or-self",
            "following-sibling",
            "preceding-sibling",
        }
    )

    def __init__(self, store: "SqliteNodeStore"):
        self.store = store

    # ------------------------------------------------------------------
    def test_filter(self, test: NodeTest) -> Optional[Tuple[str, Tuple]]:
        """(SQL clause, params) expressing *test*, or ``None`` when it
        cannot be pushed down. A tag unknown to the document yields a
        clause no row satisfies (the synopsis answer, in SQL)."""
        node_type = test.node_type
        if node_type is None:
            if test.name is not None:
                tag_id = self.store._tag_id(test.name)
                if tag_id is None:
                    return ("0", ())  # no such tag anywhere
                return (f"kind = {KIND_ELEMENT} AND tag_id = ?", (tag_id,))
            return (f"kind = {KIND_ELEMENT}", ())
        if node_type == "node":
            return (f"kind != {KIND_ATTRIBUTE}", ())
        if node_type == "text":
            return (f"kind = {KIND_TEXT}", ())
        if node_type == "comment":
            return (f"kind = {KIND_COMMENT}", ())
        return None

    # ------------------------------------------------------------------
    def step(
        self,
        pres: List[int],
        axis: str,
        test: NodeTest,
        has_doc: bool = False,
    ) -> Optional[List[int]]:
        """Matching ``pre`` ranks for one predicate-free step, sorted
        and deduplicated, or ``None`` if the test is inexpressible."""
        folded = self.test_filter(test)
        if folded is None:
            return None
        clause, params = folded
        store = self.store
        store.stats.pushdown_steps += 1
        context = sorted(set(pres))
        if axis == "child":
            out = self._child(context, clause, params, has_doc)
        elif axis in ("descendant", "descendant-or-self"):
            out = self._descendant(
                context, clause, params, axis == "descendant-or-self", has_doc
            )
        elif axis in ("ancestor", "ancestor-or-self"):
            out = self._ancestor(
                context, clause, params, axis == "ancestor-or-self"
            )
        else:  # following-sibling / preceding-sibling
            out = self._sibling(context, clause, params, axis == "following-sibling")
        return out

    # ------------------------------------------------------------------
    def _child(
        self, context: List[int], clause: str, params: Tuple, has_doc: bool
    ) -> List[int]:
        store = self.store
        accel = store._accel
        found: set = set()
        for chunk in _chunks(context, _MAX_PARAMS):
            marks = ",".join("?" * len(chunk))
            found.update(
                row[0]
                for row in store._execute_all(
                    f"SELECT pre FROM {accel} WHERE parent_pre IN ({marks}) "
                    f"AND {clause}",
                    (*chunk, *params),
                )
            )
        if has_doc:
            # the root element is the document node's only child
            found.update(
                row[0]
                for row in store._execute_all(
                    f"SELECT pre FROM {accel} WHERE parent_pre IS NULL "
                    f"AND pre >= 0 AND {clause}",
                    params,
                )
            )
        return sorted(found)

    def _descendant(
        self,
        context: List[int],
        clause: str,
        params: Tuple,
        or_self: bool,
        has_doc: bool,
    ) -> List[int]:
        store = self.store
        accel = store._accel
        if has_doc:
            # the document subsumes every interval: one candidate scan
            return [
                row[0]
                for row in store._execute_all(
                    f"SELECT pre FROM {accel} WHERE {clause} AND pre >= 0 "
                    f"ORDER BY pre",
                    params,
                )
            ]
        spans: List[Tuple[int, int]] = []
        for pre in context:
            end = store.end_of(pre)
            lo = pre if or_self else pre + 1
            if lo <= end:
                spans.append((lo, end))
        spans = _merge_intervals(spans)
        found: List[int] = []
        for chunk in _chunks(spans, _MAX_PARAMS // 2):
            ranges = " OR ".join("pre BETWEEN ? AND ?" for _ in chunk)
            bound = [value for span in chunk for value in span]
            found.extend(
                row[0]
                for row in store._execute_all(
                    f"SELECT pre FROM {accel} WHERE ({ranges}) AND {clause} "
                    f"ORDER BY pre",
                    (*bound, *params),
                )
            )
        # merged intervals are disjoint and chunked in ascending order,
        # so the per-statement ORDER BY pre keeps the whole list sorted
        return found

    def _ancestor(
        self, context: List[int], clause: str, params: Tuple, or_self: bool
    ) -> List[int]:
        store = self.store
        accel = store._accel
        found: set = set()
        posts = store._posts_of(context)
        pairs = list(zip(context, posts))
        for chunk in _chunks(pairs, _MAX_PARAMS // 2):
            # the accelerator predicate itself: pre < pre(v) AND
            # post > post(v), per context, OR-folded into one SELECT
            ors = " OR ".join("(pre < ? AND post > ?)" for _ in chunk)
            bound = [value for pair in chunk for value in pair]
            found.update(
                row[0]
                for row in store._execute_all(
                    f"SELECT DISTINCT pre FROM {accel} WHERE pre >= 0 "
                    f"AND ({ors}) AND {clause}",
                    (*bound, *params),
                )
            )
        if or_self:
            for chunk in _chunks(context, _MAX_PARAMS):
                marks = ",".join("?" * len(chunk))
                found.update(
                    row[0]
                    for row in store._execute_all(
                        f"SELECT pre FROM {accel} WHERE pre IN ({marks}) "
                        f"AND {clause}",
                        (*chunk, *params),
                    )
                )
        return sorted(found)

    def _sibling(
        self, context: List[int], clause: str, params: Tuple, following: bool
    ) -> List[int]:
        store = self.store
        accel = store._accel
        pairs: List[Tuple[int, int]] = []
        for pre in context:
            parent = store.parent_of(pre)
            if parent is not None:
                pairs.append((parent, pre))
        op = ">" if following else "<"
        found: set = set()
        for chunk in _chunks(pairs, _MAX_PARAMS // 2):
            ors = " OR ".join(f"(parent_pre = ? AND pre {op} ?)" for _ in chunk)
            bound = [value for pair in chunk for value in pair]
            found.update(
                row[0]
                for row in store._execute_all(
                    f"SELECT DISTINCT pre FROM {accel} WHERE ({ors}) "
                    f"AND {clause}",
                    (*bound, *params),
                )
            )
        return sorted(found)


class SqliteNodeStore(NodeStore):
    """NodeStore over a SQLite accel table (build-or-attach).

    Mirrors :class:`~repro.store.paged.PagedNodeStore`'s constructor
    discipline: if ``{name}__accel`` already exists in the target
    database, the store **attaches** to it (``built`` is False, no
    labeling needed, zero re-shred); otherwise it **shreds** from the
    supplied labeling and commits. Pass ``path`` for a durable file
    (or the default ``":memory:"``), or an existing ``connection`` to
    share one in-memory database across stores.

    Labels are the ``pre`` ranks (ints); ``labels_are_ranks`` lets
    dialect-translating wrappers (the resilient store) map them to a
    fallback's scheme labels by rank instead of by storage key.
    """

    store_kind = "sqlite"
    supports_batched = True
    labels_are_ranks = True

    __slots__ = (
        "name",
        "path",
        "connection",
        "built",
        "scheme_name",
        "deadline",
        "axis_pushdown",
        "before_query",
        "_accel",
        "_tags_table",
        "_attrs_table",
        "_generation",
        "_size",
        "_tags",
        "_tag_ids",
        "_row_cache",
        "_node_cache",
        "_label_by_id",
        "_order_by_id",
        "_tag_cache",
        "_kind_cache",
        "_parent_ranks",
        "_element_tags",
    )

    def __init__(
        self,
        name: str,
        labeling: Any = None,
        path: str = ":memory:",
        connection: Optional[sqlite3.Connection] = None,
    ):
        super().__init__()
        self.name = name
        self.path = path
        self._accel = _quoted(f"{name}__accel")
        self._tags_table = _quoted(f"{name}__tags")
        self._attrs_table = _quoted(f"{name}__attrs")
        if connection is not None:
            self.connection = connection
        else:
            try:
                self.connection = sqlite3.connect(path)
            except sqlite3.Error as exc:
                raise StorageError(f"cannot open sqlite file {path!r}: {exc}") from exc
        #: cooperative-cancellation budget forwarded by the evaluator;
        #: every statement execution and fetch batch is a tick
        self.deadline = None
        #: fault-injection hook (tests): called with the SQL text
        #: before every statement; may raise TransientFetchError
        self.before_query: Optional[Callable[[str], None]] = None
        self.built = False
        if not self._has_accel():
            if labeling is None:
                raise StorageError(
                    f"sqlite database {path!r} holds no accel table for "
                    f"{name!r} and no labeling was supplied to shred from"
                )
            self._shred(labeling)
            self.built = True
        meta = self._fetch_meta()
        self._generation: int = meta[0]
        self.scheme_name: str = meta[1]
        self._size: int = meta[2]
        self._tags: List[str] = self._load_tags()
        self._tag_ids: Dict[str, int] = {
            tag: tid for tid, tag in enumerate(self._tags)
        }
        self.axis_pushdown = SqlAxisPushdown(self)
        self._row_cache: "OrderedDict[int, Tuple]" = OrderedDict()
        self._node_cache: Dict[int, XmlNode] = {}
        self._label_by_id: Dict[int, int] = {}
        self._order_by_id: Dict[int, int] = {}
        self._tag_cache: Dict[str, List[int]] = {}
        self._kind_cache: Dict[str, List[int]] = {}
        self._parent_ranks: Optional[array] = None
        self._element_tags: Optional[set] = None

    # ------------------------------------------------------------------
    # Constructors mirroring the paged store's build-or-attach
    # ------------------------------------------------------------------
    @classmethod
    def shred(
        cls,
        name: str,
        labeling: Any,
        path: str = ":memory:",
        connection: Optional[sqlite3.Connection] = None,
    ) -> "SqliteNodeStore":
        """Shred ``labeling``'s document into a fresh accel table."""
        return cls(name, labeling=labeling, path=path, connection=connection)

    @classmethod
    def attach(
        cls,
        name: str,
        path: str = ":memory:",
        connection: Optional[sqlite3.Connection] = None,
    ) -> "SqliteNodeStore":
        """Attach to an existing accel table — no labeling, no
        re-shred; raises :class:`StorageError` if the table is not
        there."""
        return cls(name, labeling=None, path=path, connection=connection)

    # ------------------------------------------------------------------
    # Guarded execution: the one place SQL meets the connection
    # ------------------------------------------------------------------
    def _execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        if self.before_query is not None:
            self.before_query(sql)
        if self.deadline is not None:
            self.deadline.tick()
        self.stats.sql_queries += 1
        try:
            return self.connection.execute(sql, params)
        except sqlite3.OperationalError as exc:
            text = str(exc).lower()
            if any(marker in text for marker in _TRANSIENT_MARKERS):
                raise TransientFetchError(f"sqlite read failed: {exc}") from exc
            raise StorageError(f"sqlite error: {exc}") from exc
        except sqlite3.Error as exc:
            raise StorageError(f"sqlite error: {exc}") from exc

    def _execute_all(self, sql: str, params: Sequence = ()) -> List[Tuple]:
        """Execute and drain in deadline-ticked batches."""
        cursor = self._execute(sql, params)
        rows: List[Tuple] = []
        while True:
            batch = cursor.fetchmany(_FETCH_BATCH)
            if not batch:
                break
            self.stats.sql_rows += len(batch)
            if self.deadline is not None:
                self.deadline.tick(items=len(batch))
            rows.extend(batch)
        return rows

    def _execute_one(self, sql: str, params: Sequence = ()) -> Optional[Tuple]:
        cursor = self._execute(sql, params)
        row = cursor.fetchone()
        if row is not None:
            self.stats.sql_rows += 1
        return row

    # ------------------------------------------------------------------
    # Shredding
    # ------------------------------------------------------------------
    def _has_accel(self) -> bool:
        row = self._execute_one(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name = ?",
            (f"{self.name}__accel",),
        )
        return row is not None

    def _shred(self, labeling: Any) -> None:
        """One pass over the labeling's rank index into the accel
        table: pre/post/level from each scheme's *own* rank index and
        parent arithmetic, so a buggy scheme diverges here rather than
        silently inheriting a shared traversal."""
        index_builder = getattr(labeling, "rank_index", None)
        if index_builder is None:
            raise StorageError(
                f"{type(labeling).__name__} exposes no rank_index to shred from"
            )
        index = index_builder()
        generation = getattr(labeling, "generation", 0)
        scheme = getattr(labeling, "scheme_name", type(labeling).__name__)
        size = len(index.rank)
        labels_by_rank: List[Any] = [None] * size
        for label, rank in index.rank.items():
            labels_by_rank[rank] = label
        node_of = labeling.node_of
        parent_arithmetic = getattr(labeling, "parent_label", None)
        if parent_arithmetic is None:
            parent_arithmetic = labeling.rparent

        tags: List[str] = []
        tag_ids: Dict[str, int] = {}
        levels = array("q", bytes(8 * size)) if size else array("q")
        accel_rows: List[Tuple] = []
        attr_rows: List[Tuple] = []
        rank_of = index.rank
        end_of = index.end
        for pre, label in enumerate(labels_by_rank):
            node = node_of(label)
            try:
                parent = parent_arithmetic(label)
                parent_pre: Optional[int] = rank_of[parent]
            except NoParentError:
                parent_pre = None
            level = 0 if parent_pre is None else levels[parent_pre] + 1
            levels[pre] = level
            post = end_of[label] - level  # post = pre + size − 1 − level
            kind = node.kind
            kind_code = _CODE_BY_KIND[kind]
            tag = node.tag
            tag_id = tag_ids.get(tag)
            if tag_id is None:
                tag_id = len(tags)
                tag_ids[tag] = tag_id
                tags.append(tag)
            value = node.text if node.text else None
            accel_rows.append(
                (pre, post, level, parent_pre, kind_code, tag_id, value)
            )
            if kind is NodeKind.ELEMENT and node.attributes:
                attr_rows.extend(
                    (pre, attr_name, attr_value)
                    for attr_name, attr_value in sorted(node.attributes.items())
                )

        accel = self._accel
        connection = self.connection
        # One transaction for the whole shred, so a failure part-way
        # leaves no table behind: the sqlite3 module opens implicit
        # transactions only for DML, and each CREATE TABLE outside one
        # would commit on its own.
        connection.execute("SAVEPOINT shred")
        try:
            connection.execute(
                f"CREATE TABLE {accel} ("
                "pre INTEGER PRIMARY KEY, post INTEGER NOT NULL, "
                "level INTEGER NOT NULL, parent_pre INTEGER, "
                "kind INTEGER NOT NULL, tag_id INTEGER NOT NULL, value TEXT)"
            )
            connection.execute(
                f"CREATE TABLE {self._tags_table} "
                "(tag_id INTEGER PRIMARY KEY, tag TEXT NOT NULL)"
            )
            connection.execute(
                f"CREATE TABLE {self._attrs_table} "
                "(pre INTEGER NOT NULL, name TEXT NOT NULL, value TEXT NOT NULL)"
            )
            connection.execute(
                f"INSERT INTO {accel} VALUES (?, ?, ?, ?, ?, ?, ?)",
                (_META_PRE, generation, -1, None, _META_KIND, NO_RANK, scheme),
            )
            connection.executemany(
                f"INSERT INTO {accel} VALUES (?, ?, ?, ?, ?, ?, ?)", accel_rows
            )
            connection.executemany(
                f"INSERT INTO {self._tags_table} VALUES (?, ?)",
                list(enumerate(tags)),
            )
            connection.executemany(
                f"INSERT INTO {self._attrs_table} VALUES (?, ?, ?)", attr_rows
            )
            connection.execute(
                f"CREATE INDEX {_quoted(self.name + '__accel_tag')} "
                f"ON {accel}(tag_id, pre)"
            )
            connection.execute(
                f"CREATE INDEX {_quoted(self.name + '__accel_parent')} "
                f"ON {accel}(parent_pre)"
            )
            connection.execute(
                f"CREATE INDEX {_quoted(self.name + '__accel_post')} "
                f"ON {accel}(post)"
            )
            connection.execute(
                f"CREATE INDEX {_quoted(self.name + '__attrs_pre')} "
                f"ON {self._attrs_table}(pre)"
            )
            connection.execute("RELEASE shred")
        except BaseException as exc:
            connection.execute("ROLLBACK TO shred")
            connection.execute("RELEASE shred")
            if isinstance(exc, sqlite3.Error):
                raise StorageError(f"sqlite shred failed: {exc}") from exc
            raise
        connection.commit()

    def _fetch_meta(self) -> Tuple[int, str, int]:
        meta = self._execute_one(
            f"SELECT post, value FROM {self._accel} WHERE pre = ? AND kind = ?",
            (_META_PRE, _META_KIND),
        )
        if meta is None:
            raise StorageError(
                f"table {self.name}__accel carries no accel metadata"
            )
        count = self._execute_one(
            f"SELECT COUNT(*) FROM {self._accel} WHERE pre >= 0"
        )
        return int(meta[0]), meta[1], int(count[0])

    def _load_tags(self) -> List[str]:
        rows = self._execute_all(
            f"SELECT tag_id, tag FROM {self._tags_table} ORDER BY tag_id"
        )
        return [row[1] for row in rows]

    def _tag_id(self, tag: str) -> Optional[int]:
        return self._tag_ids.get(tag)

    # ------------------------------------------------------------------
    # Point probes
    # ------------------------------------------------------------------
    def _row(self, label: Label) -> Tuple:
        """(pre, post, level, parent_pre, kind, tag_id, value) for one
        label, LRU cached."""
        cache = self._row_cache
        row = cache.get(label)
        if row is not None:
            cache.move_to_end(label)
            return row
        self.stats.rank_probes += 1
        if isinstance(label, int) and not isinstance(label, bool) and label >= 0:
            row = self._execute_one(
                f"SELECT * FROM {self._accel} WHERE pre = ?", (label,)
            )
        else:
            row = None
        if row is None:
            raise UnknownLabelError(
                f"label {label!r} not in {self.name}__accel"
            )
        cache[label] = row
        if len(cache) > _ROW_CACHE_LIMIT:
            cache.popitem(last=False)
        return row

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._generation

    def size(self) -> int:
        return self._size

    def root_label(self) -> Label:
        return 0

    def rank_of(self, label: Label) -> int:
        # the dialect's labels *are* preorder ranks; validate membership
        self._row(label)
        return label

    def end_of(self, label: Label) -> int:
        row = self._row(label)
        return row[1] + row[2]  # end = post + level

    def label_at(self, rank: int) -> Label:
        self.stats.rank_probes += 1
        if 0 <= rank < self._size:
            return rank
        raise UnknownLabelError(f"no label at rank {rank}")

    def post_of(self, label: Label) -> int:
        """Postorder rank (the accel table's second coordinate)."""
        return self._row(label)[1]

    def level_of(self, label: Label) -> int:
        """Depth below the root element."""
        return self._row(label)[2]

    def _posts_of(self, pres: List[int]) -> List[int]:
        return [self._row(pre)[1] for pre in pres]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def parent_of(self, label: Label) -> Optional[Label]:
        self.stats.parent_hops += 1
        return self._row(label)[3]

    def children_of(self, label: Label) -> List[Label]:
        self.rank_of(label)  # membership check
        return [
            row[0]
            for row in self._execute_all(
                f"SELECT pre FROM {self._accel} WHERE parent_pre = ? "
                f"AND kind != {KIND_ATTRIBUTE} ORDER BY pre",
                (label,),
            )
        ]

    def attribute_labels(self, label: Label) -> List[Label]:
        self.rank_of(label)
        return [
            row[0]
            for row in self._execute_all(
                f"SELECT pre FROM {self._accel} WHERE parent_pre = ? "
                f"AND kind = {KIND_ATTRIBUTE} ORDER BY pre",
                (label,),
            )
        ]

    def descendant_labels(self, label: Label, or_self: bool = False) -> List[Label]:
        """One primary-key range scan: the pre/post window collapses to
        ``pre BETWEEN lo AND end`` because end = post + level."""
        row = self._row(label)
        low = label if or_self else label + 1
        high = row[1] + row[2]
        return [
            r[0]
            for r in self._execute_all(
                f"SELECT pre FROM {self._accel} WHERE pre BETWEEN ? AND ? "
                f"AND kind != {KIND_ATTRIBUTE} ORDER BY pre",
                (low, high),
            )
        ]

    def ancestor_labels(self, label: Label, or_self: bool = False) -> List[Label]:
        """The accelerator predicate itself: pre < pre(v) AND
        post > post(v), one SELECT, naturally root-first in pre order."""
        row = self._row(label)
        chain = [
            r[0]
            for r in self._execute_all(
                f"SELECT pre FROM {self._accel} WHERE pre >= 0 AND pre < ? "
                f"AND post > ? ORDER BY pre",
                (label, row[1]),
            )
        ]
        if or_self:
            chain.append(label)
        return chain

    # ------------------------------------------------------------------
    # Record fetch
    # ------------------------------------------------------------------
    def record(self, label: Label) -> NodeRecord:
        self.stats.fetches += 1
        row = self._row(label)
        return NodeRecord(
            label, self._tags[row[5]], _KIND_BY_CODE[row[4]], row[6]
        )

    def node_for(self, label: Label) -> XmlNode:
        node = self._node_cache.get(label)
        if node is not None:
            return node
        self.stats.fetches += 1
        row = self._row(label)
        kind = _KIND_BY_CODE[row[4]]
        attributes = None
        if kind is NodeKind.ELEMENT:
            pairs = self.attributes_of(label)
            if pairs:
                attributes = dict(pairs)
        node = XmlNode(self._tags[row[5]], kind, attributes=attributes, text=row[6])
        self._node_cache[label] = node
        self._label_by_id[node.node_id] = label
        self._order_by_id[node.node_id] = label  # label == preorder rank
        return node

    def label_for(self, node: XmlNode) -> Label:
        try:
            return self._label_by_id[node.node_id]
        except KeyError:
            raise UnknownLabelError(
                f"node {node!r} was not materialised by this store"
            ) from None

    # ------------------------------------------------------------------
    # Candidate enumeration — per-tag index-range scans
    # ------------------------------------------------------------------
    def labels_with_tag(self, tag: str) -> List[Label]:
        self.stats.tag_lookups += 1
        cached = self._tag_cache.get(tag)
        if cached is not None:
            return cached
        tag_id = self._tag_id(tag)
        if tag_id is None:
            labels: List[Label] = []
        else:
            # (tag_id, pre) index: one range scan, already in pre order
            labels = [
                row[0]
                for row in self._execute_all(
                    f"SELECT pre FROM {self._accel} WHERE tag_id = ? "
                    f"AND kind = {KIND_ELEMENT} ORDER BY pre",
                    (tag_id,),
                )
            ]
        self._tag_cache[tag] = labels
        return labels

    def tag_ranks(self, tag: str) -> Sequence[int]:
        self.stats.columnar_tag_scans += 1
        return array("q", self.labels_with_tag(tag))

    def parent_rank_array(self) -> Sequence[int]:
        """rank → parent rank as one flat buffer (one scan, cached) —
        what the evaluator's batched Python child step consumes when
        pushdown is disabled."""
        parents = self._parent_ranks
        if parents is None:
            parents = array("q")
            for row in self._execute_all(
                f"SELECT parent_pre FROM {self._accel} WHERE pre >= 0 "
                f"ORDER BY pre"
            ):
                parents.append(NO_RANK if row[0] is None else row[0])
            self._parent_ranks = parents
        return parents

    def _kind_labels(self, key: str, clause: str) -> List[Label]:
        cached = self._kind_cache.get(key)
        if cached is None:
            cached = [
                row[0]
                for row in self._execute_all(
                    f"SELECT pre FROM {self._accel} WHERE pre >= 0 "
                    f"AND {clause} ORDER BY pre"
                )
            ]
            self._kind_cache[key] = cached
        return cached

    def element_labels(self) -> List[Label]:
        return self._kind_labels("element", f"kind = {KIND_ELEMENT}")

    def text_labels(self) -> List[Label]:
        return self._kind_labels("text", f"kind = {KIND_TEXT}")

    def comment_labels(self) -> List[Label]:
        return self._kind_labels("comment", f"kind = {KIND_COMMENT}")

    def structural_labels(self) -> List[Label]:
        return self._kind_labels("structural", f"kind != {KIND_ATTRIBUTE}")

    def has_tag(self, tag: str) -> bool:
        # synopsis over *element* tags only — the tag dictionary also
        # holds '#text'-style names for untagged kinds
        tags = self._element_tags
        if tags is None:
            tags = {
                self._tags[row[0]]
                for row in self._execute_all(
                    f"SELECT DISTINCT tag_id FROM {self._accel} "
                    f"WHERE kind = {KIND_ELEMENT}"
                )
            }
            self._element_tags = tags
        return tag in tags

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def attributes_of(self, label: Label) -> Tuple[Tuple[str, str], ...]:
        self.rank_of(label)
        return tuple(
            (row[0], row[1])
            for row in self._execute_all(
                f"SELECT name, value FROM {self._attrs_table} WHERE pre = ? "
                f"ORDER BY name",
                (label,),
            )
        )

    def string_value(self, label: Label) -> str:
        row = self._row(label)
        kind = row[4]
        if kind in (KIND_TEXT, KIND_ATTRIBUTE, KIND_COMMENT):
            return row[6] or ""
        # element: join the subtree's text contributions in pre order —
        # one pk range scan
        return "".join(
            r[0] or ""
            for r in self._execute_all(
                f"SELECT value FROM {self._accel} WHERE pre BETWEEN ? AND ? "
                f"AND kind IN ({KIND_ELEMENT}, {KIND_TEXT}) "
                f"AND value IS NOT NULL ORDER BY pre",
                (label, row[1] + row[2]),
            )
        )

    # ------------------------------------------------------------------
    # Evaluation support
    # ------------------------------------------------------------------
    def order_by_id(self) -> Dict[int, int]:
        # live and growing, like the paged store's map
        return self._order_by_id

    def path_of(self, label: Label) -> str:
        chain = self.ancestor_labels(label, or_self=True)
        return "/" + "/".join(self._tags[self._row(entry)[5]] for entry in chain)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying connection (attached stores reopen from
        the file with zero re-shred)."""
        self.connection.close()

    def __repr__(self) -> str:
        return (
            f"<SqliteNodeStore {self.name!r} {self.scheme_name} "
            f"gen={self._generation} nodes={self._size} path={self.path!r}>"
        )
