"""Generation-stamped structural snapshots.

A :class:`StructuralView` freezes everything a query needs from one
labeling generation — document-order ranks, the parent/children maps,
per-tag candidate lists and the XPath string-values — into plain dicts
keyed by ``node_id``. Readers evaluate against the view while the
writer mutates the live tree: the view never follows a live
``parent``/``children`` pointer, so no interleaving of reader and
writer can produce a torn result. ``XmlNode`` objects themselves are
retained only for their immutable identity fields (``tag``, ``kind``,
``node_id``); structural updates move nodes but never rewrite those.

The build runs the numbering scheme's own machinery — the rank index
comes from :meth:`Labeling.rank_index` and every parent edge from
:meth:`Labeling.parent_label` arithmetic — so a view works for *any*
registered scheme, and a scheme whose arithmetic is wrong produces a
visibly wrong view. The differential test harness leans on exactly
that property.

:class:`SnapshotEvaluator` plugs a view under the shared
:class:`~repro.query.evaluator.BaseEvaluator` semantics. It keeps no
mutable per-query state, so one instance may serve many threads.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.columnar import NO_RANK
from repro.errors import NoParentError, QueryError, UnknownLabelError
from repro.query.evaluator import BaseEvaluator
from repro.query.stats import QueryStats
from repro.store.base import NodeRecord, NodeStore
from repro.xmltree.node import NodeKind, XmlNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.concurrent.delta import TreeEdit
    from repro.core.scheme import Labeling


class StructuralView(NodeStore):
    """One labeling generation, frozen for lock-free reading.

    Also the frozen-snapshot implementation of the
    :class:`~repro.store.base.NodeStore` protocol: labels are the
    ``node_id`` ints the view is keyed by, so protocol consumers
    (:class:`~repro.store.evaluator.StoreEvaluator`,
    :class:`~repro.query.twig.TwigMatcher`, physical counters) run
    against a pinned generation unchanged.
    """

    store_kind = "snapshot"
    supports_batched = True
    #: a full view terminates every delta chain (see concurrent/delta.py)
    chain_depth = 0

    __slots__ = (
        "generation",
        "scheme_name",
        "root",
        "node_by_id",
        "rank",
        "end",
        "parent",
        "children",
        "position",
        "attr_children",
        "attrs",
        "ids_by_rank",
        "tag_ids",
        "element_ids",
        "text_ids",
        "comment_ids",
        "structural_ids",
        "structural_ranks",
        "parent_ranks",
        "string_values",
        "_tag_rank_arrays",
    )

    def __init__(self, generation: int, scheme_name: str):
        super().__init__()  # the stats ledger
        self.generation = generation
        self.scheme_name = scheme_name
        self.root: Optional[XmlNode] = None
        #: node_id → the (immutable parts of the) node itself
        self.node_by_id: Dict[int, XmlNode] = {}
        #: node_id → preorder rank / subtree-end rank
        self.rank: Dict[int, int] = {}
        self.end: Dict[int, int] = {}
        #: node_id → parent node_id (None at the root), from scheme
        #: arithmetic — not from live pointers
        self.parent: Dict[int, Optional[int]] = {}
        #: node_id → structural children ids in document order
        self.children: Dict[int, List[int]] = {}
        #: node_id → position among its structural siblings
        self.position: Dict[int, int] = {}
        #: node_id → materialised attribute-node children ids
        self.attr_children: Dict[int, List[int]] = {}
        #: node_id → frozen ((name, value), ...) attribute pairs
        self.attrs: Dict[int, Tuple[Tuple[str, str], ...]] = {}
        #: every node_id in rank order (attributes included)
        self.ids_by_rank: List[int] = []
        #: element ids per tag, rank order — the candidate lists the
        #: batched evaluator and the parallel chunk scan consume
        self.tag_ids: Dict[str, List[int]] = {}
        self.element_ids: List[int] = []
        self.text_ids: List[int] = []
        self.comment_ids: List[int] = []
        #: rank-ordered ids excluding attribute nodes (the structural
        #: document the main axes range over)
        self.structural_ids: List[int] = []
        #: ranks of ``structural_ids``, same order — descendant slices
        #: are a bisect into this column plus one list slice
        self.structural_ranks = array("q")
        #: rank → parent's rank (NO_RANK at the root), every node
        self.parent_ranks = array("q")
        #: node_id → frozen XPath string-value
        self.string_values: Dict[int, str] = {}
        #: tag → rank array of its elements, built on first use; the
        #: build is idempotent, so a race between readers is benign
        self._tag_rank_arrays: Dict[str, array] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_labeling(cls, labeling: "Labeling") -> "StructuralView":
        """Freeze the current generation of *labeling*.

        Must run while the structure is quiescent (single-threaded, or
        under the concurrent document's read lock with the writer
        excluded).
        """
        generation = labeling.generation
        view = cls(generation, labeling.scheme_name)
        index = labeling.rank_index()
        size = len(index.rank)
        node_of = labeling.node_of
        parent_label = labeling.parent_label

        node_by_label = {}
        ids_by_rank: List[Optional[int]] = [None] * size
        for label, r in index.rank.items():
            node = node_of(label)
            node_by_label[label] = node
            nid = node.node_id
            view.node_by_id[nid] = node
            view.rank[nid] = r
            view.end[nid] = index.end[label]
            ids_by_rank[r] = nid
        if any(nid is None for nid in ids_by_rank):
            raise QueryError(
                f"{labeling.scheme_name}: rank index is not a permutation "
                f"of the document"
            )
        view.ids_by_rank = ids_by_rank  # type: ignore[assignment]

        # Parent edges from label arithmetic. A buggy scheme shows up
        # here (or as divergent query results), never as a torn view.
        for label, node in node_by_label.items():
            nid = node.node_id
            try:
                pl = parent_label(label)
            except NoParentError:
                view.parent[nid] = None
                view.root = node
                continue
            view.parent[nid] = node_of(pl).node_id
        if view.root is None:
            raise QueryError(
                f"{labeling.scheme_name}: no root label (parent_label "
                f"never raised NoParentError)"
            )

        # Children / candidate lists, in rank (= document) order.
        contribs: List[str] = []
        for nid in view.ids_by_rank:
            node = view.node_by_id[nid]
            kind = node.kind
            view.children[nid] = []
            pid = view.parent[nid]
            if kind is NodeKind.ATTRIBUTE:
                if pid is not None:
                    bucket = view.attr_children.setdefault(pid, [])
                    view.position[nid] = len(bucket)
                    bucket.append(nid)
                contribs.append("")
            else:
                if pid is not None:
                    siblings = view.children[pid]
                    view.position[nid] = len(siblings)
                    siblings.append(nid)
                else:
                    view.position[nid] = 0
                view.structural_ids.append(nid)
                if kind is NodeKind.ELEMENT:
                    view.element_ids.append(nid)
                    view.tag_ids.setdefault(node.tag, []).append(nid)
                elif kind is NodeKind.TEXT:
                    view.text_ids.append(nid)
                elif kind is NodeKind.COMMENT:
                    view.comment_ids.append(nid)
                contribs.append(
                    node.text
                    if kind in (NodeKind.TEXT, NodeKind.ELEMENT) and node.text
                    else ""
                )
            if kind is NodeKind.ELEMENT and node.attributes:
                view.attrs[nid] = tuple(sorted(node.attributes.items()))

        # Flat rank columns for the batched set-at-a-time evaluator:
        # aligned with structural_ids, plus a rank-indexed parent
        # column over every node (attributes included).
        rank_map = view.rank
        view.structural_ranks = array(
            "q", (rank_map[nid] for nid in view.structural_ids)
        )
        parent_map = view.parent
        view.parent_ranks = array(
            "q",
            (
                NO_RANK if parent_map[nid] is None else rank_map[parent_map[nid]]
                for nid in view.ids_by_rank
            ),
        )
        view.stats.columnar_builds += 1

        # Frozen string-values: rank order is document order, so an
        # element's value is the join of its subtree's contributions.
        for nid in view.ids_by_rank:
            node = view.node_by_id[nid]
            if node.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE, NodeKind.COMMENT):
                view.string_values[nid] = node.text or ""
            else:
                view.string_values[nid] = "".join(
                    contribs[view.rank[nid] : view.end[nid] + 1]
                )
        return view

    @classmethod
    def from_edits(
        cls,
        base: "StructuralView",
        edits: Sequence["TreeEdit"],
        generation: int,
    ) -> "StructuralView":
        """Fold a delta chain: the view *base* becomes under *edits*.

        *edits* run oldest first, each in the rank coordinates of the
        generation before it (the order a
        :class:`~repro.concurrent.delta.DeltaView` chain stacks them).
        An edit splices ``ids_by_rank`` at its cut; every other column
        is a copy of the base's patched from the edit's tables, and the
        rank columns are re-derived from the new order. Only the
        string-values of the edit points' ancestors are re-joined. The
        base view is never mutated: pinned readers may still hold it.
        """
        view = cls(generation, base.scheme_name)
        view.root = base.root
        ids = list(base.ids_by_rank)
        node_by_id = base.node_by_id.copy()
        parent = base.parent.copy()
        children = base.children.copy()
        position = base.position.copy()
        attr_children = base.attr_children.copy()
        attrs = base.attrs.copy()
        string_values = base.string_values.copy()
        # the chain's inserts per kind list and per tag, and the tags
        # an edit touched (every other tag list is shared as is)
        added: Dict[str, List[int]] = {
            "structural": [], "element": [], "text": [], "comment": []
        }
        added_tags: Dict[str, List[int]] = {}
        touched_tags = set()
        dirty = set()
        deleted = False

        def number(kids: List[int]) -> None:
            for index, kid in enumerate(kids):
                position[kid] = index

        for edit in edits:
            cut = edit.cut
            if edit.shift > 0:
                ids[cut:cut] = edit.ins_ids
                node_by_id.update(edit.ins_nodes)
                parent.update(edit.ins_parent)
                children.update(edit.ins_children)
                attrs.update(edit.ins_attrs)
                string_values.update(edit.ins_values)
                for nid, kids in edit.ins_children.items():
                    number(kids)
                    attr_kids = edit.ins_attr_children[nid]
                    if attr_kids:
                        attr_children[nid] = attr_kids
                        number(attr_kids)
                added["structural"].extend(edit.ins_structural)
                added["element"].extend(edit.ins_element)
                added["text"].extend(edit.ins_text)
                added["comment"].extend(edit.ins_comment)
                for tag, inserted in edit.ins_tag_ids.items():
                    added_tags.setdefault(tag, []).extend(inserted)
                    touched_tags.add(tag)
            else:
                del ids[cut : cut - edit.shift]
                for nid in edit.gone:
                    del node_by_id[nid]
                    del parent[nid]
                    del children[nid]
                    del position[nid]
                    del string_values[nid]
                    attr_children.pop(nid, None)
                    attrs.pop(nid, None)
                deleted = True
                touched_tags.update(edit.gone_tags)
            for pid, kids in edit.children_override.items():
                children[pid] = kids
                number(kids)
            for pid, kids in edit.attr_children_override.items():
                if kids:
                    attr_children[pid] = kids
                    number(kids)
                else:
                    attr_children.pop(pid, None)
            dirty |= edit.dirty_values

        rank = dict(zip(ids, range(len(ids))))

        def merged(base_list: List[int], inserted: Sequence[int]) -> List[int]:
            # survivors keep their relative order; the chain's inserts
            # (minus any it deleted again) sort in by their new rank
            out = [nid for nid in base_list if nid in rank] if deleted else list(base_list)
            if inserted:
                out.extend(nid for nid in inserted if nid in rank)
                out.sort(key=rank.__getitem__)
            return out

        view.structural_ids = merged(base.structural_ids, added["structural"])
        view.element_ids = merged(base.element_ids, added["element"])
        view.text_ids = merged(base.text_ids, added["text"])
        view.comment_ids = merged(base.comment_ids, added["comment"])
        tag_ids = base.tag_ids.copy()
        for tag in touched_tags:
            patched = merged(tag_ids.get(tag, []), added_tags.get(tag, ()))
            if patched:
                tag_ids[tag] = patched
            else:
                tag_ids.pop(tag, None)

        # Rank columns from the new order: parent ranks in one pass
        # (the root's parent, None, misses ``rank``), then each
        # subtree's last rank in one reverse pass — a node's children
        # all sit after it in preorder, so they are final before it.
        parent_ranks = array(
            "q", map(rank.get, map(parent.__getitem__, ids), repeat(NO_RANK))
        )
        last = list(range(len(ids)))
        for r in range(len(ids) - 1, 0, -1):
            p = parent_ranks[r]
            if last[p] < last[r]:
                last[p] = last[r]

        # Re-join only the string-values an edit changed; the rest
        # carried over with the copy.
        textual = (NodeKind.TEXT, NodeKind.ELEMENT)
        contribs = [
            node.text if node.kind in textual and node.text else ""
            for node in map(node_by_id.__getitem__, ids)
        ]
        for nid in dirty:
            r = rank.get(nid)
            if r is not None:
                string_values[nid] = "".join(contribs[r : last[r] + 1])

        view.node_by_id = node_by_id
        view.rank = rank
        view.end = dict(zip(ids, last))
        view.parent = parent
        view.children = children
        view.position = position
        view.attr_children = attr_children
        view.attrs = attrs
        view.ids_by_rank = ids
        view.tag_ids = tag_ids
        view.structural_ranks = array("q", map(rank.__getitem__, view.structural_ids))
        view.parent_ranks = parent_ranks
        view.string_values = string_values
        view.stats.columnar_builds += 1
        return view

    # ------------------------------------------------------------------
    def node(self, nid: int) -> XmlNode:
        return self.node_by_id[nid]

    def nodes(self, ids: Sequence[int]) -> List[XmlNode]:
        node_by_id = self.node_by_id
        return [node_by_id[nid] for nid in ids]

    def __len__(self) -> int:
        return len(self.node_by_id)

    def __contains__(self, nid: int) -> bool:
        return nid in self.node_by_id

    def descendant_slice(self, nid: int, or_self: bool = False) -> List[int]:
        """Structural descendants of *nid* in document order: one
        bisect into the structural rank column, one list slice — no
        per-node kind checks."""
        self.stats.columnar_slices += 1
        structural_ranks = self.structural_ranks
        locate = bisect_left if or_self else bisect_right
        lo = locate(structural_ranks, self.rank[nid])
        hi = bisect_right(structural_ranks, self.end[nid])
        return self.structural_ids[lo:hi]

    # ------------------------------------------------------------------
    # NodeStore protocol (labels are node_ids)
    # ------------------------------------------------------------------
    def size(self) -> int:
        return len(self.node_by_id)

    def root_label(self) -> int:
        return self.root.node_id

    def rank_of(self, label: int) -> int:
        try:
            return self.rank[label]
        except KeyError:
            raise UnknownLabelError(f"node id {label!r} not in this view") from None

    def end_of(self, label: int) -> int:
        try:
            return self.end[label]
        except KeyError:
            raise UnknownLabelError(f"node id {label!r} not in this view") from None

    def label_at(self, rank: int) -> int:
        try:
            return self.ids_by_rank[rank]
        except IndexError:
            raise UnknownLabelError(f"no node at rank {rank}") from None

    def parent_of(self, label: int) -> Optional[int]:
        self.stats.parent_hops += 1
        return self.parent[label]

    def children_of(self, label: int) -> List[int]:
        return self.children[label]

    def record(self, label: int) -> NodeRecord:
        self.stats.fetches += 1
        node = self.node_by_id[label]
        return NodeRecord(label, node.tag, node.kind, node.text)

    def node_for(self, label: int) -> XmlNode:
        self.stats.fetches += 1
        return self.node_by_id[label]

    def label_for(self, node: XmlNode) -> int:
        nid = node.node_id
        if nid not in self.node_by_id:
            raise UnknownLabelError(f"node {node!r} is not in this view")
        return nid

    def labels_with_tag(self, tag: str) -> List[int]:
        self.stats.tag_lookups += 1
        return self.tag_ids.get(tag, [])

    def tag_ranks(self, tag: str) -> Sequence[int]:
        self.stats.columnar_tag_scans += 1
        cached = self._tag_rank_arrays.get(tag)
        if cached is None:
            rank_map = self.rank
            cached = array("q", (rank_map[nid] for nid in self.tag_ids.get(tag, ())))
            self._tag_rank_arrays[tag] = cached
        return cached

    def parent_rank_array(self) -> Sequence[int]:
        return self.parent_ranks

    def element_labels(self) -> List[int]:
        return self.element_ids

    def text_labels(self) -> List[int]:
        return self.text_ids

    def comment_labels(self) -> List[int]:
        return self.comment_ids

    def structural_labels(self) -> List[int]:
        return self.structural_ids

    def attributes_of(self, label: int) -> Tuple[Tuple[str, str], ...]:
        return self.attrs.get(label, ())

    def attribute_labels(self, label: int) -> List[int]:
        return self.attr_children.get(label, [])

    def string_value(self, label: int) -> str:
        return self.string_values[label]

    def order_by_id(self) -> Dict[int, int]:
        return self.rank

    def descendant_labels(self, label: int, or_self: bool = False) -> List[int]:
        return self.descendant_slice(label, or_self=or_self)

    def structural_labels_between(self, low: int, high: int) -> List[int]:
        """Structural labels with rank in ``[low, high]`` (inclusive),
        document order: a bisect into the rank column plus one slice —
        the interval primitive delta views compose around their splice
        point."""
        self.stats.columnar_slices += 1
        structural_ranks = self.structural_ranks
        lo = bisect_left(structural_ranks, low)
        hi = bisect_right(structural_ranks, high)
        return self.structural_ids[lo:hi]

    def __repr__(self) -> str:
        return (
            f"<StructuralView {self.scheme_name} gen={self.generation} "
            f"nodes={len(self.node_by_id)}>"
        )


class SnapshotEvaluator(BaseEvaluator):
    """XPath evaluation against a frozen :class:`StructuralView`.

    Every axis, order comparison and string-value is answered from the
    view's dicts; the live tree is never consulted, so this evaluator
    is safe to run while a writer mutates the document. It also keeps
    no mutable caches, so a single instance may be shared by all the
    threads of a batch.
    """

    strategy_name = "snapshot"
    route_name = "snapshot"

    def __init__(self, view: StructuralView, stats: Optional[QueryStats] = None):
        # Deliberately no super().__init__: BaseEvaluator would bind a
        # live tree; everything it reads through self.tree is
        # overridden below.
        self.view = view
        self.tree = None  # any accidental live-tree access fails loudly
        self.stats = stats if stats is not None else QueryStats()
        self.tracer = None
        # the view is frozen and doc_order() is only read: share it
        self._doc_order = view.rank
        self.document_node = XmlNode("#document", NodeKind.DOCUMENT)

    # -- BaseEvaluator hooks ------------------------------------------------
    def doc_order(self) -> Dict[int, int]:
        return self._doc_order

    def select(self, expr, context: Optional[XmlNode] = None) -> List[XmlNode]:
        context = context if context is not None else self.view.root
        result = self._eval(expr, context, 1, 1)
        if not isinstance(result, list):
            raise QueryError(f"expression yields a {type(result).__name__}, not nodes")
        return result

    def evaluate(self, expr, context: Optional[XmlNode] = None):
        context = context if context is not None else self.view.root
        return self._eval(expr, context, 1, 1)

    def string_value_of(self, node: XmlNode) -> str:
        frozen = self.view.string_values.get(node.node_id)
        if frozen is not None:
            return frozen
        # Transient attribute node synthesized by this evaluator: its
        # text was frozen at synthesis time.
        return node.text or ""

    def _document_axis(self, axis: str) -> List[XmlNode]:
        view = self.view
        if axis == "child":
            return [view.root]
        if axis == "descendant":
            return view.nodes(view.structural_ids)
        if axis == "descendant-or-self":
            return [self.document_node, *view.nodes(view.structural_ids)]
        if axis == "self":
            return [self.document_node]
        return []

    # -- axes ---------------------------------------------------------------
    def axis_nodes(self, node: XmlNode, axis: str) -> List[XmlNode]:
        view = self.view
        nid = node.node_id
        if axis == "attribute":
            return self._attribute_nodes(node)
        if nid not in view.node_by_id:
            return self._transient_axis(node, axis)
        if axis == "self":
            return [node]
        if axis == "parent":
            pid = view.parent[nid]
            return [view.node(pid)] if pid is not None else []
        if axis in ("ancestor", "ancestor-or-self"):
            chain: List[XmlNode] = [node] if axis == "ancestor-or-self" else []
            pid = view.parent[nid]
            while pid is not None:
                chain.append(view.node(pid))
                pid = view.parent[pid]
            chain.reverse()  # root first, matching the navigational axes
            return chain
        if axis == "child":
            return view.nodes(view.children[nid])
        if axis in ("descendant", "descendant-or-self"):
            return view.nodes(
                view.descendant_slice(nid, or_self=axis == "descendant-or-self")
            )
        if axis in ("following-sibling", "preceding-sibling"):
            pid = view.parent[nid]
            if pid is None:
                return []
            siblings = view.children[pid]
            pos = view.position[nid]
            if axis == "following-sibling":
                return view.nodes(siblings[pos + 1 :])
            return view.nodes(siblings[:pos])
        if axis == "following":
            after = view.end[nid] + 1
            return view.nodes(
                [
                    i
                    for i in view.ids_by_rank[after:]
                    if view.node_by_id[i].kind is not NodeKind.ATTRIBUTE
                ]
            )
        if axis == "preceding":
            ancestors = set()
            pid = view.parent[nid]
            while pid is not None:
                ancestors.add(pid)
                pid = view.parent[pid]
            before = view.rank[nid]
            return view.nodes(
                [
                    i
                    for i in view.ids_by_rank[:before]
                    if i not in ancestors
                    and view.node_by_id[i].kind is not NodeKind.ATTRIBUTE
                ]
            )
        from repro.errors import UnsupportedFeatureError

        raise UnsupportedFeatureError(f"unsupported axis {axis!r}")

    def _transient_axis(self, node: XmlNode, axis: str) -> List[XmlNode]:
        """Axes from a synthesized attribute node (outside the view)."""
        if axis == "self":
            return [node]
        parent = node.parent
        if parent is None:
            return []
        if axis == "parent":
            return [parent]
        if axis in ("ancestor", "ancestor-or-self"):
            chain = self.axis_nodes(parent, "ancestor-or-self")
            if axis == "ancestor-or-self":
                chain = [*chain, node]
            return chain
        return []

    def _attribute_nodes(self, node: XmlNode) -> List[XmlNode]:
        view = self.view
        nid = node.node_id
        materialised = view.attr_children.get(nid)
        if materialised:
            return view.nodes(materialised)
        created: List[XmlNode] = []
        for name, value in view.attrs.get(nid, ()):
            attr = XmlNode(name, NodeKind.ATTRIBUTE, text=value)
            attr.parent = node  # navigable but not inserted as a child
            created.append(attr)
        return created
