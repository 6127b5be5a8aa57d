"""The 2-level recursive UID (rUID) numbering scheme — paper §2.1–2.3.

Construction follows the paper's four steps (Fig. 3):

1. partition the tree into UID-local areas and build the frame over
   their roots;
2. enumerate the frame with a κ-ary UID → *global indices*;
3. enumerate each area with its own kᵢ-ary UID → *local indices*;
4. compose the triple identifiers of Definition 3 and record table K.

:func:`enumerate_area` labels one area (steps 3-4 for that area). The
full build runs it for every area; an insert or delete
(:mod:`repro.core.update`) runs it for the one area the edit lands in
and patches the maps in place.

Once built, ``κ`` and ``K`` are the only state the identifier
arithmetic touches: :meth:`Ruid2Labeling.rparent` is the paper's Fig. 6
algorithm and never dereferences the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core import uid as uid_math
from repro.core.frame import Area, Frame
from repro.core.ktable import KRow, KTable
from repro.core.labels import Ruid2Label
from repro.core.partition import Partitioner, SizeCapPartitioner
from repro.errors import NoParentError, UnknownLabelError
from repro.xmltree.node import XmlNode
from repro.xmltree.tree import XmlTree


@dataclass
class _Enumeration:
    """Everything one enumeration pass produces."""

    frame: Frame
    kappa: int
    ktable: KTable = field(default_factory=KTable)
    label_by_node: Dict[int, Ruid2Label] = field(default_factory=dict)
    node_by_label: Dict[Ruid2Label, XmlNode] = field(default_factory=dict)
    global_by_root: Dict[int, int] = field(default_factory=dict)  # area-root node_id -> g
    root_by_global: Dict[int, XmlNode] = field(default_factory=dict)
    local_fanout_used: Dict[int, int] = field(default_factory=dict)  # root node_id -> k_i


class StickyGlobalConflict(Exception):
    """Preserved global indices cannot be honoured (ordinal overflow or
    a frame edge moved); the caller must fall back to a fresh global
    enumeration."""


def enumerate_ruid2(
    tree: XmlTree,
    area_root_ids: Set[int],
    min_kappa: int = 1,
    min_local_fanouts: Optional[Dict[int, int]] = None,
    fixed_globals: Optional[Dict[int, int]] = None,
) -> _Enumeration:
    """Run the Fig. 3 build algorithm over a fixed partition.

    ``min_kappa`` and ``min_local_fanouts`` (keyed by area-root node
    id) let callers keep previously committed fan-outs *sticky* across
    incremental updates: fan-outs only ever grow, as shrinking them
    would gratuitously renumber untouched nodes (§3.2).

    ``fixed_globals`` (area-root node id → global index) pins surviving
    areas to their previous global indices, so deleting an area does
    not shift its following siblings — the paper's deletion semantics
    ("the nodes in the descendant areas are not affected because the
    frame F is unchanged", §3.2). New areas take the lowest free child
    ordinals; if a pinned index is inconsistent with the current frame
    (edge moved, or ordinals exceed κ), :class:`StickyGlobalConflict`
    is raised and the caller falls back to a fresh enumeration.
    """
    frame = Frame(tree, area_root_ids)
    kappa = max(1, frame.max_fan_out(), min_kappa)
    sticky = min_local_fanouts or {}
    result = _Enumeration(frame=frame, kappa=kappa)

    # -- global enumeration (Fig. 3, lines 1-3) ------------------------
    root = tree.root
    pinned = fixed_globals or {}
    if pinned.get(root.node_id, 1) != 1:
        raise StickyGlobalConflict("the document root must keep global 1")
    result.global_by_root[root.node_id] = 1
    result.root_by_global[1] = root
    for area_root in frame.frame_levelorder():
        g = result.global_by_root[area_root.node_id]
        children = frame.frame_children[area_root.node_id]
        if len(children) > kappa:
            raise StickyGlobalConflict("frame fan-out exceeds committed kappa")
        taken: Dict[int, XmlNode] = {}
        for child_root in children:
            wanted = pinned.get(child_root.node_id)
            if wanted is None:
                continue
            if uid_math.parent(wanted, kappa) != g:
                raise StickyGlobalConflict(
                    f"pinned global {wanted} no longer hangs under {g}"
                )
            ordinal = uid_math.child_ordinal(wanted, kappa)
            if ordinal in taken:
                raise StickyGlobalConflict(f"ordinal collision under {g}")
            taken[ordinal] = child_root
        next_ordinal = 0
        for child_root in children:
            if child_root.node_id in pinned:
                child_g = pinned[child_root.node_id]
            else:
                while next_ordinal in taken:
                    next_ordinal += 1
                if next_ordinal >= kappa:
                    raise StickyGlobalConflict("no free child ordinal left")
                taken[next_ordinal] = child_root
                child_g = uid_math.child(g, kappa, next_ordinal)
            result.global_by_root[child_root.node_id] = child_g
            result.root_by_global[child_g] = child_root

    # -- local enumerations + identifier composition (Fig. 3, lines
    # 4-14): the tree root is (1, 1, true); every other node is labeled
    # by the one area that holds it as a non-root node.
    root_label = Ruid2Label(1, 1, True)
    result.label_by_node[root.node_id] = root_label
    result.node_by_label[root_label] = root
    for root_id, area in frame.areas.items():
        k_local = max(1, area.local_fan_out(), sticky.get(root_id, 0))
        result.local_fanout_used[root_id] = k_local
        g = result.global_by_root[root_id]
        for node, label in enumerate_area(area, k_local, g, result.global_by_root):
            result.label_by_node[node.node_id] = label
            result.node_by_label[label] = node

    # -- table K (Fig. 3, line 10): an area root's local index is the
    # one its upper area gave it
    result.ktable = KTable(
        [
            KRow(g, result.label_by_node[root_id].local_index,
                 result.local_fanout_used[root_id])
            for root_id, g in result.global_by_root.items()
        ]
    )
    return result


def enumerate_area(
    area: Area,
    k_local: int,
    global_index: int,
    global_by_root: Dict[int, int],
) -> List[Tuple[XmlNode, Ruid2Label]]:
    """Label one UID-local area with its kᵢ-ary UID (Fig. 3, lines 4-13).

    Returns ``(node, label)`` for every node of the area except its
    root, whose label belongs to the upper area. Interior nodes get
    ``(global_index, local, false)``; child-area roots, recognised by
    having a global index, get ``(their global, local, true)`` and
    stop the walk. The full build and the area-local update both label
    areas here, so the two cannot disagree.
    """
    pairs: List[Tuple[XmlNode, Ruid2Label]] = []
    frontier: List[Tuple[XmlNode, int]] = [(area.root, 1)]
    while frontier:
        next_frontier: List[Tuple[XmlNode, int]] = []
        for node, local in frontier:
            child_local = k_local * (local - 1) + 2  # uid.child(local, k, 0)
            for child in node.children:
                child_global = global_by_root.get(child.node_id)
                if child_global is None:
                    pairs.append((child, Ruid2Label(global_index, child_local, False)))
                    if child.children:
                        next_frontier.append((child, child_local))
                else:
                    pairs.append((child, Ruid2Label(child_global, child_local, True)))
                child_local += 1
        frontier = next_frontier
    return pairs


@dataclass
class Relabel:
    """What one update did to the labels of surviving nodes."""

    changes: List[Tuple[int, Ruid2Label, Ruid2Label]]  # (node_id, old, new)
    overflow: bool = False  # an area's committed local fan-out grew
    kappa_changed: bool = False
    frame_renumbered: bool = False  # the whole-document path ran


class Ruid2Labeling:
    """2-level rUID labels for every node of a tree.

    Parameters
    ----------
    tree:
        The document tree to label.
    partitioner:
        Strategy choosing the area roots; defaults to
        :class:`~repro.core.partition.SizeCapPartitioner` with a cap of
        64 nodes per area.
    min_kappa:
        Optional headroom for the frame fan-out κ.
    """

    scheme_name = "ruid2"

    def __init__(
        self,
        tree: XmlTree,
        partitioner: Optional[Partitioner] = None,
        min_kappa: int = 1,
    ):
        self.tree = tree
        self.partitioner = partitioner or SizeCapPartitioner(64)
        self._min_kappa = min_kappa
        self.area_root_ids: Set[int] = self.partitioner.partition(tree)
        self._state = enumerate_ruid2(
            tree, self.area_root_ids, min_kappa=min_kappa
        )
        #: enumeration generation: bumped whenever the label assignment
        #: may have changed (reenumerate/rebuild). Generation-stamped
        #: caches (rank index, rparent memo, axis/plan caches) key off it.
        self.generation = 0
        self._parent_memo: Dict[Ruid2Label, Ruid2Label] = {}

    # ------------------------------------------------------------------
    # Re-enumeration (used by incremental update, §3.2)
    # ------------------------------------------------------------------
    def reenumerate(self, keep_globals: bool = True) -> bool:
        """Re-run the build over the *current* partition.

        Committed fan-outs are sticky (they only grow), and — per the
        paper's §3.2 deletion semantics — surviving areas keep their
        global indices when possible. Returns True iff the pinning had
        to be abandoned (a whole-frame renumbering happened).

        The previous state's maps are replaced, never mutated, so a
        caller holding them can diff old against new.
        """
        pinned: Optional[Dict[int, int]] = None
        if keep_globals:
            pinned = {
                rid: g
                for rid, g in self._state.global_by_root.items()
                if rid in self.area_root_ids
            }
        # Committed fan-outs of areas that still exist; a deleted
        # subtree's areas drop out with the frame.
        sticky = self._state.local_fanout_used
        frame_renumbered = False
        try:
            self._state = enumerate_ruid2(
                self.tree,
                self.area_root_ids,
                min_kappa=max(self._min_kappa, self.kappa),
                min_local_fanouts=sticky,
                fixed_globals=pinned,
            )
        except StickyGlobalConflict:
            frame_renumbered = True
            self._state = enumerate_ruid2(
                self.tree,
                self.area_root_ids,
                min_kappa=max(self._min_kappa, self.kappa),
                min_local_fanouts=sticky,
            )
        self._invalidate_memos()
        return frame_renumbered

    def _invalidate_memos(self) -> None:
        self.generation += 1
        self._parent_memo.clear()

    def snapshot(self) -> Dict[int, Ruid2Label]:
        """node_id → label copy."""
        return dict(self._state.label_by_node)

    def local_fan_out_of(self, area_root_id: int) -> int:
        """The committed (sticky) local fan-out of an area."""
        return self._state.local_fanout_used[area_root_id]

    def rebuild(self) -> None:
        """Re-partition from scratch and re-enumerate (a full reorg)."""
        self.area_root_ids = self.partitioner.partition(self.tree)
        self._state = enumerate_ruid2(
            self.tree, self.area_root_ids, min_kappa=self._min_kappa
        )
        self._invalidate_memos()

    # ------------------------------------------------------------------
    # Area-local updates (§3.2): O(area) instead of O(n)
    # ------------------------------------------------------------------
    def relabel_after_insert(self, parent: XmlNode) -> Relabel:
        """Label nodes just inserted under *parent* (the frame is
        unchanged): they join the area *parent*'s children live in,
        and only that area is re-enumerated."""
        frame = self._state.frame
        if frame.is_area_root(parent):
            root_id = parent.node_id
        else:
            root_id = frame.containing_area[parent.node_id]
        frame.refresh_area(root_id)
        return self._relabel_area(root_id, ())

    def relabel_after_delete(self, node: XmlNode, removed: List[XmlNode]) -> Relabel:
        """Forget the subtree *removed* (rooted at *node*, already
        detached) and re-enumerate the one area that held *node*.
        Areas rooted inside the subtree leave the frame; surviving
        areas keep their global indices, so the frame is stable."""
        state = self._state
        frame = state.frame
        root_id = frame.containing_area[node.node_id]
        label_by_node = state.label_by_node
        node_by_label = state.node_by_label
        for gone in removed:
            del node_by_label[label_by_node.pop(gone.node_id)]
        removed_globals = []
        for gone_root in frame.remove_nodes(removed):
            g = state.global_by_root.pop(gone_root)
            del state.root_by_global[g]
            del state.local_fanout_used[gone_root]
            removed_globals.append(g)
            self.area_root_ids.discard(gone_root)
        frame.refresh_area(root_id)
        return self._relabel_area(root_id, removed_globals)

    def _relabel_area(self, root_id: int, removed_globals: Iterable[int]) -> Relabel:
        """Re-enumerate one area with its sticky local fan-out and patch
        the label maps in place. K is replaced, not mutated: order
        oracles and axis engines key their caches on its identity."""
        state = self._state
        area = state.frame.areas[root_id]
        committed = state.local_fanout_used[root_id]
        k_local = max(1, area.local_fan_out(), committed)
        g = state.global_by_root[root_id]
        label_by_node = state.label_by_node
        node_by_label = state.node_by_label
        changes: List[Tuple[int, Ruid2Label, Ruid2Label]] = []
        fresh: List[Tuple[XmlNode, Ruid2Label]] = []
        rows: List[KRow] = []
        for node, label in enumerate_area(area, k_local, g, state.global_by_root):
            node_id = node.node_id
            old = label_by_node.get(node_id)
            if old == label:
                continue
            if old is not None:
                changes.append((node_id, old, label))
                del node_by_label[old]
            label_by_node[node_id] = label
            fresh.append((node, label))
            if label.is_area_root:  # a child area's root moved: its K row too
                rows.append(
                    KRow(label.global_index, label.local_index,
                         state.local_fanout_used[node_id])
                )
        # Insert after all removals: a new label may be another node's
        # old one (right siblings shift left on delete).
        for node, label in fresh:
            node_by_label[label] = node
        if k_local != committed:
            state.local_fanout_used[root_id] = k_local
            rows.append(KRow(g, label_by_node[root_id].local_index, k_local))
        state.ktable = state.ktable.patched(rows, removed_globals)
        self._invalidate_memos()
        return Relabel(changes, overflow=k_local > committed)

    def relabel_frame(self) -> Relabel:
        """The whole-document path, for edits that change the frame
        (an area split): re-enumerate everything over the current
        partition and diff against the previous state."""
        before = self._state
        self.reenumerate()
        after = self._state
        new_labels = after.label_by_node
        changes = []
        for node_id, old in before.label_by_node.items():
            new = new_labels.get(node_id)
            if new is not None and new != old:
                changes.append((node_id, old, new))
        grown = after.local_fanout_used
        overflow = any(
            grown[root_id] > k
            for root_id, k in before.local_fanout_used.items()
            if root_id in grown
        )
        return Relabel(
            changes,
            overflow=overflow,
            kappa_changed=after.kappa != before.kappa,
            frame_renumbered=True,
        )

    # ------------------------------------------------------------------
    # Global parameters (the in-memory state, §2.1)
    # ------------------------------------------------------------------
    @property
    def kappa(self) -> int:
        """The frame fan-out κ."""
        return self._state.kappa

    @property
    def ktable(self) -> KTable:
        """The global parameter table K."""
        return self._state.ktable

    @property
    def frame(self) -> Frame:
        return self._state.frame

    def area_count(self) -> int:
        return len(self._state.ktable)

    # ------------------------------------------------------------------
    # Label lookups
    # ------------------------------------------------------------------
    def label_of(self, node: XmlNode) -> Ruid2Label:
        try:
            return self._state.label_by_node[node.node_id]
        except KeyError:
            raise UnknownLabelError(f"node {node!r} is not labeled") from None

    def node_of(self, label: Ruid2Label) -> XmlNode:
        try:
            return self._state.node_by_label[label]
        except KeyError:
            raise UnknownLabelError(f"label {label} names no real node") from None

    def exists(self, label: Ruid2Label) -> bool:
        return label in self._state.node_by_label

    def labels(self) -> Iterator[Ruid2Label]:
        return iter(self._state.node_by_label)

    def items(self) -> Iterator[Tuple[XmlNode, Ruid2Label]]:
        """(node, label) pairs in document order."""
        for node in self.tree.preorder():
            yield node, self._state.label_by_node[node.node_id]

    def area_root_node(self, global_index: int) -> XmlNode:
        try:
            return self._state.root_by_global[global_index]
        except KeyError:
            raise UnknownLabelError(f"no area with global index {global_index}") from None

    def global_of_area_root(self, node: XmlNode) -> int:
        try:
            return self._state.global_by_root[node.node_id]
        except KeyError:
            raise UnknownLabelError(f"{node!r} is not an area root") from None

    # ------------------------------------------------------------------
    # rparent — the paper's Fig. 6 algorithm (pure κ/K arithmetic)
    # ------------------------------------------------------------------
    def rparent(self, label: Ruid2Label) -> Ruid2Label:
        """Identifier of the parent node, computed entirely from κ and
        table K (Lemma 1). Raises :class:`NoParentError` at the root.

        Memoised per enumeration generation: the result is a pure
        function of (label, κ, K), and the memo is cleared whenever a
        re-enumeration can change κ or K."""
        memo = self._parent_memo
        parent = memo.get(label)
        if parent is None:
            parent = rparent(label, self.kappa, self.ktable)
            memo[label] = parent
        return parent

    def rancestors(self, label: Ruid2Label) -> List[Ruid2Label]:
        """Proper ancestors bottom-up (repetition of rparent, §3.5)."""
        result: List[Ruid2Label] = []
        current = label
        while not current.is_document_root:
            current = self.rparent(current)
            result.append(current)
        return result

    def is_ancestor(self, candidate: Ruid2Label, label: Ruid2Label) -> bool:
        """True iff *candidate* is a proper ancestor of *label*;
        determined via parent-chain arithmetic (§3.3)."""
        current = label
        while not current.is_document_root:
            current = self.rparent(current)
            if current == candidate:
                return True
        return False

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def label_bits(self, label: Ruid2Label) -> int:
        return label.bits()

    def max_label_bits(self) -> int:
        return max(label.bits() for label in self.labels())

    def memory_bytes(self) -> int:
        """Size of the in-memory global parameters (κ + K)."""
        return 8 + self.ktable.memory_bytes()

    def __len__(self) -> int:
        return len(self._state.label_by_node)

    def __repr__(self) -> str:
        return (
            f"<Ruid2Labeling nodes={len(self)} areas={self.area_count()} "
            f"kappa={self.kappa}>"
        )


def rparent(label: Ruid2Label, kappa: int, ktable: KTable) -> Ruid2Label:
    """The stand-alone Fig. 6 algorithm.

    Exposed at module level so that callers holding only the global
    parameters — e.g. a query processor that loaded κ and K but not the
    document — can run it, which is precisely the deployment the paper
    argues for (§2.2, "without any disk I/O").
    """
    if label.is_document_root:
        raise NoParentError("the document root (1, 1, true) has no parent")
    if label.is_area_root:
        g = uid_math.parent(label.global_index, kappa)
    else:
        g = label.global_index
    k_j = ktable.fan_out(g)
    local = (label.local_index - 2) // k_j + 1
    if local == 1:
        return Ruid2Label(g, ktable.local_of_root(g), True)
    return Ruid2Label(g, local, False)
