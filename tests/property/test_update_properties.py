"""Property tests: area-local rUID updates equal full re-enumeration.

``Ruid2Updater`` re-enumerates only the UID-local area an edit lands
in and patches the frame, the label maps and K in place. The reference
is the whole-document build it replaced: ``enumerate_ruid2`` over the
same partition with the pre-edit global indices pinned and the pre-edit
local fan-outs sticky (falling back to fresh globals on a
``StickyGlobalConflict``). After every step the two must agree on every
label, the label → node inverse, K, κ, the sticky fan-outs, every
``RelabelReport`` field, and the frame's own maps.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Frame,
    Relation,
    Ruid2Labeling,
    Ruid2SchemeLabeling,
    Ruid2Updater,
    SizeCapPartitioner,
    diff_snapshots,
)
from repro.core.document import LabeledDocument
from repro.core.ruid import StickyGlobalConflict, enumerate_ruid2
from repro.generator import FanOutDistribution, RandomTreeConfig, generate_tree
from repro.xmltree import element, parse

STEP_KINDS = (
    "insert",
    "insert_subtree",
    "insert_at_area_root",
    "insert_at_leaf",
    "overflow",
    "delete",
    "delete_area_bearing",
)

tree_configs = st.builds(
    RandomTreeConfig,
    node_count=st.integers(min_value=2, max_value=160),
    fan_out=st.builds(
        FanOutDistribution,
        kind=st.just("uniform"),
        low=st.integers(min_value=1, max_value=2),
        high=st.integers(min_value=2, max_value=5),
    ),
)


# ----------------------------------------------------------------------
# The reference: the kept whole-document path
# ----------------------------------------------------------------------
class _Before:
    """What the reference needs from the labeling before an edit."""

    def __init__(self, labeling: Ruid2Labeling):
        frame = labeling.frame
        self.labels = labeling.snapshot()
        self.globals = {
            rid: labeling.global_of_area_root(frame.node(rid))
            for rid in labeling.area_root_ids
        }
        self.sticky = {
            rid: labeling.local_fan_out_of(rid) for rid in labeling.area_root_ids
        }
        self.kappa = labeling.kappa
        self.area_root_ids = set(labeling.area_root_ids)


def _reference(labeling: Ruid2Labeling, before: _Before):
    roots = labeling.area_root_ids
    pinned = {rid: g for rid, g in before.globals.items() if rid in roots}
    options = dict(min_kappa=before.kappa, min_local_fanouts=before.sticky)
    try:
        return enumerate_ruid2(labeling.tree, roots, fixed_globals=pinned, **options)
    except StickyGlobalConflict:
        return enumerate_ruid2(labeling.tree, roots, **options)


def _check_step(labeling, report, before, operation, removed_count=0):
    ref = _reference(labeling, before)

    # labels, the inverse map, K, κ, sticky fan-outs
    assert labeling.snapshot() == ref.label_by_node
    assert set(labeling.labels()) == set(ref.node_by_label)
    for label, node in ref.node_by_label.items():
        assert labeling.node_of(label) is node
    assert [r.as_tuple() for r in labeling.ktable] == [
        r.as_tuple() for r in ref.ktable
    ]
    assert labeling.kappa == ref.kappa
    assert {
        rid: labeling.local_fan_out_of(rid) for rid in labeling.area_root_ids
    } == ref.local_fanout_used

    # every report field
    expected_changed = {
        (c.node_id, c.old_label, c.new_label)
        for c in diff_snapshots(before.labels, ref.label_by_node)
    }
    changed = {(c.node_id, c.old_label, c.new_label) for c in report.changed}
    assert changed == expected_changed
    assert len(report.changed) == len(changed)
    assert report.overflow == any(
        ref.local_fanout_used[rid] > k
        for rid, k in before.sticky.items()
        if rid in ref.local_fanout_used
    )
    assert report.areas_touched == len({new.global_index for _, _, new in changed})
    assert report.kappa_changed == (ref.kappa != before.kappa)
    # the whole-document path runs exactly when the frame gained a root
    assert report.frame_renumbered == bool(labeling.area_root_ids - before.area_root_ids)
    assert report.operation == operation
    if operation == "insert":
        assert report.surviving_nodes == len(before.labels)
        assert report.inserted_count == len(ref.label_by_node) - len(before.labels)
    else:
        assert report.deleted_count == removed_count
        assert report.surviving_nodes == len(before.labels) - removed_count

    # the patched frame equals a fresh one over the same roots
    _assert_frame_equal(labeling.frame, Frame(labeling.tree, labeling.area_root_ids))
    assert labeling.frame.area_root_ids == labeling.area_root_ids


def _ids(nodes):
    return [n.node_id for n in nodes]


def _assert_frame_equal(patched: Frame, fresh: Frame) -> None:
    patched.validate()
    assert patched.area_root_ids == fresh.area_root_ids
    assert patched.areas.keys() == fresh.areas.keys()
    for rid, area in fresh.areas.items():
        assert _ids(patched.areas[rid].nodes) == _ids(area.nodes)
        assert _ids(patched.areas[rid].child_area_roots) == _ids(area.child_area_roots)
        assert patched.areas[rid].root is area.root
    assert patched.frame_parent == fresh.frame_parent
    assert {k: _ids(v) for k, v in patched.frame_children.items()} == {
        k: _ids(v) for k, v in fresh.frame_children.items()
    }
    assert patched.containing_area == fresh.containing_area
    assert patched._node_by_id == fresh._node_by_id


# ----------------------------------------------------------------------
# Edit plans
# ----------------------------------------------------------------------
def _subtree(tag: str, rng: random.Random):
    top = element(tag)
    for index in range(rng.randint(1, 4)):
        child = top.append_child(element(f"{tag}c{index}"))
        for inner in range(rng.randint(0, 3)):
            child.append_child(element(f"{tag}g{inner}"))
    return top


def _overflow_parent(labeling, rng):
    """A node whose area's committed local fan-out it already fills:
    one more child overflows that area."""
    frame = labeling.frame
    options = []
    for rid, area in frame.areas.items():
        k = labeling.local_fan_out_of(rid)
        boundary = set(_ids(area.child_area_roots))
        options.extend(
            node
            for node in area.nodes
            if node.node_id not in boundary and node.fan_out == k
        )
    return rng.choice(options) if options else None


def _apply(updater, kind, rng, step):
    """Run one edit; returns (report, operation, removed count), or None
    when the plan's step does not apply to this tree."""
    labeling = updater.labeling
    tree = labeling.tree
    nodes = tree.nodes()
    if kind.startswith("delete"):
        victims = [n for n in nodes if n is not tree.root]
        if kind == "delete_area_bearing":
            victims = [
                n for n in victims
                if any(d.node_id in labeling.area_root_ids for d in n.iter_subtree())
            ]
        if not victims or tree.size() < 4:
            return None
        victim = rng.choice(victims)
        size = victim.subtree_size()
        return updater.delete(victim), "delete", size
    if kind == "insert_at_area_root":
        parent = labeling.frame.node(rng.choice(sorted(labeling.area_root_ids)))
    elif kind == "insert_at_leaf":
        parent = rng.choice([n for n in nodes if not n.children])
    elif kind == "overflow":
        parent = _overflow_parent(labeling, rng)
        if parent is None:
            return None
    else:
        parent = rng.choice(nodes)
    new = _subtree(f"s{step}", rng) if kind == "insert_subtree" else element(f"n{step}")
    position = rng.randint(0, parent.fan_out)
    return updater.insert(parent, position, new), "insert", 0


def _run_plan(tree, cap, split_threshold, plan, seed):
    labeling = Ruid2Labeling(tree, partitioner=SizeCapPartitioner(cap))
    updater = Ruid2Updater(labeling, split_threshold=split_threshold)
    rng = random.Random(seed)
    for step, kind in enumerate(plan):
        before = _Before(labeling)
        applied = _apply(updater, kind, rng, step)
        if applied is None:
            continue
        report, operation, removed = applied
        _check_step(labeling, report, before, operation, removed)
    return labeling


class TestAreaLocalEqualsFull:
    @given(
        tree_configs,
        st.sampled_from([4, 16, 64]),
        st.sampled_from([None, 6]),
        st.lists(st.sampled_from(STEP_KINDS), min_size=1, max_size=10),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_edit_plans(self, config, cap, split_threshold, plan, seed):
        tree = generate_tree(config, seed=seed)
        _run_plan(tree, cap, split_threshold, plan, seed)

    @pytest.mark.parametrize("cap", [4, 16, 64])
    @pytest.mark.parametrize("split_threshold", [None, 6])
    def test_every_step_kind_on_one_document(self, cap, split_threshold):
        tree = generate_tree(
            RandomTreeConfig(
                node_count=300,
                fan_out=FanOutDistribution(kind="uniform", low=1, high=5),
            ),
            seed=cap,
        )
        _run_plan(tree, cap, split_threshold, STEP_KINDS * 4, seed=cap)

    def test_overflow_renumbers_one_area(self):
        tree = parse("<a><b><c/><c/><c/></b><d><e/><e/></d><f/></a>")
        labeling = Ruid2Labeling(tree, partitioner=SizeCapPartitioner(4))
        before = _Before(labeling)
        report = Ruid2Updater(labeling).insert(tree.root.children[0], 0, element("n"))
        assert report.overflow
        assert not report.frame_renumbered
        _check_step(labeling, report, before, "insert")

    def test_delete_removes_inner_areas_from_frame_and_k(self):
        tree = generate_tree(
            RandomTreeConfig(
                node_count=200,
                fan_out=FanOutDistribution(kind="uniform", low=2, high=4),
            ),
            seed=7,
        )
        labeling = Ruid2Labeling(tree, partitioner=SizeCapPartitioner(4))
        victim = tree.root.children[0]
        inner = {n.node_id for n in victim.iter_subtree()} & labeling.area_root_ids
        assert inner - {victim.node_id}, "the victim must hold whole areas"
        size = victim.subtree_size()
        before = _Before(labeling)
        report = Ruid2Updater(labeling).delete(victim)
        _check_step(labeling, report, before, "delete", size)
        assert not inner & labeling.area_root_ids
        assert len(labeling.ktable) == len(labeling.area_root_ids)


# ----------------------------------------------------------------------
# Identity-keyed caches see the copied K
# ----------------------------------------------------------------------
def _navigational(tree, node, axis):
    """The axis by walking the tree (document order; ancestors
    nearest first, as the axis engine returns them)."""
    if axis == "child":
        return list(node.children)
    if axis == "descendant":
        return list(node.descendants())
    if axis == "ancestor":
        return list(node.ancestors())
    if axis == "following-sibling":
        return node.following_siblings()
    if axis == "preceding-sibling":
        return node.preceding_siblings()
    order = tree.nodes()
    position = order.index(node)
    if axis == "following":
        return [n for n in order[position + 1:] if not node.is_ancestor_of(n)]
    return [n for n in order[:position] if not n.is_ancestor_of(node)]  # preceding


AXES = (
    "child",
    "descendant",
    "ancestor",
    "following",
    "preceding",
    "following-sibling",
    "preceding-sibling",
)


def _assert_axes_navigational(engine, labeling, tree):
    for node in tree.preorder():
        label = labeling.label_of(node)
        for axis in AXES:
            got = [labeling.node_of(hit) for hit in engine.axis(label, axis)]
            assert _ids(got) == _ids(_navigational(tree, node, axis)), (axis, node.tag)


def _assert_relation_navigational(adapter, tree):
    nodes = tree.nodes()
    order = tree.document_order_index()
    for first in nodes:
        for second in nodes:
            got = adapter.relation(adapter.label_of(first), adapter.label_of(second))
            if first is second:
                assert got is Relation.SELF
            elif first.is_ancestor_of(second):
                assert got is Relation.ANCESTOR
            elif second.is_ancestor_of(first):
                assert got is Relation.DESCENDANT
            elif order[first.node_id] < order[second.node_id]:
                assert got is Relation.PRECEDING
            else:
                assert got is Relation.FOLLOWING


class TestCachesFollowNewK:
    def test_overflow_through_shared_core_invalidates_axes_and_order(self):
        """Edits made through the updater, not through the document or
        the adapter, leave their cached AxisEngine / Ruid2Order in
        place; only K's identity tells them the state moved on."""
        tree = parse(
            "<a><b><c/><c/><c/></b><d><e><x/><y/></e><e/></d><f><g/></f></a>"
        )
        doc = LabeledDocument(tree, partitioner=SizeCapPartitioner(4))
        adapter = Ruid2SchemeLabeling.from_core(doc.labeling, doc.updater)
        # warm every identity-keyed cache
        _assert_axes_navigational(doc.axes, doc.labeling, tree)
        _assert_axes_navigational(adapter.axes, doc.labeling, tree)
        _assert_relation_navigational(adapter, tree)
        ktable = doc.labeling.ktable

        parent = tree.root.children[0]  # b: already at its area's fan-out
        report = doc.updater.insert(parent, 1, element("burst"))
        assert report.overflow and not report.frame_renumbered
        assert doc.labeling.ktable is not ktable

        _assert_axes_navigational(doc.axes, doc.labeling, tree)
        _assert_axes_navigational(adapter.axes, doc.labeling, tree)
        _assert_relation_navigational(adapter, tree)

    def test_delete_through_shared_core_invalidates_axes(self):
        tree = generate_tree(
            RandomTreeConfig(
                node_count=80,
                fan_out=FanOutDistribution(kind="uniform", low=1, high=4),
            ),
            seed=3,
        )
        doc = LabeledDocument(tree, partitioner=SizeCapPartitioner(4))
        adapter = Ruid2SchemeLabeling.from_core(doc.labeling, doc.updater)
        _assert_axes_navigational(adapter.axes, doc.labeling, tree)
        _assert_relation_navigational(adapter, tree)
        doc.updater.delete(tree.root.children[0])
        _assert_axes_navigational(doc.axes, doc.labeling, tree)
        _assert_axes_navigational(adapter.axes, doc.labeling, tree)
        _assert_relation_navigational(adapter, tree)
