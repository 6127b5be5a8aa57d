"""E21 — the O(delta) write path (docs/CONCURRENCY.md).

Extends E16's readers-vs-writer story to the write path itself, in
four tables:

* **E21_writepath** — snapshot publish cost after a single-subtree
  edit, O(n) full rebuild (``StructuralView.from_labeling`` of the
  same generation) vs O(delta) chained
  :class:`~repro.concurrent.delta.DeltaView`, across document sizes.
  The tentpole claim: on the largest corpus the delta publish is
  >= 5x faster than the full rebuild it replaces (in practice it is
  orders of magnitude — the delta cost tracks the edit, not the
  document).
* **E21_fold** — the compaction fold at the default chain limit:
  folding a full delta chain into a full view by patching the base
  view's columns from the chain's edits
  (``StructuralView.from_edits``) vs rebuilding the same generation
  from the labeling. Every fold is checked column for column against
  the rebuild; the gate: the fold is >= 3x faster on the largest
  corpus.
* **E21_groupcommit** — concurrent disjoint-area writers under a WAL
  at group-commit batch sizes 1/2/4/8: logical commits vs physical
  syncs vs batch records. The gate: ``syncs < commits`` from batch
  size 4 up.
* **E21_area_writers** — the same writer fleet with and without
  area-scoped subtree locks: acquisitions, wait time, and per-area
  generation stamps from the ``concurrent.*`` metrics source.

Every table asserts agreement first: after the workload, the delta
chain's view is compared label-for-label against a fresh full
``StructuralView`` of the same generation.

Runs under pytest and as a standalone CI smoke::

    python benchmarks/bench_writepath.py --quick

``--quick`` runs small documents, writes ``E21_*_quick.txt`` tables
(the CI artifact), and asserts every gate.
"""

import argparse
import statistics
import threading
import time

import pytest

from conftest import emit, emits_table
from repro.concurrent import ConcurrentDocument, StructuralView
from repro.concurrent.document import DELTA_CHAIN_LIMIT
from repro.generator import generate_xmark
from repro.storage.wal import Wal
from repro.xmltree.node import NodeKind, XmlNode

#: xmark scales for the publish-cost sweep (largest last)
SCALES = (0.1, 0.3, 0.8)
QUICK_SCALES = (0.05, 0.15)
BATCH_SIZES = (1, 2, 4, 8)
EDITS_PER_DOC = 24
#: compaction folds timed per document in the E21_fold sweep
FOLDS_PER_DOC = 4
QUICK_FOLDS_PER_DOC = 3
#: every column of a full view (a fold must reproduce each exactly)
VIEW_COLUMNS = (
    "node_by_id", "rank", "end", "parent", "children", "position",
    "attr_children", "attrs", "ids_by_rank", "tag_ids", "element_ids",
    "text_ids", "comment_ids", "structural_ids", "structural_ranks",
    "parent_ranks", "string_values", "root",
)
WRITER_THREADS = 4
EDITS_PER_WRITER = 8


def _assert_chain_agrees(doc):
    """The delta chain answers label-for-label like a fresh rebuild."""
    reference = StructuralView.from_labeling(doc.labeling)
    with doc.pin() as snap:
        view = snap.view
        assert view.generation == reference.generation
        assert view.size() == reference.size()
        assert [view.label_at(r) for r in range(view.size())] == [
            reference.label_at(r) for r in range(reference.size())
        ], "delta chain diverged from full rebuild"


def _edit_targets(tree, count):
    """Cycle over top-level subtrees: each edit touches one subtree."""
    tops = [n for n in tree.root.children if n.kind == NodeKind.ELEMENT]
    return [tops[i % len(tops)] for i in range(count)]


# ----------------------------------------------------------------------
# E21_writepath: full-rebuild vs delta publish cost
# ----------------------------------------------------------------------
def _time_rebuild(labeling):
    """(ns, view) of an O(n) full rebuild of the current generation."""
    started = time.perf_counter_ns()
    view = StructuralView.from_labeling(labeling)
    return time.perf_counter_ns() - started, view


def run_publish_sweep(scales, sink=emit, experiment="E21_writepath",
                      edits=EDITS_PER_DOC):
    rows = []
    speedups = {}
    for scale in scales:
        tree = generate_xmark(scale=scale, seed=2101)
        nodes = sum(1 for _ in tree.preorder())
        doc = ConcurrentDocument(tree, scheme="ruid2",
                                 delta_chain_limit=edits + 1)
        with doc.pin():
            pass
        rebuild_ns = []
        for parent in _edit_targets(doc.tree, edits):
            doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
            # the baseline: rebuild the same generation from the labeling
            rebuild_ns.append(_time_rebuild(doc.labeling)[0])
        full_ns = statistics.mean(rebuild_ns)
        _unused, delta_hist = doc.build_histograms()
        delta_ns = delta_hist.mean
        assert delta_hist.count == edits, "an edit fell off the delta path"
        _assert_chain_agrees(doc)

        speedup = full_ns / delta_ns if delta_ns else float("inf")
        speedups[scale] = speedup
        stats = doc.stats_snapshot()
        rows.append(
            (
                scale,
                nodes,
                edits,
                round(full_ns / 1e3, 1),
                round(delta_ns / 1e3, 1),
                round(speedup, 1),
                int(stats["delta_chain_depth"]),
                "yes",
            )
        )
    sink(
        experiment,
        ("scale", "nodes", "edits", "full_publish_us", "delta_publish_us",
         "speedup", "chain_depth", "identical"),
        rows,
        "E21: snapshot publish cost per single-subtree edit, "
        "O(n) rebuild vs O(delta) chained view",
    )
    return rows, speedups


# ----------------------------------------------------------------------
# E21_fold: compaction fold from the chain's edits vs full rebuild
# ----------------------------------------------------------------------
def run_fold_sweep(scales, sink=emit, experiment="E21_fold",
                   folds=FOLDS_PER_DOC, chain_limit=DELTA_CHAIN_LIMIT):
    rows = []
    speedups = {}
    for scale in scales:
        tree = generate_xmark(scale=scale, seed=2101)
        nodes = sum(1 for _ in tree.preorder())
        doc = ConcurrentDocument(tree, scheme="ruid2",
                                 delta_chain_limit=chain_limit)
        with doc.pin():
            pass
        full_hist, _unused = doc.build_histograms()
        fold_ns, rebuild_ns = [], []
        for parent in _edit_targets(doc.tree, folds * (chain_limit + 1)):
            before = full_hist.total
            doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))
            if doc.stats_snapshot()["delta_chain_depth"]:
                continue  # chained, not folded
            fold_ns.append(full_hist.total - before)
            elapsed, reference = _time_rebuild(doc.labeling)
            rebuild_ns.append(elapsed)
            with doc.pin() as snap:
                folded = snap.view
                assert isinstance(folded, StructuralView)
                for column in VIEW_COLUMNS:
                    assert getattr(folded, column) == getattr(reference, column), (
                        f"fold diverged from the rebuild on {column}"
                    )
        assert len(fold_ns) == folds, "a compaction did not fold the chain"
        fold_median = statistics.median(fold_ns)
        rebuild_median = statistics.median(rebuild_ns)
        speedup = rebuild_median / fold_median
        speedups[scale] = speedup
        rows.append(
            (
                scale,
                nodes,
                chain_limit,
                folds,
                round(rebuild_median / 1e6, 2),
                round(fold_median / 1e6, 2),
                round(speedup, 1),
                "yes",
            )
        )
    sink(
        experiment,
        ("scale", "nodes", "chain_limit", "folds", "rebuild_ms", "fold_ms",
         "speedup", "identical"),
        rows,
        "E21: compaction fold of a full delta chain, patched from the "
        "chain's edits vs rebuilt from the labeling (medians)",
    )
    return rows, speedups


@emits_table
def test_e21_publish_sweep():
    _rows, speedups = run_publish_sweep(SCALES[:2])
    largest = SCALES[1]
    assert speedups[largest] >= 5.0, (
        f"delta publish only {speedups[largest]:.1f}x faster on the "
        f"largest corpus (need >= 5x)"
    )


@emits_table
def test_e21_fold_sweep():
    _rows, speedups = run_fold_sweep(SCALES[:2])
    largest = SCALES[1]
    assert speedups[largest] >= 3.0, (
        f"compaction fold only {speedups[largest]:.1f}x faster than the "
        f"rebuild on the largest corpus (need >= 3x)"
    )


# ----------------------------------------------------------------------
# E21_groupcommit: concurrent writers, one sync per batch
# ----------------------------------------------------------------------
def _writer_fleet(doc, threads=WRITER_THREADS, edits=EDITS_PER_WRITER):
    """N threads each editing its own top-level subtree."""
    tops = [n for n in doc.tree.root.children if n.kind == NodeKind.ELEMENT]
    assert len(tops) >= threads, "corpus too small for the writer fleet"

    def write_loop(parent):
        for _ in range(edits):
            doc.insert(parent, 0, XmlNode("item", NodeKind.ELEMENT))

    fleet = [
        threading.Thread(target=write_loop, args=(tops[i],))
        for i in range(threads)
    ]
    start = time.perf_counter()
    for t in fleet:
        t.start()
    for t in fleet:
        t.join(60.0)
    return time.perf_counter() - start


def run_group_commit_sweep(scale=0.15, sink=emit, experiment="E21_groupcommit",
                           batch_sizes=BATCH_SIZES):
    rows = []
    sync_ratio = {}
    for batch in batch_sizes:
        tree = generate_xmark(scale=scale, seed=2102)
        wal = Wal(group_commit_size=batch)
        doc = ConcurrentDocument(tree, scheme="ruid2", wal=wal,
                                 delta_chain_limit=64)
        doc.enable_area_locks(shard_count=WRITER_THREADS * 2)
        with doc.pin():
            pass
        elapsed = _writer_fleet(doc)
        wal.flush_commits()
        _assert_chain_agrees(doc)
        stats = wal.wal_stats
        sync_ratio[batch] = stats.syncs / stats.logical_commits
        rows.append(
            (
                batch,
                WRITER_THREADS,
                stats.logical_commits,
                stats.syncs,
                stats.batch_records,
                stats.max_batch,
                round(stats.syncs / stats.logical_commits, 2),
                round(elapsed * 1e3, 1),
                "yes",
            )
        )
    sink(
        experiment,
        ("batch", "writers", "commits", "syncs", "batch_records",
         "max_batch", "syncs_per_commit", "fleet_ms", "identical"),
        rows,
        f"E21: WAL group commit under {WRITER_THREADS} disjoint-area "
        f"writers ({EDITS_PER_WRITER} edits each)",
    )
    return rows, sync_ratio


@emits_table
def test_e21_group_commit_sweep():
    _rows, sync_ratio = run_group_commit_sweep()
    assert sync_ratio[1] == 1.0, "classic mode must sync per commit"
    for batch in (4, 8):
        assert sync_ratio[batch] < 1.0, (
            f"batch={batch}: syncs not below commits "
            f"(ratio {sync_ratio[batch]:.2f})"
        )


# ----------------------------------------------------------------------
# E21_area_writers: area locks vs the single global gate
# ----------------------------------------------------------------------
def run_area_writer_table(scale=0.15, sink=emit, experiment="E21_area_writers"):
    rows = []
    for mode in ("global", "area"):
        tree = generate_xmark(scale=scale, seed=2103)
        doc = ConcurrentDocument(tree, scheme="ruid2", delta_chain_limit=64)
        if mode == "area":
            doc.enable_area_locks(shard_count=WRITER_THREADS * 2)
        with doc.pin():
            pass
        elapsed = _writer_fleet(doc)
        _assert_chain_agrees(doc)
        stats = doc.stats_snapshot()
        rows.append(
            (
                mode,
                WRITER_THREADS,
                WRITER_THREADS * EDITS_PER_WRITER,
                round(elapsed * 1e3, 1),
                round(stats["writer_wait_ns"] / 1e6, 2),
                int(stats.get("area_lock_acquisitions", 0)),
                round(stats.get("area_lock_wait_ns", 0) / 1e6, 2),
                int(stats.get("area_generations_stamped", 0)),
                int(stats["snapshot_builds_delta"]),
                "yes",
            )
        )
    sink(
        experiment,
        ("mode", "writers", "edits", "fleet_ms", "rw_wait_ms",
         "area_acqs", "area_wait_ms", "areas_stamped", "delta_builds",
         "identical"),
        rows,
        "E21: writer fleet, global write gate vs area-scoped locks",
    )
    return rows


@emits_table
def test_e21_area_writer_table():
    rows = run_area_writer_table()
    by_mode = {row[0]: row for row in rows}
    # area mode actually locked areas and stamped generations
    assert by_mode["area"][5] > 0
    assert by_mode["area"][7] > 0
    # both modes published every edit as a delta
    assert by_mode["global"][8] == WRITER_THREADS * EDITS_PER_WRITER
    assert by_mode["area"][8] == WRITER_THREADS * EDITS_PER_WRITER


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small documents; writes E21_*_quick.txt (the CI artifact)",
    )
    args = parser.parse_args()
    suffix = "_quick" if args.quick else ""
    scales = QUICK_SCALES if args.quick else SCALES
    scale = 0.08 if args.quick else 0.15

    _rows, speedups = run_publish_sweep(
        scales, experiment=f"E21_writepath{suffix}",
        edits=12 if args.quick else EDITS_PER_DOC,
    )
    _rows_fold, fold_speedups = run_fold_sweep(
        scales, experiment=f"E21_fold{suffix}",
        folds=QUICK_FOLDS_PER_DOC if args.quick else FOLDS_PER_DOC,
    )
    _rows2, sync_ratio = run_group_commit_sweep(
        scale=scale, experiment=f"E21_groupcommit{suffix}"
    )
    run_area_writer_table(scale=scale, experiment=f"E21_area_writers{suffix}")

    largest = scales[-1]
    assert speedups[largest] >= 5.0, (
        f"delta publish only {speedups[largest]:.1f}x faster on the "
        f"largest corpus (need >= 5x)"
    )
    assert fold_speedups[largest] >= 3.0, (
        f"compaction fold only {fold_speedups[largest]:.1f}x faster than "
        f"the rebuild on the largest corpus (need >= 3x)"
    )
    assert sync_ratio[1] == 1.0
    for batch in (4, 8):
        assert sync_ratio[batch] < 1.0, (
            f"batch={batch}: wal_syncs not below commits"
        )
    print("\nok")


if __name__ == "__main__":
    main()
