"""E1 + E5 — structural-update robustness (paper Fig. 1, §3.2).

E1 replays the paper's Fig. 1 insertion and pins the exact relabel set.
E5 generalises it: a seeded insert/delete workload is replayed under
every updatable scheme over identical copies of the document, and the
exact relabel scopes are tabulated. The expected shape (§3.2): rUID's
scope is bounded by the area size — "reduced by a magnitude of two" —
while UID relabels right-sibling subtrees and renumbers the whole
document on fan-out overflow, and pre/post-style schemes shift about
half the document per update.

E5_update_cost times what the counts promise: ms per ``ruid2`` edit
at two XMark sizes (≈1.2k and ≈4.8k nodes, the same seeded workload),
with every edit's relabel count checked against a twin document that
re-enumerates in full after each edit. Runs under pytest and as a
standalone CI gate::

    python benchmarks/bench_update.py --quick

The gate: the p50 per edit at 4x the nodes is at most 1.5x the p50 at
1x (the cost is flat in n), and every per-edit relabel count equals
the full re-enumeration's.
"""

import argparse
import statistics
import time

import pytest

from conftest import emit, emits_table
from repro.analysis import RELABEL_HEADERS, run_workload_per_scheme
from repro.baselines import get_scheme
from repro.core import (
    Ruid2Labeling,
    SizeCapPartitioner,
    UidLabeling,
    UidUpdater,
    diff_snapshots,
)
from repro.generator import (
    UpdateWorkloadConfig,
    apply_workload,
    fig1_tree,
    generate_update_workload,
    generate_xmark,
)
from repro.xmltree import element

_UPDATE_SCHEMES = [
    ("uid", {}),
    ("ruid2", {"max_area_size": 16}),
    ("ruid2", {"max_area_size": 64}),
    ("dewey", {}),
    ("ordpath", {}),
    ("prepost", {}),
    ("region", {"gap": 8}),
    ("posdepth", {}),
]


#: XMark scales of the two documents (≈1.2k and ≈4.8k nodes)
COST_SCALES = (0.2, 0.8)
COST_SEED = 12
#: workload length and timing repeats (full, quick)
COST_EDITS = {False: 300, True: 120}
COST_REPEATS = {False: 9, True: 7}
#: the flat-in-n gate: p50 at 4x the nodes over p50 at 1x
COST_GROWTH_LIMIT = 1.5
AREA_CAP = 64  # the ruid2 registry default


def _replay(tree, ops):
    """One replay through ``Labeling.insert/delete``: ms per edit and
    the per-edit relabel counts."""
    labeling = get_scheme("ruid2", max_area_size=AREA_CAP).build(tree.copy())
    times = []

    def timed(method):
        def call(*args):
            started = time.perf_counter()
            report = method(*args)
            times.append((time.perf_counter() - started) * 1e3)
            return report
        return call

    reports = list(apply_workload(
        labeling.tree, ops, timed(labeling.insert), timed(labeling.delete)
    ))
    return times, [report.relabeled_count for report in reports]


def _reference_counts(tree, ops):
    """Per-edit relabel counts of the whole-document path: the same
    partition and edits, re-enumerated in full after every edit."""
    twin = tree.copy()
    labeling = Ruid2Labeling(twin, partitioner=SizeCapPartitioner(AREA_CAP))

    def full(mutate):
        before = labeling.snapshot()
        mutate()
        labeling.reenumerate()
        return len(diff_snapshots(before, labeling.snapshot()))

    def insert(parent, position, node):
        return full(lambda: twin.insert_node(parent, position, node))

    def delete(node):
        def cut():
            removed = twin.delete_subtree(node)
            labeling.area_root_ids -= {n.node_id for n in removed}
        return full(cut)

    return list(apply_workload(twin, ops, insert, delete))


def run_update_cost(quick=False, sink=emit, experiment="E5_update_cost"):
    """E5_update_cost: ms per ruid2 edit at two document sizes, with
    exact relabel counts checked against full re-enumeration."""
    edits = COST_EDITS[quick]
    config = UpdateWorkloadConfig(operations=edits, insert_fraction=0.8)
    docs = []
    for scale in COST_SCALES:
        tree = generate_xmark(scale=scale, seed=COST_SEED)
        docs.append((tree, generate_update_workload(tree, config, seed=5)))
    # Each edit's time is its fastest over the replays; the sizes take
    # turns, so a slow spell of the host does not land on one size only.
    best = [None] * len(docs)
    counts = [None] * len(docs)
    for _ in range(COST_REPEATS[quick]):
        for index, (tree, ops) in enumerate(docs):
            times, counts[index] = _replay(tree, ops)
            if best[index] is not None:
                times = [min(a, b) for a, b in zip(best[index], times)]
            best[index] = times
    rows = []
    p50s = []
    for (tree, ops), times, got in zip(docs, best, counts):
        assert got == _reference_counts(tree, ops), (
            f"{tree.size()} nodes: area-local relabel counts diverge from "
            f"full re-enumeration"
        )
        p50 = statistics.median(times)
        p50s.append(p50)
        rows.append(
            (
                tree.size(),
                edits,
                round(p50, 3),
                round(sorted(times)[int(0.95 * (len(times) - 1))], 3),
                round(sum(got) / len(got), 2),
                "yes",
            )
        )
    growth = p50s[1] / p50s[0]
    sink(
        experiment,
        ("nodes", "edits", "p50_ms", "p95_ms", "mean_relabeled", "counts_equal_full"),
        rows,
        f"E5: ms per ruid2 edit (a{AREA_CAP}, 80% inserts, fastest of "
        f"{COST_REPEATS[quick]} replays); p50 growth at "
        f"{rows[1][0] / rows[0][0]:.1f}x the nodes: {growth:.2f}x",
    )
    return growth


def _cost_gate(growth):
    assert growth <= COST_GROWTH_LIMIT, (
        f"p50 per edit grew {growth:.2f}x at 4x the nodes "
        f"(limit {COST_GROWTH_LIMIT}x): edits are not area-local"
    )


@emits_table
def test_e5_update_cost():
    _cost_gate(run_update_cost())


@emits_table
def test_e1_fig1_replay():
    """The paper's exact worked example."""
    tree = fig1_tree()
    labeling = UidLabeling(tree, fan_out=3)
    report = UidUpdater(labeling).insert(tree.root, 1, element("new"))
    moves = {c.old_label: c.new_label for c in report.changed}
    assert moves == {3: 4, 8: 11, 9: 12, 23: 32, 26: 35, 27: 36}
    emit(
        "E1_fig1",
        ("old_uid", "new_uid"),
        sorted(moves.items()),
        "E1: Fig. 1 insertion between nodes 2 and 3 (k=3) — relabeled identifiers",
    )


@pytest.fixture(scope="module")
def workload(xmark_bench_tree):
    return generate_update_workload(
        xmark_bench_tree,
        UpdateWorkloadConfig(operations=120, insert_fraction=0.8),
        seed=5,
    )


@emits_table
def test_e5_relabel_scope_table(xmark_bench_tree, workload):
    schemes = []
    labels = []
    for name, options in _UPDATE_SCHEMES:
        scheme = get_scheme(name, **options)
        # distinguish the two rUID area budgets in the table
        if name == "ruid2":
            scheme.name = f"ruid2/a{options['max_area_size']}"
        schemes.append(scheme)
        labels.append(scheme.name)
    summaries = run_workload_per_scheme(xmark_bench_tree, schemes, workload)
    emit(
        "E5_relabel",
        RELABEL_HEADERS,
        [s.as_row() for s in summaries],
        "E5: relabel scope, 120 ops (80% inserts) on ~2k-node XMark-like doc",
    )
    by_name = {s.scheme: s for s in summaries}
    # the paper's ordering must hold
    assert by_name["ruid2/a16"].mean_relabeled <= by_name["uid"].mean_relabeled
    assert by_name["ruid2/a16"].mean_relabeled < by_name["prepost"].mean_relabeled
    # smaller areas → smaller scope
    assert by_name["ruid2/a16"].mean_relabeled <= by_name["ruid2/a64"].mean_relabeled * 1.5


@pytest.mark.parametrize(
    "scheme_name,options",
    [("uid", {}), ("ruid2", {"max_area_size": 16}), ("dewey", {}), ("prepost", {})],
)
def test_update_throughput(benchmark, xmark_bench_tree, workload, scheme_name, options):
    """Wall-clock cost of replaying the workload under each scheme."""
    from repro.generator import apply_workload

    def run():
        tree = xmark_bench_tree.copy()
        labeling = get_scheme(scheme_name, **options).build(tree)
        for _ in apply_workload(tree, workload, labeling.insert, labeling.delete):
            pass

    benchmark.pedantic(run, rounds=3, iterations=1)


@emits_table
def test_e5_delete_mode_ablation(xmark_bench_tree):
    """Frame-stable deletion (pinned globals, the §3.2 semantics) vs
    naive re-enumeration (frame ordinals re-packed): how many labels a
    subtree deletion touches under each policy."""
    from repro.core import Ruid2Labeling, SizeCapPartitioner, diff_snapshots

    rows = []
    for mode, keep in (("frame-stable", True), ("repack-frame", False)):
        tree = xmark_bench_tree.copy()
        labeling = Ruid2Labeling(tree, partitioner=SizeCapPartitioner(16))
        total = 0
        deletions = 0
        for _ in range(5):
            victim = max(
                (c for c in tree.root.children if c.fan_out),
                key=lambda c: c.subtree_size(),
                default=None,
            )
            if victim is None or victim.subtree_size() < 5:
                break
            before = labeling.snapshot()
            removed = tree.delete_subtree(victim)
            labeling.area_root_ids -= {n.node_id for n in removed}
            labeling.reenumerate(keep_globals=keep)
            total += len(diff_snapshots(before, labeling.snapshot()))
            deletions += 1
        rows.append((mode, deletions, total))
    emit(
        "E5_delete_modes",
        ("mode", "deletions", "labels_relabeled"),
        rows,
        "E5 ablation: deletion policy vs relabel scope (5 large subtree deletes)",
    )
    by_mode = {row[0]: row[2] for row in rows}
    assert by_mode["frame-stable"] <= by_mode["repack-frame"]


@emits_table
def test_e5_change_management(xmark_bench_tree):
    """Replay a realistic document-evolution edit script (computed by
    the structural differ, the related-work [8] use case) through each
    scheme and total the relabel cost."""
    import random

    from repro.analysis import summarise_reports
    from repro.xmltree import NodeKind, XmlNode, apply_through_labeling, diff_trees

    old_master = xmark_bench_tree.copy()
    evolved = xmark_bench_tree.copy()
    rng = random.Random(99)
    for step in range(40):
        nodes = evolved.nodes()
        node = nodes[rng.randrange(len(nodes))]
        if rng.random() < 0.7 or node is evolved.root:
            evolved.insert_node(
                node,
                rng.randint(0, node.fan_out),
                XmlNode(f"rev{step}", NodeKind.ELEMENT),
            )
        elif node.subtree_size() < 12:
            evolved.delete_subtree(node)
    ops = diff_trees(old_master, evolved)

    rows = []
    for name, options in (
        ("uid", {}),
        ("ruid2", {"max_area_size": 16}),
        ("dewey", {}),
        ("ordpath", {}),
        ("prepost", {}),
    ):
        working = old_master.copy()
        labeling = get_scheme(name, **options).build(working)
        reports = apply_through_labeling(labeling, ops)
        summary = summarise_reports(name, reports)
        rows.append(
            (
                name,
                len(ops),
                summary.total_relabeled,
                round(summary.mean_relabeled, 2),
                summary.max_relabeled,
            )
        )
    emit(
        "E5_change_mgmt",
        ("scheme", "script_ops", "total_relabeled", "mean", "max"),
        rows,
        "E5 extension: diff-script replay (40 revisions of the auction doc)",
    )
    by_name = {row[0]: row for row in rows}
    assert by_name["ruid2"][2] <= by_name["prepost"][2]


@emits_table
def test_e5_depth_sweep(xmark_bench_tree):
    """Ablation: relabel scope vs insertion depth ("the nearer to the
    root ... the larger the scope", §1)."""
    rows = []
    for bias in ("shallow", "uniform", "deep"):
        ops = generate_update_workload(
            xmark_bench_tree,
            UpdateWorkloadConfig(operations=60, insert_fraction=1.0, depth_bias=bias),
            seed=6,
        )
        summaries = run_workload_per_scheme(
            xmark_bench_tree,
            [get_scheme("uid"), get_scheme("ruid2", max_area_size=16)],
            ops,
        )
        for summary in summaries:
            rows.append((bias, summary.scheme, round(summary.mean_relabeled, 2),
                         summary.max_relabeled))
    emit(
        "E5_depth_sweep",
        ("depth_bias", "scheme", "mean_relabeled", "max_relabeled"),
        rows,
        "E5 ablation: insertion depth vs relabel scope (60 inserts)",
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter workload; writes E5_update_cost_quick.txt (the CI gate)",
    )
    args = parser.parse_args()
    suffix = "_quick" if args.quick else ""
    _cost_gate(run_update_cost(args.quick, experiment=f"E5_update_cost{suffix}"))
    print("\nok")


if __name__ == "__main__":
    main()
