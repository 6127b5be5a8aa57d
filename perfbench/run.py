"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-xmark --seed 1 --seconds 24 --trace 0

Run from the repository root. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric of BENCHMARK.json with ``--trace 0``, every
per-layer metric with ``--trace 1``). Lines before it are notes for
people; the ``notes:`` line carries, under ``exact``, the counts that
must repeat exactly for a seed (see test_repeat.py). ``--workload all``
runs each workload in its own process, so no workload's heap carries
into another's peak RSS. The exit code is 1 when any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

if __name__ == "__main__" and "PYTHONHASHSEED" not in os.environ:
    # one string-hash seed for every run, so sizes that depend on hash
    # values (space_amp of the in-memory stores) repeat exactly
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("serve-xmark", "write-mix-xmark", "ingest-sql-dblp", "ingest-paged-dblp")
#: the metrics that must repeat exactly for a fixed seed
EXACT = (
    "space_amp",
    "core.relabeled_per_write",
    "store.sql_queries_per_read",
    "storage.disk_reads_per_read",
    "serving.site_calls_per_request",
)
#: alternating traced/untraced probes behind trace.overhead_frac
PROBE_ROUNDS = 4


def catalogue() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    rec = spans.Recorder() if traced else spans.OFF
    report = harness.Report(name)
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if name == "serve-xmark":
            import serve_xmark as module

            stack = module.run(seed, seconds, rec, report)
        elif name == "write-mix-xmark":
            import write_mix as module

            stack = module.run(seed, seconds, rec, report)
        else:
            import ingest_dblp as module

            backend = "sql" if name == "ingest-sql-dblp" else "paged"
            stack = module.run(backend, seed, seconds, rec, report, workdir)
        report.put("peak_rss_mb", harness.peak_rss_mb(), "MB")
        if traced:
            trace_layers(rec, report, module, stack, name, seed)
        if hasattr(stack, "close"):
            stack.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report


def trace_layers(rec, report, module, stack, name: str, seed: int) -> None:
    """Self times per layer, then the tracing-overhead probe pair."""
    totals, requests = rec.self_ms_by_layer(("bench.read", "bench.write"))
    for layer in spans.LAYERS:
        report.put_layer(f"{layer}.self_ms", harness.ratio(totals.get(layer, 0.0), requests), "ms")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    rec.dump(os.path.join(HERE, "out", f"spans-{name}-{seed}.json"))
    queries = stack.deck[: module.PROBE_QUERIES]
    probe = getattr(module, "probe", None) or (lambda s, q: harness.probe_sync(s.read, q))
    probe(stack, queries)  # warm: both kinds then see warm caches
    traced, untraced = [], []
    for round_index in range(PROBE_ROUNDS):
        # ABBA order cancels drift between the two kinds of probe
        for tracing in ((True, False) if round_index % 2 == 0 else (False, True)):
            if tracing:
                rec.resume()
                stack.rec = rec
                traced += probe(stack, queries)
            else:
                rec.suspend()
                stack.rec = spans.OFF
                untraced += probe(stack, queries)
    report.put_layer(
        "trace.overhead_frac",
        harness.ratio(harness.mean(traced), harness.mean(untraced)) - 1.0,
        "fraction",
    )
    report.notes["trace_probe_ms"] = {
        "traced_mean": harness.mean(traced) * 1e3,
        "untraced_mean": harness.mean(untraced) * 1e3,
    }


def result_line(report, bench: dict, traced: bool) -> dict:
    if traced:
        metrics = {}
        for metric in bench["per_layer"]:
            # a layer the workload does not exercise reports 0
            value, unit = report.layer.get(metric["name"], (0.0, metric["unit"]))
            metrics[metric["name"]] = {"value": value, "unit": unit}
    else:
        metrics = {
            metric["name"]: {"value": report.e2e[metric["name"]][0], "unit": report.e2e[metric["name"]][1]}
            for metric in bench["end_to_end"]
        }
    return {
        "correct": report.wrong == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in a fresh interpreter; one JSON line per workload,
    then a combined line keyed by workload."""
    combined, status = {}, 0
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if done.returncode != 0 or not lines:
            status = 1
        if lines:
            combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def pin_to_one_cpu() -> None:
    """Run every thread of the workload on one CPU. Threads then hand
    the GIL over with a local context switch instead of a cross-CPU
    wake-up whose latency follows the host, and the process is not
    migrated between CPUs in the middle of a timed phase."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    bench = catalogue()
    pin_to_one_cpu()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    values = {**report.e2e, **report.layer}
    report.notes["exact"] = {name: values[name][0] for name in EXACT if name in values}
    print("notes: " + json.dumps(report.notes, default=str))
    if args.trace:
        for name, (value, unit) in sorted(report.layer.items()):
            print(f"layer {name} = {value:.6g} {unit}")
    else:
        for name, (value, unit) in report.e2e.items():
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result_line(report, bench, bool(args.trace))))
    return 0 if report.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
