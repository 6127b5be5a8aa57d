"""Measurement primitives shared by every workload.

Timing rules (see NOTES.md):

* service times are the serving thread's CPU time per request
  (``time.thread_time``: user plus system time of that thread), so the
  time a shared host takes the CPU away from the process is not
  charged to the program; wall-clock figures go to the notes line;
* open-loop phases (the rate ladders) time every request in wall-clock
  time from its *due* time, so a stall that delays later sends shows up
  in their latency; the send lag (actual send minus due) is recorded
  separately as generator lag;
* a tail is the 95th percentile (nearest rank); phases are sized so
  that at least ten samples lie beyond it.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.query.engine import XPathEngine
from repro.serving import poisson_schedule

#: the tail percentile
TAIL_PCT = 95.0
#: every timed phase is cut into this many slices interleaved over the
#: run, so each metric samples the whole run rather than whichever few
#: seconds its phase happened to get (the host's speed drifts on a
#: scale of seconds)
SLICES = 8
#: complete set-ups per run; setup_s is their median
SETUPS = 3
#: paced writes run in batches this long; after each batch the
#: workload checks what was written and removes it, untimed
WRITE_BATCH = 5


def tail(samples: Sequence[float]) -> float:
    """The ``TAIL_PCT`` nearest-rank percentile (0 for no samples)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[math.ceil(TAIL_PCT / 100.0 * len(ordered)) - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def set_up(report: "Report", build: Callable[[], object]) -> Tuple[object, List[dict]]:
    """Build the workload's stack ``SETUPS`` times from scratch (closing
    the previous one) and report the median CPU time of the process as
    setup_s (wall-clock times go to the notes). Returns the last stack
    and every set-up's ``timings``."""
    samples, walls, timings = [], [], []
    stack = None
    for _ in range(SETUPS):
        if stack is not None and hasattr(stack, "close"):
            stack.close()
        stack = None
        gc.collect()
        cpu, started = time.process_time(), time.perf_counter()
        stack = build()
        samples.append(time.process_time() - cpu)
        walls.append(time.perf_counter() - started)
        timings.append(stack.timings)
    report.put("setup_s", median(samples), "s")
    report.notes["setup_cpu_s"] = samples
    report.notes["setup_wall_s"] = walls
    return stack, timings


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Query decks: Zipf-weighted templates with seeded, Zipf-skewed params
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Template:
    """An XPath template; ``{}`` is filled from ``params``."""

    pattern: str
    params: Tuple = ()

    def fill(self, value) -> str:
        return self.pattern.format(value) if self.params else self.pattern


def zipf_weights(count: int, exponent: float) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def query_deck(
    mix: Tuple[Sequence[Template], Sequence[float]],
    count: int,
    rng: random.Random,
) -> List[str]:
    """``count`` queries whose template shares follow the mix's
    weights exactly (smooth weighted round robin, so every prefix of
    the deck has the same mix), with parameters drawn Zipf-skewed over
    a seeded permutation of each template's domain."""
    templates, weights = mix
    total = sum(weights)
    domains = []
    for template in templates:
        domain = list(template.params)
        rng.shuffle(domain)
        domains.append((domain, zipf_weights(len(domain), 1.0)))
    current = [0.0] * len(templates)
    deck: List[str] = []
    for _ in range(count):
        for index, weight in enumerate(weights):
            current[index] += weight
        chosen = max(range(len(templates)), key=current.__getitem__)
        current[chosen] -= total
        domain, domain_weights = domains[chosen]
        value = rng.choices(domain, domain_weights)[0] if domain else None
        deck.append(templates[chosen].fill(value))
    return deck


class Cursor:
    """Hands out a deck's queries in order, wrapping around."""

    def __init__(self, deck: Sequence[str], position: int = 0):
        self.deck = deck
        self.position = position

    def take(self, count: int) -> List[str]:
        size = len(self.deck)
        queries = [self.deck[(self.position + i) % size] for i in range(count)]
        self.position += count
        return queries

    def rest(self) -> List[str]:
        """The whole deck starting here, for a closed loop; follow with
        :meth:`advance` by the number of queries it consumed."""
        start = self.position % len(self.deck)
        return list(self.deck[start:]) + list(self.deck[:start])

    def advance(self, count: int) -> None:
        self.position += count


def poisson_offsets(rate_hz: float, seconds: float, seed: int) -> List[float]:
    """Offsets of ``rate_hz × seconds`` arrivals of a seeded Poisson
    process (the serving tier's own schedule generator, used for
    arrivals only). The count is fixed, so every seed offers the same
    number of requests; the phase's length varies a little instead."""
    count = max(1, round(rate_hz * seconds))
    return [a.offset_s for a in poisson_schedule(rate_hz, count, [("", "")], seed=seed)]


def periodic_offsets(rate_hz: float, count: int) -> List[float]:
    return [index / rate_hz for index in range(count)]


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One request: what it asked, when it was due, what came back."""

    query: str
    latency_s: float = 0.0
    cpu_s: float = 0.0
    lag_s: float = 0.0
    status: str = "ok"  # ok | wrong | error
    error: str = ""
    key: Optional[Tuple] = None


@dataclass
class Phase:
    """The outcomes of one timed phase."""

    name: str
    outcomes: List[Outcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    offered_hz: float = 0.0
    #: Σ time the single server spent serving (sync open loops only)
    busy_s: float = 0.0

    def latencies(self) -> List[float]:
        return [o.latency_s for o in self.outcomes if o.status == "ok"]

    def service_times(self) -> List[float]:
        return [o.cpu_s for o in self.outcomes if o.status == "ok"]

    def lags(self) -> List[float]:
        return [o.lag_s for o in self.outcomes]

    def within(self, limit_s: float) -> int:
        return sum(
            1 for o in self.outcomes if o.status == "ok" and o.latency_s <= limit_s
        )


def merge(name: str, phases: Sequence[Phase]) -> Phase:
    """One phase from several slices of it run at different times."""
    merged = Phase(name, offered_hz=phases[0].offered_hz if phases else 0.0)
    for phase in phases:
        merged.outcomes.extend(phase.outcomes)
        merged.elapsed_s += phase.elapsed_s
        merged.busy_s += phase.busy_s
    return merged


def run_request(execute: Callable[[str], Tuple], outcome: Outcome) -> None:
    """Run one synchronous request, recording typed failures."""
    try:
        outcome.key = execute(outcome.query)
    except Exception as exc:  # every failure is a miss, never a crash
        outcome.status = "error"
        outcome.error = f"{type(exc).__name__}: {exc}"


def open_loop_sync(
    name: str,
    queries: Sequence[str],
    offsets: Sequence[float],
    execute: Callable[[str], Tuple],
    rate_hz: float,
) -> Phase:
    """Single-server open loop: the calling thread sends each request
    at its due time (or as soon as it is free) and serves it."""
    phase = Phase(name, offered_hz=rate_hz)
    clock = time.perf_counter
    start = clock()
    for query, offset in zip(queries, offsets):
        due = start + offset
        now = clock()
        if now < due:
            time.sleep(due - now)
        sent = clock()
        outcome = Outcome(query, lag_s=sent - due)
        cpu = time.thread_time()
        run_request(execute, outcome)
        outcome.cpu_s = time.thread_time() - cpu
        done = clock()
        outcome.latency_s = done - due
        phase.busy_s += done - sent
        phase.outcomes.append(outcome)
    phase.elapsed_s = clock() - start
    return phase


async def open_loop_async(
    name: str,
    queries: Sequence[str],
    offsets: Sequence[float],
    execute,
    rate_hz: float,
) -> Phase:
    """Event-loop open loop: each request becomes a task at its due
    time whether or not earlier ones finished."""
    phase = Phase(name, offered_hz=rate_hz)
    clock = time.perf_counter
    start = clock()

    async def one(outcome: Outcome, due: float) -> None:
        try:
            outcome.key = await execute(outcome.query)
        except Exception as exc:  # typed sheds/timeouts are misses too
            outcome.status = "error"
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.latency_s = clock() - due

    tasks = []
    for query, offset in zip(queries, offsets):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(query, lag_s=clock() - due)
        phase.outcomes.append(outcome)
        tasks.append(asyncio.ensure_future(one(outcome, due)))
    await asyncio.gather(*tasks)
    phase.elapsed_s = clock() - start
    return phase


def paced_writes(
    first: int,
    count: int,
    rate_hz: float,
    write: Callable[[str], Tuple],
    settle: Callable[[Phase], None],
) -> Phase:
    """Writes ``first`` … ``first + count - 1`` at ``rate_hz``, open
    loop, in batches of ``WRITE_BATCH``; ``settle(batch)`` runs after
    each batch, outside every timed interval, and may mark outcomes
    wrong."""
    parts = []
    for start in range(first, first + count, WRITE_BATCH):
        size = min(WRITE_BATCH, first + count - start)
        batch = open_loop_sync(
            "writes", [str(start + i) for i in range(size)],
            periodic_offsets(rate_hz, size), write, rate_hz,
        )
        settle(batch)
        parts.append(batch)
    return merge("writes", parts)


def closed_loop_sync(
    name: str,
    deck: Sequence[str],
    execute: Callable[[str], Tuple],
    seconds: float,
) -> Phase:
    """One client issuing the deck back to back for ``seconds``."""
    phase = Phase(name)
    clock = time.perf_counter
    start = clock()
    index = 0
    while clock() - start < seconds:
        outcome = Outcome(deck[index % len(deck)])
        cpu = time.thread_time()
        began = clock()
        run_request(execute, outcome)
        outcome.latency_s = clock() - began
        outcome.cpu_s = time.thread_time() - cpu
        phase.outcomes.append(outcome)
        index += 1
    phase.elapsed_s = clock() - start
    return phase


async def closed_loop_async(
    name: str,
    deck: Sequence[str],
    execute,
    seconds: float,
) -> Phase:
    """:func:`closed_loop_sync` for an awaitable ``execute``."""
    phase = Phase(name)
    clock = time.perf_counter
    start = clock()
    index = 0
    while clock() - start < seconds:
        outcome = Outcome(deck[index % len(deck)])
        cpu = time.thread_time()
        began = clock()
        try:
            outcome.key = await execute(outcome.query)
        except Exception as exc:  # typed sheds/timeouts are misses too
            outcome.status = "error"
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.latency_s = clock() - began
        outcome.cpu_s = time.thread_time() - cpu
        phase.outcomes.append(outcome)
        index += 1
    phase.elapsed_s = clock() - start
    return phase


def slices(total: int) -> List[int]:
    """``total`` split into ``SLICES`` near-equal whole parts."""
    return [total // SLICES + (1 if index < total % SLICES else 0) for index in range(SLICES)]


def probe_sync(execute: Callable[[str], Tuple], queries: Sequence[str]) -> List[float]:
    """Service time of each query run back to back (the overhead probe)."""
    times = []
    for query in queries:
        began = time.thread_time()
        execute(query)
        times.append(time.thread_time() - began)
    return times


# ----------------------------------------------------------------------
# Ladder of fixed offered rates
# ----------------------------------------------------------------------
#: a rung runs long enough to give at least this many arrivals
RUNG_MIN_ARRIVALS = 12
#: a single server busier than this across a rung has a growing backlog
MAX_UTILIZATION = 0.9


def rung_seconds(rate_hz: float, base_seconds: float) -> float:
    return max(base_seconds, RUNG_MIN_ARRIVALS / rate_hz)


def rung_ok(phase: Phase, limit_s: float) -> bool:
    """A rung passes when ≥99% of its requests were answered within
    the limit and there is no growing backlog: a single server was not
    busy for more than ``MAX_UTILIZATION`` of the span its arrivals
    were offered over (arrivals / rate; the rung's elapsed time would
    also count the drain of an overload), and latency did not keep
    growing from the rung's first third to its last."""
    attempts = len(phase.outcomes)
    if not attempts or phase.within(limit_s) < 0.99 * attempts:
        return False
    if phase.busy_s > MAX_UTILIZATION * attempts / phase.offered_hz:
        return False
    third = max(1, attempts // 3)
    early = median([o.latency_s for o in phase.outcomes[:third]])
    late = median([o.latency_s for o in phase.outcomes[-third:]])
    return late <= max(2.0 * early, limit_s / 2.0)


def climb(rates: Sequence[float], run_rung: Callable[[int, float], Phase], limit_s: float) -> List[Phase]:
    """Run ``run_rung(index, rate)`` up the ladder, stopping after the
    first rung that fails."""
    rungs = []
    for index, rate in enumerate(rates):
        rung = run_rung(index, rate)
        rungs.append(rung)
        if not rung_ok(rung, limit_s):
            break
    return rungs


def max_ok_rate(rungs: Sequence[Phase], limit_s: float) -> float:
    """Highest offered rate of the passing prefix of the ladder (the
    ladder stops at its first failing rung)."""
    best = 0.0
    for phase in rungs:
        if not rung_ok(phase, limit_s):
            break
        best = phase.offered_hz
    return best


# ----------------------------------------------------------------------
# Result assembly
# ----------------------------------------------------------------------
@dataclass
class Report:
    """What one run measured, before it is printed."""

    workload: str
    e2e: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.e2e[name] = (float(value), unit)

    def put_layer(self, name: str, value: float, unit: str) -> None:
        self.layer[name] = (float(value), unit)


def read_metrics(
    report: Report,
    read_parts: Sequence[Phase],
    ladder: Sequence[Phase],
    limit_s: float,
    checks: Sequence[Phase] = (),
) -> None:
    """The read-side end-to-end metrics every workload reports.

    ``read_parts`` are the slices of one client's reads: closed-loop,
    or paced at a fixed rate (write-mix). read_p50_ms/read_tail_ms are
    their service times' median and 95th percentile; read_qps is the
    reads completed per second of their service time. ok_frac counts
    these reads plus the ``checks`` (ladder rungs probe overload on
    purpose and only feed max_ok_rate_qps); a read is on time when its
    wall-clock latency is within the limit."""
    reads = merge("reads", read_parts)
    service = reads.service_times()
    report.put("read_p50_ms", median(service) * 1e3, "ms")
    report.put("read_tail_ms", tail(service) * 1e3, "ms")
    report.put("read_qps", ratio(len(service), sum(service)), "1/s")
    report.put("max_ok_rate_qps", max_ok_rate(ladder, limit_s), "1/s")
    counted = list(reads.outcomes)
    for phase in checks:
        counted += phase.outcomes
    ok = sum(1 for o in counted if o.status == "ok" and o.latency_s <= limit_s)
    report.put("ok_frac", ratio(ok, len(counted)), "fraction")
    wall = reads.latencies()
    report.notes["read_samples"] = len(service)
    report.notes["read_limit_ms"] = limit_s * 1e3
    report.notes["read_wall"] = {
        "p50_ms": round(median(wall) * 1e3, 3),
        "tail_ms": round(tail(wall) * 1e3, 3),
        "qps": round(ratio(len(wall), reads.elapsed_s), 3),
    }
    report.notes["ladder"] = [
        {
            "offered_hz": phase.offered_hz,
            "arrivals": len(phase.outcomes),
            "p50_ms": round(median(phase.latencies()) * 1e3, 3),
            "tail_ms": round(tail(phase.latencies()) * 1e3, 3),
            "busy_frac": round(ratio(phase.busy_s, len(phase.outcomes) / phase.offered_hz), 3),
            "ok": rung_ok(phase, limit_s),
        }
        for phase in ladder
    ]


def write_metrics(report: Report, write_parts: Sequence[Phase]) -> None:
    """write_p50_ms/write_tail_ms from the writes' service times; their
    wall-clock latencies from due time go to the notes."""
    writes = merge("writes", write_parts)
    service = writes.service_times()
    report.put("write_p50_ms", median(service) * 1e3, "ms")
    report.put("write_tail_ms", tail(service) * 1e3, "ms")
    wall = writes.latencies()
    report.notes["write_samples"] = len(service)
    report.notes["write_wall_from_due"] = {
        "p50_ms": round(median(wall) * 1e3, 3),
        "tail_ms": round(tail(wall) * 1e3, 3),
    }


def ingest_rate(report: Report, write_parts: Sequence[Phase]) -> None:
    """ingest_nodes_per_s: nodes the writes stored (the first element
    of each write's key) per second of their service time."""
    done = [o for o in merge("writes", write_parts).outcomes if o.status == "ok"]
    nodes = sum(o.key[0] for o in done)
    report.put("ingest_nodes_per_s", ratio(nodes, sum(o.cpu_s for o in done)), "1/s")


def query_layer_metrics(report: Report, stats: Dict[str, int], compile_ms: float) -> None:
    """The ``query.*`` per-layer numbers from a ``QueryStats`` ledger."""
    report.put_layer("query.compile_us", compile_ms * 1e3, "us")
    report.put_layer("query.plan_hit_ratio", ratio(
        stats["plan_hits"], stats["plan_hits"] + stats["plan_misses"]), "fraction")
    report.put_layer("query.batched_step_ratio", ratio(
        stats["batched_steps"], stats["batched_steps"] + stats["fallback_steps"]), "fraction")
    report.put_layer("query.candidate_cache_hit_ratio", ratio(
        stats["candidate_cache_hits"],
        stats["candidate_cache_hits"] + stats["candidate_cache_misses"]), "fraction")


def lag_metrics(report: Report, phases: Sequence[Phase]) -> None:
    """Generator lag of the open-loop phases (per-layer, ``loadgen``)."""
    lags = [lag for phase in phases for lag in phase.lags()]
    report.put_layer("loadgen.lag_p50_ms", median(lags) * 1e3, "ms")
    report.put_layer("loadgen.lag_tail_ms", tail(lags) * 1e3, "ms")


def count_outcomes(report: Report, phases: Sequence[Phase]) -> None:
    for phase in phases:
        for outcome in phase.outcomes:
            report.attempted += 1
            if outcome.status != "ok":
                report.failed += 1
            if outcome.status == "wrong":
                report.wrong += 1


def verify(phases: Sequence[Phase], expected: Callable[[str], Tuple]) -> None:
    """Mark every answered request whose key differs from the oracle."""
    for phase in phases:
        for outcome in phase.outcomes:
            if outcome.status == "ok" and outcome.key != expected(outcome.query):
                outcome.status = "wrong"


def tree_key(tree) -> Callable[[Iterable], Tuple]:
    """Result identity over a static source tree: node ids in result
    order; transient attribute nodes (not in the tree's document
    order) by owner, name and value."""
    order = tree.document_order_index()

    def key(nodes) -> Tuple:
        return tuple(
            node.node_id if node.node_id in order
            else ("attr", node.parent.node_id if node.parent is not None else None,
                  node.tag, node.text)
            for node in nodes
        )

    return key


def oracle(tree) -> Callable[[str], Tuple]:
    """Expected answers: single-site navigation over the source tree,
    computed once per distinct query."""
    engine = XPathEngine(tree)
    key = tree_key(tree)

    @functools.lru_cache(maxsize=None)
    def expected(query: str) -> Tuple:
        return key(engine.select(query, strategy="navigational"))

    return expected
