"""Open-loop load generation for the serving tier.

A *closed-loop* harness (issue → wait → issue) hides overload: when the
server slows down, the harness slows its own arrival rate and the
measured latency stays flattering. Real traffic does not wait — it
arrives by its own clock. The generator here is **open-loop**: arrival
times are a Poisson process drawn *up front* from a seeded RNG, and
each arrival fires whether or not earlier requests finished. Under
overload the in-flight count grows and the tail latencies show it —
which is exactly what the E20 SLO gate needs to see.

Determinism: the schedule (arrival offsets + per-arrival workload
choice) depends only on the seed, never on the clock. With virtual
pacing (``pace=False``) and the cluster's injectable no-op sleep, a
whole run is reproducible byte-for-byte; with ``pace=True`` the same
requests go out with real inter-arrival gaps for latency measurement.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import Overloaded, QueryTimeout, ReproError

__all__ = ["Arrival", "ArrivalOutcome", "LoadReport", "OpenLoopLoadGenerator", "poisson_schedule"]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when it fires and what it asks."""

    index: int
    offset_s: float
    doc: str
    expression: str


@dataclass
class ArrivalOutcome:
    """What happened to one arrival (slot ``index`` of the run)."""

    index: int
    status: str = "pending"  # ok | shed | timeout | unavailable | error
    error: str = ""
    latency_ns: int = 0
    #: result identity for determinism/correctness checks
    result_key: Optional[Tuple] = None


@dataclass
class LoadReport:
    """Aggregate of one run; the E20 gate asserts against this."""

    offered: int
    completed: int = 0
    ok: int = 0
    shed: int = 0
    timeouts: int = 0
    unavailable: int = 0
    errors: int = 0
    wrong: int = 0
    latencies_ns: List[int] = field(default_factory=list)
    outcomes: List[ArrivalOutcome] = field(default_factory=list)

    def percentile_ns(self, q: float) -> int:
        """Nearest-rank percentile of the *successful* latencies."""
        if not self.latencies_ns:
            return 0
        ordered = sorted(self.latencies_ns)
        rank = max(0, min(len(ordered) - 1, int(q * len(ordered))))
        return ordered[rank]

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "offered": self.offered,
            "ok": self.ok,
            "shed": self.shed,
            "timeouts": self.timeouts,
            "unavailable": self.unavailable,
            "errors": self.errors,
            "wrong": self.wrong,
            "shed_rate": round(self.shed_rate, 4),
            "p50_ms": round(self.percentile_ns(0.50) / 1e6, 3),
            "p95_ms": round(self.percentile_ns(0.95) / 1e6, 3),
            "p99_ms": round(self.percentile_ns(0.99) / 1e6, 3),
        }


def poisson_schedule(
    rate_hz: float,
    count: int,
    workload: Sequence[Tuple[str, str]],
    seed: int = 0,
) -> List[Arrival]:
    """``count`` arrivals with Exp(rate) inter-arrival gaps.

    The whole schedule — offsets *and* which (doc, expression) each
    arrival issues — is a pure function of the seed, so two runs with
    the same seed offer identical traffic regardless of how fast the
    server answers it.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive, got {rate_hz}")
    if not workload:
        raise ValueError("workload is empty")
    rng = random.Random(seed)
    arrivals: List[Arrival] = []
    clock = 0.0
    for index in range(count):
        clock += rng.expovariate(rate_hz)
        doc, expression = workload[rng.randrange(len(workload))]
        arrivals.append(
            Arrival(index=index, offset_s=clock, doc=doc, expression=expression)
        )
    return arrivals


class OpenLoopLoadGenerator:
    """Fire a precomputed schedule at a scatter-gather executor.

    Parameters
    ----------
    executor:
        The :class:`~repro.serving.executor.ScatterGatherExecutor`
        under test.
    deadline_ms:
        Per-request budget; ``None`` runs without deadlines.
    pace:
        ``True`` sleeps out the real inter-arrival gaps (latency
        measurement); ``False`` fires the whole schedule immediately
        (virtual time — deterministic, and the honest way to model a
        burst far faster than the event loop could pace).
    expected:
        Optional per-(doc, expression) expected result keys; when
        given, every OK answer is differentially checked and any
        mismatch is counted in ``report.wrong`` (the SLO gate's
        zero-tolerance number).
    """

    def __init__(
        self,
        executor,
        deadline_ms: Optional[float] = None,
        pace: bool = False,
        expected: Optional[Dict[Tuple[str, str], Tuple]] = None,
        result_key=None,
    ):
        self.executor = executor
        self.deadline_ms = deadline_ms
        self.pace = pace
        self.expected = expected
        #: maps a result node list to a comparable identity; defaults
        #: to the tuple of node ids (transient attributes keyed by
        #: owner + tag + text)
        self.result_key = result_key if result_key is not None else _node_key

    async def run(self, arrivals: Sequence[Arrival]) -> LoadReport:
        report = LoadReport(offered=len(arrivals))
        report.outcomes = [ArrivalOutcome(index=a.index) for a in arrivals]
        tasks = []
        due: Optional[float] = None
        if self.pace:
            loop = asyncio.get_running_loop()
            start = loop.time()
        for arrival in arrivals:
            if self.pace:
                due = start + arrival.offset_s
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            tasks.append(
                asyncio.ensure_future(self._one(arrival, report, due))
            )
        await asyncio.gather(*tasks)
        report.completed = len(arrivals)
        return report

    async def _one(
        self, arrival: Arrival, report: LoadReport, due: Optional[float]
    ) -> None:
        """Issue one arrival. When pacing, *due* is its due time on the
        loop clock and its latency counts from there: time spent behind
        a stalled loop before the request could even start is queueing
        the client sees, not time to leave out. Unpaced (virtual time),
        latency counts from when the task runs."""
        outcome = report.outcomes[arrival.index]
        clock = asyncio.get_running_loop().time
        began = clock() if due is None else due
        try:
            nodes = await self.executor.select(
                arrival.doc, arrival.expression, deadline=self.deadline_ms
            )
        except Overloaded as exc:
            outcome.status, outcome.error = "shed", str(exc)
            report.shed += 1
            return
        except QueryTimeout as exc:
            outcome.status, outcome.error = "timeout", str(exc)
            report.timeouts += 1
            return
        except ReproError as exc:
            name = type(exc).__name__
            if name == "SiteUnavailableError":
                outcome.status = "unavailable"
                report.unavailable += 1
            else:
                outcome.status = "error"
                report.errors += 1
            outcome.error = f"{name}: {exc}"
            return
        outcome.latency_ns = round((clock() - began) * 1e9)
        outcome.status = "ok"
        outcome.result_key = self.result_key(nodes)
        report.ok += 1
        report.latencies_ns.append(outcome.latency_ns)
        if self.expected is not None:
            want = self.expected.get((arrival.doc, arrival.expression))
            if want is not None and outcome.result_key != want:
                report.wrong += 1
                outcome.status = "wrong"

    def run_sync(self, arrivals: Sequence[Arrival]) -> LoadReport:
        return asyncio.run(self.run(arrivals))


def _node_key(nodes) -> Tuple:
    """Comparable identity of a result node list (order-sensitive)."""
    key = []
    for node in nodes:
        node_id = getattr(node, "node_id", None)
        if node_id is not None:
            key.append(node_id)
        else:
            parent = getattr(node, "parent", None)
            key.append(
                (
                    "attr",
                    getattr(parent, "node_id", None),
                    getattr(node, "tag", None),
                    getattr(node, "text", None),
                )
            )
    return tuple(key)
