"""The timed dataflow Asap and Grasap ran on, kept as their test oracle.

:func:`repro.schemes.asap._run_dynamic` now keeps one finish time per
tile.  This is the loop it replaced: every kernel is emitted through
``_TimedFlow``, which stamps each resource (R tiles and V factors,
keyed by tuples) with its last read and last write and starts a kernel
after every conflicting access (RAW, WAR, WAW).  The tests compare the
elimination lists, zero tables and makespans against it byte for byte.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.costs import KERNEL_WEIGHTS, Kernel
from repro.schemes import AsapResult
from repro.schemes.elimination import Elimination, EliminationList
from repro.schemes.greedy import greedy

_W_GEQRT = KERNEL_WEIGHTS[Kernel.GEQRT]
_W_UNMQR = KERNEL_WEIGHTS[Kernel.UNMQR]
_W_TTQRT = KERNEL_WEIGHTS[Kernel.TTQRT]
_W_TTMQR = KERNEL_WEIGHTS[Kernel.TTMQR]


@dataclass
class _Column:
    policy: str  # "asap" or "scripted"
    script: list[Elimination] = field(default_factory=list)
    pool: set[int] = field(default_factory=set)
    remaining: int = 0


class _TimedFlow:
    """Dataflow resource timestamps (RAW/WAR/WAW) for incremental emission."""

    def __init__(self) -> None:
        self.w: dict[object, float] = {}
        self.r: dict[object, float] = {}

    def start_for(self, reads, writes) -> float:
        s = 0.0
        for res in reads:
            s = max(s, self.w.get(res, 0.0))
        for res in writes:
            s = max(s, self.w.get(res, 0.0), self.r.get(res, 0.0))
        return s

    def commit(self, reads, writes, finish: float) -> None:
        for res in reads:
            if finish > self.r.get(res, 0.0):
                self.r[res] = finish
        for res in writes:
            self.w[res] = finish
            self.r[res] = 0.0


def reference_run_dynamic(
    p: int, q: int, policies: list[str], name: str, pairing: str = "bottom"
) -> AsapResult:
    """Run the incremental unbounded-processor simulation.

    ``policies[k]`` selects, per column, Asap pairing or the scripted
    Greedy pairing (for Grasap's prefix columns).

    ``pairing`` resolves the odd-ready-count ambiguity in the paper's
    description ("Asap pairs the 2s rows just as Fibonacci and
    Greedy"): with ``2s+1`` ready rows, ``"bottom"`` leaves the row
    closest to the diagonal unpaired (the Greedy/Fibonacci convention),
    while ``"spread"`` pairs the first ``s`` ready rows with the last
    ``s``, leaving the middle row unpaired.
    """
    qq = min(p, q)
    flow = _TimedFlow()
    makespan = 0.0
    zero_table = np.zeros((p, q))
    out: list[Elimination] = []

    greedy_cols: dict[int, list[Elimination]] = {}
    if any(pol == "scripted" for pol in policies):
        for e in greedy(p, q).eliminations:
            greedy_cols.setdefault(e.col, []).append(e)

    cols = [
        _Column(policy=policies[k], script=greedy_cols.get(k, []),
                remaining=p - 1 - k)
        for k in range(qq)
    ]

    def emit(kernel, reads, writes, weight) -> float:
        nonlocal makespan
        s = flow.start_for(reads, writes)
        f = s + weight
        flow.commit(reads, writes, f)
        if f > makespan:
            makespan = f
        return f

    events: list[tuple[float, int, int, int]] = []  # (time, seq, col, row)
    seq = 0

    def push(t: float, k: int, i: int) -> None:
        nonlocal seq
        heapq.heappush(events, (t, seq, k, i))
        seq += 1

    def emit_geqrt(i: int, k: int) -> None:
        f = emit(Kernel.GEQRT, [], [("R", i, k), ("V", i, k, "ge")], _W_GEQRT)
        for j in range(k + 1, q):
            emit(Kernel.UNMQR, [("V", i, k, "ge")], [("R", i, j)], _W_UNMQR)
        push(f, k, i)

    def launch(e: Elimination, t: float) -> None:
        k = e.col
        f = emit(Kernel.TTQRT, [],
                 [("R", e.piv, k), ("R", e.row, k), ("V", e.row, k, "tt")],
                 _W_TTQRT)
        zero_table[e.row, k] = f
        out.append(e)
        cols[k].remaining -= 1
        for j in range(k + 1, q):
            emit(Kernel.TTMQR, [("V", e.row, k, "tt")],
                 [("R", e.piv, j), ("R", e.row, j)], _W_TTMQR)
        # pivot becomes ready again when its TTQRT completes
        push(f, k, e.piv)
        # the eliminated row moves on to the next column (if any)
        if k + 1 < qq and e.row >= k + 1:
            emit_geqrt(e.row, k + 1)

    for i in range(p):
        emit_geqrt(i, 0)

    active = sum(c.remaining for c in cols)
    while active > 0:
        if not events:
            raise RuntimeError("dynamic policy stalled with work remaining")
        t, _, k, i = heapq.heappop(events)
        batch = [(k, i)]
        while events and events[0][0] == t:
            _, _, k2, i2 = heapq.heappop(events)
            batch.append((k2, i2))
        for k2, i2 in batch:
            cols[k2].pool.add(i2)
        for k2 in range(qq):
            col = cols[k2]
            if col.remaining <= 0:
                continue
            if col.policy == "asap":
                n = len(col.pool)
                z = min(n // 2, col.remaining)
                if z >= 1:
                    rows = sorted(col.pool)
                    if pairing == "bottom":
                        pivots = rows[n - 2 * z : n - z]
                    else:  # "spread": leave the middle row out when odd
                        pivots = rows[:z]
                    targets = rows[n - z :]
                    for pv, tg in zip(pivots, targets):
                        col.pool.discard(pv)
                        col.pool.discard(tg)
                        launch(Elimination(tg, pv, k2), t)
                        active -= 1
            else:  # scripted (Greedy prefix for Grasap)
                progressed = True
                while progressed:
                    progressed = False
                    for e in col.script:
                        if e.row in col.pool and e.piv in col.pool:
                            col.script.remove(e)
                            col.pool.discard(e.row)
                            col.pool.discard(e.piv)
                            launch(e, t)
                            active -= 1
                            progressed = True
                            break
    elims = EliminationList(p, q, out, name=name)
    return AsapResult(elims=elims, zero_table=zero_table, makespan=makespan)


def reference_asap(p: int, q: int, pairing: str = "bottom") -> AsapResult:
    """:func:`repro.schemes.asap.asap` on the timed dataflow."""
    return reference_run_dynamic(p, q, ["asap"] * min(p, q), name="asap",
                                 pairing=pairing)


def reference_grasap(p: int, q: int, k: int,
                     pairing: str = "bottom") -> AsapResult:
    """:func:`repro.schemes.asap.grasap` on the timed dataflow."""
    qq = min(p, q)
    policies = ["scripted"] * (qq - k) + ["asap"] * k
    return reference_run_dynamic(p, q, policies, name=f"grasap({k})",
                                 pairing=pairing)
