"""Asap and Grasap(k) — the paper's dynamic tile-level algorithms (S8).

Section 3.2: **Asap** is the counterpart of Greedy at the *tile* level.
In each column and at each step it starts eliminating a tile as soon as
at least two rows are *ready* (triangularized by GEQRT, not yet zeroed,
not busy in another TTQRT).  When ``s`` eliminations can start
simultaneously the ``2s`` bottommost ready rows are paired exactly as
in Fibonacci/Greedy: the ready row closest to the diagonal among the
pivot half eliminates the matching row of the bottom half.

The paper's (unexpected) findings, which the golden-value tests in
``tests/schemes/test_table4.py`` reproduce digit for digit:

* Greedy is **not** optimal on tiles: Asap beats it on a 15 x 2 grid;
* Asap is not optimal either: Greedy beats it on 15 x 3;
* **Grasap(k)** — Greedy on columns ``0..q-k-1``, then Asap on the last
  ``k`` columns — can beat both (Grasap(1) finishes 15 x 3 at
  time-step 62 vs 64 for Greedy);
* on large square grids Greedy generally outperforms Asap (Table 4b).

Because Asap's decisions depend on kernel completion times, it cannot
be expressed as a static elimination list up front; this module runs an
incremental unbounded-processor event simulation and returns both the
resulting list (which can then be replayed through the static DAG
builder — a cross-check the test suite performs) and its time table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..kernels.costs import KERNEL_WEIGHTS, Kernel
from .elimination import Elimination, EliminationList
from .greedy import greedy

__all__ = ["AsapResult", "asap", "grasap"]

_W_GEQRT = KERNEL_WEIGHTS[Kernel.GEQRT]
_W_UNMQR = KERNEL_WEIGHTS[Kernel.UNMQR]
_W_TTQRT = KERNEL_WEIGHTS[Kernel.TTQRT]
_W_TTMQR = KERNEL_WEIGHTS[Kernel.TTMQR]


@dataclass
class AsapResult:
    """Outcome of a dynamic-policy run (unbounded processors)."""

    elims: EliminationList
    zero_table: np.ndarray  #: finish time of each tile's TTQRT
    makespan: float  #: finish time of the last kernel overall


@dataclass
class _Column:
    policy: str  # "asap" or "scripted"
    script: list[Elimination] = field(default_factory=list)
    pool: set[int] = field(default_factory=set)
    remaining: int = 0


def _run_dynamic(
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
    # done[i][j]: finish time of the last kernel on tile (i, j).  Every
    # kernel writes the tiles it touches, and each V is read only by
    # its own updates, after its one write — so a kernel starts when
    # the last of its tiles (and, for an update, its V) is done.
    done = [[0.0] * q for _ in range(p)]
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

    events: list[tuple[float, int, int, int]] = []  # (time, seq, col, row)
    seq = 0

    def push(t: float, k: int, i: int) -> None:
        nonlocal seq
        heapq.heappush(events, (t, seq, k, i))
        seq += 1

    def emit_geqrt(i: int, k: int) -> None:
        row = done[i]
        f = row[k] + _W_GEQRT
        row[k] = f
        # UNMQR(i, k, j) for j > k
        row[k + 1:] = [(f if f > x else x) + _W_UNMQR for x in row[k + 1:]]
        push(f, k, i)

    def launch(e: Elimination, t: float) -> None:
        k = e.col
        top, bot = done[e.piv], done[e.row]
        f = max(top[k], bot[k]) + _W_TTQRT
        top[k] = bot[k] = f
        zero_table[e.row, k] = f
        out.append(e)
        cols[k].remaining -= 1
        # TTMQR(piv, row, k, j) for j > k
        top[k + 1:] = bot[k + 1:] = [max(a, b, f) + _W_TTMQR
                                     for a, b in zip(top[k + 1:], bot[k + 1:])]
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
        # a launch pushes events at later times only, so within a batch
        # a pool only loses rows: a column whose pool gained no row
        # launched all it could when it last gained one, and a script
        # entry that cannot launch now cannot later in the batch
        for k2 in sorted({k2 for k2, _ in batch}):
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
                waiting = []
                for e in col.script:
                    if e.row in col.pool and e.piv in col.pool:
                        col.pool.discard(e.row)
                        col.pool.discard(e.piv)
                        launch(e, t)
                        active -= 1
                    else:
                        waiting.append(e)
                col.script = waiting
    elims = EliminationList(p, q, out, name=name)
    return AsapResult(elims=elims, zero_table=zero_table,
                      makespan=max(max(row) for row in done))


def asap(p: int, q: int, pairing: str = "bottom") -> AsapResult:
    """Run the Asap algorithm on a ``p x q`` grid (unbounded processors)."""
    qq = min(p, q)
    return _run_dynamic(p, q, ["asap"] * qq, name="asap", pairing=pairing)


def grasap(p: int, q: int, k: int, pairing: str = "bottom") -> AsapResult:
    """Run Grasap(k): Greedy on columns ``0..q-k-1``, Asap on the last ``k``.

    ``grasap(p, q, 0)`` is Greedy; ``grasap(p, q, q)`` is Asap.
    """
    qq = min(p, q)
    if not (0 <= k <= qq):
        raise ValueError(f"need 0 <= k <= min(p, q), got k={k}")
    policies = ["scripted"] * (qq - k) + ["asap"] * k
    return _run_dynamic(p, q, policies, name=f"grasap({k})", pairing=pairing)
