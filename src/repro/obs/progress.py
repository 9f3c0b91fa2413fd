"""Live progress rendering: the ``--progress`` dashboard (S21).

A :class:`ProgressRenderer` watches a
:class:`~repro.obs.stream.LiveState` (the event-bus reduction) on a
background thread and paints:

* per-kernel completion bars (done/total per GEQRT..TTMQR, totals from
  the plan's DAG);
* worker utilization (busy workers out of the pool), the live
  ready-frontier depth, and each worker's current kernel;
* a live ETA from :class:`~repro.planner.replay.ScheduleReplay` —
  realized progress replayed against the plan's memoized simulated
  schedule — including the predicted-vs-first-prediction **drift**.

On a TTY the block repaints in place with ANSI cursor movement; when
stdout/stderr is not a TTY (CI, pipes) it degrades to one plain
progress line per ``nontty_interval`` seconds, so logs stay readable
and the non-interactive CI smoke step exercises the same code path.
"""

from __future__ import annotations

import sys
import threading
import time

from ..kernels.costs import Kernel
from .stream import LiveState

__all__ = ["ProgressRenderer", "kernel_totals", "render_bar"]

#: canonical kernel display order
_KERNELS = tuple(k.value for k in Kernel)

#: seconds between repaints on a TTY
_REPAINT_S = 0.1


def kernel_totals(graph) -> dict[str, int]:
    """Task count per kernel family of a TaskGraph or Plan."""
    g = getattr(graph, "graph", graph)
    totals: dict[str, int] = {}
    for t in g.tasks:
        k = t.kernel.value
        totals[k] = totals.get(k, 0) + 1
    return totals


def render_bar(frac: float, width: int = 24) -> str:
    """A ``[#####----]`` completion bar for ``frac`` in 0..1."""
    frac = min(1.0, max(0.0, frac))
    fill = round(frac * width)
    return "[" + "#" * fill + "-" * (width - fill) + "]"


def _fmt_secs(s) -> str:
    if s is None:
        return "--"
    if s >= 100:
        return f"{s:.0f}s"
    if s >= 1:
        return f"{s:.1f}s"
    return f"{s * 1e3:.0f}ms"


class ProgressRenderer:
    """Background renderer of live factorization progress.

    Parameters
    ----------
    state : LiveState
        Bus reduction to render (attach it to the run's bus first).
    replay : ScheduleReplay or None
        ETA estimator; ``None`` renders progress without an ETA.
    clock : callable
        Elapsed-seconds source, usually ``bus.now`` (shares the bus
        epoch so event timestamps and the ETA agree).
    totals : dict or None
        Per-kernel task totals (:func:`kernel_totals`); bars are
        omitted without them.
    stream : file or None
        Destination (default ``sys.stderr``).
    tty : bool or None
        Force TTY (ANSI repaint) or non-TTY (line) mode; ``None``
        autodetects via ``stream.isatty()``.
    nontty_interval : float
        Seconds between progress lines when not a TTY (a TTY repaints
        every 0.1 s).
    label : str
        Header label (scheme/grid description).
    """

    def __init__(self, state: LiveState, replay=None, *, clock=None,
                 totals: dict | None = None, stream=None,
                 tty: bool | None = None, nontty_interval: float = 1.0,
                 label: str = "", bar_width: int = 24) -> None:
        self.state = state
        self.replay = replay
        self.totals = totals or {}
        self.stream = stream if stream is not None else sys.stderr
        isatty = getattr(self.stream, "isatty", lambda: False)
        self.tty = bool(isatty()) if tty is None else bool(tty)
        self.nontty_interval = float(nontty_interval)
        self.label = label
        self.bar_width = int(bar_width)
        self._epoch = time.perf_counter()
        self.clock = clock if clock is not None else (
            lambda: time.perf_counter() - self._epoch)
        self._prev_lines = 0
        self._last_emit = -float("inf")
        self._last_estimate = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def lines(self) -> list[str]:
        """The current dashboard block (pure; also used by tests)."""
        v = self.state.view()
        elapsed = self.clock()
        done, total = v["done"], max(v["total"], 1)
        est = None
        if self.replay is not None:
            est = self.replay.estimate(done, elapsed)
            self._last_estimate = est
        head = f"{self.label + ' | ' if self.label else ''}" \
               f"{done}/{v['total']} tasks ({100.0 * done / total:.1f}%)" \
               f" | elapsed {_fmt_secs(elapsed)}"
        if est is not None and est.remaining is not None:
            drift = (f", drift {est.drift * +100:+.0f}%"
                     if est.drift is not None else "")
            head += (f" | eta {_fmt_secs(est.remaining)} "
                     f"(total {_fmt_secs(est.predicted_makespan)}{drift})")
        out = [head]
        for k in _KERNELS:
            tot = self.totals.get(k)
            if not tot:
                continue
            d = v["kernel_done"].get(k, 0)
            out.append(f"{k:<6s} {render_bar(d / tot, self.bar_width)} "
                       f"{d}/{tot}")
        nw = max(v["workers"], len(v["worker_kernel"]), 1)
        busy = v["busy_workers"]
        status = (f"workers {render_bar(busy / nw, self.bar_width)} "
                  f"{busy}/{nw} busy | frontier {v['frontier']}")
        out.append(status)
        if v["worker_kernel"]:
            cells = [f"w{w}:{k or 'idle'}"
                     for w, k in sorted(v["worker_kernel"].items())[:16]]
            out.append("  ".join(cells))
        return out

    def progress_line(self) -> str:
        """The one-line non-TTY rendering."""
        return self.lines()[0]

    # ------------------------------------------------------------------
    def render_once(self, force: bool = False) -> None:
        if self.tty:
            block = self.lines()
            if self._prev_lines:
                self.stream.write(f"\x1b[{self._prev_lines}F\x1b[0J")
            self.stream.write("\n".join(block) + "\n")
            self._prev_lines = len(block)
        else:
            t = self.clock()
            if not force and t - self._last_emit < self.nontty_interval:
                return
            self._last_emit = t
            self.stream.write(self.progress_line() + "\n")
        self.stream.flush()

    def _loop(self) -> None:
        while not self._stop.wait(_REPAINT_S):
            self.render_once()

    def start(self) -> "ProgressRenderer":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-progress", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread and paint the final state."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self.render_once(force=True)

    @property
    def last_estimate(self):
        """The most recent :class:`EtaEstimate` (or ``None``)."""
        return self._last_estimate

    def __enter__(self) -> "ProgressRenderer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
