"""The interleaved, drift-corrected measurement loop of one workload.

One *round* runs the workload's operations in ``spec.ROUND`` order,
the cheap ones more than once; rounds repeat until the run's time is
spent.  Before each timed
rep the runner collects garbage and runs the calibration slice (see
:mod:`calib`), both outside the timed window; the rep's result is then
checked (see :mod:`checks`), also outside the window.  A rep whose
check fails counts as a failed operation and its time is dropped.

Every call into the program goes through its public API:
``repro.api.plan``/``factor``/``simulate``,
``TiledQRFactorization.solve_lstsq`` and ``obs.analyze.analyze_sim``
(the per-layer probes of :mod:`layers` add the ``tiles``/``kernels``
entry points).  A traced factor is ``factor()`` itself, with spans
around the layer calls it makes, ``runtime.execute_graph`` among them.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

import numpy as np

import checks
from spans import SpanLog
from spec import (CALIB_REF_S, PATHS, PINNED, ROUND, SIM_PROCESSORS,
                  SWEEP_SCHEMES, TIMED, Workload)

import repro.api as api
from repro.obs import MetricsRegistry
from repro.obs.analyze import analyze_sim
from repro.runtime import ProcessPool

RUN_PY = Path(__file__).resolve().parent / "run.py"


@dataclass
class Sample:
    """One timed rep: its wall time, the calibration slices right
    before and right after it, and the reason it failed its check
    (``None`` when it passed)."""

    raw: float
    before: float
    failure: str | None = None
    after: float = float("nan")

    @property
    def calib(self) -> float:
        """The host's speed around the rep: the geometric mean of the
        slices on either side (the after-slice is the next rep's
        before-slice, so it costs nothing extra)."""
        return math.sqrt(self.before * self.after)

    @property
    def corrected(self) -> float:
        """Seconds at the reference speed."""
        return self.raw / self.calib * CALIB_REF_S


@dataclass
class Series:
    """Every rep of one metric in one run."""

    samples: list = field(default_factory=list)

    def ok(self) -> list:
        return [s for s in self.samples if s.failure is None]

    def median(self) -> float:
        """Median corrected time of the passing reps."""
        return statistics.median(s.corrected for s in self.ok())


def tail(values: list) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it.

    For ``n`` samples that is the ``floor(100 (1 - 10/n))``-th
    percentile (nearest rank); with ``n <= 10`` no percentile has ten
    samples beyond it and the maximum is reported at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    pct = int(100 * (1 - 10 / n))
    rank = max(1, -(-pct * n // 100))  # nearest-rank, 1-based
    return xs[rank - 1], pct


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def sweep_rows(wl: Workload, spans: SpanLog | None = None) -> list[dict]:
    """One full plan sweep: plan (cold), simulate, analyze each shape.

    The caller clears the plan cache first, so every plan is a miss.
    With ``spans``, each call gets a span named after its layer.
    """
    span = spans.span if spans is not None else _no_span
    shapes = [("qr", spec, p, q, fam)
              for p, q in wl.sweep
              for spec in SWEEP_SCHEMES
              for fam in ("TT", "TS")]
    shapes += [("qr", spec, p, q, fam) for spec, fam, p, q in wl.sweep_large]
    shapes += [(spec.split("(")[0], spec, 0, 0, None)
               for spec in wl.problems]
    rows = []
    for problem, spec, p, q, fam in shapes:
        with span("planner.plan"):
            pl = (api.plan(p, q, spec, fam) if problem == "qr"
                  else api.plan(spec))
        with span("sim.unbounded"):
            cp = api.simulate(pl).makespan
        with span("sim.bounded"):
            res = api.simulate(pl, processors=SIM_PROCESSORS)
        with span("obs.analyze"):
            rep = analyze_sim(res)
        rows.append({"problem": problem, "spec": spec, "p": pl.p,
                     "q": pl.q, "family": fam, "cp": float(cp),
                     "makespan": float(res.makespan),
                     "work": float(pl.total_weight()),
                     "tasks": len(pl),
                     "analyze_lower": float(rep.bounds["lower"])})
    return rows


def _no_span(name: str):
    return contextlib.nullcontext()


def _wrapped(spans: SpanLog, name: str, fn):
    """``fn`` with every call recorded as a span called ``name``."""
    def call(*args, **kwargs):
        with spans.span(name):
            return fn(*args, **kwargs)
    return call


#: the layer calls ``repro.core.tiled_qr.tiled_qr`` makes, by the name
#: it imports them under, and the span each call is recorded as
FACTOR_LAYERS = {"build_plan": "planner.plan",
                 "TiledMatrix": "tiles.TiledMatrix",
                 "execute_graph": "runtime.execute_graph",
                 "TiledQRFactorization": "core.result"}


def traced_factor(spans: SpanLog, path: str, call) -> tuple:
    """Run ``call()`` (one ``factor()``) under a root span, with each
    layer call ``factor()`` makes wrapped in a span of its own.

    ``factor()`` runs unchanged: the wrappers replace the names in
    ``repro.core.tiled_qr``'s namespace for the duration of the call
    only.  Returns the factorization and the root span's id.
    """
    module = importlib.import_module("repro.core.tiled_qr")
    with contextlib.ExitStack() as stack:
        for attr, name in FACTOR_LAYERS.items():
            stack.enter_context(mock.patch.object(
                module, attr, _wrapped(spans, name, getattr(module, attr))))
        with spans.span(f"factor.{path}") as root:
            fact = call()
    return fact, root


class Op:
    """One end-to-end operation: run, optional traced run, check."""

    metric = ""
    #: whether the traced run also repeats this op with spans
    traced = True

    def run(self):
        raise NotImplementedError

    def run_traced(self, spans: SpanLog):
        return self.run()

    def elapsed(self, result, wall: float) -> float:
        return wall

    def check(self, result, rep: int) -> str | None:
        return None

    def after(self) -> None:
        """Untimed clean-up after each rep."""

    def after_traced(self, spans: SpanLog) -> None:
        """Untimed per-layer measurements after each traced rep."""


class SetupOp(Op):
    """A fresh process's cost before its first result, in a child."""

    metric = "setup_s"
    traced = False

    def __init__(self, wl: Workload, smoke: bool):
        self.wl, self.smoke = wl, smoke
        self.parts: list[dict] = []

    def run(self):
        cmd = [sys.executable, str(RUN_PY), "--setup-trial", self.wl.name]
        if self.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            return {"error": proc.stderr.strip().splitlines()[-1:]}
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.parts.append(out)
        return out

    def elapsed(self, result, wall: float) -> float:
        return result.get("setup_s", wall)

    def check(self, result, rep: int):
        if "error" in result:
            return f"setup trial failed: {result['error']}"
        want = len(api.plan(self.wl.p, self.wl.q, self.wl.scheme,
                            self.wl.family))
        if result["tasks"] != want:
            return f"setup trial planned {result['tasks']} tasks, not {want}"
        return None


class SweepOp(Op):
    """One cold-cache plan sweep over the workload's grids."""

    metric = "sweep_s"

    def __init__(self, wl: Workload, rewarm):
        self.wl, self.rewarm = wl, rewarm
        self.roots: list[int] = []
        self.builds = self.tasks = 0

    def run(self):
        return sweep_rows(self.wl)

    def run_traced(self, spans: SpanLog):
        before = api.plan_cache_stats()
        with spans.span("sweep") as sid:
            rows = sweep_rows(self.wl, spans)
        self.roots.append(sid)
        self.builds = api.plan_cache_stats()["builds"] - before["builds"]
        self.tasks = sum(row["tasks"] for row in rows)
        return rows

    def check(self, rows, rep: int):
        for row in rows:
            bad = checks.check_sweep_row(row, SIM_PROCESSORS)
            if bad:
                return bad
        return None

    def after(self) -> None:
        # drop the sweep's plans and re-warm the factor workload's own
        # plan (and its lazy artifacts), so factor calls stay cache
        # hits and the next sweep starts cold
        api.clear_plan_cache()
        self.rewarm()


class FactorOp(Op):
    """``repro.api.factor`` down one execution path."""

    def __init__(self, wl: Workload, a: np.ndarray, path: str, pool,
                 r_ref: np.ndarray):
        self.wl, self.a, self.path, self.r_ref = wl, a, path, r_ref
        self.metric = f"{path}_s"
        self.kw = dict(PATHS[path])
        if path == "process":
            self.kw["pool"] = pool
        self.hits = 0.0
        self.registries: list[MetricsRegistry] = []
        self.roots: list[int] = []

    def run(self, metrics=None):
        return api.factor(self.a, nb=self.wl.nb, ib=self.wl.ib,
                          scheme=self.wl.scheme, family=self.wl.family,
                          metrics=metrics, **self.kw)

    def run_traced(self, spans: SpanLog):
        reg = MetricsRegistry()
        before = api.plan_cache_stats()["hits"]
        fact, root = traced_factor(spans, self.path,
                                   lambda: self.run(metrics=reg))
        self.hits = api.plan_cache_stats()["hits"] - before
        self.registries.append(reg)
        self.roots.append(root)
        return fact

    def check(self, fact, rep: int):
        bad = checks.check_r(fact.r(), self.r_ref)
        if bad is None and rep == 0:
            bad = checks.check_residual(fact, self.a)
        return bad


class SolveOp(Op):
    """``solve_lstsq(b)`` on the finished reference factorization."""

    metric = "solve_s"

    def __init__(self, fact, b: np.ndarray, x_ref: np.ndarray):
        self.fact, self.b, self.x_ref = fact, b, x_ref
        self.parts: dict[str, list[float]] = {"apply_qh": [], "r": []}

    def run(self):
        return self.fact.solve_lstsq(self.b)

    def run_traced(self, spans: SpanLog):
        with spans.span("core.solve_lstsq"):
            return self.fact.solve_lstsq(self.b)

    def after_traced(self, spans: SpanLog) -> None:
        # the solve's layer split: Q^H b, then extracting R; the
        # back-substitution is the remainder of solve_lstsq
        with spans.span("core.apply_qh") as sid:
            self.fact.qh_matmul(self.b)
        self.parts["apply_qh"].append(spans.duration(sid))
        with spans.span("core.r") as sid:
            self.fact.r()
        self.parts["r"].append(spans.duration(sid))

    def check(self, x, rep: int):
        return checks.check_solve(x, self.x_ref)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------

class Bench:
    """Inputs, reference results, the persistent pool and the ops."""

    def __init__(self, wl: Workload, seed: int, smoke: bool = False):
        self.wl = wl
        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((wl.m, wl.n))
        self.b = rng.standard_normal(wl.m)
        self.pool = ProcessPool(workers=1)
        try:
            self._setup(smoke)
        except BaseException:
            self.pool.close()
            raise

    def _setup(self, smoke: bool) -> None:
        wl, a = self.wl, self.a
        # pool start: worker fork plus its first (one-tile) run
        t0 = time.perf_counter()
        api.factor(a[:wl.nb, :wl.nb], nb=wl.nb, ib=wl.ib, mode="process",
                   pool=self.pool)
        self.pool_start_s = time.perf_counter() - t0
        self.rewarm()
        # the numerical reference: sequential task mode, reference
        # kernels, itself checked against LAPACK's QR; lstsq gives the
        # solve's reference
        self.ref = api.factor(a, nb=wl.nb, ib=wl.ib, scheme=wl.scheme,
                              family=wl.family, mode="task")
        self.r_ref = self.ref.r()
        bad = (checks.check_residual(self.ref, a)
               or checks.check_r(self.r_ref, np.linalg.qr(a, mode="r"),
                                 checks.REF_RTOL))
        if bad:
            raise RuntimeError(f"reference factorization is wrong: {bad}")
        self.x_ref = np.linalg.lstsq(a, self.b, rcond=None)[0]
        self.setup_op = SetupOp(wl, smoke)
        self.sweep_op = SweepOp(wl, self.rewarm)
        self.factor_ops = {path: FactorOp(wl, a, path, self.pool,
                                          self.r_ref)
                           for path in PATHS}
        self.solve_op = SolveOp(self.ref, self.b, self.x_ref)
        self.ops = ([self.setup_op, self.sweep_op]
                    + list(self.factor_ops.values()) + [self.solve_op])

    def rewarm(self) -> None:
        """Plan the workload's shape and build its lazy artifacts."""
        pl = api.plan(self.wl.p, self.wl.q, self.wl.scheme, self.wl.family)
        pl.bottom_levels()
        pl.level_groups()
        pl.dispatch_arrays()
        self.plan = pl

    def close(self) -> None:
        self.pool.close()

    def worker_peak_mb(self) -> float:
        """Peak RSS of the pool worker, read while it is alive."""
        import multiprocessing

        peak = 0.0
        for child in multiprocessing.active_children():
            try:
                status = Path(f"/proc/{child.pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peak += int(line.split()[1]) / 1024.0
        return peak

    def warm_up(self) -> None:
        """One untimed pass of the ops whose first call costs extra
        (lazy imports, first-touch pages, the pool's first real run),
        so those costs stay out of the medians.  The task path is warm
        from the reference; the threaded path and the set-up trial
        have no first-call cost of their own."""
        for op in (self.sweep_op, self.factor_ops["batched"],
                   self.factor_ops["process"], self.factor_ops["lapack"],
                   self.solve_op):
            op.run()
            op.after()

    def measure(self, calib, seconds: float, min_rounds: int,
                spans: SpanLog | None = None, corrupt=None) -> dict:
        """Interleaved whole rounds for about ``seconds``.

        A round runs the ops in :data:`spec.ROUND` order.  A new round
        starts only if it is expected to end less than half a round
        past ``seconds``, so a run measures ``seconds`` on average.  With
        ``spans``, each op is also run traced right after its untraced
        rep (the trace run); the traced reps land in series keyed
        ``traced.<metric>``.  Without ``spans``, the ops of
        :data:`spec.TRACED_TIMED` are skipped.  ``corrupt`` is a test hook called as
        ``corrupt(metric, rep, result)`` before each check.
        """
        by_metric = {op.metric: op for op in self.ops}
        order = ROUND if spans is not None else [m for m in ROUND
                                                 if m in TIMED]
        series: dict[str, Series] = {}
        last: dict[str, tuple] = {}
        prev: Sample | None = None
        t_start = time.perf_counter()
        rnd = 0
        while rnd < max(1, min_rounds) or (
                (time.perf_counter() - t_start) * (rnd + 0.5) / rnd
                < seconds):
            for metric in order:
                op = by_metric[metric]
                variants = [("", op.run)]
                if spans is not None and op.traced:
                    variants.append(
                        ("traced.", lambda op=op: op.run_traced(spans)))
                for prefix, fn in variants:
                    gc.collect()
                    tc = calib()
                    if prev is not None:
                        prev.after = tc
                    t0 = time.perf_counter()
                    try:
                        res, err = fn(), None
                    except Exception as exc:  # a crash is a failed op
                        res, err = None, f"{type(exc).__name__}: {exc}"
                    wall = time.perf_counter() - t0
                    ser = series.setdefault(prefix + metric, Series())
                    rep = len(ser.samples)
                    if err is None:
                        if corrupt is not None:
                            res = corrupt(metric, rep, res)
                        err = op.check(res, rep)
                        wall = op.elapsed(res, wall)
                    prev = Sample(raw=wall, before=tc, failure=err)
                    ser.samples.append(prev)
                    if isinstance(op, FactorOp) and not prefix \
                            and err is None:
                        last[metric] = (res, prev)
                    op.after()
                    if prefix:
                        op.after_traced(spans)
            rnd += 1
        prev.after = calib()
        # ||A - QR|| on the last rep of each path, too
        for metric, (fact, s) in last.items():
            s.failure = checks.check_residual(fact, self.a)
        self.rounds = rnd
        return series


def failures(series: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, distinct reasons) over every series."""
    attempted = failed = 0
    reasons: Counter = Counter()
    for ser in series.values():
        for s in ser.samples:
            attempted += 1
            if s.failure is not None:
                failed += 1
                reasons[s.failure] += 1
    return attempted, failed, [f"{n}x {r}" for r, n in reasons.items()]


def blas_threads() -> dict:
    """The BLAS/OpenMP thread settings the run pinned."""
    return {k: os.environ.get(k) for k in PINNED}


def kernel_counts(plan) -> Counter:
    """Tasks per kernel name in a plan's DAG."""
    return Counter(t.kernel.value for t in plan.graph.tasks)
