"""``tiled_qr``: the user-facing factorization entry point (S13).

Factor an ``m x n`` matrix (``m >= n``) with any of the paper's
elimination trees and either kernel family, on either kernel backend,
with any of the runtime's transports:

>>> import numpy as np
>>> from repro import tiled_qr
>>> rng = np.random.default_rng(0)
>>> a = rng.standard_normal((64, 32))
>>> f = tiled_qr(a, nb=8, scheme="greedy")
>>> np.allclose(f.q() @ f.r(), a)
True

Rows are zero-padded internally when ``m`` is not a multiple of the
tile size (the QR of ``[A; 0]`` has the same ``R`` and an embedded
``Q``); ragged *column* edges are handled natively by the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dag.tasks import TaskGraph
from ..kernels.costs import KernelFamily
from ..planner import Plan
from ..planner import plan as build_plan
from ..runtime.executor import ExecutionContext, execute_graph
from ..runtime.options import exec_keywords, pop_options
from ..schemes.elimination import EliminationList
from ..tiles.layout import TiledMatrix

__all__ = ["tiled_qr", "TiledQRFactorization"]


@dataclass
class TiledQRFactorization:
    """Result of :func:`tiled_qr` — an implicit ``A = Q R``.

    ``R`` is stored in the tiles of the working array; ``Q`` is kept in
    factored form (Householder vectors + T factors) and applied on
    demand, LAPACK-style.
    """

    m: int  #: original row count (before any internal padding)
    n: int
    nb: int
    scheme: EliminationList
    graph: TaskGraph
    context: ExecutionContext

    # ------------------------------------------------------------------
    def r(self, full: bool = False) -> np.ndarray:
        """The ``R`` factor: ``n x n`` upper triangular (or ``m x n``)."""
        work = self.context.tiled.array
        return np.triu(work[: self.m if full else self.n, : self.n])

    def qh_matmul(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q^H @ c`` for an ``(m, k)`` or ``(m,)`` array."""
        c2, squeeze = self._prepare_rhs(c)
        self.context.apply_q(c2, adjoint=True)
        out = c2[: self.m]
        return out[:, 0] if squeeze else out

    def q_matmul(self, c: np.ndarray) -> np.ndarray:
        """Return ``Q @ c`` for an ``(m, k)`` or ``(m,)`` array."""
        c2, squeeze = self._prepare_rhs(c)
        self.context.apply_q(c2, adjoint=False)
        out = c2[: self.m]
        return out[:, 0] if squeeze else out

    def matmul_q(self, c: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Return ``c @ Q`` (or ``c @ Q^H``) for a ``(k, m)`` array.

        The right-side companion of :meth:`q_matmul`; useful for
        two-sided transformations (e.g. forming ``Q^H A Q``).
        """
        c = np.asarray(c)
        if c.ndim != 2 or c.shape[1] != self.m:
            raise ValueError(f"expected (k, {self.m}) array, got {c.shape}")
        mp = self.context.tiled.m
        dtype = np.result_type(c.dtype, self.context.tiled.array.dtype)
        c2 = np.zeros((c.shape[0], mp), dtype=dtype)
        c2[:, : self.m] = c
        self.context.apply_q_right(c2, adjoint=adjoint)
        return c2[:, : self.m]

    def q(self, full: bool = False) -> np.ndarray:
        """Materialize the ``Q`` factor (thin ``m x n`` by default)."""
        mp = self.context.tiled.m
        k = mp if full else self.n
        eye = np.zeros((mp, k), dtype=self.context.tiled.array.dtype)
        np.fill_diagonal(eye, 1.0)
        self.context.apply_q(eye, adjoint=False)
        return eye[: self.m]

    def solve_lstsq(self, b: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min ||A x - b||_2`` via ``Q R``.

        Computes ``x = R^{-1} (Q^H b)[:n]`` with back-substitution —
        the motivating use case of the paper's introduction.
        """
        qhb = self.qh_matmul(b)
        r = self.r()
        y = qhb[: self.n]
        return _back_substitute(r, y)

    def residual(self, a: np.ndarray) -> float:
        """Relative factorization error ``||A - QR|| / ||A||``."""
        qr = self.q_matmul(np.vstack([self.r(), np.zeros(
            (self.m - self.n, self.n), dtype=a.dtype)]))
        return float(np.linalg.norm(qr - a) / max(np.linalg.norm(a), 1e-300))

    def orthogonality(self) -> float:
        """Orthogonality error ``||Q^H Q - I||`` of the thin ``Q``."""
        qm = self.q()
        g = qm.conj().T @ qm
        return float(np.linalg.norm(g - np.eye(self.n, dtype=g.dtype)))

    # ------------------------------------------------------------------
    def _prepare_rhs(self, c: np.ndarray) -> tuple[np.ndarray, bool]:
        c = np.asarray(c)
        squeeze = c.ndim == 1
        if squeeze:
            c = c[:, None]
        if c.shape[0] != self.m:
            raise ValueError(f"rhs has {c.shape[0]} rows, expected {self.m}")
        mp = self.context.tiled.m
        dtype = np.result_type(c.dtype, self.context.tiled.array.dtype)
        c2 = np.zeros((mp, c.shape[1]), dtype=dtype)
        c2[: self.m] = c
        return c2, squeeze


def _back_substitute(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``R x = y`` for upper triangular ``R`` (own substrate —
    no scipy solve_triangular, per the from-scratch policy)."""
    n = r.shape[0]
    x = np.array(y, dtype=np.result_type(r.dtype, y.dtype), copy=True)
    for i in range(n - 1, -1, -1):
        if r[i, i] == 0:
            raise np.linalg.LinAlgError(f"R is singular at diagonal {i}")
        x[i] = (x[i] - r[i, i + 1 :] @ x[i + 1 :]) / r[i, i]
    return x


@exec_keywords
def tiled_qr(
    a: np.ndarray,
    nb: int = 64,
    ib: int = 32,
    scheme="greedy",
    family: KernelFamily | str = KernelFamily.TT,
    *,
    tracer=None,
    metrics=None,
    bus=None,
    on_task_done=None,
    **params,
) -> TiledQRFactorization:
    """Tiled QR factorization of ``a`` (``m >= n``).

    ``repro.api.factor`` is this function.

    Parameters
    ----------
    a : ndarray, shape (m, n)
        Matrix to factor (not modified; the factorization works on a
        copy).  Real or complex.
    nb : int
        Tile size (the paper uses 200 on 8000-row matrices).
    ib : int
        Inner blocking size of the kernels (the paper uses 32).
    scheme : str, EliminationList, or Plan
        Elimination tree: a name or spec — ``greedy`` (default, the
        paper's best), ``fibonacci``, ``flat-tree``, ``binary-tree``,
        ``plasma-tree`` (pass ``bs=...`` or write ``"plasma(bs=5)"``),
        ``asap``, ``grasap`` (pass ``k=...``) — or a prebuilt
        :class:`~repro.schemes.elimination.EliminationList`, or a
        :class:`~repro.planner.Plan` from :func:`repro.api.plan`
        (whose grid shape must match the tiling of ``a``; its family
        overrides ``family``; it must be a QR plan — Cholesky/LU plans
        simulate but do not execute).  Named schemes go through the
        process-wide plan cache, so repeated factorizations of
        same-shaped matrices skip DAG construction.
    family : {"TT", "TS"}
        Kernel family (Section 2.1): TT maximizes parallelism, TS
        locality/sequential speed.  Ignored when ``scheme`` is a Plan.
    **execution keywords**
        One keyword per :class:`~repro.runtime.ExecOptions` field, of
        the same name (``mode=``, ``backend=``, ...), built into one
        bundle for :func:`~repro.runtime.execute_graph`.  The
        execution-options table in docs/api.md gives their values,
        defaults and the transports that read them.
    tracer, metrics, bus, on_task_done
        Observability passthroughs to
        :func:`~repro.runtime.executor.execute_graph`: a span
        :class:`~repro.obs.tracer.Tracer`, a
        :class:`~repro.obs.metrics.MetricsRegistry`, a streaming
        :class:`~repro.obs.stream.EventBus` (the live ``--progress``
        dashboard), and a per-task completion callback.  All
        default to ``None`` (zero observation cost).
    **params
        Extra parameters for the scheme (e.g. ``bs`` for plasma-tree).

    Returns
    -------
    TiledQRFactorization
    """
    options = pop_options(params)
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    m, n = a.shape
    if m < n:
        raise ValueError(
            f"tiled QR requires m >= n (p >= q in tiles), got {m} x {n}")
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(np.float64)
    # pad rows to a multiple of nb: QR of [A; 0] embeds the QR of A
    mp = -(-m // nb) * nb
    work = np.zeros((mp, n), dtype=a.dtype)
    work[:m] = a
    tiled = TiledMatrix(work, nb)
    if isinstance(scheme, Plan):
        if getattr(scheme, "problem", "qr") != "qr" or scheme.elims is None:
            raise ValueError(
                f"factor/tiled_qr runs QR plans only, got a "
                f"{scheme.problem!r} plan; use repro.sim/analyze for "
                f"other problem families")
        family = scheme.family  # the plan's DAG decides
    pl = build_plan(tiled.p, tiled.q, scheme, family, **params)
    # pass the Plan itself: the frontier core reuses its memoized
    # bottom levels and dispatch arrays, batched mode its drain order
    ctx = execute_graph(pl, tiled, options, ib=min(ib, nb), tracer=tracer,
                        metrics=metrics, bus=bus, on_task_done=on_task_done)
    return TiledQRFactorization(m=m, n=n, nb=nb, scheme=pl.elims,
                                graph=pl.graph, context=ctx)
