"""Householder reflector substrate (S1).

This module provides the elementary building blocks used by every tile
kernel in :mod:`repro.kernels`: generation of a single Householder
reflector, accumulation of a block of reflectors into a compact-WY
``T`` factor (LAPACK ``larft``), application of a block reflector to
a matrix (LAPACK ``larfb``), and the :class:`TFactor` container with
its inner-panel split (:func:`panel_starts`) that every factor kernel
returns and every apply kernel consumes.

Conventions
-----------
We use *Hermitian* elementary reflectors

.. math:: H = I - \\tau\\, v v^{\\mathsf H}, \\qquad v_0 = 1,\\ \\tau \\in \\mathbb{R},

chosen such that :math:`H x = \\beta e_1` with
:math:`\\beta = -e^{i\\arg x_0}\\,\\lVert x\\rVert_2`.  Because each
:math:`H` is Hermitian and unitary, a product
:math:`Q = H_1 H_2 \\cdots H_k` admits the compact-WY form

.. math:: Q = I - V T V^{\\mathsf H},

with ``V`` unit lower trapezoidal and ``T`` upper triangular, and the
adjoint is simply :math:`Q^{\\mathsf H} = I - V T^{\\mathsf H} V^{\\mathsf H}`.
This convention works uniformly for real and complex dtypes and keeps
``tau`` real, which simplifies the structured TS/TT kernels.

The sign choice :math:`\\beta = -e^{i\\arg x_0}\\lVert x\\rVert` avoids
cancellation when forming :math:`u = x - \\beta e_1` (LAPACK's choice in
``?larfg``), so the reflector generation is unconditionally stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TFactor",
    "panel_starts",
    "reflector",
    "apply_reflector",
    "larft",
    "apply_block_reflector",
    "accumulate_t_column",
]


def panel_starts(n: int, ib: int) -> list[tuple[int, int]]:
    """Return ``(start, width)`` pairs covering ``range(n)`` in panels of ``ib``."""
    if ib <= 0:
        raise ValueError(f"inner block size must be positive, got {ib}")
    return [(j, min(ib, n - j)) for j in range(0, n, ib)]


@dataclass
class TFactor:
    """Compact-WY ``T`` factors of a blocked factorization.

    Attributes
    ----------
    blocks : list of ndarray
        One upper triangular block per inner panel: ``(jb, jb)`` for
        one tile, ``(batch, jb, jb)`` for a stack of same-shaped
        factorizations (the stacked kernels of
        :mod:`repro.kernels.batched`).  The apply kernels broadcast a
        2-D block over every slice of their operands.
    ib : int
        Inner blocking size the factorization used (the last block may
        be narrower).
    """

    blocks: list[np.ndarray] = field(default_factory=list)
    ib: int = 1

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def reflector(x: np.ndarray) -> tuple[np.ndarray, float, complex]:
    """Generate a Householder reflector annihilating ``x[1:]``.

    Parameters
    ----------
    x : ndarray, shape (m,)
        Input vector (not modified).

    Returns
    -------
    v : ndarray, shape (m,)
        Householder vector with ``v[0] == 1``.
    tau : float
        Real scalar such that ``H = I - tau * outer(v, conj(v))``
        satisfies ``H @ x == beta * e1``.
    beta : scalar
        The resulting leading entry (same dtype domain as ``x``);
        ``abs(beta) == norm(x)``.

    Notes
    -----
    When ``norm(x) == 0`` the identity reflector ``tau = 0`` is
    returned.  For a real nonnegative ``x[0]`` with zero tail we still
    build a genuine reflector so that ``beta <= 0`` consistently; this
    keeps the sign convention deterministic, which the property-based
    tests rely on.
    """
    x = np.asarray(x)
    m = x.shape[0]
    v = np.zeros_like(x)
    v[0] = 1.0
    norm_x = np.linalg.norm(x)
    if norm_x == 0.0:
        return v, 0.0, x.dtype.type(0)
    alpha = x[0]
    if alpha == 0:
        phase = 1.0
    else:
        phase = alpha / abs(alpha)
    beta = -phase * norm_x
    u0 = alpha - beta  # = phase * (|alpha| + norm_x): no cancellation
    v[1:] = x[1:] / u0
    # u^H u = 2 * (norm_x^2 + |alpha| * norm_x); tau = 2|u0|^2 / (u^H u)
    uhu = 2.0 * (norm_x * norm_x + abs(alpha) * norm_x)
    tau = float(2.0 * abs(u0) ** 2 / uhu)
    return v, tau, beta


def apply_reflector(v: np.ndarray, tau: float, c: np.ndarray) -> None:
    """Apply ``H = I - tau v v^H`` to ``c`` in place (``c`` is m-by-n)."""
    if tau == 0.0:
        return
    w = v.conj() @ c  # shape (n,)
    c -= tau * np.outer(v, w)


def accumulate_t_column(
    t: np.ndarray, v_panel: np.ndarray, v_new: np.ndarray, tau: float, j: int
) -> None:
    """Extend an upper triangular ``T`` factor by one reflector (larft step).

    Given the compact-WY factor ``T[:j, :j]`` of reflectors
    ``H_0 ... H_{j-1}`` whose vectors are the columns of
    ``v_panel[:, :j]``, compute column ``j`` of ``T`` for the new
    reflector ``(v_new, tau)`` so that
    ``H_0 ... H_j = I - V T V^H`` continues to hold.

    ``t`` is modified in place; it must be at least ``(j+1, j+1)``.
    """
    t[j, j] = tau
    if j > 0:
        # t[:j, j] = -tau * T[:j, :j] @ (V[:, :j]^H v_new)
        w = v_panel[:, :j].conj().T @ v_new
        t[:j, j] = -tau * (t[:j, :j] @ w)


def larft(v: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Form the upper triangular ``T`` of the compact-WY representation.

    Parameters
    ----------
    v : ndarray, shape (m, k)
        Householder vectors as columns (``v[j, j] == 1`` with zeros
        above is *not* required here; the caller passes vectors in
        whatever structured form the kernel uses, as long as the
        columns are the true reflector vectors).
    taus : ndarray, shape (k,)
        The real ``tau`` scalars.

    Returns
    -------
    t : ndarray, shape (k, k), upper triangular.
    """
    k = v.shape[1]
    t = np.zeros((k, k), dtype=v.dtype)
    for j in range(k):
        accumulate_t_column(t, v, v[:, j], taus[j], j)
    return t


def apply_block_reflector(
    v: np.ndarray, t: np.ndarray, c: np.ndarray, adjoint: bool = True
) -> None:
    """Apply ``Q = I - V T V^H`` (or its adjoint) to ``c`` in place.

    ``Q^H C = C - V T^H (V^H C)`` — this is the workhorse of all update
    kernels (LAPACK ``larfb`` with ``side='L'``).

    Parameters
    ----------
    v : ndarray, shape (m, k)
    t : ndarray, shape (k, k)
    c : ndarray, shape (m, n), modified in place.
    adjoint : bool
        If True (default) apply :math:`Q^{\\mathsf H}`, the direction
        used during factorization; otherwise apply :math:`Q`.
    """
    w = v.conj().T @ c  # (k, n)
    if adjoint:
        w = t.conj().T @ w
    else:
        w = t @ w
    c -= v @ w
