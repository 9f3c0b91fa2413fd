"""Householder reflector substrate (S1).

This module provides the elementary building blocks of the tile
kernels in :mod:`repro.kernels`: generation of a single Householder
reflector (:func:`reflector`, on which the per-tile test oracle
builds; the factor kernels generate theirs over a batch axis with the
same conventions), accumulation of a block of reflectors into a
compact-WY ``T`` factor (LAPACK ``larft``, over any leading batch
shape, which every factor kernel calls), and the :class:`TFactor`
container with its inner-panel split (:func:`panel_starts`) that every
factor kernel returns and every apply kernel consumes.

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
    "larft",
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


def larft(v: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Form the upper triangular ``T`` of the compact-WY representation.

    LAPACK ``larft`` (forward, columnwise) over any leading batch
    shape: ``T[j, j] = tau_j`` and ``T[:j, j] = -tau_j T[:j, :j]
    V[:, :j]^H v_j``, with every ``V^H v`` product read from one Gram
    matrix ``V^H V`` whose columns are pre-scaled by ``-tau``.

    Parameters
    ----------
    v : ndarray, shape (..., m, k)
        Householder vectors as columns (``v[j, j] == 1`` with zeros
        above is *not* required here; the caller passes vectors in
        whatever structured form the kernel uses, as long as the
        columns are the true reflector vectors).
    taus : ndarray, shape (..., k)
        The real ``tau`` scalars.

    Returns
    -------
    t : ndarray, shape (..., k, k), upper triangular.
    """
    k = v.shape[-1]
    g = np.matmul(v.conj().swapaxes(-1, -2), v)
    g *= -taus[..., None, :]
    t = np.zeros(g.shape, dtype=v.dtype)
    d = np.arange(k)
    t[..., d, d] = taus
    for j in range(1, k):
        t[..., :j, j:j + 1] = np.matmul(t[..., :j, :j], g[..., :j, j:j + 1])
    return t
