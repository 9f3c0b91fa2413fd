"""Closed-form critical-path results of the paper (S14).

Theorem 1, Proposition 1 and Proposition 2, expressed in the paper's
time unit (``nb^3/3`` flops).  All formulas are verified against the
discrete-event simulator in ``tests/analysis/test_formulas.py`` — the
same sanity check the authors performed with their own programs.
"""

from __future__ import annotations

import math

__all__ = [
    "flat_tree_cp",
    "ts_flat_tree_cp",
    "fibonacci_cp_bound",
    "greedy_cp_bound",
    "optimal_cp_lower_bound",
    "binary_tree_cp_exact",
    "flat_tree_cp_flops",
]


def _check(p: int, q: int) -> None:
    if q < 1 or p < q:
        raise ValueError(f"need p >= q >= 1, got p={p}, q={q}")


def flat_tree_cp(p: int, q: int) -> int:
    """Theorem 1(1): exact critical path of FlatTree with TT kernels.

    ``2p + 2`` for ``p >= q = 1``; ``6p + 16q - 22`` for ``p > q > 1``;
    ``22p - 24`` for ``p = q > 1``.
    """
    _check(p, q)
    if q == 1:
        return 2 * p + 2
    if p == q:
        return 22 * p - 24
    return 6 * p + 16 * q - 22


def ts_flat_tree_cp(p: int, q: int) -> int:
    """Proposition 2: exact critical path of FlatTree with TS kernels.

    ``6p - 2`` for ``p >= q = 1``; ``12p + 18q - 32`` for ``p > q > 1``;
    ``30p - 34`` for ``p = q > 1``.
    """
    _check(p, q)
    if q == 1:
        return 6 * p - 2
    if p == q:
        return 30 * p - 34
    return 12 * p + 18 * q - 32


def fibonacci_cp_bound(p: int, q: int) -> int:
    """Theorem 1(2): upper bound ``22q + 6 ceil(sqrt(2p))`` for Fibonacci."""
    _check(p, q)
    return 22 * q + 6 * math.ceil(math.sqrt(2 * p))


def greedy_cp_bound(p: int, q: int) -> int:
    """Theorem 1(2): upper bound ``22q + 6 ceil(log2 p)`` for Greedy.

    Reproduction note: the bound as stated is exceeded by exactly 2
    units at ``p = 128`` (for several ``q < p``) — by our simulator
    *and* by the paper's own Table 4b values — so the tight form is
    ``22q + 6 ceil(log2 p) + O(1)``.  The asymptotic-optimality
    conclusion (Theorem 1(5)) is unaffected.
    """
    _check(p, q)
    return 22 * q + 6 * math.ceil(math.log2(p))


def optimal_cp_lower_bound(q: int) -> int:
    """Theorem 1(3): any algorithm needs at least ``22q - 30`` time units.

    Derived from the exhaustive search over banded square matrices
    (three non-zero sub-diagonals); see
    :func:`repro.analysis.optimality.exhaustive_optimal_cp` for the
    search itself.

    Precondition: the bound is verified here only for ``p >= 2q``
    (``p`` tile rows).  It fails on near-square grids — the paper's
    own Table 5 has Greedy TT at ``p = 40`` reach 780 at ``q = 37``
    (bound 784) and 826 at ``q = 40`` (bound 850) — so callers must
    check ``p >= 2q`` before comparing a critical path against it.
    """
    if q < 2:
        raise ValueError(f"the bound is stated for q >= 2, got q={q}")
    return 22 * q - 30


def binary_tree_cp_exact(p: int, q: int) -> int:
    """Proposition 1: exact BinaryTree critical path for powers of two.

    ``(10 + 6 log2 p) q - 4 log2 p - 6`` when ``p`` and ``q`` are exact
    powers of two with ``q < p``.
    """
    _check(p, q)
    lp, lq = math.log2(p), math.log2(q)
    if lp != int(lp) or lq != int(lq) or q >= p:
        raise ValueError("formula requires p, q powers of two with q < p")
    return int((10 + 6 * lp) * q - 4 * lp - 6)


def flat_tree_cp_flops(m: int, n: int, nb: int) -> float:
    """Theorem 1 remark 1: FlatTree critical path in elementary flops.

    ``(2/3) m nb^2 + (2/3) nb^3`` if ``m >= n = nb``;
    ``2 m nb^2 + (16/3) n nb^2 - (22/3) nb^3`` if ``m > n > nb``;
    ``(22/3) n nb^2 - (24/3) nb^3`` if ``m = n > nb``
    (assuming ``m``, ``n`` multiples of ``nb``).
    """
    if m % nb or n % nb:
        raise ValueError("formula assumes m, n multiples of nb")
    p, q = m // nb, n // nb
    return flat_tree_cp(p, q) * nb**3 / 3.0
