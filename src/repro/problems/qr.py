"""Tiled QR as a registered :class:`Problem` family.

Wraps the existing pipeline — scheme registry → elimination list →
:func:`~repro.dag.build.build_dag` — behind the problem interface.
Every QR plan is built from a :class:`QRProblem`: ``plan(8, 4,
"greedy")`` and ``plan("qr(p=8, q=4, scheme='greedy')")`` resolve to
the same problem, and its :attr:`~QRProblem.plan_spec` is the scheme
spec, so both spellings share one cache entry per shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..dag.build import build_dag
from ..dag.tasks import TaskGraph
from ..kernels.costs import QR_KERNELS, KernelFamily
from ..schemes.elimination import EliminationList
from ..schemes.registry import canonical_scheme_spec, get_scheme
from .base import Problem

__all__ = ["QRProblem"]


@dataclass(frozen=True, init=False)
class QRProblem(Problem):
    """``qr(p, q, scheme=..., family=...)`` — the source paper's DAGs.

    ``scheme`` accepts any scheme name/spec the registry knows
    (including inline parameters: ``scheme='plasma(bs=5)'``) and is
    normalized to its canonical spec on construction.  A prebuilt
    :class:`~repro.schemes.elimination.EliminationList` of the same
    grid is used as given; such a problem has no :attr:`plan_spec`,
    so its plan is never cached.
    """

    name = "qr"
    kernels = QR_KERNELS

    grid_p: int
    grid_q: int
    scheme: str | EliminationList = "greedy"
    kernel_family: KernelFamily = KernelFamily.TT

    def __init__(self, p: int, q: int,
                 scheme: str | EliminationList = "greedy",
                 family: KernelFamily | str = KernelFamily.TT):
        p, q = int(p), int(q)
        if not (p >= q >= 1):
            raise ValueError(f"qr needs p >= q >= 1, got p={p}, q={q}")
        if isinstance(scheme, EliminationList):
            if (scheme.p, scheme.q) != (p, q):
                raise ValueError(
                    f"elimination list is for a {scheme.p} x {scheme.q} "
                    f"grid, requested {p} x {q}")
        else:
            scheme = canonical_scheme_spec(scheme)
        object.__setattr__(self, "grid_p", p)
        object.__setattr__(self, "grid_q", q)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "kernel_family", KernelFamily(family))

    @property
    def p(self) -> int:
        return self.grid_p

    @property
    def q(self) -> int:
        return self.grid_q

    @property
    def family(self) -> Optional[KernelFamily]:
        return self.kernel_family

    @property
    def plan_spec(self) -> Optional[str]:
        """The scheme spec: QR plans have been keyed by it since before
        the other problem families existed."""
        return None if isinstance(self.scheme, EliminationList) else self.scheme

    def params(self) -> dict:
        return {"p": self.grid_p, "q": self.grid_q, "scheme": self.scheme,
                "family": str(self.kernel_family)}

    def label(self) -> str:
        return f"qr[{self.kernel_family}]"

    def build(self) -> tuple[Optional[EliminationList], TaskGraph]:
        elims = (self.scheme if isinstance(self.scheme, EliminationList)
                 else get_scheme(self.scheme, self.grid_p, self.grid_q))
        return elims, build_dag(elims, self.kernel_family)
