"""The :class:`Problem` abstraction: a registered DAG-builder family.

Nothing downstream of :mod:`repro.dag.build` is QR-specific — the plan
cache, the vectorized simulator, the runtimes and the schedule
analytics all consume a weighted :class:`~repro.dag.tasks.TaskGraph`.
A :class:`Problem` is the object that *produces* such a graph: one
registered family per factorization (``qr``, ``cholesky``, ``lu``),
each with its own kernel enum and Table-1-style weights, constructed
from a spec string (``"cholesky(t=8)"``) or keyword parameters.

Problems are immutable value objects: two problems with equal
:meth:`spec` strings build identical DAGs, which is what lets the
sha256 plan signature (and therefore the LRU + disk cache tiers)
extend to every family without aliasing across families.
"""

from __future__ import annotations

from typing import ClassVar, Optional

from ..dag.tasks import TaskGraph
from ..kernels.costs import Kernel, KernelFamily
from ..schemes.elimination import EliminationList

__all__ = ["Problem"]


class Problem:
    """One factorization shape: a named, parameterized DAG builder.

    Subclasses are frozen dataclasses; they declare

    * ``name`` — the registered family name (``"qr"``, ``"cholesky"``,
      ``"lu"``);
    * ``kernels`` — the family's kernel tuple (a subset of
      :class:`~repro.kernels.costs.Kernel`);
    * :meth:`params` — the canonical parameter dict (the spec body);
    * :meth:`build` — produce ``(elims_or_None, TaskGraph)``.
    """

    #: registered family name; subclasses override
    name: ClassVar[str] = ""
    #: the kernels this family's DAGs are made of
    kernels: ClassVar[tuple[Kernel, ...]] = ()

    # -- shape ----------------------------------------------------------
    @property
    def p(self) -> int:
        """Tile-grid rows."""
        raise NotImplementedError

    @property
    def q(self) -> int:
        """Tile-grid columns."""
        raise NotImplementedError

    @property
    def family(self) -> Optional[KernelFamily]:
        """QR kernel family, or ``None`` for families without the
        TT/TS distinction (Cholesky, LU)."""
        return None

    # -- identity -------------------------------------------------------
    def params(self) -> dict:
        """Canonical parameter dict — the body of :meth:`spec`."""
        raise NotImplementedError

    def spec(self) -> str:
        """Canonical spec string (``"cholesky(t=8)"``).

        Stable across equivalent constructions — the plan cache keys
        on it, so it must include *every* parameter that affects the
        DAG.
        """
        from . import canonical_problem_spec
        return canonical_problem_spec(self.name, self.params())

    @property
    def plan_spec(self) -> Optional[str]:
        """The spec that keys this problem's plan (its ``Plan.scheme``);
        ``None`` for a problem that is never cached."""
        return self.spec()

    def label(self) -> str:
        """Short human label for report headers (``"qr[TT]"``)."""
        return self.name

    # -- construction ---------------------------------------------------
    def build(self) -> tuple[Optional[EliminationList], TaskGraph]:
        """Build the task DAG (and the elimination list, when the
        family has one — only QR does)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.spec()
