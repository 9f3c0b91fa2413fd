"""Kernel backend selection.

A :class:`KernelBackend` bundles the six tile operations behind one
uniform in-place interface so the runtimes (:mod:`repro.runtime`) are
agnostic to whether the pure-NumPy reference kernels or the
LAPACK-backed kernels execute the work.

>>> from repro.kernels.backend import get_backend
>>> bk = get_backend("reference")
>>> bk.name
'reference'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .geqrt import geqrt as _geqrt_fn, unmqr as _unmqr
from .tsqrt import tsmqr as _tsmqr_fn, tsqrt as _tsqrt_fn
from .ttqrt import ttmqr as _ttmqr_fn, ttqrt as _ttqrt_fn
from .lapack import (
    lapack_geqrt,
    lapack_tsmqr,
    lapack_tsqrt,
    lapack_ttmqr,
    lapack_ttqrt,
    lapack_unmqr,
)

__all__ = ["KernelBackend", "get_backend", "REFERENCE", "LAPACK", "BACKENDS"]


@dataclass(frozen=True)
class KernelBackend:
    """The six tile operations of Section 2.1 behind a uniform interface.

    All ``*qrt`` functions factor in place and return an opaque ``T``;
    all ``*mqr`` functions consume that ``T`` and update in place.
    """

    name: str
    geqrt: Callable[[np.ndarray, int], Any]
    unmqr: Callable[..., None]
    tsqrt: Callable[[np.ndarray, np.ndarray, int], Any]
    tsmqr: Callable[..., None]
    ttqrt: Callable[[np.ndarray, np.ndarray, int], Any]
    ttmqr: Callable[..., None]


REFERENCE = KernelBackend(
    name="reference",
    geqrt=_geqrt_fn,
    unmqr=_unmqr,
    tsqrt=_tsqrt_fn,
    tsmqr=_tsmqr_fn,
    ttqrt=_ttqrt_fn,
    ttmqr=_ttmqr_fn,
)

LAPACK = KernelBackend(
    name="lapack",
    geqrt=lapack_geqrt,
    unmqr=lapack_unmqr,
    tsqrt=lapack_tsqrt,
    tsmqr=lapack_tsmqr,
    ttqrt=lapack_ttqrt,
    ttmqr=lapack_ttmqr,
)

BACKENDS: dict[str, KernelBackend] = {b.name: b for b in (REFERENCE, LAPACK)}


def get_backend(name: str | KernelBackend = "reference") -> KernelBackend:
    """Resolve a backend by name (``"reference"`` or ``"lapack"``)."""
    if isinstance(name, KernelBackend):
        return name
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None
