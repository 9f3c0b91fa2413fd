"""Tile kernels of the tiled QR factorization (Section 2.1 of the paper).

Two interchangeable backends are provided:

* :mod:`repro.kernels` top level — pure NumPy reference kernels,
  implemented from scratch (Householder reflectors + compact WY), fully
  documented, supporting real and complex dtypes and ragged tiles.
  Each is written once, in :mod:`repro.kernels.batched`: the three
  factor kernels (``geqrt``/``tsqrt``/``ttqrt``) are its kernels over
  any leading batch shape, which factor a 2-D tile or a stack of tiles
  with the same bytes per tile, and the three update kernels
  (``unmqr``/``tsmqr``/``ttmqr``) call its stacked applies on one-tile
  views.
* :mod:`repro.kernels.lapack` — thin wrappers over LAPACK's
  ``?geqrt/?gemqrt/?tpqrt/?tpmqrt`` via :mod:`scipy.linalg.lapack`, used
  for performance benchmarking.

Both expose the same six operations and are cross-checked in the test
suite.
"""

from .costs import (
    KERNEL_WEIGHTS,
    Kernel,
    KernelFamily,
    UNIT_FLOPS,
    kernel_flops,
    qr_flops,
    total_weight,
)
from .geqrt import TFactor, geqrt, unmqr
from .tsqrt import tsmqr, tsqrt
from .ttqrt import ttmqr, ttqrt

__all__ = [
    "Kernel",
    "KernelFamily",
    "KERNEL_WEIGHTS",
    "UNIT_FLOPS",
    "TFactor",
    "geqrt",
    "unmqr",
    "tsqrt",
    "tsmqr",
    "ttqrt",
    "ttmqr",
    "kernel_flops",
    "qr_flops",
    "total_weight",
]
