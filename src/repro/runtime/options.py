"""Execution options: one bundle for the runtime knobs (S8 satellite).

``factor`` / ``tiled_qr`` / ``execute_graph`` historically grew five
independent execution keywords — ``mode``, ``workers``, ``numeric``,
``start_method``, ``pool`` — threaded through every layer by hand.
:class:`ExecOptions` groups them into one frozen dataclass that can be
built once (e.g. by the CLI) and passed anywhere an executor is
invoked:

>>> from repro.runtime import ExecOptions
>>> opts = ExecOptions(mode="batched", numeric="lapack")
>>> opts.mode
'batched'

The legacy keywords remain accepted everywhere.  :meth:`ExecOptions.
resolve` implements the merge rule: with no ``options`` the legacy
keywords build one; with an ``options`` object, any legacy keyword
still at its default is ignored, one that *agrees* with the bundle is
redundant but harmless, and a conflicting non-default value raises —
there is no silent precedence between the two spellings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Optional

__all__ = ["ExecOptions"]

#: execution modes understood by :func:`repro.runtime.execute_graph`
_MODES = ("task", "batched", "process")

#: numeric factor-kernel implementations (batched / process modes)
_NUMERICS = ("auto", "numpy", "lapack")

#: named micro-batching settings (ints >= 1 are also accepted)
_BATCHES = ("auto", "off")


def _normalize_batch(value) -> "int | str":
    """Validate/normalize a ``batch`` setting: ``"auto"``, ``"off"``
    or an int >= 1 (numeric strings from the CLI are converted;
    ``1`` is canonicalized to ``"off"`` — same semantics)."""
    if value in _BATCHES:
        return value
    try:
        size = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"batch must be 'auto', 'off' or an int >= 1, got {value!r}"
        ) from None
    if size < 1:
        raise ValueError(f"batch must be >= 1, got {size}")
    return "off" if size == 1 else size


@dataclass(frozen=True)
class ExecOptions:
    """How to run a task graph: scheduler mode and its knobs.

    Parameters mirror the identically named keywords of
    :func:`repro.runtime.execute_graph` (see there for full
    semantics):

    mode : str
        ``"task"`` (sequential, or the thread transport), ``"batched"``
        (the inline transport: stacked kernel groups) or
        ``"process"`` (shared-memory worker processes).
    workers : int or None
        Worker count for task/process modes; ``None`` means
        sequential (task mode) or one-per-core (process mode).
    numeric : str
        ``"auto"``, ``"numpy"`` or ``"lapack"`` — factor-kernel
        implementation for batched/process modes.
    start_method : str or None
        :mod:`multiprocessing` start method for process mode.
    pool : ProcessPool or None
        Persistent worker pool to reuse in process mode.
    batch : int or str
        Group size of the process and thread transports:
        ``"auto"`` (default) sizes groups to ~1ms of estimated work
        per descriptor, an int >= 2 fixes the group size, ``"off"``
        (or ``1``) dispatches single tasks.  Ignored by the batched
        mode (unbounded groups) and the sequential executor.  See
        :func:`repro.runtime.groups.resolve_batch`.
    """

    mode: str = "task"
    workers: Optional[int] = None
    numeric: str = "auto"
    start_method: Optional[str] = None
    pool: Any = None
    batch: Any = "auto"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.numeric not in _NUMERICS:
            raise ValueError(
                f"numeric must be one of {_NUMERICS}, got {self.numeric!r}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "batch", _normalize_batch(self.batch))

    # ------------------------------------------------------------------
    @classmethod
    def resolve(cls, options: "ExecOptions | None" = None,
                **legacy: Any) -> "ExecOptions":
        """Merge an explicit bundle with legacy per-keyword arguments.

        ``legacy`` holds the values of the old keywords as received by
        the caller (``mode=``, ``workers=``, ...).  Rules:

        * ``options is None`` — the legacy keywords (plus defaults)
          build the bundle; unchanged call sites behave exactly as
          before.
        * ``options`` given — legacy keywords still at their defaults
          are ignored; a legacy keyword equal to the bundle's value is
          accepted (harmless redundancy); a *conflicting* non-default
          legacy value raises :class:`ValueError` rather than silently
          picking a winner.
        """
        if options is None:
            return cls(**legacy)
        if not isinstance(options, cls):
            raise TypeError(
                f"options must be ExecOptions or None, got "
                f"{type(options).__name__}")
        defaults = {f.name: f.default for f in fields(cls)}
        for name, value in legacy.items():
            if name not in defaults:
                raise TypeError(f"unknown execution option {name!r}")
            if name == "batch":
                value = _normalize_batch(value)
            if value == defaults[name]:
                continue
            bundled = getattr(options, name)
            if value != bundled:
                raise ValueError(
                    f"conflicting execution options: {name}={value!r} "
                    f"(keyword) vs {name}={bundled!r} (ExecOptions); "
                    f"pass one or the other")
        return options
