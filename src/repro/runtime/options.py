"""Execution options: the one declaration of every execution knob.

:class:`ExecOptions` is the only place an execution knob is declared;
everything else derives from its fields:

* :func:`repro.tiled_qr` (``repro.api.factor`` is the same function)
  takes each field as a keyword of the same name and builds one bundle
  (:func:`exec_keywords`, :func:`pop_options`);
* :func:`~repro.runtime.execute_graph`,
  :func:`~repro.runtime.execute_batched`,
  :func:`~repro.runtime.execute_process` and
  :meth:`ProcessPool.run <repro.runtime.ProcessPool.run>` take only the
  bundle;
* the CLI's ``factor`` and ``profile`` subcommands generate one
  flag per field from the field's metadata
  (its help text, choices and type, and the command's default; a
  field without metadata, such as ``pool``, has no flag).

The values, defaults and readers of each field are tabulated once, in
the execution-options table of docs/api.md.

>>> from repro.runtime import ExecOptions
>>> ExecOptions(mode="batched", backend="lapack").mode
'batched'
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from ..kernels.backend import BACKENDS, LAPACK, REFERENCE, KernelBackend, \
    get_backend
from ..kernels.lapack import lapack_batched_supported

__all__ = ["ExecOptions", "exec_keywords", "pop_options", "resolve_backend"]

#: execution modes understood by :func:`repro.runtime.execute_graph`
_MODES = ("task", "batched", "process")

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
    """How to run a task graph: one frozen, validated bundle.

    Each field's metadata holds its CLI flag's ``help``, ``choices``,
    ``type`` or ``metavar``, and for a ``None`` default what leaving
    the field unset means (``unset``); see the execution-options table
    in docs/api.md for values, defaults and which transport reads each.
    """

    mode: str = field(default="task", metadata={
        "choices": _MODES,
        "help": "task = emission order in the calling thread, or "
                "ready groups on worker threads; batched = stacked kernel "
                "groups in the calling thread; process = worker processes "
                "over shared-memory tiles"})
    workers: Optional[int] = field(default=None, metadata={
        "type": int,
        "help": "worker threads (task mode; 1 runs sequentially) or "
                "worker processes (process mode); batched mode ignores it",
        "unset": "sequential in task mode, one per core in process mode"})
    backend: Any = field(default=None, metadata={
        "choices": tuple(BACKENDS),
        "help": "kernel library",
        "unset": "reference in task mode, LAPACK factor kernels for real "
                 "dtypes in batched and process mode"})
    start_method: Optional[str] = field(default=None, metadata={
        "choices": ("fork", "spawn", "forkserver"),
        "help": "multiprocessing start method of process mode",
        "unset": "fork where available"})
    pool: Any = None
    batch: Any = field(default="auto", metadata={
        "metavar": "auto|N|off",
        "help": "group size of the thread and process transports: auto "
                "targets ~1 ms of work per group, an int fixes it, off "
                "(or 1) dispatches single tasks"})

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.backend is not None:
            get_backend(self.backend)
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "batch", _normalize_batch(self.batch))


def resolve_backend(backend, mode: str, dtype) -> KernelBackend:
    """The kernel library one run executes.

    ``backend=None`` picks per mode: the reference kernels in task
    mode; in batched and process mode the LAPACK factor kernels when
    ``dtype`` is real, else the reference ones.  Batched and process
    mode run a registered backend only (the inline transport stacks
    its kernels, process workers look theirs up by name), and LAPACK
    there for real dtypes only; task mode also runs any
    :class:`~repro.kernels.backend.KernelBackend`, e.g. a
    :func:`~repro.kernels.validate.checked_backend`.
    """
    if backend is None:
        if mode != "task" and lapack_batched_supported(dtype):
            return LAPACK
        return REFERENCE
    bk = get_backend(backend)
    if mode != "task":
        if BACKENDS.get(bk.name) is not bk:
            raise ValueError(
                f"mode={mode!r} runs a registered backend "
                f"{tuple(BACKENDS)}, not {bk.name!r}")
        if bk is LAPACK and not lapack_batched_supported(dtype):
            raise ValueError(
                f"backend='lapack' in mode={mode!r} supports real dtypes "
                f"only, got {dtype}")
    return bk


def pop_options(kwargs: dict) -> ExecOptions:
    """Pop every :class:`ExecOptions` field out of ``kwargs`` into one
    bundle; the other keywords stay in ``kwargs``."""
    return ExecOptions(**{f.name: kwargs.pop(f.name)
                          for f in fields(ExecOptions) if f.name in kwargs})


def exec_keywords(fn):
    """Declare the :class:`ExecOptions` fields in ``fn``'s signature.

    ``fn`` takes them through its trailing ``**kwargs`` (and
    :func:`pop_options`); this adds each field as a keyword-only
    parameter with the field's default, so ``help()`` and
    :func:`inspect.signature` show them.
    """
    sig = inspect.signature(fn)
    *params, rest = sig.parameters.values()
    knobs = [inspect.Parameter(f.name, inspect.Parameter.KEYWORD_ONLY,
                               default=f.default)
             for f in fields(ExecOptions)]
    fn.__signature__ = sig.replace(parameters=[*params, *knobs, rest])
    return fn
