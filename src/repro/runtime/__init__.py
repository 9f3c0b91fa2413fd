"""Execution runtimes for kernel task graphs (S12, S20, S22, S24).

One frontier core (:mod:`.groups`) and one group executor
(:mod:`.group_executor`) behind three transports: inline
(:mod:`.batched`), thread (:mod:`.executor`) and process
(:mod:`.procpool`).
"""

from .batched import execute_batched
from .executor import ExecutionContext, execute_graph
from .groups import (FrontierCore, GroupFrontier, dispatch_arrays,
                     drain_groups, resolve_batch)
from .options import ExecOptions
from .procpool import ProcessPool, execute_process

__all__ = ["ExecutionContext", "ExecOptions", "FrontierCore",
           "GroupFrontier", "execute_graph", "execute_batched",
           "execute_process", "ProcessPool", "dispatch_arrays",
           "drain_groups", "resolve_batch"]
