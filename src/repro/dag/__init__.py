"""Kernel task DAG construction (S10)."""

from .build import AccessTable, build_dag, resolve_hazards
from .dot import to_dot
from .index import GraphIndex, build_index
from .tasks import Task, TaskGraph

__all__ = ["Task", "TaskGraph", "build_dag", "to_dot", "GraphIndex",
           "build_index", "AccessTable", "resolve_hazards"]
