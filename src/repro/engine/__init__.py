"""Shared query-evaluation machinery: bindings, conditions, indexes, planning."""

from .bindings import Binding, BindingSet, value_key
from .conditions import (
    And,
    Arith,
    AttributeOf,
    Comparison,
    Condition,
    Const,
    ContentOf,
    DocumentAccessor,
    NameOf,
    Not,
    Operand,
    Or,
    Regex,
    TRUE,
    condition_variables,
)
from .cache import DocumentIndexCache, get_index, invalidate, shared_cache
from .index import DocumentIndex
from .joins import ColumnRelation, equijoin_key
from .metrics import MetricsRegistry, global_registry
from .narrowing import intersect_pools
from .options import ExecOptions
from .pipeline import connected_components, evaluate_forest
from .planner import plan_order
from .stats import EvalStats
from .trace import Span, Tracer

__all__ = [
    "Binding", "BindingSet", "value_key",
    "Const", "ContentOf", "AttributeOf", "NameOf", "Arith",
    "Comparison", "Regex", "And", "Or", "Not", "TRUE",
    "Condition", "Operand", "DocumentAccessor", "condition_variables",
    "DocumentIndex", "DocumentIndexCache", "get_index", "invalidate",
    "shared_cache", "intersect_pools", "plan_order", "EvalStats",
    "ExecOptions", "ColumnRelation", "equijoin_key",
    "connected_components", "evaluate_forest",
    "Span", "Tracer", "MetricsRegistry", "global_registry",
]
