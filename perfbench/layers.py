"""Per-layer tracing from outside the program.

:class:`SpanRecorder` wraps public entry points of each ErbiumDB layer for
the duration of a traced phase and restores them afterwards; no code under
``src/`` changes.  Each wrapped call records a span (name, parent span,
start, end, operation index) in memory; :meth:`SpanRecorder.layer_metrics`
turns them into calls, inclusive time and self time per operation, where
self time is a span's duration minus the part of it its child spans cover.

A call made while a span of the same name is already open on the stack
(a subclass method calling ``super()``, say) folds into the open span, so
inclusive times never count the same interval twice.
Only the thread that installed the patches is traced.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

import repro.durability as durability_pkg
import repro.durability.wal as wal_module
import repro.relational.statistics as statistics_module
import repro.system as system_module
from repro.api import ApiService
from repro.durability.manager import DurabilityManager
from repro.erql import Planner
from repro.mapping import AccessPathBuilder, CrudTemplates
from repro.observability.tracing import Tracer
from repro.relational import Database
from repro.relational.constraints import Constraint
from repro.relational.indexes import Index
from repro.relational.mvcc import SnapshotRegistry
from repro.relational.table import Table
from repro.relational.transactions import TransactionManager
from repro.reliability.faults import Filesystem


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _methods(classes: List[type], names: Tuple[str, ...]) -> List[Tuple[Any, str]]:
    """(class, method name) for every listed method a class defines itself."""

    return [(cls, name) for cls in classes for name in names if name in cls.__dict__]


#: Span name -> the (owner, attribute) pairs it wraps.
SPANS: Dict[str, List[Tuple[Any, str]]] = {
    "api.request": [(ApiService, "request")],
    "erql.parse": [(system_module, "parse_query")],
    "erql.normalize": [(system_module, "unparse_query")],
    "erql.analyze": [(system_module, "analyze_query")],
    "erql.plan": [(Planner, "plan")],
    "mapping.access_path": _methods(
        [AccessPathBuilder],
        ("entity_scan", "multivalued_rows", "multivalued_intersection", "relationship_join"),
    ),
    "mapping.crud_read": _methods(
        [CrudTemplates], ("get_entity", "related_keys", "relationship_pairs")
    ),
    "mapping.crud_write": _methods(
        [CrudTemplates],
        (
            "insert_entity", "insert_entities", "update_entity", "delete_entity",
            "insert_relationship", "insert_relationships", "delete_relationship",
        ),
    ),
    "relational.execute": [(Database, "execute")],
    "relational.choose_executor": [(Database, "choose_executor")],
    "relational.statistics_analyze": [(statistics_module, "analyze_table")],
    "relational.read_view": [(Database, "begin_read_view")],
    "relational.lookup": [(Table, "lookup"), (Table, "lookup_ids")],
    "relational.column_snapshot": [(Table, "column_data")],
    "relational.mvcc_retain": [(SnapshotRegistry, "retain_current")],
    "relational.row_write": _methods(
        [Database], ("insert", "insert_many", "update", "update_row", "delete", "delete_ids")
    ),
    "relational.constraint_check": _methods(
        _subclasses(Constraint),
        ("check_insert", "check_update", "check_delete", "check_insert_batch"),
    ),
    "relational.index_maintain": _methods(_subclasses(Index), ("insert", "delete")),
    "relational.commit": [(TransactionManager, "commit")],
    "durability.log_commit": [(DurabilityManager, "log_commit")],
    "durability.fsync": [(Filesystem, "fsync")],
    "durability.checkpoint": [(DurabilityManager, "checkpoint")],
    "durability.recover": [(durability_pkg, "recover_system")],
    "observability.trace": [(Tracer, "start_query"), (Tracer, "finish")],
}


#: Ratio metrics reported beside the span metrics (name -> unit, better).
RATIOS: Dict[str, Tuple[str, str]] = {
    "erql.plan_cache_hit_ratio": ("ratio", "higher"),
    "erql.plan_cache_evictions_per_op": ("count", "lower"),
    "relational.batch_share": ("ratio", "higher"),
    "relational.lookup_index_share": ("ratio", "higher"),
    "relational.rows_examined_per_lookup_result": ("ratio", "lower"),
    "relational.statistics_analyses_per_op": ("count", "lower"),
    "durability.wal_bytes_per_user_byte": ("ratio", "lower"),
    "durability.fsyncs_per_commit": ("ratio", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def metric_names() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""

    out = []
    for span in SPANS:
        out.append((f"{span}.calls_per_op", "count", "lower"))
        out.append((f"{span}.us_per_op", "us", "lower"))
        out.append((f"{span}.self_us_per_op", "us", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in RATIOS.items())
    return out


class SpanRecorder:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [name, parent index, start ns, end ns, op]
        self.counts: Counter = Counter()
        self.op_index = -1
        self._stack: List[int] = []
        self._open: Counter = Counter()
        self._saved: List[Tuple[Any, str, Any]] = []
        self._thread = None

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        self._thread = threading.get_ident()
        for span, targets in SPANS.items():
            for owner, attr in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
        self._hook(Database, "choose_executor", self._count_choice)
        self._hook(Database, "execute", self._count_explicit_executor)
        self._hook(Table, "lookup_ids", self._count_lookup)
        self._hook(Table, "lookup", self._count_lookup)
        self._hook(wal_module, "encode_frame", self._count_wal_bytes)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, span: str, fn: Callable) -> Callable:
        recorder = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if recorder._open[span] or threading.get_ident() != recorder._thread:
                return fn(*args, **kwargs)
            stack = recorder._stack
            record = [span, stack[-1] if stack else -1, clock(), 0, recorder.op_index]
            recorder.spans.append(record)
            stack.append(len(recorder.spans) - 1)
            recorder._open[span] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                recorder._open[span] -= 1
                stack.pop()

        return traced

    def _hook(self, owner: Any, attr: str, observe: Callable) -> None:
        """Wrap ``owner.attr`` (already span-wrapped) to observe its calls."""

        inner = getattr(owner, attr)
        self._saved.append((owner, attr, inner))

        @functools.wraps(inner)
        def observed(*args, **kwargs):
            result = inner(*args, **kwargs)
            if threading.get_ident() == self._thread:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, observed)

    # -- ratio counters ------------------------------------------------------------

    def _count_choice(self, args, kwargs, mode) -> None:
        self.counts[f"executor.{mode}"] += 1

    def _count_explicit_executor(self, args, kwargs, result) -> None:
        db = args[0]
        mode = kwargs.get("executor") or (args[2] if len(args) > 2 else None) or db.executor
        if mode != "auto":
            self.counts[f"executor.{mode}"] += 1

    def _count_lookup(self, args, kwargs, result) -> None:
        if self._open["relational.lookup"]:
            return  # folded into an enclosing lookup span: count that one only
        table, columns = args[0], args[1]
        self.counts["lookup.calls"] += 1
        self.counts["lookup.results"] += len(result)
        if table.index_on(tuple(columns)) is not None:
            self.counts["lookup.indexed"] += 1
            self.counts["lookup.examined"] += len(result)
        else:
            self.counts["lookup.examined"] += len(table)

    def _count_wal_bytes(self, args, kwargs, frame) -> None:
        self.counts["wal.bytes"] += len(frame)

    # -- results -------------------------------------------------------------------

    def _self_ns(self) -> List[int]:
        """Self time of every span: its duration minus what its children cover."""

        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for _name, parent, start, end, _op in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        return [
            (end - start) - _covered(children.get(index, ()))
            for index, (_name, _parent, start, end, _op) in enumerate(self.spans)
        ]

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        """calls / inclusive us / self us per operation, for every span name."""

        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for record, own in zip(self.spans, self._self_ns()):
            name, _parent, start, end, _op = record
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += own
        per = max(ops, 1)
        out: Dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls_per_op"] = calls[span] / per
            out[f"{span}.us_per_op"] = total_ns[span] / 1e3 / per
            out[f"{span}.self_us_per_op"] = self_ns[span] / 1e3 / per
        return out

    def self_ns_by_op(self) -> Dict[int, int]:
        """Sum of span self times per operation index."""

        out: Dict[int, int] = defaultdict(int)
        for record, own in zip(self.spans, self._self_ns()):
            out[record[4]] += own
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, parent, start_ns, end_ns, op."""

        with open(path, "w", encoding="utf-8") as out:
            for name, parent, start, end, op in self.spans:
                out.write(json.dumps({"name": name, "parent": parent, "start_ns": start,
                                      "end_ns": end, "op": op}) + "\n")


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""

    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total
