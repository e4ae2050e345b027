"""Span recording around the module-level names the solver's layers call through.

The tracer never edits the package: it swaps module attributes for wrappers
for each traced run of an operation and puts the originals back afterwards.  Every
layer looks its collaborators up as module globals at call time (for example
`configlp.clp_feasible` calls `solve_lp` and `min_cost_configuration` from
its own namespace), so wrapping the attribute in the right module catches
every call that layer makes.  Names imported into `cli` are separate
bindings and are wrapped there as well.

A span is (name, start, end, parent, op, info).  Spans are kept in memory,
written out as JSON lines when the run ends, and reduced to per-layer self
times and counters; a span's self time is its duration minus the durations
of its direct children (calls are nested on one thread, so children never
overlap).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


def _lp_columns(args, kwargs, result) -> dict:
    # The master LP has one shortfall slack per player row (">="), so the
    # configuration columns are the variables beyond those slacks.
    lp = args[0] if args else kwargs["lp"]
    slacks = sum(1 for _, rel, _ in lp.rows if rel == ">=")
    return {"cols": lp.num_vars - slacks}


def _probe_info(args, kwargs, result) -> dict:
    return {"infeasible": int(not result.feasible), "columns": len(result.transcript)}


def _points_info(args, kwargs, result) -> dict:
    return {"points": len(result)}


def _search_info(args, kwargs, result) -> dict:
    return {
        "builds": result.builds,
        "contracts": result.contracts,
        "perfect": int(result.perfect),
    }


# (module, attribute, span name, info extractor).  The benchmark's own calls
# go through the attributes of `instances`, `matching`, `oracle`,
# `configlp` and `certificates`; `cli` holds its own bindings.
WRAPS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "main", "cli.solve", None),
    ("cli", "validate_instance", "instances.validate", None),
    ("cli", "compute_T_star", "configlp.tstar", None),
    ("cli", "normalize", "instances.normalize", None),
    ("cli", "find_perfect_matching", "matching.search", _search_info),
    ("cli", "complete_allocation", "matching.complete", None),
    ("cli", "verify_allocation", "oracle.audit", None),
    ("cli", "construct_dual_certificate", "certificates.construct", None),
    ("cli", "verify_certificate_feasibility", "certificates.verify", None),
    ("cli", "check_blocker_balances", "certificates.balances", None),
    ("configlp", "solve_lp", "simplex", _lp_columns),
    ("configlp", "clp_feasible", "configlp.probe", _probe_info),
    ("configlp", "min_cost_configuration", "configlp.pricing", None),
    ("configlp", "subset_sum_breakpoints", "configlp.breakpoints", _points_info),
    ("instances", "normalize", "instances.normalize", None),
    ("matching", "find_perfect_matching", "matching.search", _search_info),
    ("matching", "complete_allocation", "matching.complete", None),
    ("oracle", "verify_allocation", "oracle.audit", None),
    ("certificates", "min_cost_configuration", "certificates.pricing", None),
    ("certificates", "construct_dual_certificate", "certificates.construct", None),
    ("certificates", "verify_certificate_feasibility", "certificates.verify", None),
    ("certificates", "check_blocker_balances", "certificates.balances", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    info: Optional[dict] = None


@dataclass
class Tracer:
    """Records spans for the wrapped calls of the operation numbered `op`."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Callable]] = field(default_factory=list)
    op: int = 0

    def install(self, pkg) -> None:
        for module_name, attr, span_name, info in WRAPS:
            module = getattr(pkg, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, info))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, name: str, info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                stack.pop()
            if info is not None:
                record.info = info(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                row = {"id": i, "op": s.op, "name": s.name, "start": s.start,
                       "end": s.end, "parent": s.parent, "info": s.info}
                handle.write(json.dumps(row) + "\n")


def layer_totals(spans: list[Span]) -> tuple[dict, dict, dict]:
    """Per span name: call count, summed self time, summed info fields."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    info: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s, children in zip(spans, child_time):
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - children
        for key, value in (s.info or {}).items():
            info[s.name][key] += value
    return calls, self_s, info


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """The per-layer metrics, as amounts per operation unless named a mean."""
    calls, self_s, info = layer_totals(spans)

    def per_op(x) -> float:
        return x / ops

    def mean(total, count) -> float:
        return total / count if count else 0.0

    columns = info["configlp.probe"]["columns"]
    pricing_calls = calls["configlp.pricing"]
    return {
        "simplex.calls": per_op(calls["simplex"]),
        "simplex.s": per_op(self_s["simplex"]),
        "simplex.cols_mean": mean(info["simplex"]["cols"], calls["simplex"]),
        "configlp.tstar_s": per_op(self_s["configlp.tstar"]),
        "configlp.probes": per_op(calls["configlp.probe"]),
        "configlp.probes_infeasible": per_op(info["configlp.probe"]["infeasible"]),
        "configlp.colgen_self_s": per_op(self_s["configlp.probe"]),
        "configlp.columns": per_op(columns),
        "configlp.pricing_calls": per_op(pricing_calls),
        "configlp.pricing_s": per_op(self_s["configlp.pricing"]),
        "configlp.pricing_yield": mean(columns, pricing_calls),
        "configlp.breakpoints_calls": per_op(calls["configlp.breakpoints"]),
        "configlp.breakpoints_s": per_op(self_s["configlp.breakpoints"]),
        "configlp.breakpoint_points": mean(
            info["configlp.breakpoints"]["points"], calls["configlp.breakpoints"]
        ),
        "instances.validate_s": per_op(self_s["instances.validate"]),
        "instances.normalize_calls": per_op(calls["instances.normalize"]),
        "instances.normalize_s": per_op(self_s["instances.normalize"]),
        "matching.search_calls": per_op(calls["matching.search"]),
        "matching.search_s": per_op(self_s["matching.search"]),
        "matching.builds": per_op(info["matching.search"]["builds"]),
        "matching.contracts": per_op(info["matching.search"]["contracts"]),
        "matching.perfect": per_op(info["matching.search"]["perfect"]),
        "matching.stuck": per_op(
            calls["matching.search"] - info["matching.search"]["perfect"]
        ),
        "matching.complete_s": per_op(self_s["matching.complete"]),
        "oracle.audit_calls": per_op(calls["oracle.audit"]),
        "oracle.audit_s": per_op(self_s["oracle.audit"]),
        "certificates.count": per_op(calls["certificates.construct"]),
        "certificates.construct_s": per_op(self_s["certificates.construct"]),
        "certificates.verify_s": per_op(self_s["certificates.verify"]),
        "certificates.pricing_calls": per_op(calls["certificates.pricing"]),
        "certificates.pricing_s": per_op(self_s["certificates.pricing"]),
        "certificates.balances_s": per_op(self_s["certificates.balances"]),
        "cli.self_s": per_op(self_s["cli.solve"]),
    }
