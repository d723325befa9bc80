"""Spans around the program's public calls, installed only for traced pipelines.

A boundary names a callable by module and attribute where its callers look
it up (``cone_violations`` is wrapped in both bnb and warmstart, which import
it by name).  A boundary that no longer exists raises :class:`BoundaryError`,
and so does a traced pipeline that never calls a boundary its workload
needs, so a moved call fails loudly instead of reading as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable


class BoundaryError(RuntimeError):
    """A wrapped boundary is missing or was never called."""


@dataclass
class Span:
    name: str  # "<layer>" or "<layer>.<call>"
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run: str


class Tracer:
    """Spans and counters of one traced pipeline, kept in memory."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[Span] = []
        self.calls: Counter = Counter()  # per boundary label
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, label: str, fn: Callable, on_result=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[label] += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            return on_result(self, result) if on_result else result

        return traced


# -- boundaries ------------------------------------------------------------------


def _lp_status(tracer: Tracer, res):
    tracer.counts[f"lp.status.{res.status}"] += 1
    return res


def _simplex_iters(tracer: Tracer, res):
    tracer.counts["lp.simplex_iters"] += int(getattr(res, "nit", 0) or 0)
    return res


def _found(key: str):
    def hook(tracer: Tracer, res):
        tracer.counts[key] += res is not None
        return res

    return hook


DIVE_CALL = "ugrestore.solver.warmstart:make_diver()"


def _wrap_diver(tracer: Tracer, diver):
    return tracer.wrap("dive", DIVE_CALL, diver, _found("dive.feasible"))


@dataclass(frozen=True)
class Boundary:
    span: str
    module: str
    attr: str  # "name" or "Class.name"
    on_result: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module}:{self.attr}"


BOUNDARIES = (
    Boundary("feeder.load", "ugrestore.feeder", "load_case_dict"),
    Boundary("formulation.build", "ugrestore.formulation", "build_model"),
    Boundary("warmstart", "ugrestore.solver.warmstart", "greedy_warm_start", _found("warmstart.found")),
    Boundary("dive.make", "ugrestore.solver.warmstart", "make_diver", _wrap_diver),
    Boundary("bnb", "ugrestore.solver.bnb", "solve"),
    Boundary("lp", "ugrestore.solver.lp", "LpBackend.solve", _lp_status),
    Boundary("lp.highs", "ugrestore.solver.lp", "linprog", _simplex_iters),
    Boundary("cuts.separate", "ugrestore.solver.bnb", "cone_violations"),
    Boundary("cuts.separate", "ugrestore.solver.warmstart", "cone_violations"),
    Boundary("cuts.tangent", "ugrestore.solver.bnb", "soc_cut"),
    Boundary("cuts.tangent", "ugrestore.solver.warmstart", "soc_cut"),
    Boundary("mps.export", "ugrestore.solver.mps", "export_mps"),
    Boundary("plan.build", "ugrestore.plan", "RestorationPlan.from_solution"),
    Boundary("plan.save", "ugrestore.plan", "RestorationPlan.save"),
    Boundary("validator", "ugrestore.validator", "check_plan"),
    Boundary("report.build", "ugrestore.report", "build_report"),
    Boundary("report.emit", "ugrestore.report", "emit_plots"),
)

SOLVE_CALLS = frozenset(b.label for b in BOUNDARIES if b.span != "mps.export")
EXPORT_CALLS = frozenset(
    b.label for b in BOUNDARIES if b.span in ("feeder.load", "formulation.build", "mps.export")
)


def _resolve(b: Boundary):
    """Owner object, attribute name and raw attribute of a boundary."""
    try:
        owner = importlib.import_module(b.module)
    except ImportError as exc:
        raise BoundaryError(f"boundary {b.label}: {exc}") from exc
    *path, name = b.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    raw = vars(owner).get(name) if owner is not None else None
    if raw is None or not callable(getattr(owner, name)):
        raise BoundaryError(f"boundary {b.label} is gone")
    return owner, name, raw


def resolve_all() -> None:
    for b in BOUNDARIES:
        _resolve(b)


@contextmanager
def installed(tracer: Tracer):
    """Every boundary wrapped into ``tracer`` for the duration of the block."""
    undo = []
    try:
        for b in BOUNDARIES:
            owner, name, raw = _resolve(b)
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(b.span, b.label, raw.__func__, b.on_result))
            else:
                new = tracer.wrap(b.span, b.label, raw, b.on_result)
            setattr(owner, name, new)
            undo.append((owner, name, raw))
        yield
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)


def require_called(tracer: Tracer, labels) -> None:
    missing = sorted(label for label in labels if tracer.calls[label] == 0)
    if missing:
        raise BoundaryError("boundaries never called: " + ", ".join(missing))


# -- analysis --------------------------------------------------------------------

LAYERS = (
    "pipeline", "feeder", "formulation", "warmstart", "dive", "bnb",
    "lp", "cuts", "mps", "plan", "validator", "report",
)


def layer_of(name: str) -> str:
    return name.split(".")[0]


@dataclass
class Summary:
    total_s: dict  # inclusive seconds per span name
    count: Counter  # spans per name
    self_s: dict  # per layer: span time not covered by child spans
    lp_by_caller: Counter  # LP solves per layer of the calling span


def summarize(tracer: Tracer) -> Summary:
    spans = tracer.spans
    dur = [s.end - s.start for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s.parent is not None:
            covered[s.parent] += d
    out = Summary(defaultdict(float), Counter(), defaultdict(float), Counter())
    for s, d, c in zip(spans, dur, covered):
        out.total_s[s.name] += d
        out.count[s.name] += 1
        out.self_s[layer_of(s.name)] += d - c
        if s.name == "lp" and s.parent is not None:
            out.lp_by_caller[layer_of(spans[s.parent].name)] += 1
    return out


def write_spans(path, tracers) -> None:
    with open(path, "w") as fh:
        for tracer in tracers:
            for s in tracer.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
