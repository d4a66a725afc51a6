"""Hierarchical span tracing with a deterministic logical core.

The repo's north star is a serving system, and serving systems answer
two questions metrics alone cannot: *where did the millisecond go* and
*which path produced this answer*. This module provides the span tracer
threaded through the hot paths (``core.estimator``, ``engine``, the
service pipeline, the runtime supervisor):

* a :class:`Span` is one timed stage with structured attributes (tag id,
  ladder level, threshold, shard index, cache outcome, ...) and child
  spans;
* a :class:`Tracer` maintains the span stack behind a context-manager /
  decorator API and hands completed *root* spans to an optional sink
  (:class:`~repro.obs.trace_file.TraceWriter` serializes them to JSONL);
* a :class:`NullTracer` is the ambient default: every instrumentation
  point costs one context-variable read and one no-op context manager —
  the disabled path is answer-bitwise-identical and benchmarked at
  well under the 5 % overhead budget
  (``benchmarks/bench_obs_overhead.py``).

Determinism contract
--------------------
Spans separate **logical** content from **wall-clock** annotation:

* the logical portion — span name, tree structure, attributes, and the
  *simulation-clock* timestamp ``t`` — is a pure function of the seeded
  run. Two seeded serve sessions with identical configuration produce
  byte-identical logical traces
  (:func:`repro.obs.trace_file.canonical_logical_json`); the CI
  trace-smoke job and ``tests/golden/trace_*.json`` pin exactly that.
* wall-clock fields (``wall_s``) are measured with an injectable
  monotonic clock and *stripped* from the logical view; they feed the
  per-stage latency histograms and the ``repro trace summary`` output.

Instrumented code must therefore only put deterministic values into
attributes — simulation state, configuration, counts — never wall times
or memory addresses.

Layering: ``obs`` sits *below* ``core`` (it imports only ``utils`` and
``exceptions``), so every layer of the stack may trace through it.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

from ..exceptions import ConfigurationError

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "traced",
]

#: Keys of the wall-clock annotation, stripped from the logical view.
WALL_KEYS = frozenset({"wall_s"})


def to_jsonable(value: Any) -> Any:
    """Coerce an attribute value into deterministic plain-JSON types.

    Handles Python scalars, numpy scalars (duck-typed via ``.item()``),
    mappings and sequences; anything else is stringified. Kept local so
    ``obs`` stays import-light (no numpy dependency at module load).
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        return float(value)
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return to_jsonable(item())
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(value, key=str)]
    return str(value)


class Span:
    """One traced stage: name, attributes, children, and two clocks.

    ``t`` is the deterministic simulation-clock timestamp at span start
    (``None`` when the tracer has no sim clock); ``wall_s`` is the
    wall-clock duration, excluded from the logical view by design.

    Acts as its own context manager; created through
    :meth:`Tracer.span`, never directly.
    """

    __slots__ = (
        "name", "attrs", "children", "t", "_tracer", "_wall_start", "wall_s",
    )

    def __init__(
        self, tracer: "Tracer", name: str, t: float | None, attrs: dict
    ):
        self.name = str(name)
        self.attrs = attrs
        self.children: list[Span] = []
        self.t = t
        self.wall_s: float | None = None
        self._tracer = tracer
        self._wall_start: float | None = None

    # -- attribute API -------------------------------------------------------

    def set(self, key: str, value: Any) -> None:
        """Attach one structured attribute (must be deterministic)."""
        self.attrs[str(key)] = to_jsonable(value)

    def update(self, **attrs: Any) -> None:
        for key, value in attrs.items():
            self.attrs[key] = to_jsonable(value)

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # Deterministic failures (quorum refusal, validation) are
            # part of the logical trace: record the class, re-raise.
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False

    # -- serialization -------------------------------------------------------

    def document(self) -> dict[str, Any]:
        """Full JSON document: logical content + wall annotation."""
        doc: dict[str, Any] = {"name": self.name}
        if self.t is not None:
            doc["t"] = float(self.t)
        if self.attrs:
            doc["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        if self.wall_s is not None:
            doc["wall_s"] = float(self.wall_s)
        if self.children:
            doc["children"] = [c.document() for c in self.children]
        return doc

    def logical(self) -> dict[str, Any]:
        """The deterministic portion only (wall clock stripped)."""
        doc = self.document()
        return _strip_wall(doc)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, t={self.t}, attrs={self.attrs}, "
            f"children={len(self.children)})"
        )


def _strip_wall(doc: dict[str, Any]) -> dict[str, Any]:
    out = {k: v for k, v in doc.items() if k not in WALL_KEYS}
    if "children" in out:
        out["children"] = [_strip_wall(c) for c in out["children"]]
    return out


class _NullSpan:
    """The shared no-op span handed out by :class:`NullTracer`.

    Every method is a no-op; one module-level instance serves every
    instrumentation point, so the disabled path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def update(self, **attrs: Any) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullSpan()"


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The ambient default tracer: records nothing, costs almost nothing.

    ``span``/``event`` return a shared no-op span without touching the
    keyword arguments; the only cost at a disabled instrumentation point
    is building the (usually tiny) kwargs dict. The overhead benchmark
    holds this under 5 % of the estimation work it decorates.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()


class Tracer:
    """Records a forest of spans; deterministic core, wall-clock aside.

    Parameters
    ----------
    clock:
        Deterministic (simulation) clock; stamped as ``t`` on every
        span. ``None`` (default) omits the timestamp — scalar pipelines
        traced outside a simulation have no meaningful sim time. The
        service session wires the simulator clock in
        (:meth:`repro.service.session.ServiceSession.run`).
    wall_clock:
        Monotonic clock for the wall-duration annotation (injectable so
        tests can fake latency).
    metrics:
        Optional duck-typed registry (anything with
        ``histogram(name, help)``): every finished span observes its
        wall duration into ``obs_stage_<stage>_latency_seconds``, which
        renders alongside the service metrics in the same Prometheus
        exposition.
    sink:
        Called with each completed **root** span (e.g.
        :meth:`repro.obs.trace_file.TraceWriter.sink` for JSONL
        streaming). Completed roots are also retained on ``roots``.
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] | None = None,
        wall_clock: Callable[[], float] = time.perf_counter,
        metrics: Any | None = None,
        sink: Callable[[Span], None] | None = None,
    ):
        self.clock = clock
        self.wall_clock = wall_clock
        self.sink = sink
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._metrics = metrics
        self._histograms: dict[str, Any] = {}
        self.spans_recorded = 0

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open one span as a context manager; nests under the current one."""
        t = self.clock() if self.clock is not None else None
        span = Span(
            self, name, t, {k: to_jsonable(v) for k, v in attrs.items()}
        )
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        span._wall_start = self.wall_clock()
        return span

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration span (supervisor retries, breaker flips, ...)."""
        with self.span(name, **attrs):
            pass

    def _finish(self, span: Span) -> None:
        span.wall_s = self.wall_clock() - span._wall_start
        if not self._stack or self._stack[-1] is not span:
            raise ConfigurationError(
                f"span {span.name!r} closed out of order; "
                f"open stack: {[s.name for s in self._stack]}"
            )
        self._stack.pop()
        self.spans_recorded += 1
        if self._metrics is not None:
            self._observe(span)
        if not self._stack:
            self.roots.append(span)
            if self.sink is not None:
                self.sink(span)

    def _observe(self, span: Span) -> None:
        hist = self._histograms.get(span.name)
        if hist is None:
            safe = "".join(
                c if (c.isalnum() or c == "_") else "_" for c in span.name
            )
            hist = self._metrics.histogram(
                f"obs_stage_{safe}_latency_seconds",
                f"Wall-clock latency of traced stage {span.name}",
            )
            self._histograms[span.name] = hist
        hist.observe(span.wall_s)

    # -- views ---------------------------------------------------------------

    @property
    def depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    def documents(self) -> list[dict[str, Any]]:
        """Every completed root span as a full JSON document."""
        return [root.document() for root in self.roots]

    def logical_documents(self) -> list[dict[str, Any]]:
        """Every completed root span, wall clock stripped (deterministic)."""
        return [root.logical() for root in self.roots]

    def __repr__(self) -> str:
        return (
            f"Tracer(roots={len(self.roots)}, open={len(self._stack)}, "
            f"spans={self.spans_recorded})"
        )


# -- ambient tracer ----------------------------------------------------------

_CURRENT: ContextVar[NullTracer | Tracer] = ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)


def current_tracer() -> NullTracer | Tracer:
    """The tracer in effect for this context (default: the no-op)."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: NullTracer | Tracer) -> Iterator[NullTracer | Tracer]:
    """Install ``tracer`` as the ambient tracer for the enclosed block.

    Context-variable scoped: each thread sees its own ambient tracer,
    and nesting restores the previous one on exit.
    """
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)


def traced(name: str, **attrs: Any) -> Callable:
    """Decorator form: run the wrapped callable inside a span.

    ``@traced("runtime.snapshot")`` is sugar for wrapping the body in
    ``current_tracer().span("runtime.snapshot")`` — the ambient tracer
    is resolved at *call* time, so decorated functions stay no-op cheap
    until a tracer is installed.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            with current_tracer().span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
