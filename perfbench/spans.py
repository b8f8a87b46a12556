"""Spans recorded around calls into fpp, kept in memory, and the per-layer
metrics computed from them.

A span records its name, start, end, parent span and job id.  Calls made
once per control state (``circuit.execute`` and ``BitControl.assignment``)
are too many for one span each; their time and call count are summed onto
the span that is open when they run.  The untraced runs use
:class:`NullTracer`, which only makes the call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# Layer spans are named after the fpp module and function they time;
# the benchmark's own bookkeeping spans start with "bench.".
PASS = "bench.pass"
JOB = "bench.job"


class Span:
    __slots__ = ("id", "parent", "job", "name", "start", "end", "count", "sums")

    def __init__(self, id: int, parent: int | None, job: str | None, name: str) -> None:
        self.id = id
        self.parent = parent
        self.job = job
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.count = 0  # work items the call handled (words, y values, runs)
        self.sums: dict[str, list[float]] = {}  # name -> [seconds, calls]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "job": self.job, "name": self.name,
            "start": self.start, "end": self.end, "count": self.count,
            "sums": {k: {"seconds": v[0], "calls": int(v[1])} for k, v in self.sums.items()},
        }


class Tracer:
    """Records nested spans; one tracer per traced pass or set-up."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, job: str | None = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if job is None and parent is not None:
            job = parent.job
        s = Span(len(self.spans), parent.id if parent else None, job, name)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, seconds: float) -> None:
        if self._open:
            acc = self._open[-1].sums.setdefault(name, [0.0, 0])
            acc[0] += seconds
            acc[1] += 1


class _NullSpan:
    __slots__ = ("count",)


class NullTracer:
    """The untraced path: spans cost one function call and record nothing."""

    @contextmanager
    def span(self, name: str, job: str | None = None) -> Iterator[_NullSpan]:
        yield _NullSpan()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        return fn(*args, **kwargs)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the calls fpp makes internally that the benchmark cannot call
    itself: ``Labeling.validate`` (inside ``phase_profile``), the per-x
    ``execute`` of the sweep and ``BitControl.assignment``.  Restored on exit."""
    from fpp import algorithms, circuit, perms

    orig_validate = perms.Labeling.validate
    orig_execute = algorithms.execute
    orig_assign = circuit.BitControl.assignment

    def validate(labeling):
        with tracer.span("perms.validate") as s:
            # validate() memoizes per object in ``_validation``; only a call
            # that finds no memo checks words.
            if getattr(labeling, "_validation", None) is None:
                s.count = labeling.size
            return orig_validate(labeling)

    def execute(c, x):
        t0 = time.perf_counter()
        out = orig_execute(c, x)
        tracer.add("circuit.execute", time.perf_counter() - t0)
        return out

    def assignment(control, x):
        t0 = time.perf_counter()
        out = orig_assign(control, x)
        tracer.add("circuit.bit_assign", time.perf_counter() - t0)
        return out

    perms.Labeling.validate = validate
    algorithms.execute = execute
    circuit.BitControl.assignment = assignment
    try:
        yield
    finally:
        perms.Labeling.validate = orig_validate
        algorithms.execute = orig_execute
        circuit.BitControl.assignment = orig_assign


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer times, rates and coverage of one traced pass.

    Self time of a span is its duration minus its child spans; the summed
    per-x calls are attributed to the span they ran under.
    """
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.seconds

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(name: str) -> float:
        return sum(s.seconds for s in named(name))

    def summed(name: str) -> tuple[float, int]:
        acc = [s.sums[name] for s in spans if name in s.sums]
        return sum(a[0] for a in acc), int(sum(a[1] for a in acc))

    validate_s = total("perms.validate")
    words = sum(s.count for s in named("perms.validate"))
    sweep_s = sum(s.seconds - children.get(s.id, 0.0) for s in named("algorithms.phase_profile"))
    execute_s, states = summed("circuit.execute")
    bit_assign_s, _ = summed("circuit.bit_assign")
    solve_s = total("algorithms.solve")
    ys = sum(s.count for s in named("algorithms.solve"))
    promise_s = total("densesim.build_promise_unitaries")
    run_dense_s = total("densesim.run_dense")
    runs = len(named("densesim.run_dense"))

    # Top-level layer spans: calls into fpp not nested in another such call.
    bench_ids = {s.id for s in spans if s.name.startswith("bench.")}
    covered = sum(
        s.seconds for s in spans
        if not s.name.startswith("bench.") and (s.parent is None or s.parent in bench_ids)
    )
    return {
        "perms.validate_s": validate_s,
        "perms.validate_words_per_s": _rate(words, validate_s),
        "algorithms.sweep_s": sweep_s,
        "algorithms.sweep_states_per_s": _rate(states, sweep_s),
        "circuit.execute_s": execute_s,
        "circuit.bit_assign_s": bit_assign_s,
        "algorithms.sweep_self_s": sweep_s - execute_s,
        "algorithms.solve_s": solve_s,
        "algorithms.solve_ys_per_s": _rate(ys, solve_s),
        "densesim.promise_s": promise_s,
        "densesim.run_dense_s": run_dense_s,
        "densesim.runs_per_s": _rate(runs, promise_s + run_dense_s),
        "algorithms.states": states,
        "trace.coverage": _rate(covered, wall),
    }
