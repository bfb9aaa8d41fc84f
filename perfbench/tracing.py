"""Spans and counters recorded from outside the library.

A ``Tracer`` keeps spans in memory: name, start, end, parent id and run id.
The harness opens spans around its own calls into each layer (set-up stages,
``train``, ``score_and_rank``).  A ``Probe`` additionally wraps public entry
points of ``elkbc`` for the duration of a ``with`` block:

* ``elkbc.training.sample_batch``: always, to count negatives requested,
  emitted and skipped (``train`` discards the skip count) and to keep the
  emitted negatives for re-checking; with ``deep=True`` also a span;
* ``elkbc.training.total_loss`` (span ``losses.total_loss`` when called with a
  gradient, ``losses.val_loss`` without), ``elkbc.evaluation.batch_losses``
  (span ``losses.batch_losses``) and ``DeductiveClosure.entails``, only with
  ``deep=True``.

``entails`` runs tens of thousands of times per ranked axiom, so it is not a
span: each outermost call adds its time, and whether it returned true, to the
innermost open span.  A span's self time is its duration minus the part of it
that child spans cover, minus the ``entails`` time attributed to it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    entails_calls: int = 0
    entails_true: int = 0
    entails_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), name, self.clock(), float("nan"), parent, self.run_id)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def add_entails(self, seconds: float, result: bool) -> None:
        if not self._open:
            return
        s = self._open[-1]
        s.entails_calls += 1
        s.entails_true += bool(result)
        s.entails_s += seconds

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus child-span coverage minus attributed entails time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.seconds - _covered(s.start, s.end, children[s.id]) - s.entails_s
        for s in spans
    }


def ancestor_named(spans: list[Span], name: str) -> dict[int, Optional[int]]:
    """Span id -> id of its nearest ancestor-or-self called ``name``, if any."""
    out: dict[int, Optional[int]] = {}
    for s in spans:  # parents precede children, so their answer is known
        if s.name == name:
            out[s.id] = s.id
        else:
            out[s.id] = out[s.parent] if s.parent is not None else None
    return out


class Probe:
    """Wrappers around ``elkbc`` entry points; restores the originals on exit."""

    def __init__(self, tracer: Tracer, deep: bool):
        self.tracer = tracer
        self.deep = deep
        self.requested = 0
        self.emitted = 0
        self.skipped = 0
        self.axioms_scored = 0
        self.keep_negatives = False
        self.negatives: list = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Probe":
        import elkbc.evaluation as evaluation
        import elkbc.training as training
        from elkbc.closure import DeductiveClosure

        self._patch(training, "sample_batch", self._wrap_sample_batch)
        if self.deep:
            self._patch(training, "total_loss", self._wrap_total_loss)
            self._patch(evaluation, "batch_losses", self._wrap_batch_losses)
            self._patch(DeductiveClosure, "entails", self._wrap_entails)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _wrap_sample_batch(self, original):
        tracer, deep = self.tracer, self.deep

        def sample_batch(axioms, count_per_axiom, *args, **kwargs):
            if deep:
                with tracer.span("sampling.sample_batch"):
                    negatives, skipped = original(axioms, count_per_axiom, *args, **kwargs)
            else:
                negatives, skipped = original(axioms, count_per_axiom, *args, **kwargs)
            self.requested += len(axioms) * count_per_axiom
            self.emitted += len(negatives)
            self.skipped += skipped
            if self.keep_negatives:
                self.negatives.extend(negatives)
            return negatives, skipped

        return sample_batch

    def _wrap_total_loss(self, original):
        tracer = self.tracer

        def total_loss(model, requests, grad=None):
            requests = list(requests)
            self.axioms_scored += len(requests)
            name = "losses.val_loss" if grad is None else "losses.total_loss"
            with tracer.span(name):
                return original(model, requests, grad=grad)

        return total_loss

    def _wrap_batch_losses(self, original):
        tracer = self.tracer

        def batch_losses(model, tag, polarity, axioms, *args, **kwargs):
            self.axioms_scored += len(axioms)
            with tracer.span("losses.batch_losses"):
                return original(model, tag, polarity, axioms, *args, **kwargs)

        return batch_losses

    def _wrap_entails(self, original):
        tracer, clock = self.tracer, self.tracer.clock
        depth = 0

        def entails(dc, ax):
            nonlocal depth
            if depth:  # a nested call is part of the outer one
                return original(dc, ax)
            depth += 1
            start = clock()
            try:
                result = original(dc, ax)
            finally:
                depth -= 1
            tracer.add_entails(clock() - start, result)
            return result

        return entails
