"""The benchmark harness's call surface into elkbc, checked in-process.

``perfbench/workloads.py`` and ``perfbench/tracing.py`` call ``classify``,
``compute_closure``, ``train`` and ``score_and_rank`` and patch entry points
by name; a changed signature or a missing patch target otherwise shows only
in a benchmark run.  This test imports both modules as they are, sets up
the dag-train input of seed 0, runs one round under a deep probe and checks
the harness's correctness gates.  It writes nothing under ``perfbench/``.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree():
    return sorted(str(p.relative_to(PERFBENCH)) for p in PERFBENCH.rglob("*"))


def test_dag_train_round_passes_the_gates(monkeypatch):
    before = _tree()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from tracing import Probe, Tracer

    wl = workloads.WORKLOADS["dag-train"]
    inputs = workloads.make_inputs(wl, 0)
    tracer = Tracer("surface")
    ready = workloads.setup(wl, inputs, tracer)
    plan = workloads.prepare(wl, ready, inputs, 0)
    probe = Probe(tracer, deep=True)
    probe.keep_negatives = True
    with probe:
        rnd, model = workloads.run_round(plan, tracer)
    assert probe.negatives
    assert workloads.check_gates(wl, plan, [rnd], model, probe.negatives, 0) == []
    assert _tree() == before
