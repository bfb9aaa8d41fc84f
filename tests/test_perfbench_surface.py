"""The benchmark harness's call surface into elkbc, checked in-process.

``perfbench/workloads.py`` and ``perfbench/tracing.py`` call ``parse_input``,
``normalize``, ``classify``, ``compute_closure``, ``train`` and
``score_and_rank`` and patch entry points by name; a changed signature or a
missing patch target otherwise shows only in a benchmark run.  These tests
import both modules as they are, run one dag-train round under a deep probe
and check the harness's correctness gates and every ranking of the round
against the per-axiom reference, and set up a layered DAG through
the `.elpp` path galen-filtered takes.  They write nothing under
``perfbench/``.
"""

import sys
from pathlib import Path

from elkbc.core import format_axiom
from elkbc.datasets import layered_dag_benchmark
from oracles import written_out_ranks

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree():
    return sorted(str(p.relative_to(PERFBENCH)) for p in PERFBENCH.rglob("*"))


def _harness(monkeypatch):
    """perfbench's ``workloads`` and ``tracing`` modules, imported as they are
    without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return workloads, tracing


def test_dag_train_round_passes_the_gates(monkeypatch):
    before = _tree()
    workloads, tracing = _harness(monkeypatch)

    wl = workloads.WORKLOADS["dag-train"]
    inputs = workloads.make_inputs(wl, 0)
    tracer = tracing.Tracer("surface")
    ready = workloads.setup(wl, inputs, tracer)
    plan = workloads.prepare(wl, ready, inputs, 0)
    probe = tracing.Probe(tracer, deep=True)
    probe.keep_negatives = True
    with probe:
        rnd, model = workloads.run_round(plan, tracer)
    assert probe.negatives
    assert workloads.check_gates(wl, plan, [rnd], model, probe.negatives, 0) == []
    # every ranking of the round, not only gate (a)'s few, equals the reference
    for task, report in ((plan.raw_task, rnd.raw), (plan.filtered_task, rnd.filtered)):
        got = [
            (r.raw_rank, r.pool_size, r.filtered_rank, r.filtered_pool_size)
            for r in report.rankings
        ]
        want = [
            written_out_ranks(model, ax, task.candidates, task.train_axioms, task.closures)
            for ax in task.axioms
        ]
        assert got == want
    assert _tree() == before


def test_elpp_setup_gives_back_the_rendered_axioms(monkeypatch):
    before = _tree()
    workloads, tracing = _harness(monkeypatch)

    dag, _, _ = layered_dag_benchmark(0)
    inputs = workloads.Inputs(workloads.render_elpp(dag), [], [])
    wl = workloads.WORKLOADS["galen-filtered"]
    assert wl.input_format == "elpp"
    ready = workloads.setup(wl, inputs, tracing.Tracer("surface"))

    def lines(theory):
        return {format_axiom(theory.signature, ax) for ax in theory.axioms}

    assert lines(ready.theory) == lines(dag)
    assert _tree() == before
