"""Tests of the benchmark harness's own logic (not of elkbc).

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from stats import (  # noqa: E402
    accept_ratio,
    failed_frac,
    median,
    quartiles,
    relative_spread,
)
from tracing import Span, Tracer, ancestor_named, self_times  # noqa: E402
from workloads import WORKLOADS, input_seeds  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_with_nested_spans():
    clock = FakeClock()
    tr = Tracer("run", clock=clock)
    with tr.span("training.train"):  # 0 .. 10
        clock.now = 1.0
        with tr.span("sampling.sample_batch"):  # 1 .. 4
            clock.now = 2.0
            tr.add_entails(0.5, True)
            tr.add_entails(0.25, False)
            clock.now = 4.0
        with tr.span("losses.total_loss"):  # 4 .. 7
            clock.now = 5.0
            with tr.span("losses.inner"):  # 5 .. 6, nested two deep
                clock.now = 6.0
            clock.now = 7.0
        clock.now = 10.0
    own = self_times(tr.spans)
    by_name = {s.name: s for s in tr.spans}
    assert own[by_name["training.train"].id] == pytest.approx(10 - 3 - 3)
    assert own[by_name["sampling.sample_batch"].id] == pytest.approx(3 - 0.75)
    assert own[by_name["losses.total_loss"].id] == pytest.approx(3 - 1)
    assert own[by_name["losses.inner"].id] == pytest.approx(1)
    assert by_name["sampling.sample_batch"].entails_calls == 2
    assert by_name["sampling.sample_batch"].entails_true == 1
    assert {s.run for s in tr.spans} == {"run"}
    assert by_name["losses.inner"].parent == by_name["losses.total_loss"].id


def test_self_time_clips_and_merges_overlapping_children():
    parent = Span(0, "p", 0.0, 10.0, None, "r")
    kids = [
        Span(1, "a", -1.0, 2.0, 0, "r"),  # sticks out before the parent
        Span(2, "b", 1.0, 3.0, 0, "r"),  # overlaps a
        Span(3, "c", 9.0, 12.0, 0, "r"),  # sticks out after the parent
    ]
    assert self_times([parent, *kids])[0] == pytest.approx(10 - 3 - 1)


def test_entails_outside_any_span_is_dropped():
    tr = Tracer("run")
    tr.add_entails(1.0, True)
    assert tr.spans == []


def test_ancestor_named():
    clock = FakeClock()
    tr = Tracer("run", clock=clock)
    with tr.span("round"):
        with tr.span("training.train"):
            with tr.span("sampling.sample_batch"):
                pass
        with tr.span("evaluation.rank_raw"):
            pass
    up = ancestor_named(tr.spans, "training.train")
    names = {s.id: s.name for s in tr.spans}
    assert [names[i] if i is not None else None for i in up.values()] == [
        None, "training.train", "training.train", None,
    ]


def test_layer_metrics_per_round_and_shares():
    clock = FakeClock()
    tr = Tracer("run", clock=clock)
    for _ in range(2):  # two identical rounds of 10 s
        start = clock.now
        with tr.span("round"):
            with tr.span("training.train"):
                with tr.span("sampling.sample_batch"):
                    tr.add_entails(1.0, True)
                    clock.now += 4.0
                clock.now += 2.0
            with tr.span("evaluation.rank_raw"):
                with tr.span("losses.batch_losses"):
                    clock.now += 1.0
                clock.now += 1.0
            with tr.span("evaluation.rank_filtered"):
                clock.now += 2.0
        assert clock.now - start == 10.0
    counts = {"requested": 8, "emitted": 6, "skipped": 2, "trace.overhead_frac": 0.1}
    m = layer_metrics(tr.spans, counts, n_setups=1, n_rounds=2)
    assert set(m) == set(PER_LAYER)
    assert m["training.train_s"] == pytest.approx(6.0)
    assert m["sampling.sample_batch_s"] == pytest.approx(4.0)
    assert m["sampling.self_s"] == pytest.approx(3.0)
    assert m["training.self_s"] == pytest.approx(2.0)
    assert m["closure.entails_in_train_s"] == pytest.approx(1.0)
    assert m["closure.entails_calls"] == pytest.approx(1.0)
    assert m["closure.entails_true_frac"] == pytest.approx(1.0)
    assert m["sampling.negatives_requested"] == pytest.approx(4.0)
    assert m["sampling.entailed_rejects"] == pytest.approx(1.0)
    assert m["sampling.accept_ratio"] == pytest.approx(6 / (6 + 2))
    assert m["share.sample_batch_of_train"] == pytest.approx(4 / 6)
    assert m["share.batch_losses_of_rank_raw"] == pytest.approx(0.5)
    assert m["evaluation.score_and_rank_s"] == pytest.approx(4.0)
    assert m["evaluation.self_s"] == pytest.approx(3.0)
    assert m["normalize.normalize_s"] == 0.0  # bypassed layers read 0


def test_failed_frac_and_accept_ratio():
    assert failed_frac(0, 1000) == 0.0
    assert failed_frac(3, 12) == 0.25
    assert failed_frac(0, 0) == 0.0
    with pytest.raises(ValueError):
        failed_frac(5, 4)
    with pytest.raises(ValueError):
        failed_frac(-1, 4)
    assert accept_ratio(55, 45) == pytest.approx(0.55)
    assert accept_ratio(10, 0) == 1.0
    assert accept_ratio(0, 0) == 0.0  # no closure-checked draws at all


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert median(values) == statistics.median(values) == q2
    assert relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert relative_spread([2.0, 2.0, 2.0]) == 0.0
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        quartiles([1.0])


def test_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]
    } == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_input_seeds_are_disjoint_across_run_seeds():
    for wl in WORKLOADS.values():
        assert input_seeds(wl, 4)[0] == 4 * wl.inputs_per_run
        runs = [input_seeds(wl, seed) for seed in range(10)]
        assert all(len(seeds) == wl.inputs_per_run for seeds in runs)
        flat = [s for seeds in runs for s in seeds]
        assert len(flat) == len(set(flat))
    assert input_seeds(WORKLOADS["galen-filtered"], 7) == [7]
