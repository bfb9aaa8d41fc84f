"""Ranking evaluation: tie handling, oracle equivalence, filtering."""

import json

import numpy as np
import pytest

from elkbc.core import GCI0, GCI2, TOP_ID, parse_theory
from elkbc.evaluation import (
    RankingReport,
    RankingTask,
    filter_test_set,
    nf_f_delta,
    score_and_rank,
)
from elkbc.losses import batch_losses
from elkbc.training import init_model
from oracles import naive_metrics, naive_rank


def _model(n_concepts, seed=0, quantize=None, tag="elem"):
    m = init_model(tag, n_concepts, 1, 3, seed=seed)
    if quantize:
        for name in m.params:
            m.params[name] = np.round(m.params[name], quantize)
    return m


def test_perfect_ranking():
    m = _model(5)
    # put candidate 2 exactly at the containment optimum for subject 4
    m.params["class_center"][2] = m.params["class_center"][4]
    m.params["class_radius"][4] = 0.01
    m.params["class_radius"][2] = 0.5
    m.params["class_center"][0] = -m.params["class_center"][4]
    m.params["class_center"][3] = -m.params["class_center"][4]
    task = RankingTask(axioms=[GCI0(4, 2)], candidates=[0, 2, 3])
    report = score_and_rank(m, task)
    r = report.rankings[0]
    assert r.raw_rank == 1
    assert report.metrics["H@10"] == 1.0
    assert report.metrics["macro_AUC"] == 1.0


def test_duplicate_candidates_rejected():
    m = _model(6)
    report = score_and_rank(m, RankingTask(axioms=[GCI0(2, 3)], candidates=[2, 3, 4, 5]))
    assert report.rankings[0].pool_size == 4
    # a repeated candidate would count twice in the pool and move the rank
    with pytest.raises(ValueError, match="duplicate"):
        RankingTask(axioms=[GCI0(2, 3)], candidates=[2, 3, 3, 3, 4, 5, 5])


def test_all_tied_mid_rank():
    m = _model(12)
    # identical candidate geometry: every score ties
    for name in ("class_center", "class_radius"):
        m.params[name][:] = m.params[name][0]
    n = 10
    task = RankingTask(axioms=[GCI0(11, 5)], candidates=list(range(n)))
    report = score_and_rank(m, task)
    assert report.rankings[0].raw_rank == 1 + (n - 1) // 2


def test_oracle_equivalence_on_random_instances():
    rng = np.random.default_rng(8)
    for trial in range(100):
        n_pool = int(rng.integers(2, 51))
        n_c = n_pool + 5
        # quantized parameters force plenty of score ties
        m = _model(n_c, seed=trial, quantize=1 if trial % 2 else 2)
        pool = list(range(n_pool))
        axioms = []
        for _ in range(int(rng.integers(1, 8))):
            sub = int(rng.integers(0, n_c))
            obj = int(rng.integers(0, n_pool))
            if rng.random() < 0.5:
                axioms.append(GCI0(sub, obj))
            else:
                axioms.append(GCI2(sub, 0, obj))
        task = RankingTask(axioms=axioms, candidates=pool)
        report = score_and_rank(m, task)

        entries = []
        import dataclasses

        from elkbc.core import axiom_tag

        for ax, ranking in zip(axioms, report.rankings):
            scores = batch_losses(
                m, axiom_tag(ax), "positive",
                [dataclasses.replace(ax, **{_slot(ax): c}) for c in pool],
            )
            true_idx = pool.index(ax.sup if isinstance(ax, GCI0) else ax.filler)
            rank, kept = naive_rank(list(scores), true_idx, [True] * n_pool)
            assert ranking.raw_rank == rank
            entries.append({"subject": ax.sub, "rank": rank, "pool": kept})
        expected = naive_metrics(entries)
        for key, value in expected.items():
            assert report.metrics[key] == pytest.approx(value, rel=1e-12, abs=1e-12)


def _slot(ax):
    return "sup" if isinstance(ax, GCI0) else "filler"


def test_filtered_rank_drops_known_competitors(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    p, go1, go2 = names.id_of("{P}"), names.id_of("{GO1}"), names.id_of("{GO2}")
    m = _model(theory.n_concepts, seed=4)
    # make the entailed competitor Top score strictly better than GO2
    m.params["class_center"][TOP_ID] = m.params["class_center"][p]
    m.params["class_radius"][TOP_ID] = 5.0
    m.params["role_vector"][0] = 0.0
    m.params["class_center"][go2] = m.params["class_center"][p] * 1.01
    m.params["class_radius"][go2] = 1.0
    task_raw = RankingTask(axioms=[GCI2(p, 0, go2)], candidates=[TOP_ID, go1, go2])
    raw = score_and_rank(m, task_raw)
    task_filt = RankingTask(
        axioms=[GCI2(p, 0, go2)], candidates=[TOP_ID, go1, go2], closures=(dc,)
    )
    filt = score_and_rank(m, task_filt)
    assert raw.rankings[0].raw_rank == 2  # Top outranks the true filler
    assert filt.rankings[0].filtered_rank == 1  # Top is provable, filtered out
    assert filt.rankings[0].filtered_rank <= filt.rankings[0].raw_rank


def test_true_axiom_never_filtered(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    p, go1 = names.id_of("{P}"), names.id_of("{GO1}")
    m = _model(theory.n_concepts, seed=5)
    # the test axiom itself is entailed; it must stay in the pool
    task = RankingTask(
        axioms=[GCI2(p, 0, go1)],
        candidates=list(range(theory.n_concepts)),
        closures=(dc,),
    )
    report = score_and_rank(m, task)
    assert report.rankings[0].filtered_pool_size >= 1


def test_filtered_metrics_dominate():
    rng = np.random.default_rng(13)
    theory = parse_theory("GCI0 A B\nGCI0 A C\nGCI0 B C\n#concept D\n#concept E\n")
    m = _model(theory.n_concepts, seed=6)
    axioms = [GCI0(2, 4), GCI0(3, 5)]
    task = RankingTask(
        axioms=axioms,
        candidates=list(range(theory.n_concepts)),
        train_axioms=frozenset(theory.axioms),
    )
    report = score_and_rank(m, task)
    for r in report.rankings:
        assert r.filtered_rank <= r.raw_rank
    assert report.metrics["F_macro_MR"] <= report.metrics["macro_MR"]
    assert report.metrics["F_macro_AUC"] >= report.metrics["macro_AUC"]
    deltas = nf_f_delta(report)
    assert deltas["macro_MR"] >= 0 and deltas["micro_MR"] >= 0


def test_nf_f_delta_identical_reports_is_zero():
    m = _model(6, seed=7)
    task = RankingTask(axioms=[GCI0(4, 2)], candidates=[0, 2, 3])
    report = score_and_rank(m, task)
    assert all(v == 0.0 for v in nf_f_delta(report, report).values())
    other = score_and_rank(m, RankingTask(axioms=[GCI0(4, 3)], candidates=[0, 2, 3]))
    with pytest.raises(ValueError):
        nf_f_delta(report, other)


def test_filter_test_set_golden(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    p, go2 = names.id_of("{P}"), names.id_of("{GO2}")
    tests = [GCI2(p, 0, TOP_ID), GCI2(p, 0, go2)]
    kept, removed = filter_test_set(tests, dc)
    assert kept == [GCI2(p, 0, go2)]
    assert removed == 1
    assert filter_test_set([], dc) == ([], 0)


def test_filter_test_set_disjoint_unchanged(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    p, go2 = names.id_of("{P}"), names.id_of("{GO2}")
    tests = [GCI2(p, 0, go2)]
    assert filter_test_set(tests, dc) == (tests, 0)


def test_auc_bounds_and_hits_monotone():
    rng = np.random.default_rng(21)
    m = _model(30, seed=9)
    axioms = [GCI0(int(rng.integers(0, 30)), int(rng.integers(0, 20))) for _ in range(10)]
    report = score_and_rank(m, RankingTask(axioms=axioms, candidates=list(range(20))))
    for key in ("macro_AUC", "micro_AUC", "F_macro_AUC"):
        assert 0.0 <= report.metrics[key] <= 1.0
    assert report.metrics["H@10"] <= report.metrics["H@100"]


def test_errors():
    m = _model(6)
    with pytest.raises(ValueError):
        RankingTask(axioms=[], candidates=[0])
    with pytest.raises(ValueError):
        RankingTask(axioms=[GCI0(0, 5)], candidates=[])
    with pytest.raises(ValueError):
        score_and_rank(m, RankingTask(axioms=[GCI0(0, 5)], candidates=[1, 2]))


def test_report_serialization():
    m = _model(6, seed=10)
    task = RankingTask(axioms=[GCI0(4, 2), GCI0(5, 3)], candidates=[0, 2, 3, 5])
    report = score_and_rank(m, task)
    payload = json.loads(report.to_json("demo"))
    assert payload["task"] == "demo"
    assert payload["n_test"] == 2
    assert "NF_minus_F" in payload["metrics"]
    csv_text = report.to_csv()
    assert csv_text.count("\n") == 3  # header + two axioms


def test_micro_over_signature_denominator():
    m = _model(8, seed=11)
    axioms = [GCI0(6, 2), GCI0(6, 3), GCI0(7, 2)]
    pool = list(range(6))
    default = score_and_rank(m, RankingTask(axioms=axioms, candidates=pool))
    wide = score_and_rank(
        m, RankingTask(axioms=axioms, candidates=pool, micro_over_signature=True)
    )
    # two subjects occur; the signature-wide denominator spreads over all 8
    assert wide.metrics["micro_MR"] == pytest.approx(default.metrics["micro_MR"] * 2 / 8)
