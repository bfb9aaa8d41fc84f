"""Ranking evaluation: tie handling, oracle equivalence, filtering."""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elkbc import evaluation, losses
from elkbc.core import GCI0, GCI2, TOP_ID, AxiomTable, parse_theory
from elkbc.evaluation import (
    RankingReport,
    RankingTask,
    filter_test_set,
    nf_f_delta,
    score_and_rank,
)
from elkbc.losses import MODEL_TAGS, batch_losses
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
    assert payload["pool_size_mean"] == 4.0
    assert payload["filtered_pool_size_mean"] == 4.0
    csv_text = report.to_csv()
    assert csv_text.count("\n") == 3  # header + two axioms
    # the train set drops candidate 3 from the pool of GCI0(4, 2) only
    filtered = score_and_rank(m, RankingTask(task.axioms, task.candidates, frozenset([GCI0(4, 3)])))
    payload = json.loads(filtered.to_json())
    assert (payload["pool_size_mean"], payload["filtered_pool_size_mean"]) == (4.0, 3.5)


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


def _reference_ranks(m, ax, pool, train_axioms):
    """(raw rank, pool, filtered rank, filtered pool) from per-candidate
    losses of the written-out axioms and the sorting oracle."""
    slot = "sup" if isinstance(ax, GCI0) else "filler"
    written = [dataclasses.replace(ax, **{slot: c}) for c in pool]
    scores = list(batch_losses(m, "GCI0" if isinstance(ax, GCI0) else "GCI2", "positive", written))
    true_idx = pool.index(getattr(ax, slot))
    keep = [c == getattr(ax, slot) or w not in train_axioms for c, w in zip(pool, written)]
    return (*naive_rank(scores, true_idx, [True] * len(pool)), *naive_rank(scores, true_idx, keep))


@pytest.mark.parametrize("tag", MODEL_TAGS)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_blocked_ranking_equals_per_candidate_reference(tag, data):
    """Raw and filtered ranks from ranking passes and score blocks equal the
    per-candidate reference: pools of 1, 2, chunk - 1, chunk, chunk + 1 and
    several chunks, so one or several axioms per pass with a partial last
    pass; contiguous and shuffled pools; test sets that cross the
    score-block bound; GCI0 and GCI2 axioms; one shared or several subjects;
    score ties, signed zeros, raw-only tasks, and a NaN parameter, which
    raises."""
    chunk = data.draw(st.sampled_from([2, 5, 8]))
    n_pool = data.draw(st.sampled_from([1, 2, chunk - 1, chunk, chunk + 1, 4 * chunk + 1]))
    score_block = data.draw(st.sampled_from([1, n_pool, 3 * n_pool + 1, 1 << 20]))
    n_c = n_pool + 3
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = init_model(tag, n_c, 2, data.draw(st.sampled_from([2, 9])), seed=int(rng.integers(100)))
    if data.draw(st.booleans()):  # coarse parameters tie many scores
        for name in m.params:
            m.params[name] = np.round(m.params[name], 1)
    if data.draw(st.booleans()):
        for name, arr in m.params.items():
            m.params[name] = np.where(rng.random(arr.shape) < 0.2, -0.0, arr)
    if data.draw(st.booleans()):
        start = int(rng.integers(4))
        pool = list(range(start, start + n_pool))
    else:
        pool = [int(c) for c in rng.permutation(n_c)[:n_pool]]
    subjects = [int(s) for s in rng.choice(n_c, size=data.draw(st.sampled_from([1, 3])))]
    axioms = []
    for _ in range(data.draw(st.integers(1, 12))):
        sub, obj = int(rng.choice(subjects)), int(rng.choice(pool))
        role = int(rng.integers(2))
        axioms.append(GCI0(sub, obj) if rng.random() < 0.5 else GCI2(sub, role, obj))
    train = frozenset(
        dataclasses.replace(ax, **{"sup" if isinstance(ax, GCI0) else "filler": int(c)})
        for ax in axioms for c in pool if rng.random() < 0.3
    )
    poisoned = data.draw(st.sampled_from([False, False, False, True]))
    if poisoned:  # every family's ranked losses read the candidate's center
        m.params["class_center"][rng.choice(pool), rng.integers(m.dim)] = np.nan
    with mock.patch.object(losses, "_RANK_ENTRIES", chunk * m.dim), \
            mock.patch.object(evaluation, "_SCORE_BLOCK", score_block):
        if poisoned:
            with pytest.raises(ValueError, match="non-finite"):
                score_and_rank(m, RankingTask(axioms, pool, train_axioms=train))
            return
        # every example is ranked filtered by its train set, and raw only
        reports = [
            (score_and_rank(m, RankingTask(axioms, pool, train_axioms=t)), t)
            for t in (train, frozenset())
        ]
    for report, t in reports:
        for ax, r in zip(axioms, report.rankings):
            assert r.axiom == ax
            got = (r.raw_rank, r.pool_size, r.filtered_rank, r.filtered_pool_size)
            assert got == _reference_ranks(m, ax, pool, t)


@pytest.mark.parametrize("tag", MODEL_TAGS)
@pytest.mark.parametrize("contiguous", [True, False])
def test_ranking_never_writes_parameters(golden, tag, contiguous):
    """Parameter bytes are the same before and after ``score_and_rank`` and
    the ranking form, filtered by train set and closure, on a pool that is
    ``range(n)`` (its rows are views of the parameters) and on a shuffled
    one; signed zeros included."""
    theory, dc = golden["theory"], golden["materialized"]
    n = theory.n_concepts
    rng = np.random.default_rng(5)
    m = init_model(tag, n, 1, 4, seed=4)
    for name, arr in m.params.items():
        m.params[name] = np.where(rng.random(arr.shape) < 0.2, -0.0, arr)
    before = {name: arr.tobytes() for name, arr in m.params.items()}
    pool = list(range(n)) if contiguous else [int(c) for c in rng.permutation(n)]
    axioms = [GCI0(2, 3), GCI2(2, 0, 4), GCI0(5, 1)]
    task = RankingTask(axioms, pool, frozenset(theory.axioms), (dc,))
    for entries in (m.dim, 3 * m.dim, 1 << 16):  # one row, several rows, one pass
        with mock.patch.object(losses, "_RANK_ENTRIES", entries):
            score_and_rank(m, task)
            for variant, ax in (("GCI0", GCI0(2, 3)), ("GCI2", GCI2(2, 0, 4))):
                batch_losses(m, variant, "positive", [ax], candidates=pool)
    assert {name: arr.tobytes() for name, arr in m.params.items()} == before


@pytest.mark.parametrize(
    "n_pool, n_test, n_blocks", [(1023, 3, 2), (1024, 3, 2), (1025, 3, 2), (2100, 1000, 4)]
)
def test_blocked_ranking_at_full_chunk_and_score_block(monkeypatch, n_pool, n_test, n_blocks):
    """At the module's own pass size and score-block bound: at dim 64 a pass
    holds 1,024 candidate rows, so the pools fall just below, on and just
    above one pass; 500 GCI0 and 500 GCI2 test axioms against 2,100
    candidates are more than 2**20 scores per variant, scored in two blocks
    each, none of which exceeds the bound; ranks equal the reference."""
    rng = np.random.default_rng(n_pool)
    m = init_model("elbe", n_pool + 2, 1, 64, seed=1)
    assert losses._RANK_ENTRIES // m.dim == 1024
    pool = [int(c) for c in rng.permutation(n_pool + 2)[:n_pool]]
    axioms = [
        GCI0(int(rng.integers(n_pool + 2)), int(rng.choice(pool))) if i % 2
        else GCI2(int(rng.integers(n_pool + 2)), 0, int(rng.choice(pool)))
        for i in range(n_test)
    ]
    blocks = []

    def spy(model, tag, polarity, axioms, **kwargs):
        blocks.append(len(axioms) * len(kwargs["candidates"]))
        return batch_losses(model, tag, polarity, axioms, **kwargs)

    monkeypatch.setattr(evaluation, "batch_losses", spy)
    report = score_and_rank(m, RankingTask(axioms, pool))
    assert max(blocks) <= max(evaluation._SCORE_BLOCK, n_pool)
    assert sum(blocks) == n_test * n_pool
    assert len(blocks) == n_blocks
    tests = AxiomTable.from_axioms(axioms)
    for i, (ax, r) in enumerate(zip(axioms, report.rankings)):
        # the reference block: the axiom's id row repeated, its ranked column set to the pool
        tag, slot = ("GCI0", 1) if isinstance(ax, GCI0) else ("GCI2", 2)
        block = tests[np.full(n_pool, i)]
        block.cols[slot] = pool
        scores = batch_losses(m, tag, "positive", block)
        true_idx = pool.index(tests.cols[slot, i])
        assert (r.raw_rank, r.pool_size) == naive_rank(list(scores), true_idx, [True] * n_pool)


@pytest.mark.parametrize("poisoned", ["true", "competitor"])
@pytest.mark.parametrize("filtered", [False, True])
def test_non_finite_score_raises(golden, poisoned, filtered):
    """A NaN score in a pool is an error, not a rank: compared with a NaN, no
    candidate is better or equal, so the rank and AUC came out as nonsense."""
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    p, go1, go2 = names.id_of("{P}"), names.id_of("{GO1}"), names.id_of("{GO2}")
    m = _model(theory.n_concepts, seed=3)
    m.params["class_center"][go2 if poisoned == "true" else go1] = np.nan
    task = RankingTask(
        axioms=[GCI2(p, 0, go2)], candidates=[TOP_ID, go1, go2],
        train_axioms=frozenset(theory.axioms) if filtered else frozenset(),
        closures=(dc,) if filtered else (),
    )
    with pytest.raises(ValueError, match="non-finite"):
        score_and_rank(m, task)


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize(
    "axiom, candidates",
    [
        (GCI0(2, 3), [2, 3, 99]),  # a candidate outside the model
        (GCI0(2, 3), [-1, 2, 3]),
        (GCI0(99, 3), [2, 3]),  # a test id outside the model
        (GCI2(2, 5, 3), [2, 3]),
        (GCI0(2, 99), [2, 3, 99]),
    ],
)
def test_ids_outside_the_model_raise_key_error(golden, filtered, axiom, candidates):
    theory, dc = golden["theory"], golden["materialized"]
    m = _model(theory.n_concepts, seed=2)
    assert m.n_concepts < 99 and m.n_roles < 5  # so id 99 and role 5 are outside the model
    task = RankingTask(
        axioms=[GCI0(2, 3), axiom], candidates=candidates,
        train_axioms=frozenset(theory.axioms) if filtered else frozenset(),
        closures=(dc,) if filtered else (),
    )
    with pytest.raises(KeyError):
        score_and_rank(m, task)
