"""Ranking evaluation: tie handling, oracle equivalence, filtering."""

import dataclasses
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elkbc import classify, compute_closure, evaluation, losses
from elkbc.core import GCI0, GCI2, TOP_ID, AxiomTable, Signature, Theory, parse_theory
from elkbc.datasets import layered_dag_benchmark
from elkbc.evaluation import (
    AxiomRanking,
    RankingReport,
    RankingTask,
    filter_test_set,
    nf_f_delta,
    score_and_rank,
)
from elkbc.losses import MODEL_TAGS, batch_losses
from elkbc.training import init_model
from oracles import naive_metrics, naive_rank, written_out_ranks


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


def test_pool_as_list_range_or_array_ranks_alike(golden):
    """The task builds its pool once: a list, a range and an array of the
    same ids give the same report, and so does ranking one task twice."""
    theory, dc = golden["theory"], golden["materialized"]
    m = _model(theory.n_concepts, seed=5, quantize=1)  # ties between candidates
    n = theory.n_concepts
    axioms = [ax for ax in theory.axioms if isinstance(ax, (GCI0, GCI2))]
    reports = []
    for pool in (list(range(n)), range(n), np.arange(n), np.arange(n, dtype=np.int32)):
        task = RankingTask(axioms, pool, frozenset(axioms[:2]), (dc,))
        for _ in range(2):
            report = score_and_rank(m, task)
            reports.append((report.to_json(), report.to_csv()))
    assert all(report == reports[0] for report in reports)
    with pytest.raises(ValueError, match="duplicate"):
        RankingTask(axioms, np.array([3, 1, 3]))


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
    raises.  Filtered tasks drop by the train set and by the closure of a
    small random theory over the same concepts, whose filler rows overlap
    the train fillers and sometimes hold the true candidate."""
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
    dc = _random_closure(rng, n_c, [*axioms, *train])
    poisoned = data.draw(st.sampled_from([False, False, False, True]))
    if poisoned:  # every family's ranked losses read the candidate's center
        m.params["class_center"][rng.choice(pool), rng.integers(m.dim)] = np.nan
    with mock.patch.object(losses, "_RANK_ENTRIES", chunk * m.dim), \
            mock.patch.object(evaluation, "_SCORE_BLOCK", score_block):
        if poisoned:
            with pytest.raises(ValueError, match="non-finite"):
                score_and_rank(m, RankingTask(axioms, pool, train, (dc,)))
            return
        # every example is ranked filtered by its train set and closure, and raw only
        reports = [
            (score_and_rank(m, RankingTask(axioms, pool, t, closures)), t, closures)
            for t, closures in ((train, (dc,)), (frozenset(), ()))
        ]
    for report, t, closures in reports:
        for ax, r in zip(axioms, report.rankings):
            assert r.axiom == ax
            got = (r.raw_rank, r.pool_size, r.filtered_rank, r.filtered_pool_size)
            assert got == written_out_ranks(m, ax, pool, t, closures)


def _random_closure(rng, n_c, axioms):
    """Closure of a theory over concepts ``0 .. n_c - 1`` and two roles: a
    random share of ``axioms`` (so its rows overlap the train fillers and
    may hold a test axiom's true filler) plus a few random subsumptions,
    which the closure chains onto them."""
    sig = Signature()
    for i in range(n_c - 2):
        sig.concepts.intern(f"c{i}")
    for i in range(2):
        sig.roles.intern(f"r{i}")
    picked = [ax for ax in axioms if rng.random() < 0.3]
    edges = [GCI0(*map(int, rng.integers(n_c, size=2))) for _ in range(int(rng.integers(4)))]
    theory = Theory(sig, picked + edges)
    return compute_closure(theory, *classify(theory)[:2])


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


def _key(ax):
    """The ranking key of a test axiom: its variant and the ids before its
    ranked slot."""
    return (type(ax), ax.sub) if isinstance(ax, GCI0) else (type(ax), ax.sub, ax.role)


def _spy_blocks(monkeypatch):
    """The number of scores of each ranking-form ``batch_losses`` call that
    ``score_and_rank`` makes."""
    blocks = []

    def spy(model, tag, polarity, axioms, **kwargs):
        blocks.append(len(axioms) * len(kwargs["candidates"]))
        return batch_losses(model, tag, polarity, axioms, **kwargs)

    monkeypatch.setattr(evaluation, "batch_losses", spy)
    return blocks


def _reference_raw_ranks(m, axioms, pool):
    """Raw (rank, pool) of each axiom from its written-out block: the
    axiom's id row repeated, its ranked column set to the pool."""
    tests = AxiomTable.from_axioms(axioms)
    out = []
    for i, ax in enumerate(axioms):
        tag, slot = ("GCI0", 1) if isinstance(ax, GCI0) else ("GCI2", 2)
        block = tests[np.full(len(pool), i)]
        block.cols[slot] = pool
        scores = batch_losses(m, tag, "positive", block)
        out.append(naive_rank(list(scores), pool.index(tests.cols[slot, i]), [True] * len(pool)))
    return out


@pytest.mark.parametrize(
    "n_pool, n_test, n_blocks", [(1023, 3, 2), (1024, 3, 2), (1025, 3, 2), (2100, 1000, 4)]
)
def test_blocked_ranking_at_full_chunk_and_score_block(monkeypatch, n_pool, n_test, n_blocks):
    """At the module's own pass size and score-block bound: at dim 64 a pass
    holds 1,024 candidate rows, so the pools fall just below, on and just
    above one pass; 500 GCI0 and 500 GCI2 test axioms with distinct subjects
    against 2,100 candidates are 500 keys per variant, more than the 499
    score rows of a block, so each variant is scored in two blocks, none of
    which exceeds the bound; each distinct key is scored once, and ranks
    equal the reference."""
    rng = np.random.default_rng(n_pool)
    m = init_model("elbe", n_pool + 2, 1, 64, seed=1)
    assert losses._RANK_ENTRIES // m.dim == 1024
    pool = [int(c) for c in rng.permutation(n_pool + 2)[:n_pool]]
    subjects = rng.permutation(n_pool + 2)[: (n_test + 1) // 2].tolist()
    axioms = [
        GCI0(subjects[i // 2], int(rng.choice(pool))) if i % 2
        else GCI2(subjects[i // 2], 0, int(rng.choice(pool)))
        for i in range(n_test)
    ]
    assert len(set(map(_key, axioms))) == n_test
    blocks = _spy_blocks(monkeypatch)
    report = score_and_rank(m, RankingTask(axioms, pool))
    assert max(blocks) <= max(evaluation._SCORE_BLOCK, n_pool)
    assert sum(blocks) == len(set(map(_key, axioms))) * n_pool
    assert len(blocks) == n_blocks
    want = _reference_raw_ranks(m, axioms, pool)
    assert [(r.raw_rank, r.pool_size) for r in report.rankings] == want


def test_key_shared_by_more_axioms_than_a_block_holds(monkeypatch):
    """1,200 GCI0 axioms of one subject against 2,100 candidates: the key is
    scored once, its axioms are ranked in chunks of the 499 rows a block
    holds, so the peak traced memory stays near one block of scores, not
    the 1,200 rows of the whole key; ranks equal the reference."""
    n_pool, n_test = 2100, 1200
    rng = np.random.default_rng(3)
    m = init_model("elbe", n_pool + 2, 1, 64, seed=1)
    pool = [int(c) for c in rng.permutation(n_pool + 2)[:n_pool]]
    axioms = [GCI0(7, int(c)) for c in rng.choice(pool, size=n_test)]
    task = RankingTask(axioms, pool)
    block_bytes = evaluation._SCORE_BLOCK * 8
    assert n_test * n_pool * 8 > 2 * block_bytes
    blocks = _spy_blocks(monkeypatch)
    tracemalloc.start()
    try:
        report = score_and_rank(m, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks == [n_pool]
    assert peak < 1.75 * block_bytes
    scores = batch_losses(m, "GCI0", "positive", [GCI0(7, c) for c in pool])
    for ax, r in zip(axioms, report.rankings):
        want = naive_rank(list(scores), pool.index(ax.sup), [True] * n_pool)
        assert (r.raw_rank, r.pool_size, r.filtered_rank, r.filtered_pool_size) == want * 2


@pytest.fixture(scope="module")
def dag0():
    """DAG 0's train theory and its closure."""
    theory, _, _ = layered_dag_benchmark(0)
    return theory, compute_closure(theory, *classify(theory)[:2])


@pytest.mark.parametrize("source", ["golden", "dag0"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_ranking_per_key_equals_per_axiom_reference(golden, dag0, source, data):
    """Test sets with repeated keys: subjects from a small range, exact
    duplicates, GCI2 axioms of one subject under different roles and of one
    (subject, role) with different fillers, GCI0 and GCI2 mixed, against a
    shuffled subset pool, ranked raw, by the train set, by the closure or
    by both (the golden theory or DAG 0), with one key per block, a few, or
    all: every ranking and metric equals the per-axiom reference, and the
    scores computed are the distinct keys times the pool."""
    theory, dc = (golden["theory"], golden["materialized"]) if source == "golden" else dag0
    n_c, n_r = theory.n_concepts, theory.n_roles
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = init_model(data.draw(st.sampled_from(MODEL_TAGS)), n_c, n_r, 4, seed=int(rng.integers(100)))
    if data.draw(st.booleans()):  # coarse parameters tie many scores
        for name in m.params:
            m.params[name] = np.round(m.params[name], 1)
    n_pool = data.draw(st.integers(1, min(n_c, 40)))
    pool = [int(c) for c in rng.permutation(n_c)[:n_pool]]
    first = int(rng.integers(n_c - 2))
    subjects = range(first, first + data.draw(st.integers(1, 3)))
    axioms = []
    for _ in range(data.draw(st.integers(1, 30))):
        sub, obj, pick = int(rng.choice(subjects)), int(rng.choice(pool)), rng.random()
        if axioms and pick < 0.2:
            axioms.append(axioms[int(rng.integers(len(axioms)))])
        elif pick < 0.6:
            axioms.append(GCI0(sub, obj))
        else:
            axioms.append(GCI2(sub, int(rng.integers(n_r)), obj))
    train, closures = data.draw(st.sampled_from(
        [(frozenset(), ()), (frozenset(theory.axioms), ()), (frozenset(), (dc,)),
         (frozenset(theory.axioms), (dc,))]
    ))
    over_signature = data.draw(st.booleans())
    score_block = data.draw(st.sampled_from([n_pool, 3 * n_pool + 1, 1 << 20]))
    task = RankingTask(axioms, pool, train, closures, over_signature)
    with pytest.MonkeyPatch.context() as monkeypatch:
        blocks = _spy_blocks(monkeypatch)
        monkeypatch.setattr(evaluation, "_SCORE_BLOCK", score_block)
        report = score_and_rank(m, task)
    assert sum(blocks) == len(set(map(_key, axioms))) * n_pool
    want = []
    for ax in axioms:
        raw, size, filtered, f_size = written_out_ranks(m, ax, pool, train, closures)
        want.append(AxiomRanking(ax, raw, filtered, size, f_size))
    assert report.rankings == want
    assert report.metrics == _reference_metrics(want, n_c, over_signature)


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
    "axiom, candidates, n_model",
    [
        (GCI0(2, 3), [2, 3, 99], None),  # a candidate outside the model
        (GCI0(2, 3), [-1, 2, 3], None),
        (GCI0(99, 3), [2, 3], None),  # a test id outside the model
        (GCI2(2, 5, 3), [2, 3], None),
        (GCI0(2, 99), [2, 3, 99], None),
        (GCI0(99, 3), [2, 3], 100),  # inside a larger model, outside the closure's theory
    ],
    ids=[*(f"axiom{i}-candidates{i}" for i in range(5)), "larger-model"],
)
def test_ids_outside_the_model_raise_key_error(golden, filtered, axiom, candidates, n_model):
    """An id outside the model is a ``KeyError`` of the scoring; one inside
    the model but outside a filtering closure's theory is a ``KeyError`` of
    the closure check, and a raw task, which asks no closure, ranks it."""
    theory, dc = golden["theory"], golden["materialized"]
    m = _model(n_model or theory.n_concepts, seed=2)
    assert theory.n_concepts < 99 and m.n_roles < 5  # id 99 and role 5 are outside the theory
    assert (m.n_concepts > 99) == bool(n_model)  # and outside the model unless it is larger
    task = RankingTask(
        axioms=[GCI0(2, 3), axiom], candidates=candidates,
        train_axioms=frozenset(theory.axioms) if filtered else frozenset(),
        closures=(dc,) if filtered else (),
    )
    if n_model and not filtered:
        assert len(score_and_rank(m, task).rankings) == 2
        return
    with pytest.raises(KeyError):
        score_and_rank(m, task)


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_non_finite_error_names_the_first_poisoned_axiom_of_its_variant(
    golden, filtered, one_row_blocks
):
    """Two poisoned GCI0 subjects whose sorted order differs from their test
    order, behind a poisoned GCI2 that comes first in the test set: the
    error names the first poisoned axiom in test order within the first
    variant ranked (GCI0), with one block or with one score row per block."""
    theory, dc = golden["theory"], golden["materialized"]
    m = _model(theory.n_concepts, seed=3)
    for sub in (6, 7, 5):
        m.params["class_center"][sub] = np.nan
    axioms = [GCI2(6, 0, 3), GCI0(2, 3), GCI0(7, 1), GCI0(5, 3), GCI0(7, 2), GCI0(5, 2)]
    task = RankingTask(
        axioms, [1, 2, 3],
        train_axioms=frozenset(theory.axioms) if filtered else frozenset(),
        closures=(dc,) if filtered else (),
    )
    score_block = 3 if one_row_blocks else evaluation._SCORE_BLOCK
    with mock.patch.object(evaluation, "_SCORE_BLOCK", score_block):
        with pytest.raises(ValueError, match=re.escape(f"pool of {GCI0(7, 1)!r}")):
            score_and_rank(m, task)


@pytest.mark.parametrize("one_row_blocks", [False, True])
def test_closure_key_error_names_the_first_outside_axiom_of_its_variant(golden, one_row_blocks):
    """Ids inside the model but outside the closure's theory, in the subject
    of a later key and in the ranked slot of a later axiom of an earlier key,
    behind an outside GCI2 that comes first in the test set: the
    ``KeyError`` names the first such axiom in test order within the first
    variant ranked (GCI0)."""
    theory, dc = golden["theory"], golden["materialized"]
    assert theory.n_concepts < 97
    m = _model(100, seed=2)
    axioms = [GCI2(99, 0, 3), GCI0(5, 3), GCI0(99, 3), GCI0(5, 97), GCI0(2, 3), GCI0(98, 97)]
    task = RankingTask(axioms, [2, 3, 97], frozenset(theory.axioms), (dc,))
    score_block = 3 if one_row_blocks else evaluation._SCORE_BLOCK
    with mock.patch.object(evaluation, "_SCORE_BLOCK", score_block):
        with pytest.raises(KeyError, match=re.escape(f"{GCI0(99, 3)!r} has an id outside")):
            score_and_rank(m, task)


def _np_mean_per_subject(rankings, values):
    """``np.mean`` of each subject's values listed in test order, subjects
    in order of first occurrence."""
    by_subject = {}
    for r, v in zip(rankings, values):
        by_subject.setdefault(r.axiom.sub, []).append(float(v))
    return [float(np.mean(vs)) for vs in by_subject.values()]


def _reference_metrics(rankings, n_concepts, over_signature):
    """The report metrics from the rankings, one Python value per axiom."""
    metrics = {}
    for prefix, rank, pool in (
        ("", "raw_rank", "pool_size"), ("F_", "filtered_rank", "filtered_pool_size")
    ):
        ranks = [getattr(r, rank) for r in rankings]
        pools = [getattr(r, pool) for r in rankings]
        aucs = [1.0 - (k - 1) / (p - 1) if p > 1 else 1.0 for k, p in zip(ranks, pools)]

        def micro(values):
            means = _np_mean_per_subject(rankings, values)
            return float(np.sum(means) / n_concepts if over_signature else np.mean(means))

        values = (
            np.mean(np.array(ranks) <= 10), np.mean(np.array(ranks) <= 100),
            np.mean(np.array(ranks, dtype=float)), micro(ranks), np.mean(aucs), micro(aucs),
        )
        metrics.update((prefix + name, float(v)) for name, v in zip(evaluation._BASE_METRICS, values))
    return metrics


@pytest.mark.parametrize("over_signature", [False, True])
def test_micro_metrics_equal_per_subject_np_mean(over_signature):
    """Micro metrics equal, with ``==``, the mean over subjects of the
    per-subject ``np.mean`` of each subject's list, raw and filtered by a
    train set.  Subject groups hold 1 to 20 test axioms (numpy's pairwise
    sum changes its order from 8 values up): one subject per task, whose
    mean is then the micro metric itself, and every size, several groups
    per size, interleaved in one task, whose per-subject means are compared
    too, since the mean over subjects can round a last-bit difference
    away."""
    rng = np.random.default_rng(17)
    n_c, pool = 260, list(range(2, 199))
    m = _model(n_c, seed=12)
    mixed = [*range(1, 21), *rng.integers(1, 21, size=30).tolist()]
    for sizes in [*([size] for size in range(1, 21)), mixed]:
        subjects = rng.permutation(np.repeat(rng.permutation(n_c)[: len(sizes)], sizes))
        axioms = [
            GCI0(int(s), int(rng.choice(pool))) if rng.random() < 0.5
            else GCI2(int(s), 0, int(rng.choice(pool)))
            for s in subjects
        ]
        train = frozenset(
            dataclasses.replace(ax, **{_slot(ax): int(c)})
            for ax in axioms for c in rng.choice(pool, size=20)
        )
        task = RankingTask(axioms, pool, train, micro_over_signature=over_signature)
        report = score_and_rank(m, task)
        assert report.metrics == _reference_metrics(report.rankings, n_c, over_signature)
    assert any(r.filtered_rank != r.raw_rank for r in report.rankings)
    aucs = 1.0 - np.array([(r.raw_rank - 1) / (r.pool_size - 1) for r in report.rankings])
    means = evaluation._subject_means(subjects)(aucs)
    assert means.tolist() == _np_mean_per_subject(report.rankings, aucs)
