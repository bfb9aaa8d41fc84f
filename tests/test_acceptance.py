"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime so the whole gate is auditable from the pytest -s output.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from elkbc.closure import compute_closure
from elkbc.core import (
    GCI0,
    GCI0Bot,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    GCI3Bot,
    parse_theory,
    serialize_theory,
    signature_stats,
)
from elkbc.datasets import BENCHMARK_SHAPES, layered_dag_benchmark, synthesize_shape
from elkbc.evaluation import RankingTask, score_and_rank
from elkbc.losses import LOSS_VARIANTS, LossRequest, batch_losses
from elkbc.reasoner import classify
from elkbc.sampling import SamplerConfig, corrupt, entailed_fraction, sample_batch
from elkbc.toy import (
    DEMO_EPOCHS,
    DEMO_LEARNING_RATE,
    DEMO_SEED,
    geometry_assertions,
    golden_theory,
    toy_theory,
    train_regime,
)
from elkbc.training import TrainConfig, gradient, init_model, train
from oracles import (
    VectorModels,
    closure_axioms,
    fd_gradient,
    naive_closure,
    naive_metrics,
    naive_rank,
    random_theory,
)
from test_closure import GOLDEN_GCI1, GOLDEN_GCI2, GOLDEN_GCI3
from test_reasoner import GOLDEN_HIERARCHY


def _report(name, elapsed, budget):
    print(f"\n{name}: PASS in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget


def test_a1_golden_closure_tables():
    start = time.monotonic()
    theory = golden_theory()
    names = theory.signature.concepts
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy)

    hier = {
        names.name_of(a): {names.name_of(b) for b in index.sup[a]}
        for a in range(theory.n_concepts)
    }
    assert hier == GOLDEN_HIERARCHY

    gci2 = {}
    for ax in dc.iter_variant("GCI2"):
        gci2.setdefault(names.name_of(ax.sub), set()).add(names.name_of(ax.filler))
    assert gci2 == GOLDEN_GCI2

    gci3 = {}
    for ax in dc.iter_variant("GCI3"):
        if ax.filler != 1:  # the table lists satisfiable fillers only
            gci3.setdefault(names.name_of(ax.filler), set()).add(names.name_of(ax.sup))
    assert gci3 == GOLDEN_GCI3

    gci1 = {}
    for ax in dc.iter_variant("GCI1"):
        key = tuple(sorted(names.name_of(x) for x in (ax.left, ax.right)))
        gci1.setdefault(key, set()).add(names.name_of(ax.sup))
    for ax in dc.iter_variant("GCI1_BOT"):
        key = tuple(sorted(names.name_of(x) for x in (ax.left, ax.right)))
        gci1.setdefault(key, set()).add("owl:Nothing")
    assert gci1 == {tuple(sorted(k)): v for k, v in GOLDEN_GCI1.items()}
    _report("A1 golden closure", time.monotonic() - start, 1.0)


def test_a2_soundness_and_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    n_equal = 0
    n_model_checked = 0
    for trial in range(210):
        tiny = trial % 5 < 2  # 84 of 210 theories are model-checkable
        if tiny:
            theory = random_theory(rng, max_concepts=4, max_roles=1, max_axioms=10)
        else:
            theory = random_theory(rng, max_concepts=8, max_roles=3, max_axioms=15)
        index, hierarchy, _ = classify(theory)
        dc = compute_closure(theory, index, hierarchy)
        for tag, axioms in closure_axioms(naive_closure(theory)).items():
            assert set(dc.iter_variant(tag)) == axioms, (tag, theory.axioms)
        n_equal += 1
        if tiny:
            vm = VectorModels(theory, max_domain=3)
            tags = ("GCI0", "GCI1", "GCI1_BOT", "GCI2", "GCI3")
            members = [ax for tag in tags for ax in dc.iter_variant(tag)]
            for ax in members:
                assert vm.holds_everywhere(ax), (theory.axioms, ax)
            n_model_checked += 1
    assert n_equal >= 200 and n_model_checked >= 80
    _report(
        f"A2 oracle equivalence ({n_equal} theories, {n_model_checked} model-checked)",
        time.monotonic() - start,
        60.0,
    )


def test_a3_toy_model_construction():
    start = time.monotonic()
    model, _, theory = train_regime("all-filtered", seed=DEMO_SEED)
    names = theory.signature.concepts
    roles = theory.signature.roles
    c = model.params["class_center"]
    r = model.params["class_radius"]
    v = model.params["role_vector"][roles.id_of("has_function")]
    go1, go2, a = names.id_of("{GO1}"), names.id_of("{GO2}"), names.id_of("A")

    assert np.linalg.norm(c[go1] - c[go2]) >= r[go1] + r[go2] - 0.05
    for i in range(1, 6):
        q = names.id_of(f"{{Q{i}}}")
        assert np.linalg.norm(c[q] + v - c[go2]) + r[q] <= r[go2] + 0.05
    assert np.linalg.norm(c[go2] - v - c[a]) <= r[go2] + r[a] + 0.05

    gci2_model, _, _ = train_regime("gci2-random", seed=DEMO_SEED)
    failed = [x for x in geometry_assertions(gci2_model, theory) if not x.passed]
    assert failed, "the GCI2-only regime should violate at least one condition"
    _report("A3 toy geometry (+ GCI2-only contrast)", time.monotonic() - start, 60.0)


AXIOM_OF = {
    "GCI0": GCI0(0, 1),
    "GCI1": GCI1(0, 1, 2),
    "GCI2": GCI2(0, 0, 1),
    "GCI3": GCI3(0, 0, 1),
    "GCI0_BOT": GCI0Bot(0),
    "GCI1_BOT": GCI1Bot(0, 1),
    "GCI3_BOT": GCI3Bot(0, 0),
}


def test_a4_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    total_points = 0
    for tag in ("elem", "elbe", "box2el"):
        for variant in LOSS_VARIANTS:
            for polarity in ("positive", "negative"):
                requests = [LossRequest(AXIOM_OF[variant], polarity)]
                checked = 0
                while checked < 100:
                    m = init_model(
                        tag, 3, 1, 3, seed=int(rng.integers(0, 2**31)),
                        margin=float(rng.uniform(-0.1, 0.1)), epsilon=0.1,
                        delta=float(rng.uniform(0.3, 1.5)),
                        reg_lambda=0.1 if tag == "box2el" else 0.0,
                    )
                    for name in m.params:
                        m.params[name] = m.params[name] + rng.normal(0, 0.3, m.params[name].shape)
                    analytic = gradient(m, requests)
                    fd1 = fd_gradient(m, requests, 1e-5)
                    mismatch = any(
                        np.any(
                            np.abs(analytic[k] - fd1[k]) / np.maximum(1.0, np.abs(fd1[k]))
                            > 1e-4
                        )
                        for k in fd1
                    )
                    if mismatch:
                        # distinguish a kink inside the stencil from a wrong
                        # derivative: shrinking the step moves the estimate
                        # only at a kink
                        fd2 = fd_gradient(m, requests, 5e-6)
                        if not all(
                            np.allclose(fd1[k], fd2[k], rtol=1e-6, atol=1e-7) for k in fd1
                        ):
                            continue  # non-smooth point; redraw
                        for name in analytic:
                            err = np.abs(analytic[name] - fd1[name])
                            scale = np.maximum(1.0, np.abs(fd1[name]))
                            assert np.all(err / scale <= 1e-4), (tag, variant, polarity, name)
                    checked += 1
                total_points += checked
    assert total_points == 3 * len(LOSS_VARIANTS) * 2 * 100
    _report(f"A4 gradients ({total_points} smooth points)", time.monotonic() - start, 30.0)


def test_a5_sampler_guarantees():
    start = time.monotonic()
    # filtered conjunction corruption has a single admissible outcome
    theory = parse_theory("GCI1 A B E\nGCI0 F B\n")
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy)
    names = theory.signature.concepts
    gci1 = theory.axioms_of(GCI1)[0]
    expected = GCI1(gci1.left, gci1.right, names.id_of("F"))
    negatives, skipped = sample_batch([gci1], 10_000, SamplerConfig(mode="filtered"), dc, seed=1)
    assert skipped == 0 and len(negatives) == 10_000
    assert all(ax == expected for ax in negatives)

    # biased draws pick from the entailed fillers in the pool: here one, C,
    # among the 62 candidates besides the value B, which a random draw also
    # hits with probability 1/62
    extra = "".join(f"#concept X{i}\n" for i in range(59))
    biased = parse_theory("GCI2 A r B\nGCI0 B C\n" + extra)
    b_index, b_hier, _ = classify(biased)
    b_dc = compute_closure(biased, b_index, b_hier)
    gci2_axioms = biased.axioms_of(GCI2)
    for p in (0.25, 0.5, 0.75):
        fraction, n = entailed_fraction(
            gci2_axioms, 10_000, SamplerConfig(mode="biased", bias_p=p), b_dc, seed=3
        )
        assert n == 10_000
        assert abs(fraction - (p + (1 - p) / 62)) <= 0.02, (p, fraction)
    _report("A5 sampler guarantees", time.monotonic() - start, 10.0)


def test_a6_metric_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for trial in range(100):
        n_pool = int(rng.integers(2, 51))
        n_c = n_pool + 4
        m = init_model("elem", n_c, 1, 3, seed=trial)
        for name in m.params:  # quantize to force score ties
            m.params[name] = np.round(m.params[name], 1)
        pool = list(range(n_pool))
        axioms = []
        for _ in range(int(rng.integers(1, 6))):
            sub = int(rng.integers(0, n_c))
            obj = int(rng.integers(0, n_pool))
            axioms.append(GCI0(sub, obj) if rng.random() < 0.5 else GCI2(sub, 0, obj))
        report = score_and_rank(m, RankingTask(axioms=axioms, candidates=pool))
        entries = []
        for ax, ranking in zip(axioms, report.rankings):
            slot = "sup" if isinstance(ax, GCI0) else "filler"
            from elkbc.core import axiom_tag

            scores = batch_losses(
                m, axiom_tag(ax), "positive",
                [dataclasses.replace(ax, **{slot: cand}) for cand in pool],
            )
            true_idx = pool.index(getattr(ax, slot))
            rank, kept = naive_rank(list(scores), true_idx, [True] * n_pool)
            assert ranking.raw_rank == rank
            entries.append({"subject": ax.sub, "rank": rank, "pool": kept})
        for key, value in naive_metrics(entries).items():
            assert report.metrics[key] == pytest.approx(value, rel=1e-12, abs=1e-12)

    # constructed filtering cases: the non-filtered minus filtered mean rank
    # difference is never negative
    golden = golden_theory()
    g_index, g_hier, _ = classify(golden)
    g_dc = compute_closure(golden, g_index, g_hier)
    for seed in range(10):
        m = init_model("elem", golden.n_concepts, 1, 4, seed=seed)
        names = golden.signature.concepts
        axioms = [GCI2(names.id_of("{P}"), 0, names.id_of("{GO2}"))]
        task = RankingTask(
            axioms=axioms,
            candidates=list(range(golden.n_concepts)),
            train_axioms=frozenset(golden.axioms),
            closures=(g_dc,),
        )
        report = score_and_rank(m, task)
        for r in report.rankings:
            assert r.filtered_rank <= r.raw_rank
        assert report.metrics["macro_MR"] - report.metrics["F_macro_MR"] >= 0
        assert report.metrics["micro_MR"] - report.metrics["F_micro_MR"] >= 0
    _report("A6 metric oracle equivalence", time.monotonic() - start, 10.0)


@pytest.mark.parametrize("tag", ["elem", "elbe", "box2el"])
def test_a7_end_to_end_completion(tag):
    start = time.monotonic()
    train_th, val, test = layered_dag_benchmark(seed=0)
    cfg = TrainConfig(
        model=tag, dim=64, learning_rate=0.01, epochs=300, batch_size=1024,
        seed=0, negative_scope="all-forms", negatives_per_positive=4,
        sampler=SamplerConfig(mode="random"), patience=15, early_stop=300,
        validation=val, delta=1.0, reg_lambda=0.05, epsilon=0.01,
    )
    model, _ = train(train_th, cfg)
    report = score_and_rank(
        model, RankingTask(axioms=test, candidates=list(range(train_th.n_concepts)))
    )
    hits = report.metrics["H@10"]
    baseline = 10 / train_th.n_concepts
    assert hits >= 5 * baseline, f"{tag}: H@10 {hits:.3f} < {5 * baseline}"
    _report(f"A7 end-to-end {tag} (H@10 {hits:.3f})", time.monotonic() - start, 300.0)


def test_a8_dataset_shapes_load_and_train():
    start = time.monotonic()
    for name, shape in BENCHMARK_SHAPES.items():
        theory, test = synthesize_shape(name, seed=0)
        reparsed = parse_theory(serialize_theory(theory))
        stats = signature_stats(reparsed)
        for variant in ("GCI0", "GCI1", "GCI2", "GCI3", "GCI0_BOT", "GCI1_BOT", "GCI3_BOT"):
            assert stats[variant] == shape[variant], (name, variant)
        assert stats["concepts"] == shape["classes"]
        assert stats["roles"] == shape["roles"]
        assert len(test) == shape["test"]

    # truncated training smoke on the largest subsumption-prediction shape
    theory, _ = synthesize_shape("foodon", seed=0)
    cfg = TrainConfig(
        model="elem", dim=8, learning_rate=0.01, epochs=10, batch_size=32_768,
        seed=0, negative_scope="all-forms", sampler=SamplerConfig(mode="random"),
        patience=10, early_stop=10,
    )
    model, log = train(theory, cfg)
    assert len(log) == 10
    assert all(np.isfinite(e["train_loss"]) for e in log)
    _report("A8 dataset shapes + truncated training", time.monotonic() - start, 240.0)
