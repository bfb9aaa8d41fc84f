"""Randomized equivalence of the closure query path against its references:
point queries against the naive closure oracle, filler queries against
point queries, and mask-filtered ranking against a per-candidate filter."""

import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elkbc.closure import compute_closure
from elkbc.core import (
    AXIOM_TAGS,
    BOT_ID,
    GCI0,
    GCI0Bot,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    GCI3Bot,
    SLOT_NAMES,
    VARIANTS,
    AxiomTable,
    _SLOT_KINDS,
    axiom_tag,
    parse_theory,
)
from elkbc.evaluation import RankingTask, score_and_rank
from elkbc.losses import LOSS_VARIANTS, batch_losses
from elkbc.reasoner import classify
from elkbc.sampling import SamplerConfig, sample_batch
from elkbc.training import init_model
from oracles import naive_closure, naive_rank, random_theory

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _theory(seed, **kw):
    theory = random_theory(np.random.default_rng(seed), **kw)
    index, hierarchy, _ = classify(theory)
    return theory, index, hierarchy


def _every_axiom(n_c, n_r):
    """Every GCI axiom over the signature, one per slot assignment."""
    concepts, roles = range(n_c), range(n_r)
    for a in concepts:
        yield GCI0Bot(a)
        for b in concepts:
            yield GCI0(a, b)
            yield GCI1Bot(a, b)
            for e in concepts:
                yield GCI1(a, b, e)
        for r in roles:
            yield GCI3Bot(r, a)
            for b in concepts:
                yield GCI2(a, r, b)
                yield GCI3(r, a, b)


def _in_naive(ref, ax) -> bool:
    pair = lambda a, b: (min(a, b), max(a, b))  # noqa: E731
    if isinstance(ax, GCI0):
        # an unsatisfiable subclass is below everything
        return (ax.sub, ax.sup) in ref["GCI0"] or ax.sub in ref["GCI0_BOT"]
    if isinstance(ax, GCI0Bot):
        return ax.sub in ref["GCI0_BOT"]
    if isinstance(ax, GCI1):
        if ax.sup == BOT_ID:
            return pair(ax.left, ax.right) in ref["GCI1_BOT"]
        return ax.sup in ref["GCI1"].get(pair(ax.left, ax.right), ())
    if isinstance(ax, GCI1Bot):
        return pair(ax.left, ax.right) in ref["GCI1_BOT"]
    if isinstance(ax, GCI2):
        return ax.filler in ref["GCI2"].get((ax.sub, ax.role), ())
    if isinstance(ax, GCI3):
        if ax.sup == BOT_ID:
            return (ax.role, ax.filler) in ref["GCI3_BOT"]
        return ax.sup in ref["GCI3"].get((ax.role, ax.filler), ())
    return (ax.role, ax.filler) in ref["GCI3_BOT"]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(SEEDS)
def test_entails_matches_naive_closure_in_both_modes(seed):
    theory, index, hierarchy = _theory(seed, max_concepts=6, max_roles=2, max_axioms=12)
    ref = naive_closure(theory)
    table = AxiomTable.from_axioms(_every_axiom(theory.n_concepts, theory.n_roles))
    for mode in ("materialized", "oracle"):
        dc = compute_closure(theory, index, hierarchy, mode=mode)
        for ax in table:
            assert dc.entails(ax) == _in_naive(ref, ax), (mode, theory.axioms, ax)
        # the id path answers as the dataclass path on the table's rows
        rows = zip(table.codes.tolist(), *table.cols.tolist())
        assert [dc.entails_ids(code, ids) for code, *ids in rows] == list(map(dc.entails, table))


def _check_enumeration_matches_queries(theory, index, dc):
    """Every enumerated axiom is entailed; every entailed axiom with its pair
    canonical is enumerated, but for GCI0(a, x) with an unsatisfiable a
    (enumeration lists S(a) as classified) and a GCI1 or GCI3 axiom whose
    answer is Bot (enumerated as its _BOT form)."""
    entailed = {tag: set() for tag in LOSS_VARIANTS}
    for ax in _every_axiom(theory.n_concepts, theory.n_roles):
        if not (isinstance(ax, (GCI1, GCI1Bot)) and ax.left > ax.right) and dc.entails(ax):
            entailed[axiom_tag(ax)].add(ax)
    counts = dc.counts()
    for tag, expected in entailed.items():
        listed = list(dc.iter_variant(tag))
        rows = [dataclasses.astuple(ax) for ax in listed]
        assert rows == sorted(set(rows)) and counts[tag] == len(rows), tag
        assert set(listed) <= expected, (tag, theory.axioms)
        missing = expected - set(listed)
        if tag == "GCI0":
            assert all(BOT_ID in index.sup[ax.sub] for ax in missing), theory.axioms
        elif tag in ("GCI1", "GCI3"):
            assert missing == {ax for ax in expected if ax.sup == BOT_ID}, theory.axioms
            bot_forms = {AXIOM_TAGS[tag + "_BOT"](*dataclasses.astuple(ax)[:-1]) for ax in missing}
            assert bot_forms <= set(dc.iter_variant(tag + "_BOT")), theory.axioms
        else:
            assert not missing, (tag, theory.axioms)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(SEEDS)
def test_enumeration_matches_queries(seed):
    theory, index, hierarchy = _theory(seed, max_concepts=6, max_roles=2, max_axioms=12)
    _check_enumeration_matches_queries(theory, index, compute_closure(theory, index, hierarchy))


def test_golden_enumeration_matches_queries(golden):
    _check_enumeration_matches_queries(golden["theory"], golden["index"], golden["materialized"])


def _rightmost(tag):
    """The name of the variant's rightmost concept slot."""
    return [name for name, kind in zip(SLOT_NAMES[tag], _SLOT_KINDS[tag]) if kind == "c"][-1]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(SEEDS, st.sampled_from(["materialized", "oracle"]))
def test_entailed_fillers_equal_point_queries(seed, mode):
    theory, index, hierarchy = _theory(seed, max_concepts=6, max_roles=2, max_axioms=12)
    dc = compute_closure(theory, index, hierarchy, mode=mode)
    values = range(theory.n_concepts)
    for ax in _every_axiom(theory.n_concepts, theory.n_roles):
        slot = _rightmost(axiom_tag(ax))
        expected = {v for v in values if dc.entails(dataclasses.replace(ax, **{slot: v}))}
        assert dc.entailed_fillers(ax) == expected, (theory.axioms, ax)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from(["elem", "elbe", "box2el"]), st.sampled_from(["dc", "train", "both"]))
def test_filtered_ranks_equal_per_candidate_reference(seed, tag, filters):
    theory, index, hierarchy = _theory(seed, max_concepts=8, max_roles=2, max_axioms=15)
    dc = compute_closure(theory, index, hierarchy, mode="oracle")
    rng = np.random.default_rng(seed)
    n_c, n_r = theory.n_concepts, theory.n_roles
    model = init_model(tag, n_c, n_r, 3, seed=seed % 1000)
    for name in model.params:  # coarse parameters force score ties
        model.params[name] = np.round(model.params[name], 1)
    candidates = sorted(set(rng.integers(0, n_c, size=n_c).tolist()))
    axioms = []
    for a, c in itertools.product(range(n_c), candidates):
        if rng.random() < 0.2:
            axioms.append(GCI0(a, c) if rng.random() < 0.5 else GCI2(a, int(rng.integers(n_r)), c))
    axioms = axioms or [GCI0(0, candidates[0])]
    # the closure entails every train axiom, so "train" alone checks the train index
    train_axioms = frozenset(theory.axioms) if filters != "dc" else frozenset()
    closures = (dc,) if filters != "train" else ()
    task = RankingTask(axioms, candidates, train_axioms, closures)
    report = score_and_rank(model, task)

    for ax, ranking in zip(axioms, report.rankings):
        slot = "sup" if isinstance(ax, GCI0) else "filler"
        cands = [dataclasses.replace(ax, **{slot: c}) for c in candidates]
        scores = list(batch_losses(model, axiom_tag(ax), "positive", cands))
        true_idx = candidates.index(getattr(ax, slot))
        keep = [
            i == true_idx or not (c in train_axioms or (closures and dc.entails(c)))
            for i, c in enumerate(cands)
        ]
        assert (ranking.raw_rank, ranking.pool_size) == naive_rank(
            scores, true_idx, [True] * len(cands)
        )
        assert (ranking.filtered_rank, ranking.filtered_pool_size) == naive_rank(
            scores, true_idx, keep
        )


def test_point_and_slot_queries_reject_ids_outside_the_theory():
    theory, index, hierarchy = _theory(0, max_concepts=5, max_roles=2, max_axioms=8)
    dc = compute_closure(theory, index, hierarchy, mode="oracle")
    n = {"c": theory.n_concepts, "r": theory.n_roles}
    for ax in _every_axiom(2, 1):
        tag = axiom_tag(ax)
        for name, kind in zip(SLOT_NAMES[tag], _SLOT_KINDS[tag]):
            for bad in (-1, n[kind]):
                wrong = dataclasses.replace(ax, **{name: bad})
                with pytest.raises(KeyError):
                    dc.entails(wrong)
                with pytest.raises(KeyError):
                    dc.entailed_fillers(wrong)


def test_slot_sets_are_memoized_per_fixed_remainder():
    theory = parse_theory("GCI0 B C\nGCI1_BOT A C\nGCI3_BOT r C\n")
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy, mode="oracle")
    a, b, c = (theory.signature.concepts.id_of(n) for n in "ABC")
    rights = dc.entailed_fillers(GCI1Bot(a, b))
    # neither the queried slot's own value nor the path (dataclass or id row) splits the memo
    assert dc.entailed_fillers(GCI1Bot(a, c)) is rights
    assert dc.entailed_fillers_ids(VARIANTS.index("GCI1_BOT"), [a, -1, -1]) is rights
    assert dc.entailed_fillers(GCI3Bot(0, a)) is dc.entailed_fillers(GCI3Bot(0, c))
    assert dc.entailed_fillers(GCI0Bot(a)) is dc.entailed_fillers(GCI0Bot(c))


def test_bot_scans_store_no_probe_rows():
    """A _BOT form's filler query probes a row per concept; it keeps its own
    answer but leaves the pair, existential and subject memos as they were.
    A _BOT point query stores no row either: its key holds the probed concept."""
    theory = parse_theory("GCI0 B C\nGCI1_BOT A C\nGCI3_BOT r C\nGCI1 A E D\nGCI2 D r E\n")
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy, mode="oracle")
    a, b, c, d, e = (theory.signature.concepts.id_of(n) for n in "ABCDE")
    # one stored row in the pair and subject memos, none for the _BOT probe
    assert dc.entails(GCI1(a, e, d)) and dc.entails(GCI3Bot(0, c)) and dc.entails(GCI2(d, 0, e))
    memos = (dc._pairs, dc._existentials, dc._subjects)
    assert [len(m) for m in memos] == [1, 0, 1]
    assert dc.entailed_fillers(GCI1Bot(a, e)) == {b, c, BOT_ID}
    assert dc.entailed_fillers(GCI3Bot(0, a)) == {b, c, BOT_ID}
    assert [len(m) for m in memos] == [1, 0, 1]


def test_filtered_bot_draws_store_no_probe_rows():
    """Filtered draws for GCI1_BOT and GCI3_BOT rows ask the closure once per
    candidate, a pair or (r, A) key that holds the random draw.  Two calls
    with different seeds leave the pair and existential memos as they were,
    and no negative they emit is entailed."""
    extra = "".join(f"#concept X{i}\n" for i in range(24))
    theory = parse_theory(
        "GCI1_BOT A B\nGCI3_BOT r C\nGCI0 D B\nGCI0 E C\nGCI1 A D F\nGCI3 r F E\n"
        "GCI1_BOT B G\nGCI3_BOT s G\n" + extra
    )
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy, mode="oracle")
    a, d, e, f = (theory.signature.concepts.id_of(n) for n in "ADEF")
    # one row in each memo, under keys a fixed-id query asks again
    assert dc.entails(GCI1(a, d, f)) and dc.entails(GCI3(0, f, e))
    sizes = (len(dc._pairs), len(dc._existentials))
    assert sizes == (1, 1)
    rows = theory.axioms_of(GCI1Bot) + theory.axioms_of(GCI3Bot)
    cfg = SamplerConfig(mode="filtered")
    for seed in (0, 1):
        stats = {}
        negatives, skipped = sample_batch(rows, 40, cfg, dc, seed=seed, stats=stats)
        assert skipped == 0 and stats["entailed_rejected"] > 0
        assert (len(dc._pairs), len(dc._existentials)) == sizes
        assert not any(dc.entails(ax) for ax in negatives)


def test_concurrent_queries_match_single_thread_answers():
    """Threads racing to build the same rows and indexes answer exactly as
    one thread does: a row is visible only once it is complete."""
    theory = parse_theory(
        "GCI2 a r b\nGCI2 b r e\nGCI2 e s f\nRI1 r s t\nRI1 r r r\nGCI1 a b e\n"
        "GCI3 r f a\nGCI1_BOT e f\nGCI3_BOT s b\nGCI0 f a\n#concept g\n"
    )
    index, hierarchy, _ = classify(theory)
    axioms = list(_every_axiom(theory.n_concepts, theory.n_roles))
    reference = compute_closure(theory, index, hierarchy, mode="oracle")
    expected = [(reference.entails(ax), reference.entailed_fillers(ax)) for ax in axioms]
    shared = compute_closure(theory, index, hierarchy, mode="oracle")
    results = {}

    def worker(i):
        order = range(len(axioms)) if i % 2 else range(len(axioms) - 1, -1, -1)
        answers = {
            j: (shared.entails(axioms[j]), shared.entailed_fillers(axioms[j])) for j in order
        }
        results[i] = [answers[j] for j in range(len(axioms))]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    assert all(answers == expected for answers in results.values())
