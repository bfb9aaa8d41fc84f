"""Negative sampler: one corrupted slot, filtering, bias, determinism."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elkbc.closure import compute_closure
from elkbc.core import (
    AXIOM_TAGS,
    BOT_ID,
    GCI0,
    GCI1,
    GCI2,
    RIGHTMOST_COL,
    TOP_ID,
    VARIANTS,
    Theory,
    axiom_tag,
    parse_theory,
    serialize_theory,
)
from elkbc.losses import LOSS_VARIANTS
from elkbc.reasoner import classify
from elkbc.sampling import (
    SampleExhausted,
    SamplerConfig,
    corrupt,
    entailed_fraction,
    sample_batch,
)
from oracles import counter_corrupt_loop, random_theory


def closure_of(text):
    theory = parse_theory(text)
    index, hierarchy, _ = classify(theory)
    return theory, compute_closure(theory, index, hierarchy)


def rng_for(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_exactly_one_slot_changes():
    theory, dc = closure_of("GCI1 A B E\nGCI2 A r B\nGCI3 r A B\nGCI1_BOT A B\nGCI0 A B\n")
    cfg = SamplerConfig(mode="random")
    rng = rng_for()
    for ax in theory.axioms:
        for _ in range(50):
            out = corrupt(ax, cfg, None, rng, n_concepts=theory.n_concepts)
            assert out != ax
            assert axiom_tag(out) == axiom_tag(ax)
            diffs = [
                f for f in ax.__dataclass_fields__ if getattr(ax, f) != getattr(out, f)
            ]
            assert len(diffs) == 1


def test_gci1_always_corrupts_superclass():
    theory, dc = closure_of("GCI1 A B E\n#concept F\n#concept G\n")
    (ax,) = theory.axioms
    rng = rng_for()
    for _ in range(100):
        out = corrupt(ax, SamplerConfig(mode="random"), None, rng, theory.n_concepts)
        assert (out.left, out.right) == (ax.left, ax.right)
        assert out.sup != ax.sup


def test_filtered_outputs_never_entailed():
    theory, dc = closure_of("GCI1 A B E\nGCI0 F B\n")
    cfg = SamplerConfig(mode="filtered")
    negatives, skipped = sample_batch(list(theory.axioms), 300, cfg, dc, seed=0)
    assert skipped == 0
    for ax in negatives:
        assert not dc.entails(ax)


def test_two_axiom_example_always_yields_the_one_free_name():
    # corrupting the conjunction axiom can only produce the F superclass:
    # the others are all provable
    theory, dc = closure_of("GCI1 A B E\nGCI0 F B\n")
    names = theory.signature.concepts
    gci1 = theory.axioms_of(GCI1)[0]
    f = names.id_of("F")
    cfg = SamplerConfig(mode="filtered")
    rng = rng_for(7)
    for _ in range(500):
        out = corrupt(gci1, cfg, dc, rng)
        assert out == GCI1(gci1.left, gci1.right, f)


def test_pool_of_one_exhausts():
    theory, dc = closure_of("GCI0 A B\n")
    (ax,) = theory.axioms
    cfg = SamplerConfig(mode="random", pool=(ax.sup,))
    with pytest.raises(SampleExhausted):
        corrupt(ax, cfg, None, rng_for(), theory.n_concepts)


@pytest.mark.parametrize("mode, bias_p", [("random", 0.0), ("filtered", 0.0), ("biased", 1.0)])
@pytest.mark.parametrize("bad", [-1, "n"])
def test_pool_outside_the_concepts_rejected(mode, bias_p, bad):
    theory, dc = closure_of("GCI0 A B\nGCI2 A r B\n#concept C\n")
    bad = theory.n_concepts if bad == "n" else bad
    cfg = SamplerConfig(mode=mode, bias_p=bias_p, pool=(theory.signature.concepts.id_of("C"), bad))
    with pytest.raises(ValueError, match="pool"):
        sample_batch(theory.axioms, 3, cfg, dc, seed=0, n_concepts=theory.n_concepts)
    with pytest.raises(ValueError, match="pool"):
        sample_batch(theory.axioms, 3, cfg, dc, seed=0)


@pytest.mark.parametrize("mode", ["filtered", "biased"])
def test_rows_outside_the_closure_rejected(mode):
    theory, dc = closure_of("GCI0 A B\nGCI2 A r B\n")
    cfg = SamplerConfig(mode=mode, bias_p=1.0)
    for row in (GCI0(2, theory.n_concepts), GCI2(2, theory.n_roles, 3)):
        with pytest.raises(KeyError):
            sample_batch([row], 2, cfg, dc, seed=0)


def test_batch_determinism_and_skip_count():
    theory, dc = closure_of("GCI1 A B E\nGCI0 F B\nGCI2 A r B\n")
    cfg = SamplerConfig(mode="filtered")
    axioms = list(theory.axioms)
    b1, s1 = sample_batch(axioms, 20, cfg, dc, seed=123)
    b2, s2 = sample_batch(axioms, 20, cfg, dc, seed=123)
    assert b1 == b2 and s1 == s2
    b3, _ = sample_batch(axioms, 20, cfg, dc, seed=124)
    assert b3 != b1


def test_biased_draws_entailed_axioms(golden):
    theory, dc = golden["theory"], golden["materialized"]
    names = theory.signature.concepts
    p, go1 = names.id_of("{P}"), names.id_of("{GO1}")
    cfg = SamplerConfig(mode="biased", bias_p=1.0)
    rng = rng_for(1)
    for _ in range(50):
        # the only other provable filler for {P} is Top, which is outside the
        # pool, so the draw falls through to a random one
        out = corrupt(GCI2(p, 0, go1), cfg, dc, rng)
        assert out.filler not in (TOP_ID, BOT_ID, go1)
    theory, dc = closure_of("GCI2 A r B\nGCI0 B C\n#concept D\n")
    a, b, c = (theory.signature.concepts.id_of(n) for n in "ABC")
    for _ in range(50):
        out = corrupt(GCI2(a, 0, b), cfg, dc, rng)
        assert out == GCI2(a, 0, c)
        assert dc.entails(out)


def test_biased_fraction_tracks_probability():
    # one entailed filler, C, in a pool of 62 candidates besides the value B:
    # a biased draw picks it, a random one with probability 1/62
    extra = "".join(f"#concept X{i}\n" for i in range(59))
    theory, dc = closure_of("GCI2 A r B\nGCI0 B C\n" + extra)
    gci2 = theory.axioms_of(GCI2)
    for p in (0.25, 0.5, 0.75):
        cfg = SamplerConfig(mode="biased", bias_p=p)
        fraction, n = entailed_fraction(gci2, 4000, cfg, dc, seed=5)
        assert n == 4000
        assert abs(fraction - (p + (1 - p) / 62)) < 0.02


@pytest.mark.parametrize("explicit_pool", [False, True])
def test_biased_negatives_stay_in_the_pool(explicit_pool):
    """Bot is an entailed filler of every GCI1_BOT and GCI3_BOT row, and Top
    of every GCI0 row; neither is in a pool, and a negative naming Bot in a
    ``_BOT`` form does not parse."""
    text = "GCI0 A B\nGCI0 B C\nGCI1_BOT A D\nGCI3_BOT r E\nGCI0_BOT F\nGCI0 G F\n"
    theory, dc = closure_of(text)
    names = theory.signature.concepts
    pool = tuple(names.id_of(n) for n in "CDEG") if explicit_pool else None
    cfg = SamplerConfig(mode="biased", bias_p=1.0, pool=pool)
    codes = [VARIANTS.index(t) for t in ("GCI0", "GCI1_BOT", "GCI3_BOT")]
    rows = theory.table[np.isin(theory.table.codes, codes)]
    negatives, skipped = sample_batch(rows, 8, cfg, dc, seed=3)
    allowed = set(pool) if explicit_pool else set(range(theory.n_concepts)) - {TOP_ID, BOT_ID}
    cols = RIGHTMOST_COL[negatives.codes]
    assert len(negatives) + skipped == 8 * len(rows)
    assert set(negatives.cols[cols, np.arange(len(negatives))].tolist()) <= allowed
    back = parse_theory(serialize_theory(Theory(theory.signature, list(negatives))))
    assert set(back.axioms) == set(negatives)


def test_random_mode_requires_no_closure():
    theory, _ = closure_of("GCI0 A B\n#concept C\n")
    (ax,) = theory.axioms
    out = corrupt(ax, SamplerConfig(mode="random"), None, rng_for(), theory.n_concepts)
    assert out != ax
    with pytest.raises(ValueError):
        corrupt(ax, SamplerConfig(mode="filtered"), None, rng_for(), theory.n_concepts)


def test_default_pool_excludes_top_and_bot():
    theory, dc = closure_of("GCI0 A B\n#concept C\n")
    (ax,) = theory.axioms
    rng = rng_for(3)
    seen = set()
    for _ in range(200):
        seen.add(corrupt(ax, SamplerConfig(mode="random"), None, rng, theory.n_concepts).sup)
    assert TOP_ID not in seen and 1 not in seen
    assert seen == {theory.signature.concepts.id_of("C"), ax.sub}


def test_duplicate_pool_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SamplerConfig(pool=(3, 3, 4))
    assert SamplerConfig(pool=(3, 4)).pool == (3, 4)


@pytest.mark.parametrize("count", [-1, -3])
def test_negative_count_rejected(count):
    theory, dc = closure_of("GCI0 A B\nGCI2 A r B\n#concept C\n")
    cfg = SamplerConfig(mode="random")
    with pytest.raises(ValueError, match="negative count"):
        sample_batch(theory.axioms, count, cfg, dc, seed=0)
    with pytest.raises(ValueError, match="negative count"):
        entailed_fraction(theory.axioms, count, cfg, dc, seed=0)
    negatives, skipped = sample_batch(theory.axioms, 0, cfg, dc, seed=0)
    assert (len(negatives), skipped) == (0, 0)


def _loss_rows(theory):
    return theory.table[np.isin(theory.table.codes, [VARIANTS.index(t) for t in LOSS_VARIANTS])]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from([("random", 0.0), ("filtered", 0.0), ("biased", 0.5)]),
    count=st.integers(1, 3),
    closure_mode=st.sampled_from(["materialized", "oracle"]),
    explicit_pool=st.booleans(),
    data=st.data(),
)
def test_batch_equals_counter_loop(seed, mode, count, closure_mode, explicit_pool, data):
    """``sample_batch`` draws what the scalar counter-stream loop draws, draw
    for draw, with the same skips and draw counters; a table input and a list
    input give the same negatives."""
    theory = random_theory(np.random.default_rng(seed))
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy, mode=closure_mode)
    pool = None
    if explicit_pool:
        ids = st.integers(0, theory.n_concepts - 1)
        pool = tuple(data.draw(st.lists(ids, min_size=1, max_size=4, unique=True)))
    cfg = SamplerConfig(mode=mode[0], bias_p=mode[1], pool=pool, retry_limit=4)
    rows = _loss_rows(theory)
    expected_stats = {}
    expected = counter_corrupt_loop(
        list(rows), count, cfg, dc, seed, theory.n_concepts, stats=expected_stats
    )
    stats = {}
    negatives, skipped = sample_batch(list(rows), count, cfg, dc, seed=seed, stats=stats)
    assert (list(negatives), skipped) == expected
    assert stats == expected_stats
    assert sample_batch(rows, count, cfg, dc, seed=seed) == (negatives, skipped)
    # ``corrupt`` is the one-row, one-draw case under a seed from its generator
    if len(rows):
        one_seed = int(np.random.default_rng(seed).integers(2**63))
        one, one_skipped = counter_corrupt_loop([rows[0]], 1, cfg, dc, one_seed, theory.n_concepts)
        rng = np.random.default_rng(seed)
        if one_skipped:
            with pytest.raises(SampleExhausted):
                corrupt(rows[0], cfg, dc, rng)
        else:
            assert corrupt(rows[0], cfg, dc, rng) == one[0]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from([("random", 0.0), ("filtered", 0.0), ("biased", 0.5)]),
    data=st.data(),
)
def test_prefix_of_the_input_draws_a_prefix_of_the_output(seed, mode, data):
    theory = random_theory(np.random.default_rng(seed))
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy, mode="oracle")
    cfg = SamplerConfig(mode=mode[0], bias_p=mode[1], retry_limit=4)
    rows = _loss_rows(theory)
    k = data.draw(st.integers(0, len(rows)))
    full, full_skipped = sample_batch(rows, 3, cfg, dc, seed=seed)
    part, part_skipped = sample_batch(rows[:k], 3, cfg, dc, seed=seed)
    assert len(part) + part_skipped == 3 * k
    assert part_skipped <= full_skipped
    assert full[: len(part)] == part


@pytest.mark.parametrize("closure_mode", ["materialized", "oracle"])
@pytest.mark.parametrize("chains", [False, True])
def test_filtered_negatives_never_entailed_for_any_variant_and_slot(closure_mode, chains):
    """Every id row of every variant over a small signature, A and Bot
    unsatisfiable subjects among them, corrupted in its rightmost concept."""
    text = (
        "GCI0_BOT A\nGCI0 B C\nGCI1 B C D\nGCI2 B r C\nGCI2 A s D\n"
        "GCI3 r C E\nGCI1_BOT D E\nGCI3_BOT s E\nRI0 r s\n"
    )
    theory = parse_theory(text + ("RI1 r s r\n" if chains else ""))
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy, mode=closure_mode)
    n_c, n_r = theory.n_concepts, theory.n_roles
    kinds = {"c": range(n_c), "r": range(n_r)}
    cfg = SamplerConfig(mode="filtered", retry_limit=20)
    for tag in LOSS_VARIANTS:
        cls = AXIOM_TAGS[tag]
        fields = [f.name for f in dataclasses.fields(cls)]
        ranges = [kinds["r" if name == "role" else "c"] for name in fields]
        rows = [cls(*ids) for ids in itertools.product(*ranges)]
        negatives, _ = sample_batch(rows, 3, cfg, dc, seed=7)
        assert len(negatives) > 0, tag
        entailed = [ax for ax in negatives if dc.entails(ax)]
        assert not entailed, (tag, entailed[:3])
