"""Negative sampler: slot discipline, filtering, bias, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elkbc.closure import compute_closure
from elkbc.core import GCI0, GCI1, GCI2, TOP_ID, VARIANTS, axiom_tag, parse_theory
from elkbc.losses import LOSS_VARIANTS
from elkbc.reasoner import classify
from elkbc.sampling import (
    SLOT_POLICIES,
    SampleExhausted,
    SamplerConfig,
    corrupt,
    entailed_fraction,
    sample_batch,
)
from oracles import random_theory


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
    with pytest.raises(ValueError):
        SamplerConfig(mode="random", slot_overrides={"GCI1": "left"})


def test_slot_override_for_gci0():
    theory, _ = closure_of("GCI0 A B\n#concept C\n")
    (ax,) = theory.axioms
    cfg = SamplerConfig(mode="random", slot_overrides={"GCI0": "sub"})
    rng = rng_for()
    out = corrupt(ax, cfg, None, rng, theory.n_concepts)
    assert out.sup == ax.sup and out.sub != ax.sub


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
    ax = GCI2(p, 0, go1)
    cfg = SamplerConfig(mode="biased", bias_p=1.0)
    rng = rng_for(1)
    for _ in range(50):
        out = corrupt(ax, cfg, dc, rng)
        # the only other provable filler for {P} is Top
        assert out == GCI2(p, 0, TOP_ID)
        assert dc.entails(out)


def test_biased_fraction_tracks_probability(golden):
    theory, dc = golden["theory"], golden["materialized"]
    gci2 = theory.axioms_of(GCI2)
    for p in (0.25, 0.5, 0.75):
        cfg = SamplerConfig(mode="biased", bias_p=p)
        fraction, n = entailed_fraction(gci2, 2000, cfg, dc, seed=5)
        assert n == 4000
        assert abs(fraction - p) < 0.02


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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from([("random", 0.0), ("filtered", 0.0), ("biased", 0.5)]),
    count=st.integers(1, 3),
    data=st.data(),
)
def test_batch_equals_corrupt_loop(seed, mode, count, data):
    """``sample_batch`` draws what a loop of ``corrupt`` calls draws, each
    input axiom from its own ``SeedSequence((seed, index))`` stream, with the
    same skips; a table input and a list input give the same negatives."""
    theory = random_theory(np.random.default_rng(seed))
    index, hierarchy, _ = classify(theory)
    dc = compute_closure(theory, index, hierarchy, mode="oracle")
    overrides = {
        tag: data.draw(st.sampled_from(slots)) for tag, (_, slots) in SLOT_POLICIES.items()
    }
    cfg = SamplerConfig(mode=mode[0], bias_p=mode[1], slot_overrides=overrides, retry_limit=4)
    axioms = [ax for ax in theory.axioms if axiom_tag(ax) in LOSS_VARIANTS]
    expected, skipped = [], 0
    for i, ax in enumerate(axioms):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        for _ in range(count):
            try:
                expected.append(corrupt(ax, cfg, dc, rng))
            except SampleExhausted:
                skipped += 1
    negatives, got_skipped = sample_batch(axioms, count, cfg, dc, seed=seed)
    assert (list(negatives), got_skipped) == (expected, skipped)
    rows = theory.table[np.isin(theory.table.codes, [VARIANTS.index(t) for t in LOSS_VARIANTS])]
    assert sample_batch(rows, count, cfg, dc, seed=seed) == (negatives, skipped)
