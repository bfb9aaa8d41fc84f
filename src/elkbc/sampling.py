"""Corrupted-axiom (negative) generation per normal form.

A corruption resamples exactly one concept slot of an axiom from a candidate
pool.  By default the rightmost concept is corrupted (the superclass of GCI0
and GCI3, the filler of GCI2, the right conjunct of GCI1_BOT, the single
concept of the unary Bot forms); the slot is configurable per variant except
for GCI1, whose corruptible slot is always the superclass E.  The default
pool is every concept name except Top and Bot; domain-specific pools (protein
nominals, function classes) can be passed explicitly.

Modes:

* ``random``    -- uniform draw, only the identity corruption is rejected;
* ``filtered``  -- draws entailed by the deductive closure are rejected and
                   redrawn (up to ``retry_limit``), so no emitted negative is
                   provable;
* ``biased``    -- with probability ``bias_p`` the replacement is drawn
                   uniformly from the closure's ``entailed_fillers`` of the
                   slot, in ascending id order (an entailed negative on
                   purpose), otherwise as in ``random``.

Randomness comes from numpy's PCG64, which is seedable and platform-stable;
``sample_batch`` derives one child stream per input axiom from
``SeedSequence((seed, axiom_index))``, so batches are reproducible and may be
generated in parallel.  A pool exhausted (every candidate entailed or equal
to the original) raises SampleExhausted; ``sample_batch`` counts such skips
instead of failing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closure import DeductiveClosure
from .core import BOT_ID, NormalizedAxiom, TOP_ID, axiom_tag
from .losses import LOSS_VARIANTS

#: variant -> (default slot, allowed slots)
SLOT_POLICIES: dict[str, tuple[str, tuple[str, ...]]] = {
    "GCI0": ("sup", ("sub", "sup")),
    "GCI1": ("sup", ("sup",)),
    "GCI2": ("filler", ("sub", "filler")),
    "GCI3": ("sup", ("filler", "sup")),
    "GCI0_BOT": ("sub", ("sub",)),
    "GCI1_BOT": ("right", ("left", "right")),
    "GCI3_BOT": ("filler", ("filler",)),
}


class SampleExhausted(RuntimeError):
    """Every candidate was entailed or equal to the original axiom."""


@dataclass(frozen=True)
class SamplerConfig:
    mode: str = "random"  # random | filtered | biased
    bias_p: float = 0.0
    pool: Optional[tuple[int, ...]] = None  # None: all concepts except Top/Bot
    slot_overrides: Optional[dict[str, str]] = None
    retry_limit: int = 100

    def __post_init__(self):
        if self.mode not in ("random", "filtered", "biased"):
            raise ValueError(f"unknown sampler mode {self.mode!r}")
        if not 0.0 <= self.bias_p <= 1.0:
            raise ValueError("bias_p must lie in [0, 1]")
        if self.retry_limit < 1:
            raise ValueError("retry limit must be >= 1")
        for tag, slot in (self.slot_overrides or {}).items():
            if tag not in SLOT_POLICIES:
                raise ValueError(f"no corruptible slot policy for {tag!r}")
            if slot not in SLOT_POLICIES[tag][1]:
                raise ValueError(f"variant {tag} cannot corrupt slot {slot!r}")

    def slot_for(self, tag: str) -> str:
        if self.slot_overrides and tag in self.slot_overrides:
            return self.slot_overrides[tag]
        return SLOT_POLICIES[tag][0]


def default_pool(n_concepts: int) -> tuple[int, ...]:
    return tuple(i for i in range(n_concepts) if i not in (TOP_ID, BOT_ID))


def _replace_slot(ax: NormalizedAxiom, slot: str, value: int) -> NormalizedAxiom:
    return dataclasses.replace(ax, **{slot: value})


def _slot_value(ax: NormalizedAxiom, slot: str) -> int:
    return getattr(ax, slot)


def corrupt(
    ax: NormalizedAxiom,
    cfg: SamplerConfig,
    dc: Optional[DeductiveClosure],
    rng: np.random.Generator,
    n_concepts: Optional[int] = None,
    pool: Optional[tuple[int, ...]] = None,
) -> NormalizedAxiom:
    """Resample one slot of ``ax`` according to the configured mode.

    ``pool`` overrides the config's candidate pool (batch loops resolve the
    default pool once instead of per call).
    """
    tag = axiom_tag(ax)
    if tag not in LOSS_VARIANTS:
        raise ValueError(f"variant {tag} is not corruptible")
    if cfg.mode in ("filtered", "biased") and dc is None:
        raise ValueError(f"{cfg.mode} sampling needs a deductive closure")
    slot = cfg.slot_for(tag)
    current = _slot_value(ax, slot)
    if pool is None:
        pool = cfg.pool
    if pool is None:
        if n_concepts is None:
            if dc is None:
                raise ValueError("need n_concepts or a closure to build the default pool")
            n_concepts = dc.theory.n_concepts
        pool = default_pool(n_concepts)
    if not pool:
        raise SampleExhausted("empty candidate pool")

    if cfg.mode == "biased" and rng.random() < cfg.bias_p:
        entailed = [v for v in sorted(dc.entailed_fillers(ax, slot)) if v != current]
        if entailed:
            return _replace_slot(ax, slot, entailed[rng.integers(len(entailed))])
        # nothing entailed to draw: fall through to a random draw

    for _ in range(cfg.retry_limit):
        cand = pool[rng.integers(len(pool))]
        if cand == current:
            continue
        result = _replace_slot(ax, slot, cand)
        if cfg.mode == "filtered" and dc.entails(result):
            continue
        return result
    raise SampleExhausted(f"no admissible corruption of {ax!r} within {cfg.retry_limit} tries")


def sample_batch(
    axioms: list[NormalizedAxiom],
    count_per_axiom: int,
    cfg: SamplerConfig,
    dc: Optional[DeductiveClosure],
    seed: int,
    n_concepts: Optional[int] = None,
) -> tuple[list[NormalizedAxiom], int]:
    """Corrupt every axiom ``count_per_axiom`` times.

    Returns (negatives, skipped); deterministic for a given seed because each
    input axiom owns the child stream ``SeedSequence((seed, index))``.
    """
    pool = cfg.pool
    if pool is None:
        if n_concepts is None:
            if dc is None:
                raise ValueError("need n_concepts or a closure to build the default pool")
            n_concepts = dc.theory.n_concepts
        pool = default_pool(n_concepts)
    negatives: list[NormalizedAxiom] = []
    skipped = 0
    for i, ax in enumerate(axioms):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
        for _ in range(count_per_axiom):
            try:
                negatives.append(corrupt(ax, cfg, dc, rng, pool=pool))
            except SampleExhausted:
                skipped += 1
    return negatives, skipped


def entailed_fraction(
    axioms: list[NormalizedAxiom],
    count_per_axiom: int,
    cfg: SamplerConfig,
    dc: DeductiveClosure,
    seed: int,
) -> tuple[float, int]:
    """Fraction of sampled negatives the closure entails, plus the sample size."""
    negatives, _ = sample_batch(
        axioms, count_per_axiom, cfg, dc, seed, n_concepts=dc.theory.n_concepts
    )
    if not negatives:
        return 0.0, 0
    hits = sum(1 for ax in negatives if dc.entails(ax))
    return hits / len(negatives), len(negatives)
