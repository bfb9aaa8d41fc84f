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

``sample_batch`` takes axioms as an ``AxiomTable`` (or dataclasses) and returns
the negatives as one; ``corrupt`` is its one-row, one-draw case.  Filtered and
biased draws ask the closure's id queries with the variant code and ids they
hold.  Those check nothing, so a call checks its candidate pool once against
the concept count (``ValueError``) and, before it queries, its rows against
the closure's theory (``KeyError``).
Randomness comes from numpy's PCG64, which is seedable and platform-stable;
``sample_batch`` derives one child stream per input axiom from
``SeedSequence((seed, axiom_index))``, so batches are reproducible and may be
generated in parallel.  A pool exhausted (every candidate entailed or equal
to the original) raises SampleExhausted; ``sample_batch`` counts such skips
instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .closure import DeductiveClosure
from .core import BOT_ID, SLOT_NAMES, TOP_ID, VARIANTS, AxiomTable, NormalizedAxiom

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


def corrupt(
    ax: NormalizedAxiom,
    cfg: SamplerConfig,
    dc: Optional[DeductiveClosure],
    rng: np.random.Generator,
    n_concepts: Optional[int] = None,
) -> NormalizedAxiom:
    """Resample one slot of ``ax`` according to the configured mode, drawing
    from ``rng``: the one-row, one-draw case of ``sample_batch``."""
    negatives, skipped = _corrupt_rows(AxiomTable.from_axioms([ax]), 1, cfg, dc, n_concepts, [rng])
    if skipped:
        raise SampleExhausted(f"no admissible corruption of {ax!r} within {cfg.retry_limit} tries")
    return negatives[0]


def sample_batch(
    axioms: Sequence[NormalizedAxiom],
    count_per_axiom: int,
    cfg: SamplerConfig,
    dc: Optional[DeductiveClosure],
    seed: int,
    n_concepts: Optional[int] = None,
) -> tuple[AxiomTable, int]:
    """Corrupt every axiom (an ``AxiomTable`` or a list of dataclasses, any
    variants) ``count_per_axiom`` times.

    Returns (negatives as an ``AxiomTable``, skipped); deterministic for a
    given seed because each input axiom owns the child stream
    ``SeedSequence((seed, index))``.
    """
    table = AxiomTable.from_axioms(axioms)
    rngs = (np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
            for i in range(len(table)))
    return _corrupt_rows(table, count_per_axiom, cfg, dc, n_concepts, rngs)


def _corrupt_rows(
    table: AxiomTable,
    count: int,
    cfg: SamplerConfig,
    dc: Optional[DeductiveClosure],
    n_concepts: Optional[int],
    rngs: Iterable[np.random.Generator],
) -> tuple[AxiomTable, int]:
    """``count`` draws per row, each row from its own generator in ``rngs``;
    returns (negatives, draws skipped because the pool was exhausted)."""
    # variant code -> id-table column of its corrupted slot, -1 when it has none
    slot_col = np.array([
        SLOT_NAMES[tag].index(cfg.slot_for(tag)) if tag in SLOT_POLICIES else -1
        for tag in VARIANTS
    ])
    if count > 0 and len(table):
        fixed = slot_col[table.codes] < 0
        if fixed.any():
            raise ValueError(f"variant {VARIANTS[table.codes[fixed][0]]} is not corruptible")
        # the closure's id queries check nothing: rows and pool are checked here
        if cfg.mode in ("filtered", "biased"):
            if dc is None:
                raise ValueError(f"{cfg.mode} sampling needs a deductive closure")
            bad = table.outside(dc.theory.n_concepts, dc.theory.n_roles)
            if bad.any():
                raise KeyError(f"axiom {table[int(np.argmax(bad))]!r} has an id outside the theory")
    if n_concepts is None and dc is not None:
        n_concepts = dc.theory.n_concepts
    if cfg.pool is not None:
        pool = np.asarray(cfg.pool, np.int64)
        if n_concepts is not None and len(pool) and not 0 <= pool.min() <= pool.max() < n_concepts:
            raise ValueError(f"candidate pool holds a concept id outside [0, {n_concepts})")
    elif n_concepts is None:
        raise ValueError("need n_concepts or a closure to build the default pool")
    else:
        pool = np.arange(n_concepts)
        pool = pool[(pool != TOP_ID) & (pool != BOT_ID)]
    pool = pool.tolist()  # scalar picks are fastest from a list
    if not pool:  # every draw is exhausted at once
        return table[:0], len(table) * max(count, 0)
    src: list[int] = []  # the row each negative corrupts
    values: list[int] = []  # its new slot value
    skipped = 0
    rows = zip(rngs, table.codes.tolist(), *table.cols.tolist())
    for i, (rng, code, *ids) in enumerate(rows):
        j = int(slot_col[code])
        current, entailed = ids[j], None
        for _ in range(count):
            if cfg.mode == "biased" and rng.random() < cfg.bias_p:
                if entailed is None:
                    fillers = dc.entailed_fillers_ids(code, ids, j)
                    entailed = [v for v in sorted(fillers) if v != current]
                if entailed:
                    src.append(i)
                    values.append(entailed[rng.integers(len(entailed))])
                    continue
                # nothing entailed to draw: fall through to a random draw
            for _ in range(cfg.retry_limit):
                cand = pool[rng.integers(len(pool))]
                if cand == current:
                    continue
                ids[j] = cand
                if cfg.mode == "filtered" and dc.entails_ids(code, ids):
                    continue
                src.append(i)
                values.append(cand)
                break
            else:
                skipped += 1
    negatives = table[np.array(src, dtype=np.intp)]
    negatives.cols[slot_col[negatives.codes], np.arange(len(src))] = values
    return negatives, skipped


def entailed_fraction(
    axioms: Sequence[NormalizedAxiom],
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
    rows = zip(negatives.codes.tolist(), *negatives.cols.tolist())
    hits = sum(dc.entails_ids(code, ids) for code, *ids in rows)
    return hits / len(negatives), len(negatives)
