"""Corrupted-axiom (negative) generation per normal form.

A corruption resamples exactly one concept slot of an axiom from a candidate
pool.  By default the rightmost concept is corrupted (the superclass of GCI0
and GCI3, the filler of GCI2, the right conjunct of GCI1_BOT, the single
concept of the unary Bot forms); the slot is configurable per variant except
for GCI1, whose corruptible slot is always the superclass E.  The default
pool is every concept name except Top and Bot; domain-specific pools (protein
nominals, function classes) can be passed explicitly, without repeats.

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
the negatives as one, ordered by input row, then draw; ``corrupt`` is its
one-row, one-draw case.  Filtered and biased draws ask the closure's id
queries with the variant code and ids they hold.  Those check nothing, so a
call checks its candidate pool once against the concept count
(``ValueError``) and, before it queries, its rows against the closure's
theory (``KeyError``).

Randomness is counter-based (in the spirit of Salmon et al. 2011, "Parallel
random numbers: as easy as 1, 2, 3"): every random choice is a 64-bit word
hashed from its coordinates, all arithmetic mod 2^64,

    word(seed, row, draw, attempt, purpose) =
        mix(mix(mix(mix(seed + G*(purpose+1)) + G*row) + G*draw) + G*attempt)

where ``mix`` is the SplitMix64 finalizer, ``G = 0x9E3779B97F4A7C15``, ``row``
is the row's index in the input table, ``draw`` is in ``[0, count)`` and
``attempt`` in ``[0, retry_limit)``.  Purpose 0 is the random candidate,
``pool[word % len(pool)]``; purpose 1 (attempt 0) is the biased coin, heads
when ``(word >> 11) * 2^-53 < bias_p``; purpose 2 (attempt 0) is the biased
pick, ``entailed[word % len(entailed)]`` over the sorted entailed fillers other
than the current value.  A biased draw with nothing entailed to pick falls
through to random attempts.  So a draw depends on its coordinates alone, not
on the batch around it: a batch is reproducible, a prefix of the input draws
a prefix of the output, and draws may be generated in any order or in
parallel.  ``sample_batch`` hashes the attempts of every pending (row, draw)
pair of a batch at once, one round per attempt; a pair still pending after
``retry_limit`` rounds (its pool exhausted: every candidate entailed or equal
to the original) is skipped and counted, where ``corrupt`` raises
SampleExhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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

_MASK = 2**64 - 1
_G = 0x9E3779B97F4A7C15
_CANDIDATE, _COIN, _PICK = 0, 1, 2  # purposes of a counter word


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
        if self.pool is not None and len(set(self.pool)) != len(self.pool):
            raise ValueError("duplicate concept ids in the candidate pool")
        for tag, slot in (self.slot_overrides or {}).items():
            if tag not in SLOT_POLICIES:
                raise ValueError(f"no corruptible slot policy for {tag!r}")
            if slot not in SLOT_POLICIES[tag][1]:
                raise ValueError(f"variant {tag} cannot corrupt slot {slot!r}")

    def slot_for(self, tag: str) -> str:
        if self.slot_overrides and tag in self.slot_overrides:
            return self.slot_overrides[tag]
        return SLOT_POLICIES[tag][0]


def _mix(x: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of every ``uint64`` in ``x``, in place."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _prefix(seed: int, purpose: int, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The counter words of (row, draw) pairs before their attempt is added."""
    x = rows.astype(np.uint64) * np.uint64(_G)
    x += _mix(np.array([(seed + _G * (purpose + 1)) & _MASK], np.uint64))
    x = _mix(x)
    x += draws.astype(np.uint64) * np.uint64(_G)
    return _mix(x)


def _words(prefix: np.ndarray, attempt: int) -> np.ndarray:
    return _mix(prefix + np.uint64(_G * attempt & _MASK))


def corrupt(
    ax: NormalizedAxiom,
    cfg: SamplerConfig,
    dc: Optional[DeductiveClosure],
    rng: np.random.Generator,
    n_concepts: Optional[int] = None,
) -> NormalizedAxiom:
    """Resample one slot of ``ax`` according to the configured mode, with a
    seed taken from ``rng``: the one-row, one-draw case of ``sample_batch``."""
    seed = int(rng.integers(2**63))
    negatives, skipped = _corrupt_rows(AxiomTable.from_axioms([ax]), 1, cfg, dc, n_concepts, seed)
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
    stats: Optional[dict] = None,
) -> tuple[AxiomTable, int]:
    """Corrupt every axiom (an ``AxiomTable`` or a list of dataclasses, any
    variants) ``count_per_axiom`` times.

    Returns (negatives as an ``AxiomTable`` ordered by row, then draw, and the
    draws skipped on exhausted pools); deterministic for a given seed, each
    draw hashed from (seed, row, draw, attempt).  ``stats``, when given, gains
    ``drawn`` (random candidates hashed) and ``entailed_rejected`` (those the
    closure entails, filtered mode).
    """
    if count_per_axiom < 0:
        raise ValueError(f"negative count per axiom {count_per_axiom}")
    table = AxiomTable.from_axioms(axioms)
    return _corrupt_rows(table, count_per_axiom, cfg, dc, n_concepts, seed, stats)


def _corrupt_rows(
    table: AxiomTable,
    count: int,
    cfg: SamplerConfig,
    dc: Optional[DeductiveClosure],
    n_concepts: Optional[int],
    seed: int,
    stats: Optional[dict] = None,
) -> tuple[AxiomTable, int]:
    """``count`` draws per row from the counter stream of ``seed``; returns
    (negatives, draws skipped because the pool was exhausted)."""
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
    stats = {} if stats is None else stats
    stats.setdefault("drawn", 0)
    stats.setdefault("entailed_rejected", 0)
    n_rows, n_pairs = len(table), len(table) * count
    if not n_pairs or not len(pool):  # nothing to draw, or every draw exhausted at once
        return table[:0], n_pairs
    # (row, draw) pairs in output order; a pair's value is final once done
    rows = np.repeat(np.arange(n_rows), count)
    draws = np.tile(np.arange(count), n_rows)
    cols = slot_col[table.codes]
    current = table.cols[cols, np.arange(n_rows)]
    values = np.zeros(n_pairs, np.int64)
    done = np.zeros(n_pairs, bool)
    codes, ids_of, col_of = table.codes.tolist(), table.cols.T.tolist(), cols.tolist()

    def fillers_of(i: int) -> frozenset[int]:  # the closure memoizes them
        return dc.entailed_fillers_ids(codes[i], ids_of[i], col_of[i])

    if cfg.mode == "biased":
        coin = _words(_prefix(seed, _COIN, rows, draws), 0) >> np.uint64(11)
        heads = np.flatnonzero(coin.astype(np.float64) * 2.0**-53 < cfg.bias_p)
        picks = _words(_prefix(seed, _PICK, rows[heads], draws[heads]), 0).tolist()
        entailed: dict[int, list[int]] = {}  # row -> sorted fillers other than its value
        for pair, i, word in zip(heads.tolist(), rows[heads].tolist(), picks):
            if i not in entailed:
                entailed[i] = [v for v in sorted(fillers_of(i)) if v != ids_of[i][col_of[i]]]
            if entailed[i]:  # else fall through to a random draw
                values[pair] = entailed[i][word % len(entailed[i])]
                done[pair] = True

    if cfg.mode == "filtered":
        # each row's filler row when the corrupted column is its query's
        # answer column; None: one point query per candidate
        answer = {code: dc.answer_column(code) for code in set(codes)}
        row_sets = [
            fillers_of(i) if answer[code] == j else None
            for i, (code, j) in enumerate(zip(codes, col_of))
        ]

        def point_query(i: int, c: int) -> bool:
            ids = list(ids_of[i])
            ids[col_of[i]] = c
            return dc.entails_ids(codes[i], ids)

    pending = np.flatnonzero(~done)
    prefix = _prefix(seed, _CANDIDATE, rows[pending], draws[pending])
    for attempt in range(cfg.retry_limit):
        if not len(pending):
            break
        cand = pool[(_words(prefix, attempt) % np.uint64(len(pool))).astype(np.intp)]
        row = rows[pending]
        ok = cand != current[row]
        stats["drawn"] += len(pending)
        if cfg.mode == "filtered":
            tested = np.flatnonzero(ok)
            pairs = zip(row[tested].tolist(), cand[tested].tolist())
            hit = np.array([
                c in found if (found := row_sets[i]) is not None else point_query(i, c)
                for i, c in pairs
            ], bool)
            ok[tested[hit]] = False
            stats["entailed_rejected"] += int(hit.sum())
        values[pending[ok]] = cand[ok]
        done[pending[ok]] = True
        pending, prefix = pending[~ok], prefix[~ok]
    keep = np.flatnonzero(done)
    negatives = table[rows[keep]]
    negatives.cols[cols[rows[keep]], np.arange(len(keep))] = values[keep]
    return negatives, len(pending)


def entailed_fraction(
    axioms: Sequence[NormalizedAxiom],
    count_per_axiom: int,
    cfg: SamplerConfig,
    dc: DeductiveClosure,
    seed: int,
) -> tuple[float, int]:
    """Fraction of sampled negatives the closure entails, plus the sample size;
    a negative count raises ``ValueError``."""
    negatives, _ = sample_batch(
        axioms, count_per_axiom, cfg, dc, seed, n_concepts=dc.theory.n_concepts
    )
    if not negatives:
        return 0.0, 0
    rows = zip(negatives.codes.tolist(), *negatives.cols.tolist())
    hits = sum(dc.entails_ids(code, ids) for code, *ids in rows)
    return hits / len(negatives), len(negatives)
