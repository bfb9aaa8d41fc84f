"""Ranking-based knowledge-base-completion evaluation.

Each test axiom (``A [= B`` or ``A [= Er.B``) is scored against every
candidate replacement of its rightmost concept with the positive loss of its
variant (lower score = more true in the model).  Score and filter rows depend
only on an axiom's key, its variant and the ids before the ranked slot, so
each distinct key is scored once, by the ranking form of ``batch_losses``
(see there).  A block of keys, or a chunk of the axioms reading a block's
rows, holds at most about ``_SCORE_BLOCK`` scores, so a full test set never
needs |test| x |candidates| floats; a non-finite score is an error.  Raw
ranks compare each axiom's key row with its true score, under the unbiased
mid-rank tie convention::

    rank = 1 + #{strictly better candidates} + floor(#{equal, non-true} / 2)

Filtered ranks additionally drop every non-true candidate whose axiom occurs
in the train set or is entailed by any supplied deductive closure; the true
axiom itself is never dropped.  Per block, the dropped fillers of every key
(the task's train-set filler index, built once, and each closure's
``entailed_fillers_ids``) are gathered into one flat id array with an owner
row per id, mapped to pool positions through the task's sorted copy of the
pool and set in one (keys x pool) drop mask; each axiom clears its own true
position and counts its filtered rank and pool size over the raw
comparisons.  A closure is asked only about test ids inside its theory
(``KeyError`` otherwise); errors name the first offending axiom in test
order within the first variant that has one.  Per-axiom AUC is the
rank-derived ROC AUC ``1 - (rank - 1) / (pool - 1)``.

Macro aggregates average over test axioms; micro aggregates first average per
subject class, then over subject classes (by default only classes that occur
in the test set; a signature-wide denominator is available and treats absent
classes as contributing zero).  A subject's average is ``np.mean`` of its
values in test order, taken for all subjects with as many test axioms at
once.  Hits@n is the fraction of test axioms ranked at or above n.  Scoring
is read-only over the model and order-independent.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .closure import DeductiveClosure
from .core import RIGHTMOST_COL, VARIANTS, AxiomTable, NormalizedAxiom
from .losses import GeometricModel, batch_losses

_BASE_METRICS = ("H@10", "H@100", "macro_MR", "micro_MR", "macro_AUC", "micro_AUC")
#: rankable variant -> id-table column of its ranked slot, the rightmost concept
_RANKED = {tag: int(RIGHTMOST_COL[VARIANTS.index(tag)]) for tag in ("GCI0", "GCI2")}
#: most scores held at once (one row per key of a block, or per axiom of a
#: chunk; a single row may exceed it), so a full test set is never one block
_SCORE_BLOCK = 1 << 20


@dataclass
class RankingTask:
    axioms: list[NormalizedAxiom]
    candidates: Sequence[int]
    train_axioms: frozenset[NormalizedAxiom] = frozenset()
    closures: tuple[DeductiveClosure, ...] = ()
    micro_over_signature: bool = False

    def __post_init__(self):
        if not self.axioms:
            raise ValueError("ranking task needs at least one test axiom")
        if not len(self.candidates):
            raise ValueError("empty candidate pool")
        # the pool as ids, and the sorted copy that maps an id to its position
        self._pool = np.asarray(list(self.candidates), dtype=np.int64)
        self._order = np.argsort(self._pool)
        self._ordered = self._pool[self._order]
        if (self._ordered[1:] == self._ordered[:-1]).any():
            raise ValueError("duplicate candidate ids in the pool")
        self._tests = AxiomTable.from_axioms(self.axioms)  # the test axioms as id rows
        for tag, _ in self._tests.variants():
            if tag not in _RANKED:
                raise ValueError(f"ranking supports GCI0/GCI2 test axioms, got {tag}")
        # (variant, ids before the ranked slot) -> the ranked ids in the train set
        self._train_fillers: dict[tuple, set[int]] = defaultdict(set)
        for tag, rows in AxiomTable.from_axioms(self.train_axioms).variants():
            if tag in _RANKED:
                slot = _RANKED[tag]
                for key, value in zip(zip(*rows.cols[:slot].tolist()), rows.cols[slot].tolist()):
                    self._train_fillers[tag, key].add(value)


@dataclass
class AxiomRanking:
    axiom: NormalizedAxiom
    raw_rank: int
    filtered_rank: int
    pool_size: int
    filtered_pool_size: int


@dataclass
class RankingReport:
    rankings: list[AxiomRanking]
    metrics: dict[str, float] = field(default_factory=dict)

    def to_json(self, task_name: str = "kbc") -> str:
        payload = {
            "task": task_name,
            "n_test": len(self.rankings),
            "metrics": {**self.metrics, "NF_minus_F": nf_f_delta(self)},
            "pool_size_mean": float(np.mean([r.pool_size for r in self.rankings])),
            "filtered_pool_size_mean": float(
                np.mean([r.filtered_pool_size for r in self.rankings])
            ),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["axiom", "raw_rank", "filtered_rank", "pool_size", "filtered_pool_size"]
        )
        for r in self.rankings:
            writer.writerow(
                [repr(r.axiom), r.raw_rank, r.filtered_rank, r.pool_size, r.filtered_pool_size]
            )
        return buf.getvalue()


def score_and_rank(model: GeometricModel, task: RankingTask) -> RankingReport:
    candidates, order, ordered = task._pool, task._order, task._ordered

    def position(ids: np.ndarray) -> np.ndarray:
        """Pool index of each id, -1 for ids outside the pool."""
        at = np.minimum(np.searchsorted(ordered, ids), len(ordered) - 1)
        return np.where(ordered[at] == ids, order[at], -1)

    tests = task._tests
    groups = [(c, np.flatnonzero(tests.codes == c)) for c in np.unique(tests.codes).tolist()]
    true_idx = position(tests.cols[RIGHTMOST_COL[tests.codes], np.arange(len(tests))])
    if (true_idx < 0).any():
        ax = task.axioms[np.argmax(true_idx < 0)]
        raise ValueError(f"true candidate of {ax!r} is not in the pool")

    n_pool = len(candidates)
    ranks = np.empty((2, len(tests)), dtype=np.int64)  # raw, filtered
    pools = np.full((2, len(tests)), n_pool, dtype=np.int64)
    block_rows = max(1, _SCORE_BLOCK // n_pool)
    for code, rows in groups:
        tag, slot = VARIANTS[code], _RANKED[VARIANTS[code]]
        for dc in task.closures:
            outside = tests[rows].outside(dc.theory.n_concepts, dc.theory.n_roles)
            if outside.any():
                ax = task.axioms[rows[np.argmax(outside)]]
                raise KeyError(f"{ax!r} has an id outside the closure's theory")
        # the keys by first occurrence (``first`` rows); rows by key, key j's from starts[j]
        keys = tests.cols[:slot, rows]
        _, first, key_of = np.unique(keys, axis=1, return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        first, key_of = first[by_first], np.argsort(by_first)[key_of]
        members = np.argsort(key_of, kind="stable")
        starts = np.concatenate(([0], np.cumsum(np.bincount(key_of))))
        for lo in range(0, len(first), block_rows):
            block = rows[first[lo : lo + block_rows]]
            k, hi = len(block), lo + len(block)
            scores = batch_losses(model, tag, "positive", tests[block], candidates=candidates)
            finite = np.isfinite(scores).all(axis=1)
            if not finite.all():
                ax = task.axioms[block[np.argmin(finite)]]
                raise ValueError(f"non-finite score in the candidate pool of {ax!r}")
            # each key's dropped candidates: known from the train set or
            # entailed by a closure, one flat id array with the key owning each id
            ids = keys[:, first[lo:hi]].T.tolist()
            sources = [task._train_fillers.get((tag, tuple(key)), ()) for key in ids]
            for dc in task.closures:
                sources += [dc.entailed_fillers_ids(code, key) for key in ids]
            sizes = np.fromiter(map(len, sources), np.int64, len(sources))
            drop = None
            if sizes.any():
                at = position(np.fromiter(chain.from_iterable(sources), np.int64, sizes.sum()))
                owner = np.repeat(np.arange(len(sources)) % k, sizes)
                drop = np.zeros(scores.shape, dtype=bool)
                drop[owner[at >= 0], at[at >= 0]] = True
            # the keys' axioms in chunks of at most a block, each with a copy of its key row
            for c in range(starts[lo], starts[hi], block_rows):
                chunk = members[c : min(c + block_rows, starts[hi])]
                own, axioms = key_of[chunk] - lo, rows[chunk]
                counts = _ranks(scores[own], true_idx[axioms], None if drop is None else drop[own])
                ranks[0, axioms], ranks[1, axioms], pools[1, axioms] = counts

    rankings = [
        AxiomRanking(ax, raw, filtered, n_pool, f_pool)
        for ax, raw, filtered, f_pool in zip(task.axioms, *ranks.tolist(), pools[1].tolist())
    ]
    return RankingReport(rankings, _aggregate(ranks, pools, task, model))


def _ranks(scores: np.ndarray, true: np.ndarray, drop: Optional[np.ndarray]):
    """Raw and filtered ranks and filtered pool sizes; ``drop`` is cleared at ``true``.
    A function, so that a chunk's copies are freed before the next chunk's."""
    rows = np.arange(len(scores))
    true_score = scores[rows, true][:, None]
    better, equal = scores < true_score, scores == true_score
    raw_better = np.count_nonzero(better, axis=1)
    raw_ties = np.count_nonzero(equal, axis=1) - 1  # the true entry ties with itself
    raw = 1 + raw_better + raw_ties // 2
    if drop is None:
        return raw, raw, scores.shape[1]
    drop[rows, true] = False
    f_better = raw_better - np.count_nonzero(np.logical_and(better, drop, out=better), axis=1)
    f_ties = raw_ties - np.count_nonzero(np.logical_and(equal, drop, out=equal), axis=1)
    return raw, 1 + f_better + f_ties // 2, scores.shape[1] - np.count_nonzero(drop, axis=1)


def _subject_means(subjects: np.ndarray):
    """The function from one value per test axiom to the mean of each
    subject's values, subjects in order of first occurrence.

    Each mean equals ``np.mean`` of the subject's values listed in test
    order: the subjects with L test axioms are gathered into one
    C-contiguous (m, L) array, and ``mean(axis=1)`` sums each row in the
    order ``np.mean`` sums a list of L values.
    """
    _, first, inverse, counts = np.unique(
        subjects, return_index=True, return_inverse=True, return_counts=True
    )
    members = np.argsort(inverse, kind="stable")  # grouped by subject, in test order
    starts = np.cumsum(counts) - counts
    gathers = [
        (g, members[starts[g, None] + np.arange(size)])
        for size in np.unique(counts).tolist()
        for g in [np.flatnonzero(counts == size)]
    ]
    by_first = np.argsort(first)

    def means(values: np.ndarray) -> np.ndarray:
        out = np.empty(len(counts))
        for g, rows in gathers:
            out[g] = values[rows].mean(axis=1)
        return out[by_first]

    return means


def _aggregate(ranks, pools, task: RankingTask, model: GeometricModel) -> dict[str, float]:
    """Metrics from the (raw, filtered) rows of ranks and pool sizes."""
    ranks = ranks.astype(np.float64)
    # rank-derived AUC; a pool of one holds only the true candidate, AUC 1
    aucs = 1.0 - (ranks - 1) / np.maximum(pools - 1, 1)
    subject_means = _subject_means(task._tests.cols[0])

    def micro(values: np.ndarray) -> float:
        means = subject_means(values)
        if task.micro_over_signature:
            return float(np.sum(means) / model.n_concepts)
        return float(np.mean(means))

    metrics: dict[str, float] = {}
    for prefix, r, auc in zip(("", "F_"), ranks, aucs):
        values = (
            np.mean(r <= 10), np.mean(r <= 100), np.mean(r), micro(r), np.mean(auc), micro(auc),
        )
        metrics.update((prefix + name, float(v)) for name, v in zip(_BASE_METRICS, values))
    return metrics


def filter_test_set(
    axioms: list[NormalizedAxiom], dc: DeductiveClosure
) -> tuple[list[NormalizedAxiom], int]:
    """Drop test axioms the closure already entails; returns (kept, removed)."""
    kept = [ax for ax in axioms if not dc.entails(ax)]
    return kept, len(axioms) - len(kept)


def nf_f_delta(
    report_raw: RankingReport, report_filtered: Optional[RankingReport] = None
) -> dict[str, float]:
    """Non-filtered minus filtered value per base metric.

    With one argument the report is compared against its own filtered
    variants; with two, both reports must rank the same test axioms.
    """
    if report_filtered is None:
        report_filtered = report_raw
    if [r.axiom for r in report_raw.rankings] != [r.axiom for r in report_filtered.rankings]:
        raise ValueError("reports rank different test sets")
    return {
        name: report_raw.metrics[name] - report_filtered.metrics["F_" + name]
        for name in _BASE_METRICS
    }
