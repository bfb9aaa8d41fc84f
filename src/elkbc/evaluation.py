"""Ranking-based knowledge-base-completion evaluation.

Each test axiom (``A [= B`` or ``A [= Er.B``) is scored against every
candidate replacement of its rightmost concept with the positive loss of its
variant (lower score = more true in the model).  Test axioms of one variant
are scored together through the ranking form of ``batch_losses``, in
cache-sized passes whose operands all have the same full shape (see there).
A block of test axioms holds at most about ``_SCORE_BLOCK`` scores, so a full
test set never needs |test| x |candidates| floats; a non-finite score in a
pool is an error.  A block's raw ranks come from whole-array comparisons
against each axiom's true score.  Ranks use the unbiased mid-rank tie
convention::

    rank = 1 + #{strictly better candidates} + floor(#{equal, non-true} / 2)

Filtered ranks additionally drop every non-true candidate whose axiom occurs
in the train set or is entailed by any supplied deductive closure; the true
axiom itself is never dropped.  The dropped candidates of a test axiom are
read off the task's train-set filler index (built once) and each closure's
``entailed_fillers``; a sorted copy of the pool maps ids to pool positions,
for the true candidates and the dropped ones, and the filtered rank takes
the dropped candidates' comparisons off the raw counts.  Per-axiom AUC is
the rank-derived ROC AUC ``1 - (rank - 1) / (pool - 1)``.

Macro aggregates average over test axioms; micro aggregates first average per
subject class, then over subject classes (by default only classes that occur
in the test set; a signature-wide denominator is available and treats absent
classes as contributing zero).  Hits@n is the fraction of test axioms ranked
at or above n.  Scoring is read-only over the model and order-independent.
"""

from __future__ import annotations

import csv
import io
import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .closure import DeductiveClosure
from .core import SLOT_NAMES, VARIANTS, AxiomTable, NormalizedAxiom
from .losses import GeometricModel, batch_losses

_BASE_METRICS = ("H@10", "H@100", "macro_MR", "micro_MR", "macro_AUC", "micro_AUC")
#: rankable variant -> id-table column of its ranked slot (the rightmost concept, the last slot)
_RANKED = {"GCI0": SLOT_NAMES["GCI0"].index("sup"), "GCI2": SLOT_NAMES["GCI2"].index("filler")}
#: most test-axiom scores held at once (one row per axiom of a block; a
#: single axiom's row may exceed it), so a full test set is never one block
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
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("duplicate candidate ids in the pool")
        for tag, _ in AxiomTable.from_axioms(self.axioms).variants():
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

    def raw_auc(self) -> float:
        return _rank_auc(self.raw_rank, self.pool_size)

    def filtered_auc(self) -> float:
        return _rank_auc(self.filtered_rank, self.filtered_pool_size)


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


def _rank_auc(rank: int, pool: int) -> float:
    if pool <= 1:
        return 1.0
    return 1.0 - (rank - 1) / (pool - 1)


def score_and_rank(model: GeometricModel, task: RankingTask) -> RankingReport:
    candidates = np.asarray(list(task.candidates), dtype=np.int64)
    order = np.argsort(candidates)
    ordered = candidates[order]

    def position(ids: np.ndarray) -> np.ndarray:
        """Pool index of each id, -1 for ids outside the pool."""
        at = np.minimum(np.searchsorted(ordered, ids), len(ordered) - 1)
        return np.where(ordered[at] == ids, order[at], -1)

    tests = AxiomTable.from_axioms(task.axioms)
    groups = [(VARIANTS[c], np.flatnonzero(tests.codes == c)) for c in np.unique(tests.codes)]
    true_idx = np.empty(len(tests), dtype=np.int64)
    for tag, rows in groups:
        true_idx[rows] = position(tests.cols[_RANKED[tag], rows])
    if (true_idx < 0).any():
        ax = task.axioms[np.argmax(true_idx < 0)]
        raise ValueError(f"true candidate of {ax!r} is not in the pool")

    n_pool = len(candidates)
    rankings: list[AxiomRanking] = [None] * len(tests)
    block_rows = max(1, _SCORE_BLOCK // n_pool)
    for tag, rows in groups:
        slot = _RANKED[tag]
        for lo in range(0, len(rows), block_rows):
            block = rows[lo : lo + block_rows]
            scores = batch_losses(model, tag, "positive", tests[block], candidates=candidates)
            finite = np.isfinite(scores).all(axis=1)
            if not finite.all():
                ax = task.axioms[block[np.argmin(finite)]]
                raise ValueError(f"non-finite score in the candidate pool of {ax!r}")
            # raw ranks of the whole block; the true entry ties with itself
            t = true_idx[block]
            true = scores[np.arange(len(block)), t][:, None]
            better = np.count_nonzero(scores < true, axis=1)
            ties = np.count_nonzero(scores == true, axis=1) - 1
            raw = (1 + better + ties // 2).tolist()
            keys = tests.cols[:slot, block].T.tolist()
            for j, i in enumerate(block.tolist()):
                ax = task.axioms[i]
                # the dropped candidates: known from the train set or entailed
                # by a closure, the true one never
                known = task._train_fillers.get((tag, tuple(keys[j])), ())
                sources = (known, *(dc.entailed_fillers(ax) for dc in task.closures))
                filtered, filtered_pool = raw[j], n_pool
                if any(sources):
                    drop = np.zeros(n_pool, dtype=bool)
                    for fillers in sources:
                        at = position(np.fromiter(fillers, np.int64, count=len(fillers)))
                        drop[at[at >= 0]] = True
                    drop[t[j]] = False
                    dropped = scores[j, drop]
                    f_better = better[j] - np.count_nonzero(dropped < true[j])
                    f_ties = ties[j] - np.count_nonzero(dropped == true[j])
                    filtered = int(1 + f_better + f_ties // 2)
                    filtered_pool = n_pool - len(dropped)
                rankings[i] = AxiomRanking(ax, raw[j], filtered, n_pool, filtered_pool)

    metrics = _aggregate(rankings, task, model)
    return RankingReport(rankings, metrics)


def _aggregate(rankings, task: RankingTask, model: GeometricModel) -> dict[str, float]:
    raw_ranks = np.array([r.raw_rank for r in rankings], dtype=np.float64)
    f_ranks = np.array([r.filtered_rank for r in rankings], dtype=np.float64)
    raw_aucs = np.array([r.raw_auc() for r in rankings])
    f_aucs = np.array([r.filtered_auc() for r in rankings])

    def micro(values: np.ndarray) -> float:
        by_subject: dict[int, list[float]] = {}
        for r, v in zip(rankings, values):
            by_subject.setdefault(r.axiom.sub, []).append(float(v))
        means = [float(np.mean(vs)) for vs in by_subject.values()]
        if task.micro_over_signature:
            return float(np.sum(means) / model.n_concepts)
        return float(np.mean(means))

    metrics: dict[str, float] = {}
    for prefix, ranks, aucs in (("", raw_ranks, raw_aucs), ("F_", f_ranks, f_aucs)):
        values = (
            np.mean(ranks <= 10), np.mean(ranks <= 100), np.mean(ranks), micro(ranks),
            np.mean(aucs), micro(aucs),
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
