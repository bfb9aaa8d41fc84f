"""Ranking-based knowledge-base-completion evaluation.

Each test axiom (``A [= B`` or ``A [= Er.B``) is scored against every
candidate replacement of its rightmost concept with the positive loss of its
variant (lower score = more true in the model).  Ranks use the unbiased
mid-rank tie convention::

    rank = 1 + #{strictly better candidates} + floor(#{equal, non-true} / 2)

Filtered ranks additionally drop every non-true candidate whose axiom occurs
in the train set or is entailed by any supplied deductive closure; the true
axiom itself is never dropped; the dropped candidates form one mask per test
axiom, read off a train-set filler index and each closure's
``entailed_fillers``.  Per-axiom AUC is the rank-derived ROC AUC
``1 - (rank - 1) / (pool - 1)``.

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
from .core import GCI0, GCI2, NormalizedAxiom, axiom_tag
from .losses import GeometricModel, batch_losses

_BASE_METRICS = ("H@10", "H@100", "macro_MR", "micro_MR", "macro_AUC", "micro_AUC")


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
        for ax in self.axioms:
            if not isinstance(ax, (GCI0, GCI2)):
                raise ValueError(f"ranking supports GCI0/GCI2 test axioms, got {axiom_tag(ax)}")


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


def _candidate_axioms(ax: NormalizedAxiom, values: list[int]) -> list[NormalizedAxiom]:
    if isinstance(ax, GCI0):
        return [GCI0(ax.sub, v) for v in values]
    return [GCI2(ax.sub, ax.role, v) for v in values]


def _fixed_slots(ax: NormalizedAxiom) -> tuple:
    """What every candidate of a test axiom shares: all but the ranked slot."""
    return (GCI0, ax.sub) if isinstance(ax, GCI0) else (GCI2, ax.sub, ax.role)


def _true_value(ax: NormalizedAxiom) -> int:
    return ax.sup if isinstance(ax, GCI0) else ax.filler


def _rank_from_scores(scores: np.ndarray, true_idx: int, keep: np.ndarray) -> tuple[int, int]:
    """Mid-rank of the true candidate among the kept ones."""
    true_score = scores[true_idx]
    kept_scores = scores[keep]
    better = int(np.sum(kept_scores < true_score))
    equal = int(np.sum(kept_scores == true_score)) - 1  # the true entry itself
    return 1 + better + equal // 2, int(keep.sum())


def score_and_rank(model: GeometricModel, task: RankingTask) -> RankingReport:
    candidates = np.asarray(list(task.candidates), dtype=np.int64)
    values = candidates.tolist()
    train_fillers: dict[tuple, set[int]] = defaultdict(set)
    for ax in task.train_axioms:
        if isinstance(ax, (GCI0, GCI2)):
            train_fillers[_fixed_slots(ax)].add(_true_value(ax))
    rankings: list[AxiomRanking] = []
    for ax in task.axioms:
        true_val = _true_value(ax)
        positions = np.nonzero(candidates == true_val)[0]
        if len(positions) == 0:
            raise ValueError(f"true candidate of {ax!r} is not in the pool")
        true_idx = int(positions[0])
        scores = batch_losses(model, axiom_tag(ax), "positive", _candidate_axioms(ax, values))
        raw_rank, pool = _rank_from_scores(scores, true_idx, np.ones(len(values), dtype=bool))

        # one mask: candidates known from the train set or entailed by a closure
        blocked = set(train_fillers.get(_fixed_slots(ax), ()))
        for dc in task.closures:
            blocked |= dc.entailed_fillers(ax)
        keep = ~np.isin(candidates, np.fromiter(blocked, dtype=np.int64, count=len(blocked)))
        keep[true_idx] = True
        if not keep.any():
            raise ValueError("empty candidate pool after filtering")
        filtered_rank, filtered_pool = _rank_from_scores(scores, true_idx, keep)
        rankings.append(AxiomRanking(ax, raw_rank, filtered_rank, pool, filtered_pool))

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

    return {
        "H@10": float(np.mean(raw_ranks <= 10)),
        "H@100": float(np.mean(raw_ranks <= 100)),
        "macro_MR": float(np.mean(raw_ranks)),
        "micro_MR": micro(raw_ranks),
        "macro_AUC": float(np.mean(raw_aucs)),
        "micro_AUC": micro(raw_aucs),
        "F_H@10": float(np.mean(f_ranks <= 10)),
        "F_H@100": float(np.mean(f_ranks <= 100)),
        "F_macro_MR": float(np.mean(f_ranks)),
        "F_micro_MR": micro(f_ranks),
        "F_macro_AUC": float(np.mean(f_aucs)),
        "F_micro_AUC": micro(f_aucs),
    }


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
