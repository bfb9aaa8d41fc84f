"""Names and units of every metric, and the per-layer metrics of a traced run.

Set-up metrics are per set-up; everything else is per round, where a round
is one ``train`` call followed by one raw and one filtered ``score_and_rank``
call.  Layers bypassed by a workload read 0.
"""

from __future__ import annotations

from collections import defaultdict

from stats import accept_ratio, ratio
from tracing import Span, ancestor_named, self_times

#: name -> (unit, better); printed by untraced runs
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_axioms_per_s": ("axioms/s", "higher"),
    "rank_raw_axioms_per_s": ("axioms/s", "higher"),
    "rank_filtered_axioms_per_s": ("axioms/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "completed_frac": ("ratio", "higher"),
}

#: name -> unit; printed by traced runs
PER_LAYER = {
    "normalize.parse_input_s": "s",
    "normalize.normalize_s": "s",
    "core.parse_theory_s": "s",
    "reasoner.classify_s": "s",
    "reasoner.subsumptions": "count",
    "closure.compute_closure_s": "s",
    "closure.entails_calls": "count",
    "closure.entails_s": "s",
    "closure.entails_true_frac": "ratio",
    "closure.entails_in_train_s": "s",
    "closure.entails_in_rank_s": "s",
    "sampling.sample_batch_s": "s",
    "sampling.self_s": "s",
    "sampling.negatives_requested": "count",
    "sampling.negatives_emitted": "count",
    "sampling.skipped": "count",
    "sampling.entailed_rejects": "count",
    "sampling.accept_ratio": "ratio",
    "losses.total_loss_s": "s",
    "losses.val_loss_s": "s",
    "losses.batch_losses_s": "s",
    "losses.axioms_scored": "count",
    "training.train_s": "s",
    "training.self_s": "s",
    "training.steps": "count",
    "training.epochs": "count",
    "evaluation.score_and_rank_s": "s",
    "evaluation.rank_raw_s": "s",
    "evaluation.rank_filtered_s": "s",
    "evaluation.self_s": "s",
    "evaluation.pool_size_mean": "count",
    "evaluation.filtered_pool_size_mean": "count",
    "share.sample_batch_of_train": "ratio",
    "share.entails_of_train": "ratio",
    "share.batch_losses_of_rank_raw": "ratio",
    "trace.overhead_frac": "ratio",
}

#: span name -> per-layer time metric (span time summed, per set-up or round)
_SPAN_TIMES = {
    "normalize.parse_input": "normalize.parse_input_s",
    "normalize.normalize": "normalize.normalize_s",
    "core.parse_theory": "core.parse_theory_s",
    "reasoner.classify": "reasoner.classify_s",
    "closure.compute_closure": "closure.compute_closure_s",
    "sampling.sample_batch": "sampling.sample_batch_s",
    "losses.total_loss": "losses.total_loss_s",
    "losses.val_loss": "losses.val_loss_s",
    "losses.batch_losses": "losses.batch_losses_s",
    "training.train": "training.train_s",
    "evaluation.rank_raw": "evaluation.rank_raw_s",
    "evaluation.rank_filtered": "evaluation.rank_filtered_s",
}
_SETUP_METRICS = {
    "normalize.parse_input_s",
    "normalize.normalize_s",
    "core.parse_theory_s",
    "reasoner.classify_s",
    "closure.compute_closure_s",
}
_RANK_SPANS = ("evaluation.rank_raw", "evaluation.rank_filtered")


def layer_metrics(
    spans: list[Span],
    counts: dict[str, float],
    n_setups: int,
    n_rounds: int,
) -> dict[str, float]:
    """Per-layer metrics from a traced run's spans plus the harness's counts.

    ``counts`` carries what spans cannot: ``reasoner.subsumptions`` (per
    set-up), the sampler's ``requested``/``emitted``/``skipped`` totals,
    ``axioms_scored``, pool-size means and ``trace.overhead_frac``.  A
    training step is one ``total_loss`` call with a gradient, an epoch one
    validation ``total_loss`` call.
    """
    per_setup = 1.0 / max(n_setups, 1)
    per_round = 1.0 / max(n_rounds, 1)
    own = self_times(spans)
    in_train = ancestor_named(spans, "training.train")
    in_rank_raw = ancestor_named(spans, "evaluation.rank_raw")
    in_rank_filtered = ancestor_named(spans, "evaluation.rank_filtered")

    times: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    entails_train = entails_rank = 0.0
    batch_losses_raw = 0.0
    entails_calls = entails_true = 0
    entails_s = 0.0
    rejects = 0
    for s in spans:
        metric = _SPAN_TIMES.get(s.name)
        if metric:
            times[metric] += s.seconds
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        entails_calls += s.entails_calls
        entails_true += s.entails_true
        entails_s += s.entails_s
        if in_train[s.id] is not None:
            entails_train += s.entails_s
        if in_rank_raw[s.id] is not None or in_rank_filtered[s.id] is not None:
            entails_rank += s.entails_s
        if s.name == "sampling.sample_batch":
            rejects += s.entails_true
        if s.name == "losses.batch_losses" and in_rank_raw[s.id] is not None:
            batch_losses_raw += s.seconds

    out = {name: 0.0 for name in PER_LAYER}
    for metric, total in times.items():
        out[metric] = total * (per_setup if metric in _SETUP_METRICS else per_round)
    out["reasoner.subsumptions"] = counts.get("reasoner.subsumptions", 0.0)
    out["closure.entails_calls"] = entails_calls * per_round
    out["closure.entails_s"] = entails_s * per_round
    out["closure.entails_true_frac"] = ratio(entails_true, entails_calls)
    out["closure.entails_in_train_s"] = entails_train * per_round
    out["closure.entails_in_rank_s"] = entails_rank * per_round
    out["sampling.self_s"] = self_s["sampling.sample_batch"] * per_round
    out["sampling.negatives_requested"] = counts.get("requested", 0.0) * per_round
    out["sampling.negatives_emitted"] = counts.get("emitted", 0.0) * per_round
    out["sampling.skipped"] = counts.get("skipped", 0.0) * per_round
    out["sampling.entailed_rejects"] = rejects * per_round
    out["sampling.accept_ratio"] = accept_ratio(counts.get("emitted", 0), rejects)
    out["losses.axioms_scored"] = counts.get("axioms_scored", 0.0) * per_round
    out["training.self_s"] = self_s["training.train"] * per_round
    out["training.steps"] = calls["losses.total_loss"] * per_round
    out["training.epochs"] = calls["losses.val_loss"] * per_round
    out["evaluation.score_and_rank_s"] = (
        out["evaluation.rank_raw_s"] + out["evaluation.rank_filtered_s"]
    )
    out["evaluation.self_s"] = sum(self_s[name] for name in _RANK_SPANS) * per_round
    out["evaluation.pool_size_mean"] = counts.get("pool_size_mean", 0.0)
    out["evaluation.filtered_pool_size_mean"] = counts.get("filtered_pool_size_mean", 0.0)
    train_s = times["training.train_s"]
    out["share.sample_batch_of_train"] = ratio(times["sampling.sample_batch_s"], train_s)
    out["share.entails_of_train"] = ratio(entails_train, train_s)
    out["share.batch_losses_of_rank_raw"] = ratio(
        batch_losses_raw, times["evaluation.rank_raw_s"]
    )
    out["trace.overhead_frac"] = counts.get("trace.overhead_frac", 0.0)
    return out

