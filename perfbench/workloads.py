"""The three workloads: seeded input text, set-up, one measured round, and
the correctness gates.

The input text is generated from the seed outside any timing; the pipeline
only ever sees that text.  Validation and test axioms travel as pairs of
class names and are resolved against the parsed signature.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from elkbc import (
    GCI0,
    GCI1,
    GCI2,
    GCI3,
    DeductiveClosure,
    LossRequest,
    RankingReport,
    RankingTask,
    SamplerConfig,
    Theory,
    TrainConfig,
    axiom_loss,
    classify,
    compute_closure,
    normalize,
    parse_input,
    parse_theory,
    score_and_rank,
    serialize_theory,
    train,
)
from elkbc.core import axiom_tag
from elkbc.datasets import layered_dag_benchmark, synthesize_shape
from elkbc.losses import LOSS_VARIANTS

from tracing import Tracer

#: about the seconds ``calibrate`` takes on the 2-vCPU host the benchmark was
#: tuned on, at that host's faster speed level; it only fixes the unit of
#: rescaled seconds
CALIBRATION_REF_S = 0.025
_CAL_RNG = random.Random(0)
_CAL_SET = frozenset(_CAL_RNG.randrange(1 << 30) for _ in range(50_000))
_CAL_KEYS = [_CAL_RNG.randrange(1 << 30) for _ in range(30_000)]
_CAL_SMALL = np.arange(64.0)
_CAL_LARGE = np.ones(1 << 18)
#: a synthetic "sup" index (one small set per class, tens of MB in all) and
#: triples to scan against it, in shuffled order, like the oracle's premise
#: scans over asserted axioms
_CAL_CLASSES = 40_000
_CAL_SUP = [
    frozenset(_CAL_RNG.randrange(_CAL_CLASSES) for _ in range(_CAL_RNG.randrange(2, 16)))
    for _ in range(_CAL_CLASSES)
]
_CAL_TRIPLES = [tuple(_CAL_RNG.randrange(_CAL_CLASSES) for _ in range(3)) for _ in range(16_000)]
_CAL_RNG.shuffle(_CAL_TRIPLES)

#: A7's box2el settings: lr 0.01, batch 1024, reg 0.05
_BOX2EL = dict(
    model="box2el", dim=64, learning_rate=0.01, batch_size=1024, reg_lambda=0.05,
    delta=1.0, epsilon=0.01, negative_scope="all-forms",
)


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "dag" | "foodon" | "galen"
    input_format: str  # "nf" | "elpp"
    closure_mode: str  # "materialized" | "oracle"
    train: dict  # TrainConfig keyword arguments, seed and validation aside
    sampler_mode: str
    slice_per_variant: Optional[int]  # train axioms per variant; None: all
    rank_axioms: Optional[int]  # test axioms ranked per call; None: all
    oracle_axioms: int  # test axioms re-ranked by the gate (a) oracle
    f_hits_factor: float  # gate (c): F_H@10 >= factor * 10 / |C|; 0: off
    inputs_per_run: int = 1  # inputs a run sets up and measures in turn


#: why each workload exists is in BENCHMARK.json and README.md; the sizes
#: keep a round short enough that a 30 s run holds several
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dag-train",
            source="dag",
            input_format="nf",
            closure_mode="materialized",
            train=dict(_BOX2EL, epochs=1, negatives_per_positive=4),
            sampler_mode="filtered",
            slice_per_variant=None,
            rank_axioms=None,
            oracle_axioms=4,
            f_hits_factor=5.0,
            inputs_per_run=3,
        ),
        Workload(
            name="galen-filtered",
            source="galen",
            input_format="elpp",
            closure_mode="oracle",
            train=dict(_BOX2EL, dim=16, epochs=1, negatives_per_positive=1),
            sampler_mode="filtered",
            slice_per_variant=192,
            rank_axioms=2,
            oracle_axioms=0,
            f_hits_factor=0.0,
        ),
        Workload(
            name="foodon-rank",
            source="foodon",
            input_format="nf",
            closure_mode="oracle",
            train=dict(
                model="elbe", dim=64, learning_rate=0.01, batch_size=1024, epochs=1,
                negative_scope="none",
            ),
            sampler_mode="random",
            slice_per_variant=512,
            rank_axioms=4,
            oracle_axioms=2,
            f_hits_factor=0.0,
        ),
    )
}


@dataclass
class Inputs:
    text: str
    validation: list[tuple[str, str]]  # GCI0 as (sub, sup) class names
    test: list[tuple[str, str]]


def _pairs(theory: Theory, axioms) -> list[tuple[str, str]]:
    name = theory.signature.concepts.name_of
    return [(name(ax.sub), name(ax.sup)) for ax in axioms]


def render_elpp(theory: Theory) -> str:
    """`.elpp` text whose normalization gives back the theory's axioms."""
    c = theory.signature.concepts.name_of
    r = theory.signature.roles.name_of
    lines = []
    for ax in theory.axioms:
        if isinstance(ax, GCI0):
            lines.append(f"sub({c(ax.sub)}, {c(ax.sup)})")
        elif isinstance(ax, GCI1):
            lines.append(f"sub(and({c(ax.left)},{c(ax.right)}), {c(ax.sup)})")
        elif isinstance(ax, GCI2):
            lines.append(f"sub({c(ax.sub)}, some({r(ax.role)},{c(ax.filler)}))")
        elif isinstance(ax, GCI3):
            lines.append(f"sub(some({r(ax.role)},{c(ax.filler)}), {c(ax.sup)})")
        else:
            raise ValueError(f"no .elpp rendering for {axiom_tag(ax)}")
    return "\n".join(lines) + "\n"


def input_seeds(wl: Workload, seed: int) -> list[int]:
    """Seeds of the inputs a run with ``--seed seed`` measures: ``seed``
    itself, or ``k * seed`` to ``k * seed + k - 1`` for k inputs per run.
    A DAG's size varies with its seed, and so does its training speed;
    several DAGs per run average that out."""
    k = wl.inputs_per_run
    return [k * seed + j for j in range(k)]


def make_inputs(wl: Workload, seed: int) -> Inputs:
    if wl.source == "dag":
        theory, validation, test = layered_dag_benchmark(seed)
    else:
        theory, test = synthesize_shape(wl.source, seed)
        validation = []
    text = render_elpp(theory) if wl.input_format == "elpp" else serialize_theory(theory)
    return Inputs(text, _pairs(theory, validation), _pairs(theory, test))


@dataclass
class Ready:
    theory: Theory
    dc: DeductiveClosure
    subsumptions: int
    seconds: float


def setup(wl: Workload, inputs: Inputs, tracer: Tracer) -> Ready:
    """Input text to a ready closure."""
    with tracer.span("setup") as span:
        if wl.input_format == "elpp":
            with tracer.span("normalize.parse_input"):
                parsed = parse_input(inputs.text)
            with tracer.span("normalize.normalize"):
                theory, _ = normalize(parsed)
        else:
            with tracer.span("core.parse_theory"):
                theory = parse_theory(inputs.text)
        with tracer.span("reasoner.classify"):
            index, hierarchy, _ = classify(theory)
        with tracer.span("closure.compute_closure"):
            dc = compute_closure(theory, index, hierarchy, mode=wl.closure_mode)
    subsumptions = sum(len(s) for s in index.sup)
    return Ready(theory, dc, subsumptions, span.seconds)


@dataclass
class Plan:
    """What a round runs, derived from the set-up outside any timing."""

    train_theory: Theory
    n_train: int  # loss-bearing axioms in train_theory
    cfg: TrainConfig
    dc: DeductiveClosure
    raw_task: RankingTask
    filtered_task: RankingTask
    unresolved_test: int  # test pairs naming a class the theory lacks


def _resolve(theory: Theory, pairs) -> list[Optional[GCI0]]:
    concepts = theory.signature.concepts
    return [
        GCI0(concepts.id_of(a), concepts.id_of(b)) if a in concepts and b in concepts else None
        for a, b in pairs
    ]


def _train_slice(wl: Workload, theory: Theory, seed: int) -> Theory:
    if wl.slice_per_variant is None:
        return theory
    rng = np.random.default_rng([seed, 1])
    by_variant = {tag: [] for tag in LOSS_VARIANTS}
    for ax in theory.axioms:
        if axiom_tag(ax) in by_variant:
            by_variant[axiom_tag(ax)].append(ax)
    chosen = []
    for tag in LOSS_VARIANTS:
        axs = by_variant[tag]
        if axs:
            pick = rng.choice(len(axs), size=min(wl.slice_per_variant, len(axs)), replace=False)
            chosen += [axs[i] for i in sorted(pick)]
    return Theory(theory.signature, chosen)


def prepare(wl: Workload, ready: Ready, inputs: Inputs, seed: int) -> Plan:
    theory = ready.theory
    test = _resolve(theory, inputs.test)
    order = range(len(test))
    if wl.rank_axioms is not None:
        order = np.random.default_rng([seed, 2]).permutation(len(test))
    ranked = [test[i] for i in order if test[i] is not None][: wl.rank_axioms]
    validation = [ax for ax in _resolve(theory, inputs.validation) if ax is not None]
    train_theory = _train_slice(wl, theory, seed)
    cfg = TrainConfig(
        **wl.train,
        seed=seed,
        sampler=SamplerConfig(mode=wl.sampler_mode),
        validation=validation or None,
    )
    candidates = list(range(theory.n_concepts))
    return Plan(
        train_theory=train_theory,
        n_train=sum(1 for ax in train_theory.axioms if axiom_tag(ax) in LOSS_VARIANTS),
        cfg=cfg,
        dc=ready.dc,
        raw_task=RankingTask(ranked, candidates),
        filtered_task=RankingTask(ranked, candidates, frozenset(theory.axioms), (ready.dc,)),
        unresolved_test=sum(1 for ax in test if ax is None),
    )


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work on elkbc's hot paths:
    membership tests in a large set, a premise-style scan whose lookups land
    all over a large index (closure scans), small-tuple dict updates
    (per-axiom objects), small numpy calls and large-array passes."""
    start = time.perf_counter()
    hits = 0
    for key in _CAL_KEYS:
        hits += key in _CAL_SET
    sup = _CAL_SUP
    for left, right, head in _CAL_TRIPLES:
        if left in sup[head] or right in sup[left]:
            hits += 1
    table = {}
    for i in range(20_000):
        table[(i & 511, i & 7)] = i
    acc = _CAL_SMALL
    for _ in range(1_000):
        acc = np.maximum(acc * 0.5, _CAL_SMALL)
    for _ in range(20):
        large = _CAL_LARGE * 1.0001
        large += 1.0
    return time.perf_counter() - start


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the speed where ``calibrate`` takes CALIBRATION_REF_S,
    judged from calibrations just before and after the timed call.

    The host's speed drifts by up to 2x over spans from a tenth of a second
    to minutes, often longer than a run (LIMITS.md); rescaling by the
    neighbouring calibrations removes much of that from the timings.
    """
    return seconds * CALIBRATION_REF_S * 2 / (before + after)


@dataclass
class Round:
    train_s: float  # as measured
    raw_s: float
    filtered_s: float
    train_ref_s: float  # rescaled by reference_seconds
    raw_ref_s: float
    filtered_ref_s: float
    log: list[dict]
    raw: Optional[RankingReport]  # None: the ranking call raised
    filtered: Optional[RankingReport]

    @property
    def seconds(self) -> float:
        return self.train_s + self.raw_s + self.filtered_s

    @property
    def ref_seconds(self) -> float:
        return self.train_ref_s + self.raw_ref_s + self.filtered_ref_s


def _rank(tracer: Tracer, name: str, model, task: RankingTask):
    with tracer.span(name) as span:
        try:
            report = score_and_rank(model, task)
        except ValueError:
            report = None
    return report, span.seconds


def settle() -> float:
    """Collect garbage, then calibrate.  Each timed call starts from an empty
    collector, so the collections it pays for are the ones its own
    allocations trigger, not ones left pending by the call before it."""
    gc.collect()
    return calibrate()


def run_round(plan: Plan, tracer: Tracer):
    """One ``train`` call, then one raw and one filtered ranking with its
    model, each between two calibrations; returns the round and the model."""
    cal = [settle()]
    with tracer.span("round"):
        with tracer.span("training.train") as train_span:
            model, log = train(plan.train_theory, plan.cfg, plan.dc)
        cal.append(settle())
        raw, raw_s = _rank(tracer, "evaluation.rank_raw", model, plan.raw_task)
        cal.append(settle())
        filtered, filtered_s = _rank(tracer, "evaluation.rank_filtered", model, plan.filtered_task)
        cal.append(calibrate())
    times = (train_span.seconds, raw_s, filtered_s)
    ref = [reference_seconds(t, cal[i], cal[i + 1]) for i, t in enumerate(times)]
    return Round(*times, *ref, log, raw, filtered), model


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------


def oracle_ranks(model, ax: GCI0, candidates, train_axioms, dc) -> tuple[int, int, int, int]:
    """(raw rank, pool, filtered rank, filtered pool) of ``ax`` from one
    ``axiom_loss`` call per candidate and the mid-rank rule
    ``1 + #better + #equal_others // 2``."""
    scores = [axiom_loss(model, LossRequest(GCI0(ax.sub, c), "positive")) for c in candidates]
    true_score = scores[list(candidates).index(ax.sup)]
    keep = [
        c == ax.sup or not (GCI0(ax.sub, c) in train_axioms or dc.entails(GCI0(ax.sub, c)))
        for c in candidates
    ]

    def mid_rank(mask):
        kept = [s for s, k in zip(scores, mask) if k]
        better = sum(1 for s in kept if s < true_score)
        equal_others = sum(1 for s in kept if s == true_score) - 1
        return 1 + better + equal_others // 2, len(kept)

    raw_rank, pool = mid_rank([True] * len(scores))
    filtered_rank, filtered_pool = mid_rank(keep)
    return raw_rank, pool, filtered_rank, filtered_pool


def check_gates(
    wl: Workload,
    plan: Plan,
    rounds: list[Round],
    model,
    negatives: list,
    seed: int,
) -> list[str]:
    """Failure messages of gates (a)-(d); empty when every gate passes.
    ``model`` is the last round's."""
    failures: list[str] = []
    last = rounds[-1]

    # (a) ranking oracle on a seeded handful of ranked axioms
    task = plan.filtered_task
    if last.raw is None or last.filtered is None:
        failures.append("(a) a ranking call raised")
    else:
        rng = np.random.default_rng([seed, 3])
        size = min(wl.oracle_axioms, len(task.axioms))
        picks = rng.choice(len(task.axioms), size=size, replace=False)
        for i in sorted(int(p) for p in picks):
            ax = task.axioms[i]
            got_f = last.filtered.rankings[i]
            got = (last.raw.rankings[i].raw_rank, got_f.pool_size,
                   got_f.filtered_rank, got_f.filtered_pool_size)
            want = oracle_ranks(model, ax, task.candidates, task.train_axioms, plan.dc)
            if got != want or got_f.raw_rank != want[0]:
                failures.append(f"(a) {ax!r}: score_and_rank {got} != oracle {want}")

    # (b) no emitted negative is provable; ``negatives`` holds the first
    # round of a traced run (rounds repeat the same draws, see (d))
    if plan.cfg.sampler.mode == "filtered":
        provable = sum(1 for neg in negatives if plan.dc.entails(neg))
        if provable:
            failures.append(f"(b) {provable} of {len(negatives)} negatives are entailed")

    # (c) finite losses, and F_H@10 above 5x chance on the DAG
    for entry in last.log:
        if not (math.isfinite(entry["train_loss"]) and math.isfinite(entry["val_loss"])):
            failures.append(f"(c) non-finite loss in epoch log {entry}")
    if wl.f_hits_factor and last.filtered is not None:
        floor = wl.f_hits_factor * 10 / plan.train_theory.n_concepts
        if last.filtered.metrics["F_H@10"] < floor:
            failures.append(f"(c) F_H@10 {last.filtered.metrics['F_H@10']} < {floor}")

    # (d) identical epoch logs for identical seeds
    if any(r.log != rounds[0].log for r in rounds):
        failures.append("(d) epoch logs differ between runs with the same seed")
    return failures


def params(wl: Workload) -> dict:
    return dataclasses.asdict(wl)
