"""Geometric EL++ ontology embeddings with deductive-closure-aware negative
sampling and knowledge-base-completion evaluation.

Pipeline: ``normalize`` rewrites arbitrary EL++ axioms into nine normal
forms; ``reasoner.classify`` saturates the subsumption hierarchy;
``closure.compute_closure`` extends it to an approximate per-normal-form
deductive closure; ``losses``/``training`` fit ball- and box-based geometric
models with per-normal-form negative losses; ``sampling`` corrupts axioms
(optionally rejecting entailed corruptions); ``evaluation`` ranks completions
with raw and closure-filtered metrics.
"""

from .closure import ClosureCapError, DeductiveClosure, compute_closure
from .core import (
    BOT,
    BOT_ID,
    GCI0,
    GCI0Bot,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    GCI3Bot,
    ParseError,
    RI0,
    RI1,
    AxiomTable,
    Theory,
    TOP,
    TOP_ID,
    load_theory,
    parse_theory,
    save_theory,
    serialize_theory,
    signature_stats,
)
from .evaluation import RankingReport, RankingTask, filter_test_set, nf_f_delta, score_and_rank
from .geometry import AABox, box_distance, box_intersection, containment_measure_mu
from .losses import (
    GeometricModel,
    LossRequest,
    axiom_loss,
    box2el_loss,
    elbe_loss,
    elem_loss,
    total_loss,
)
from .normalize import load_input, normalize, parse_input
from .reasoner import RoleHierarchy, RoleLinkIndex, SubsumptionIndex, classify
from .sampling import SampleExhausted, SamplerConfig, corrupt, entailed_fraction, sample_batch
from .training import (
    TrainConfig,
    TrainingError,
    gradient,
    init_model,
    load_checkpoint,
    save_checkpoint,
    signature_hash,
    train,
)

__all__ = [
    "AABox",
    "AxiomTable",
    "BOT",
    "BOT_ID",
    "ClosureCapError",
    "DeductiveClosure",
    "GCI0",
    "GCI0Bot",
    "GCI1",
    "GCI1Bot",
    "GCI2",
    "GCI3",
    "GCI3Bot",
    "GeometricModel",
    "LossRequest",
    "ParseError",
    "RI0",
    "RI1",
    "RankingReport",
    "RankingTask",
    "RoleHierarchy",
    "RoleLinkIndex",
    "SampleExhausted",
    "SamplerConfig",
    "SubsumptionIndex",
    "Theory",
    "TOP",
    "TOP_ID",
    "TrainConfig",
    "TrainingError",
    "axiom_loss",
    "box2el_loss",
    "box_distance",
    "box_intersection",
    "classify",
    "compute_closure",
    "containment_measure_mu",
    "corrupt",
    "elbe_loss",
    "elem_loss",
    "entailed_fraction",
    "filter_test_set",
    "gradient",
    "init_model",
    "load_checkpoint",
    "load_input",
    "load_theory",
    "nf_f_delta",
    "normalize",
    "parse_input",
    "parse_theory",
    "sample_batch",
    "save_checkpoint",
    "save_theory",
    "score_and_rank",
    "serialize_theory",
    "signature_hash",
    "signature_stats",
    "total_loss",
    "train",
]

__version__ = "0.1.0"
