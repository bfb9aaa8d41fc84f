"""Gradient-based optimization of geometric models.

The total objective of a step is the sum of per-(variant, polarity) group
means over one variant batch, a row slice of ``Theory.table``: its positive
axioms plus (depending on the negative-loss scope) freshly sampled
corruptions of them, one ``LossRequest`` per id table.  Gradients are
hand-derived in the loss evaluators and checked against central finite
differences in the test suite; Adam (beta1 0.9, beta2 0.999, eps 1e-8) applies
them, radii and offsets are clamped to stay non-negative after every step, a
plateau scheduler multiplies the learning rate by 0.1 (floor 1e-6, never
raising a lower rate) when the validation loss stops improving, and training
stops early after a fixed window of non-improving epochs.  Validation loss is
the positive-only total loss on the validation axioms (falling back to the
training positives).

A step writes only the live rows of each parameter block, and equals the
dense step bit for bit (see ``_Adam``); the gradient is one buffer for the
whole run, and each step zeros again the rows it touched.

Everything is deterministic given (seed, config, theory): initialization and
shuffling derive PCG64 streams from the run seed, and each step's negatives
come from the sampler's counter-based stream under a seed derived from
(run seed, epoch, step).

Checkpoints are binary: magic ``ELKC``, a little-endian uint32 header length,
a UTF-8 JSON header (model tag, dimension, signature hash, hyperparameters,
block names and shapes), then the parameter blocks as little-endian float64
arrays in header order.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .closure import DeductiveClosure
from .core import VARIANTS, AxiomTable, NormalizedAxiom, Theory
from .losses import (
    LOSS_VARIANTS,
    MODEL_TAGS,
    PARAM_LAYOUT,
    GeometricModel,
    Gradient,
    LossRequest,
    param_shapes,
    total_loss,
    zero_gradient,
)
from .sampling import SamplerConfig, sample_batch

_CHECKPOINT_MAGIC = b"ELKC"


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    model: str = "elem"
    dim: int = 50
    learning_rate: float = 0.001
    margin: float = 0.0
    epsilon: float = 0.01
    delta: float = 1.0
    reg_lambda: float = 0.0
    epochs: int = 100
    batch_size: int = 32768
    seed: int = 0
    negative_scope: str = "all-forms"  # all-forms | gci2-only | none
    negatives_per_positive: int = 1
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    patience: int = 10
    early_stop: int = 20
    lr_floor: float = 1e-6
    validation: Optional[list[NormalizedAxiom]] = None

    def __post_init__(self):
        for ok, message in (
            (self.epochs >= 1, "epochs >= 1"),
            (self.batch_size >= 1, "batch size >= 1"),
            (self.dim >= 2, "dimension >= 2"),
            (self.negatives_per_positive >= 1, "negatives per positive >= 1"),
            (self.learning_rate > 0, "learning rate > 0"),
            (self.patience >= 0, "patience >= 0"),
            (self.early_stop >= 1, "early stop >= 1"),
            # an empty validation loss is constant, so the schedule would fire on no signal
            (self.validation is None or len(self.validation) > 0, "validation set not empty"),
        ):
            if not ok:
                raise ValueError(message)
        if self.model not in MODEL_TAGS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_TAGS}")
        if self.negative_scope not in ("all-forms", "gci2-only", "none"):
            raise ValueError(f"unknown negative scope {self.negative_scope!r}")


def init_model(
    tag: str,
    n_concepts: int,
    n_roles: int,
    dim: int,
    seed: int,
    margin: float = 0.0,
    epsilon: float = 0.01,
    delta: float = 1.0,
    reg_lambda: float = 0.0,
) -> GeometricModel:
    """Seeded initialization: centers uniform in [-0.5, 0.5]^n (L2-normalized
    for the ball model), radii/offsets uniform in [0.05, 0.3], bumps uniform
    in [-0.1, 0.1]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(tag, n_concepts, n_roles, dim).items():
        if name == "class_bump":
            arr = rng.uniform(-0.1, 0.1, size=shape)
        elif name.endswith("_radius") or name.endswith("_offset"):
            arr = rng.uniform(0.05, 0.3, size=shape)
        else:
            arr = rng.uniform(-0.5, 0.5, size=shape)
        params[name] = arr
    if tag == "elem":
        centers = params["class_center"]
        norms = np.linalg.norm(centers, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        params["class_center"] = centers / norms
    return GeometricModel(
        tag=tag,
        dim=dim,
        n_concepts=n_concepts,
        n_roles=n_roles,
        params=params,
        margin=margin,
        epsilon=epsilon,
        delta=delta,
        reg_lambda=reg_lambda,
    )


def _checked_loss(model: GeometricModel, batch: list[LossRequest], grad: Gradient) -> float:
    """``total_loss`` over the batch, its gradient added into ``grad``;
    raises TrainingError when the loss is not finite."""
    loss = total_loss(model, batch, grad=grad)
    if not math.isfinite(loss):
        raise TrainingError(f"non-finite loss {loss}")
    return loss


def _check_finite(name: str, g: np.ndarray) -> None:
    if not np.all(np.isfinite(g)):
        raise TrainingError(f"non-finite gradient in block {name}")


def gradient(model: GeometricModel, batch: list[LossRequest]) -> Gradient:
    """Gradient of ``total_loss`` over the batch, every row of every block;
    rejects non-finite values."""
    grad = zero_gradient(model)
    _checked_loss(model, batch, grad)
    for name, g in grad.items():
        _check_finite(name, g)
    return grad


class _Adam:
    """Adam (with radius/offset clamping) over the live rows of each block:
    the rows whose gradient has been nonzero, or NaN, at some step so far.
    Every other row has zero gradient and +0 moments, where the dense update
    is the identity: the moments stay +0, the step is ``lr * 0 / (0 + eps)``,
    and clamping keeps the row's initial value, which ``init_model`` draws
    non-negative.  So updating the live rows alone, with the same float
    operations, equals the dense step bit for bit."""

    def __init__(self, model: GeometricModel, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = zero_gradient(model)
        self.v = zero_gradient(model)
        self.live = {name: np.zeros(len(arr), bool) for name, arr in model.params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grad: Gradient, lr: float) -> None:
        """Apply ``grad`` and zero its rows again; raises TrainingError, before
        any parameter moves, when a gradient entry is not finite."""
        rows = {}
        for name, g in grad.items():
            touched = g.any(axis=tuple(range(1, g.ndim)))  # NaN counts as nonzero
            live = self.live[name]
            live |= touched
            # a block whose rows are all live is updated as one slice, in place
            sel = slice(None) if live.all() else np.flatnonzero(live)
            g_sel = g[sel]
            _check_finite(name, g_sel)
            rows[name] = touched, sel, g_sel
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for name, (touched, sel, g) in rows.items():
            p, m, v = params[name][sel], self.m[name][sel], self.v[name][sel]
            # the dense step's float operations, in place where they commute
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = m / c1 * lr
            update /= np.sqrt(v / c2) + self.eps
            p -= update
            if name.endswith("_radius") or name.endswith("_offset"):
                np.maximum(p, 0.0, out=p)
            if not isinstance(sel, slice):  # fancy indexing gathered copies
                params[name][sel], self.m[name][sel], self.v[name][sel] = p, m, v
            grad[name][touched] = 0.0


def _step_seed(seed: int, epoch: int, step: int) -> int:
    return int(np.random.SeedSequence((seed, 11, epoch, step)).generate_state(1, np.uint64)[0])


def train(
    theory: Theory,
    cfg: TrainConfig,
    dc: Optional[DeductiveClosure] = None,
) -> tuple[GeometricModel, list[dict]]:
    """Optimize a fresh model against the theory's loss-bearing axioms.

    Batches are built per variant and the variants cycle each step.  Returns
    the trained model and a per-epoch log (train loss, validation loss,
    learning rate, the negatives ``sample_batch`` skipped because their
    candidate pools were exhausted, the random candidates it drew and, in
    filtered mode, those it rejected as entailed, and under ``losses`` the
    mean over the epoch's steps of each (variant, polarity) group's loss,
    taken over the steps that hold the group).
    """
    table = theory.table
    rows_of = {tag: np.flatnonzero(table.codes == VARIANTS.index(tag)) for tag in LOSS_VARIANTS}
    rows_of = {tag: rows for tag, rows in rows_of.items() if len(rows)}
    if not rows_of:
        raise TrainingError("theory has no loss-bearing axioms")
    if cfg.sampler.mode in ("filtered", "biased") and dc is None:
        raise TrainingError(f"{cfg.sampler.mode} negative sampling needs a closure")

    model = init_model(
        cfg.model,
        theory.n_concepts,
        theory.n_roles,
        cfg.dim,
        cfg.seed,
        margin=cfg.margin,
        epsilon=cfg.epsilon,
        delta=cfg.delta,
        reg_lambda=cfg.reg_lambda,
    )
    adam = _Adam(model)
    grad = zero_gradient(model)  # one buffer; each step zeros the rows it touched
    lr = cfg.learning_rate
    if cfg.validation is None:
        validation = table[np.concatenate(list(rows_of.values()))]
    else:
        validation = AxiomTable.from_axioms(cfg.validation)
    val_requests = [LossRequest(validation, "positive")]

    log: list[dict] = []
    best_val = math.inf
    plateau = 0
    stall = 0
    for epoch in range(cfg.epochs):
        shuffle_rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((cfg.seed, 13, epoch)))
        )
        queues: list[tuple[str, list[np.ndarray]]] = []
        for tag, rows in rows_of.items():
            rows = rows[shuffle_rng.permutation(len(rows))]
            chunks = [rows[i : i + cfg.batch_size] for i in range(0, len(rows), cfg.batch_size)]
            queues.append((tag, chunks))

        epoch_loss = 0.0
        group_means: dict[str, list[float]] = {}  # "GCI0/positive" -> one mean per step
        skipped = 0
        sampler_stats = {"drawn": 0, "entailed_rejected": 0}
        step = 0
        while any(chunks for _, chunks in queues):
            for tag, chunks in queues:
                if not chunks:
                    continue
                batch_axioms = table[chunks.pop(0)]
                requests = [LossRequest(batch_axioms, "positive")]
                wants_negatives = cfg.negative_scope == "all-forms" or (
                    cfg.negative_scope == "gci2-only" and tag == "GCI2"
                )
                if wants_negatives:
                    negatives, n_skipped = sample_batch(
                        batch_axioms, cfg.negatives_per_positive, cfg.sampler, dc,
                        seed=_step_seed(cfg.seed, epoch, step), n_concepts=theory.n_concepts,
                        stats=sampler_stats,
                    )
                    requests.append(LossRequest(negatives, "negative"))
                    skipped += n_skipped
                loss = _checked_loss(model, requests, grad)
                adam.step(model.params, grad, lr)
                epoch_loss += loss
                for key, mean in grad.group_means.items():
                    group_means.setdefault(key, []).append(mean)
                step += 1

        val_loss = total_loss(model, val_requests)
        log.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / max(step, 1),
                "val_loss": val_loss,
                "lr": lr,
                "negatives_skipped": skipped,
                "negatives_drawn": sampler_stats["drawn"],
                "negatives_entailed_rejected": sampler_stats["entailed_rejected"],
                "losses": {key: sum(means) / len(means) for key, means in group_means.items()},
            }
        )
        if val_loss < best_val:
            best_val = val_loss
            plateau = 0
            stall = 0
        else:
            plateau += 1
            stall += 1
            if plateau > cfg.patience:
                # the floor stops the decay; it never raises a rate already below it
                lr = max(lr * 0.1, min(lr, cfg.lr_floor))
                plateau = 0
            if stall >= cfg.early_stop:
                break
    return model, log


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def signature_hash(theory: Theory) -> str:
    h = hashlib.sha256()
    for name in theory.signature.concepts.names():
        h.update(name.encode("utf-8") + b"\n")
    h.update(b"\x00")
    for name in theory.signature.roles.names():
        h.update(name.encode("utf-8") + b"\n")
    return h.hexdigest()


def save_checkpoint(
    model: GeometricModel, path, sig_hash: str = "", extra: Optional[dict] = None
) -> None:
    header = {
        "model": model.tag,
        "dim": model.dim,
        "n_concepts": model.n_concepts,
        "n_roles": model.n_roles,
        "margin": model.margin,
        "epsilon": model.epsilon,
        "delta": model.delta,
        "reg_lambda": model.reg_lambda,
        "signature_hash": sig_hash,
        "blocks": [
            {"name": name, "shape": list(arr.shape)} for name, arr in model.params.items()
        ],
    }
    if extra:
        header["config"] = extra
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in model.params:
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[GeometricModel, dict]:
    """Read a checkpoint; raises ValueError for a bad magic, truncated data,
    trailing bytes, or blocks that disagree with ``param_shapes``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint: {path}")
    hlen = struct.unpack_from("<I", blob, 4)[0] if len(blob) >= 8 else None
    if hlen is None or len(blob) < 8 + hlen:
        raise ValueError(f"{path}: checkpoint truncated inside its header")
    offset = 8 + hlen
    header = json.loads(blob[8:offset].decode("utf-8"))
    if header["model"] not in PARAM_LAYOUT:
        raise ValueError(f"{path}: unknown model tag {header['model']!r}")
    sizes = {key: header[key] for key in ("n_concepts", "n_roles", "dim")}
    expected = param_shapes(header["model"], **sizes)
    found = {block["name"]: tuple(block["shape"]) for block in header["blocks"]}
    if found != expected:
        raise ValueError(f"{path}: parameter blocks {found} disagree with {expected} for {sizes}")
    params = {}
    for name, shape in found.items():
        count = int(np.prod(shape))
        if len(blob) < offset + 8 * count:
            raise ValueError(f"{path}: checkpoint truncated inside block {name}")
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        params[name] = data.reshape(shape).astype(np.float64)
        offset += 8 * count
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last block")
    model = GeometricModel(
        tag=header["model"],
        dim=header["dim"],
        n_concepts=header["n_concepts"],
        n_roles=header["n_roles"],
        params=params,
        margin=header["margin"],
        epsilon=header["epsilon"],
        delta=header["delta"],
        reg_lambda=header["reg_lambda"],
    )
    return model, header
