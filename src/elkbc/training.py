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

A step writes only the live rows of each parameter block, keeps Adam
moments for those rows alone, and equals the dense step bit for bit (see
``_Adam``).  The gradient is one fenced buffer for the whole run (see
``Gradient``): only its own methods write it, so the rows the step's pushes
and dense adds touched are the only rows not +0.  The step checks those
rows for non-finite values before it moves anything, and zeros them again
after.

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


def _check_finite(grad: Gradient) -> None:
    """Raise TrainingError when an entry of the fenced gradient is not
    finite; only its touched rows can be anything but +0, so only they are
    read."""
    for name, touched in grad.touched.items():
        g, rows = grad[name], np.flatnonzero(touched)
        if not np.isfinite(g if len(rows) == len(g) else g[rows]).all():
            raise TrainingError(f"non-finite gradient in block {name}")


def gradient(model: GeometricModel, batch: list[LossRequest]) -> Gradient:
    """Gradient of ``total_loss`` over the batch, every row of every block,
    as a fenced ``Gradient``; rejects non-finite values."""
    grad = zero_gradient(model)
    _checked_loss(model, batch, grad)
    _check_finite(grad)
    return grad


#: parameter entries per page of Adam moments, and per pass of the step's
#: arithmetic: its buffers stay cache-sized
_ADAM_PAGE = 1 << 14


class _LiveRows:
    """The live rows of one parameter block and their Adam moments.  Rows go
    live in append order (``rows``; ``is_live`` marks them), and the moments
    of places ``[i * per, (i + 1) * per)`` of that order live in page ``i``,
    so going live copies no moments already stored."""

    def __init__(self, shape: tuple):
        self.row_shape = shape[1:]
        width = int(np.prod(self.row_shape, dtype=np.int64))
        self.per = max(1, min(shape[0], _ADAM_PAGE // max(1, width)))  # rows per page
        self.is_live = np.zeros(shape[0], bool)
        self.rows = np.empty(0, np.intp)
        self.pages: list[tuple[np.ndarray, np.ndarray]] = []  # (m, v)

    def add(self, rows: np.ndarray) -> None:
        """Make ``rows`` (not yet live) live, with +0 moments: a place is
        taken once, so a fresh page's zeros serve."""
        self.is_live[rows] = True
        self.rows = np.concatenate([self.rows, rows])
        while len(self.pages) * self.per < len(self.rows):
            self.pages.append(tuple(np.zeros((self.per, *self.row_shape)) for _ in range(2)))


class _Adam:
    """Adam (with radius/offset clamping) over the live rows of each block:
    the rows that some step's gradient has touched so far.  Every other row
    has zero gradient and +0 moments, where the dense update is the
    identity: the moments stay +0, the step is ``lr * 0 / (0 + eps)``, and
    clamping keeps the row's initial value, which ``init_model`` draws
    non-negative.  So updating the live rows alone, with the same float
    operations, equals the dense step bit for bit.  Moments exist for live
    rows only (``_LiveRows``), and the arithmetic runs one moment page at a
    time through buffers reused across steps."""

    def __init__(self, model: GeometricModel, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.live = {name: _LiveRows(arr.shape) for name, arr in model.params.items()}
        self.t = 0
        self._buffers: dict[tuple, tuple[np.ndarray, ...]] = {}  # page shape -> buffers

    def step(self, params: dict[str, np.ndarray], grad: Gradient, lr: float) -> None:
        """Apply the fenced ``grad`` (``zero_gradient``'s), whose touched rows
        are its only rows not +0, then zero those rows again; raises
        TrainingError, before any parameter or moment moves, when a gradient
        entry is not finite."""
        _check_finite(grad)
        self.t += 1
        c1, c2 = 1 - self.beta1**self.t, 1 - self.beta2**self.t
        for name, g in grad.items():
            live, touched = self.live[name], grad.touched.get(name)
            if touched is not None:
                live.add(np.flatnonzero(touched & ~live.is_live))
            clamp = name.endswith("_radius") or name.endswith("_offset")
            self._update(params[name], g, live, lr, c1, c2, clamp)
        grad.zero_touched()

    def _update(self, p, g, live: _LiveRows, lr, c1, c2, clamp: bool) -> None:
        b1, b2, eps = self.beta1, self.beta2, self.eps
        shape = (live.per, *live.row_shape)
        if shape not in self._buffers:
            self._buffers[shape] = tuple(np.empty(shape) for _ in range(4))
        g_buf, p_buf, tmp_buf, upd_buf = self._buffers[shape]
        for lo, (m, v) in zip(range(0, len(live.rows), live.per), live.pages):
            hi = min(len(live.rows), lo + live.per)
            m, v, tmp, update = m[: hi - lo], v[: hi - lo], tmp_buf[: hi - lo], upd_buf[: hi - lo]
            rows = live.rows[lo:hi]
            gc = np.take(g, rows, axis=0, out=g_buf[: hi - lo], mode="clip")
            pc = np.take(p, rows, axis=0, out=p_buf[: hi - lo], mode="clip")
            # the dense step's float operations, in place where they commute
            m *= b1
            m += np.multiply(gc, 1 - b1, out=tmp)
            v *= b2
            np.multiply(gc, 1 - b2, out=tmp)
            v += np.multiply(tmp, gc, out=tmp)
            np.divide(m, c1, out=update)
            update *= lr
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += eps
            update /= tmp
            pc -= update
            if clamp:
                np.maximum(pc, 0.0, out=pc)
            p[rows] = pc


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
    filtered mode, those it rejected as entailed, and under ``losses`` and
    ``active`` the mean over the epoch's steps of each (variant, polarity)
    group's loss and of the fraction of its axioms with a nonzero loss,
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
    grad = zero_gradient(model)  # one fenced buffer; each step zeros the rows it touched
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
        # "GCI0/positive" -> one mean, and one active fraction, per step
        group_means: dict[str, list[float]] = {}
        group_active: dict[str, list[float]] = {}
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
                    group_active.setdefault(key, []).append(grad.group_active[key])
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
                "active": {key: sum(fracs) / len(fracs) for key, fracs in group_active.items()},
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
