"""Positive and negative losses of the three geometric model families, over
every normal form that carries a loss (role inclusions carry none).

Families:

* ``elem``    -- concepts are open n-balls (center, radius), roles are
                 translation vectors; losses add ``| ||center|| - 1 |``
                 unit-sphere regularizers for the class centers they touch.
* ``elbe``    -- concepts are axis-aligned boxes (center, offset), roles are
                 translation vectors; conjunction losses go through the box
                 intersection (signed offsets signal emptiness).
* ``box2el``  -- concepts are boxes with an additional per-concept bump
                 vector; each role has a head box and a tail box.  ``delta``
                 is the target containment violation of the existential
                 negative losses; ``reg_lambda`` weights the mean bump norm
                 added by ``total_loss``.

Each family is a table from (variant, polarity) to a sum of terms, and each
term is one of a few geometric primitives:

* ball hinge   ``max(0, s*||dc|| + r + g*margin)``;
* box hinge    ``||max(0, s*|dc| + o + g*margin)||``: containment for
               ``s = 1, o = o_in - o_out``, disjointness for
               ``s = -1, o = o_a + o_b``; as a target it becomes
               ``(delta - mu)^2`` (the box2el existential negatives);
* extent       a radius ``r`` or an offset norm ``||o||``, and its floor
               ``max(0, epsilon - extent)``; an intersection's extent is
               ``||max(0, o)||``;
* regularizer  ``| ||c|| - 1 |`` for a ball center.

A primitive's sides (``dc``, ``r``, ``o``, ``c``) are signed sums of parameter
rows, written over the slot columns of the variant: concept slots in ``.nf``
order, then the role.  ``"c0 + v - c1"`` is the center of concept column 0
plus the role vector minus the center of concept column 1; ``ic`` and ``io``
are the center and offset of the signed intersection of the boxes in concept
columns 0 and 1.

Positive losses are hinge containment conditions: with margin 0 a zero loss
certifies the axiom's geometric truth condition (ball/box containment, with
role translation for existentials).  Negative losses penalize the same
condition's satisfaction: separation hinges for balls/boxes, minimum
radius/offset floors (``epsilon``) for the Bot forms, and squared
``(delta - mu)`` targets for the box2el existential forms.

A batch (``AxiomTable`` columns taken as they are, or a list of dataclasses
converted to a table) and a single axiom take one code path.  Only when a gradient
is requested does a primitive compute its derivative with respect to its
sides, and ``_Batch.push`` records it, with the parameter rows the sides sum,
in the ``Gradient``; at hinge kinks the inactive branch (derivative zero) is
taken, and intersection ties take the first box's branch.  The recorded
pushes settle into the gradient arrays once per ``total_loss`` or
``batch_losses`` call (earlier when they reach the gradient's size), one
``np.bincount`` per block, in push order, so the result equals adding each
push in turn.  Without a gradient a term computes its (rows, dim)
intermediates in place, in one scratch buffer of the batch; a side's sum
adds into the array its first operation made.  The values are those of the
same ufuncs applied out of place.  Evaluation is pure given (model, request);
parameter mutation happens only in the trainer.
"""

from __future__ import annotations

import dataclasses
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .core import _SLOT_KINDS, RIGHTMOST_COL, VARIANTS, AxiomTable, NormalizedAxiom

MODEL_TAGS = ("elem", "elbe", "box2el")

#: parameter block name -> ("concept"|"role", per-entry shape suffix)
PARAM_LAYOUT = {
    "elem": {
        "class_center": ("concept", "dim"),
        "class_radius": ("concept", None),
        "role_vector": ("role", "dim"),
    },
    "elbe": {
        "class_center": ("concept", "dim"),
        "class_offset": ("concept", "dim"),
        "role_vector": ("role", "dim"),
    },
    "box2el": {
        "class_center": ("concept", "dim"),
        "class_offset": ("concept", "dim"),
        "class_bump": ("concept", "dim"),
        "role_head_center": ("role", "dim"),
        "role_head_offset": ("role", "dim"),
        "role_tail_center": ("role", "dim"),
        "role_tail_offset": ("role", "dim"),
    },
}

LOSS_VARIANTS = ("GCI0", "GCI1", "GCI2", "GCI3", "GCI0_BOT", "GCI1_BOT", "GCI3_BOT")


@dataclass
class GeometricModel:
    """Learnable parameters plus hyperparameters for one model family."""

    tag: str
    dim: int
    n_concepts: int
    n_roles: int
    params: dict[str, np.ndarray]
    margin: float = 0.0
    epsilon: float = 0.01
    delta: float = 1.0
    reg_lambda: float = 0.0

    def __post_init__(self):
        if self.tag not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.tag!r}")
        expected = set(PARAM_LAYOUT[self.tag])
        if set(self.params) != expected:
            raise ValueError(f"parameter blocks {sorted(self.params)} != {sorted(expected)}")

    def copy(self) -> "GeometricModel":
        return dataclasses.replace(self, params={k: v.copy() for k, v in self.params.items()})

    def n_parameters(self) -> int:
        return sum(v.size for v in self.params.values())


@dataclass(frozen=True)
class LossRequest:
    """One axiom, or an ``AxiomTable`` of axioms, under one polarity."""

    axiom: Union[NormalizedAxiom, AxiomTable]
    polarity: str  # "positive" | "negative"
    #: (tag, rows) per variant in order of first occurrence, converted once per request
    groups: list[tuple[str, AxiomTable]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.polarity not in ("positive", "negative"):
            raise ValueError(f"unknown polarity {self.polarity!r}")
        table = self.axiom if isinstance(self.axiom, AxiomTable) else [self.axiom]
        object.__setattr__(self, "groups", AxiomTable.from_axioms(table).variants())
        for tag, _ in self.groups:
            if tag not in LOSS_VARIANTS:
                raise ValueError(f"no loss for axiom variant {tag}")


#: the fewest pending push entries at which ``Gradient`` settles early;
#: above this floor the bound is the gradient's own size
_SETTLE_FLOOR = 1 << 16

#: the bits of -0.0 read as an int64
_NEG_ZERO = np.float64(-0.0).view(np.int64)


class Gradient(dict[str, np.ndarray]):
    """Parameter block name -> derivative array.

    Loss terms do not write into the arrays: ``push`` records a derivative
    with the rows it belongs to, and ``settle`` adds each block's records in
    with one ``np.bincount`` over the rows they touch.  Each entry's sum starts
    from its current value and adds the pushes in push order, so it equals
    adding them one push at a time bit for bit.  ``total_loss`` settles once
    per call, before the bump regularizer, and ``batch_losses`` at the end of
    a call.  Pending entries also settle as soon as they reach the
    gradient's own size (at least ``_SETTLE_FLOOR``), a larger push being
    recorded in row slices of that size: that bounds the settle's
    temporaries and how long a push's arrays stay alive.  ``touched`` holds
    a boolean row mask per block: the rows settled or densely added since
    ``zero_touched`` last cleared them.

    ``zero_gradient`` fences its arrays: they are read-only, and only
    ``settle``, ``add_dense`` and ``zero_touched`` write them.  So every row
    of a fenced block that ``touched`` does not mark is +0, and a reader of
    the derivatives needs only the touched rows.  Arrays given to the
    constructor keep their own flags.

    ``total_loss`` also sets, per (variant, polarity) group it summed, keyed
    ``"GCI0/positive"`` in group order, ``group_means`` (the group's mean
    loss) and ``group_active`` (the fraction of its axioms with a nonzero
    loss)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.group_means: dict[str, float] = {}
        self.group_active: dict[str, float] = {}
        self.touched: dict[str, np.ndarray] = {}
        # block -> (rows, derivative, factor) in push order
        self._pushes: dict[str, list[tuple[np.ndarray, np.ndarray, float]]] = {}
        self._pending = 0
        self._budget = max(_SETTLE_FLOOR, sum(g.size for g in self.values()))

    def push(self, block: str, rows: np.ndarray, d: np.ndarray, factor: float) -> None:
        """Record ``factor * d`` for adding onto ``rows`` of the block, rows in
        order; ``d`` must not change until the push settles."""
        width = max(1, int(np.prod(self[block].shape[1:], dtype=np.int64)))
        per = max(1, self._budget // width)  # rows per slice
        for lo in range(0, len(rows), per):
            part = rows[lo : lo + per]
            self._pushes.setdefault(block, []).append((part, d[lo : lo + per], factor))
            self._pending += len(part) * width
            if self._pending >= self._budget:
                self.settle()

    def settle(self) -> None:
        """Add every recorded push into its block."""
        for block, pushes in self._pushes.items():
            self._settle(block, pushes)
        self._pushes, self._pending = {}, 0

    def _settle(self, block: str, pushes) -> None:
        g = self[block]
        row_shape = g.shape[1:]
        width = int(np.prod(row_shape, dtype=np.int64))
        hit = np.zeros(len(g), bool)
        for rows, _, _ in pushes:
            hit[rows] = True
        rows = np.flatnonzero(hit)
        place = np.empty(len(g), np.intp)  # touched row -> its place among them
        place[rows] = np.arange(len(rows))
        cur = g[rows]
        # bincount starts every sum at +0, so a start of (signed) zeros need
        # not be added; -0 starts are mended below
        start = cur.size if cur.any() else 0  # NaN counts as nonzero
        size = start + sum(len(r) for r, _, _ in pushes) * width
        index, weights = np.empty(size, np.intp), np.empty(size)
        flat = np.arange(cur.size).reshape(len(rows), width)  # each touched entry's bin
        if start:
            index[:start] = flat.reshape(-1)
            weights[:start] = cur.reshape(-1)
        at = start
        for r, d, factor in pushes:
            end = at + len(r) * width
            np.take(flat, place[r], axis=0, out=index[at:end].reshape(len(r), width), mode="clip")
            np.multiply(d, factor, out=weights[at:end].reshape(len(r), *row_shape))
            at = end
        out = np.bincount(index, weights, cur.size).reshape(cur.shape)
        _mend_negative_zeros(out, cur, index[start:], weights[start:])
        with _unfenced(g):
            g[rows] = out
        self._touch(block, rows)

    def add_dense(self, block: str, values: np.ndarray) -> None:
        """Add ``values`` onto every row of the block, after its pushes."""
        self.settle()
        with _unfenced(self[block]) as g:
            g += values
        self._touch(block, slice(None))

    def zero_touched(self) -> None:
        """Write +0 into the touched rows of every block and clear the masks,
        so that a fenced gradient is all +0 again."""
        for block, touched in self.touched.items():
            rows = np.flatnonzero(touched)
            with _unfenced(self[block]) as g:
                g[rows] = 0.0
            touched[rows] = False

    def _touch(self, block: str, rows) -> None:
        if block not in self.touched:
            self.touched[block] = np.zeros(len(self[block]), bool)
        self.touched[block][rows] = True


@contextmanager
def _unfenced(g: np.ndarray):
    """``g``, writeable for the block's duration; a fenced (read-only) array
    is read-only again after it."""
    fenced = not g.flags.writeable
    g.flags.writeable = True
    try:
        yield g
    finally:
        g.flags.writeable = not fenced


def _mend_negative_zeros(out, cur, index, weights) -> None:
    """Adding in order from a -0 start gives -0 when every push is -0 too,
    where the bincount's +0 start gives +0: write those entries back as -0."""
    flat = out.reshape(-1)
    neg = np.flatnonzero(cur.reshape(-1).view(np.int64) == _NEG_ZERO)
    neg = neg[flat[neg] == 0]
    if len(neg):
        other = np.zeros(len(flat), bool)  # entries that some push other than -0 reached
        other[index[weights.view(np.int64) != _NEG_ZERO]] = True
        flat[neg[~other[neg]]] = -0.0


def zero_gradient(model: GeometricModel) -> Gradient:
    """A fenced gradient of +0 arrays shaped like the model's blocks."""
    # np.zeros maps its pages lazily: rows no derivative reaches are never written
    grad = Gradient({k: np.zeros(v.shape, v.dtype) for k, v in model.params.items()})
    for g in grad.values():
        g.flags.writeable = False
    return grad


def param_shapes(tag: str, n_concepts: int, n_roles: int, dim: int) -> dict[str, tuple]:
    shapes = {}
    for name, (kind, suffix) in PARAM_LAYOUT[tag].items():
        count = n_concepts if kind == "concept" else n_roles
        shapes[name] = (count, dim) if suffix == "dim" else (count,)
    return shapes


# ---------------------------------------------------------------------------
# slot columns, sides and the gradient scatter
# ---------------------------------------------------------------------------


def _norm(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row norms of ``v``; its squares go into ``out`` (a new array when None)."""
    return np.sqrt(np.sum(np.multiply(v, v, out=out), axis=-1))


def _unit(v: np.ndarray, nrm: np.ndarray) -> np.ndarray:
    """``v`` over its row norms ``nrm``; +0 rows where a norm is not > 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u = v / nrm[..., None]
    u[~(nrm > 0)] = 0.0
    return u


_BLOCKS = {
    "c": "class_center",
    "r": "class_radius",
    "o": "class_offset",
    "b": "class_bump",
    "v": "role_vector",
    "hc": "role_head_center",
    "ho": "role_head_offset",
    "tc": "role_tail_center",
    "to": "role_tail_offset",
    "ic": "ic",
    "io": "io",
}

#: (parameter block, column, sign) terms; column -1 is the role column
Side = tuple[tuple[str, int, float], ...]


def _side(expr: str) -> Side:
    """Parse ``"c0 + v - c1"``: a block letter, then a concept column digit
    (none for role blocks and the intersection ``ic``/``io``)."""
    return tuple(
        (_BLOCKS[name], int(col) if col else -1, -1.0 if sign == "-" else 1.0)
        for sign, name, col in re.findall(r"([+-]?)\s*([a-z]+)(\d?)", expr)
    )


class _Rows(dict):
    """Parameter block -> the rows ``index`` selects from the block's array in
    ``source``, taken on first use.  ``source`` is the parameter dict or
    another ``_Rows``, ``index`` an id array or a slice (a view, no copy)."""

    def __init__(self, source, index):
        super().__init__()
        self.source, self.index = source, index

    def __missing__(self, block: str) -> np.ndarray:
        rows = self[block] = self.source[block][self.index]
        return rows


class _Batch:
    """The slot columns of one (variant, polarity) group.  Gathers the
    parameter rows of each (block, column) once, into that column's
    ``_Rows``, and, when ``grad`` is given, pushes derivatives with respect to
    a side onto the rows that side sums.  The ranking form passes its own
    ``rows``, shared between passes, and ``cols`` None; every column then has
    one row per row of the batch, so no operand broadcasts.  Without a
    gradient the terms compute their (rows, dim) intermediates in one
    ``scratch`` buffer (made on first use unless given)."""

    def __init__(
        self, model: GeometricModel, cols, grad: Gradient | None, weight: float,
        rows: list[_Rows] | None = None, scratch: np.ndarray | None = None,
    ):
        self.model, self.cols, self.grad, self.weight = model, cols, grad, weight
        self._rows = rows or [_Rows(model.params, c) for c in cols]
        self._scratch = scratch
        self._intersection: dict[str, np.ndarray] = {}
        # derivatives with respect to the intersection, and their axiom mask
        self._pending: dict[str, np.ndarray] = {}
        self._pending_active: np.ndarray | None = None

    def gather(self, block: str, col: int) -> np.ndarray:
        if block in ("ic", "io"):
            if not self._intersection:
                self._intersect()
            return self._intersection[block]
        return self._rows[col][block]

    def scratch(self) -> np.ndarray | None:
        """The (rows, dim) buffer a term computes in when no gradient is
        pushed; None with a gradient, whose terms keep their intermediates."""
        if self.grad is not None:
            return None
        if self._scratch is None:
            self._scratch = np.empty((len(self.cols[0]), self.model.dim))
        return self._scratch

    def _intersect(self) -> None:
        ca, oa = self.gather("class_center", 0), self.gather("class_offset", 0)
        cb, ob = self.gather("class_center", 1), self.gather("class_offset", 1)
        lower_a, lower_b = ca - oa, cb - ob
        upper_a, upper_b = ca + oa, cb + ob
        self._a_lower = lower_a >= lower_b  # ties take the first box's branch
        self._a_upper = upper_a <= upper_b
        lower = np.where(self._a_lower, lower_a, lower_b)
        upper = np.where(self._a_upper, upper_a, upper_b)
        self._intersection["ic"] = (lower + upper) / 2.0
        self._intersection["io"] = (upper - lower) / 2.0

    def value(
        self, side: Side, start: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The side's signed row sum, added left to right onto ``start``.  Its
        first operation writes into ``out`` (a new array when None) and each
        later one into that same array; a side of one positive row and no
        ``start`` is the gathered row itself, which must not be written."""
        acc = start
        for block, col, sign in side:
            x = self.gather(block, col)
            if acc is None and sign > 0:
                acc = x
                continue
            if acc is None:
                acc = np.negative(x, out=out)
            else:
                acc = (np.add if sign > 0 else np.subtract)(acc, x, out=out)
            out = acc
        return acc

    def push(self, side: Side, d: np.ndarray, active: np.ndarray | None = None) -> None:
        """Push ``d``, the derivative with respect to the side of the axioms
        the mask ``active`` selects (all when None), onto the parameter rows
        the side sums.  One term of a table row reads the intersection; its
        derivatives wait for ``flush``."""
        for block, col, sign in side:
            if block in ("ic", "io"):
                self._pending[block] = sign * d
                self._pending_active = active
            else:
                idx = self.cols[col] if active is None else self.cols[col][active]
                # weight * (sign * d) equals (weight * sign) * d: sign is +-1
                self.grad.push(block, idx, d, self.weight * sign)

    def flush(self) -> None:
        """Route the intersection's derivatives onto the two boxes it meets:
        its lower corner is the winning box's ``c - o``, its upper ``c + o``."""
        if not self._pending:
            return
        active = self._pending_active
        d_offset = self._pending["io"]
        d_center = self._pending.get("ic", np.zeros_like(d_offset))
        d_lower = d_center / 2.0 - d_offset / 2.0
        d_upper = d_center / 2.0 + d_offset / 2.0
        al = self._a_lower.astype(np.float64)
        au = self._a_upper.astype(np.float64)
        if active is not None:
            al, au = al[active], au[active]
        self.push(_side("c0"), d_lower * al + d_upper * au, active)
        self.push(_side("o0"), -d_lower * al + d_upper * au, active)
        self.push(_side("c1"), d_lower * (1 - al) + d_upper * (1 - au), active)
        self.push(_side("o1"), -d_lower * (1 - al) + d_upper * (1 - au), active)


# ---------------------------------------------------------------------------
# geometric primitives
# ---------------------------------------------------------------------------

Term = Callable[[_Batch], np.ndarray]


def _ball(s: float, dc: str, r: str, g: float) -> Term:
    """Ball hinge ``max(0, s*||dc|| + r + g*margin)``."""
    dc_side, r_side = _side(dc), _side(r)

    def term(b: _Batch) -> np.ndarray:
        buf = b.scratch()
        diff = b.value(dc_side, out=buf)
        nrm = _norm(diff, out=buf)
        arg = s * nrm + (b.value(r_side) + g * b.model.margin)
        act = arg > 0
        if b.grad is not None and act.any():
            b.push(dc_side, _unit(diff[act], nrm[act]) * s, act)
            b.push(r_side, np.ones(act.sum()), act)
        return np.maximum(0.0, arg)

    return term


def _box(s: float, dc: str, o: str, g: float, target: bool = False) -> Term:
    """Box hinge ``mu = ||max(0, s*|dc| + o + g*margin)||`` (no ``dc`` for
    ``s = 0``), or with ``target`` the squared target ``(delta - mu)^2``."""
    dc_side, o_side = _side(dc), _side(o)

    def term(b: _Batch) -> np.ndarray:
        # without a gradient every step below writes into the one scratch buffer
        buf = b.scratch()
        diff = start = None
        if s:
            diff = b.value(dc_side, out=buf)
            start = np.abs(diff, out=buf)
            if s < 0:
                np.negative(start, out=start)
        t = b.value(o_side, start, out=start)
        # adding a zero margin changes at most the sign of a zero, which
        # the squares below erase; only a gradient keeps that sign
        if g and (b.model.margin or buf is None):
            t = np.add(t, g * b.model.margin, out=buf)
        m = np.maximum(0.0, t, out=buf)
        mu = _norm(m, out=buf)
        if b.grad is not None:
            d = _unit(m, mu)
            if target:
                d = d * (-2.0 * (b.model.delta - mu))[:, None]
            if s:
                b.push(dc_side, d * (s * np.sign(diff)))
            b.push(o_side, d)
        return (b.model.delta - mu) ** 2 if target else mu

    return term


def _extent(x: str, floor: bool = False, clamp: bool = False) -> Term:
    """Extent ``e`` of a radius (``e = r``) or an offset (``e = ||o||``, of
    ``max(0, o)`` with ``clamp``); with ``floor``, ``max(0, epsilon - e)``."""
    x_side = _side(x)

    def term(b: _Batch) -> np.ndarray:
        v = b.value(x_side)
        buf = b.scratch() if v.ndim > 1 else None
        if clamp:
            v = np.maximum(0.0, v, out=buf)
        e = v if v.ndim == 1 else _norm(v, out=buf)
        if not floor:
            if b.grad is not None:
                b.push(x_side, np.ones_like(v) if v.ndim == 1 else _unit(v, e))
            return e
        arg = b.model.epsilon - e
        act = arg > 0
        if b.grad is not None and act.any():
            d = np.ones(act.sum()) if v.ndim == 1 else _unit(v[act], e[act])
            b.push(x_side, -d, act)
        return np.maximum(0.0, arg)

    return term


def _reg(c: str) -> Term:
    """Unit-sphere regularizer ``| ||c|| - 1 |``."""
    c_side = _side(c)

    def term(b: _Batch) -> np.ndarray:
        v = b.value(c_side)
        nrm = _norm(v, out=b.scratch())
        if b.grad is not None:
            b.push(c_side, np.sign(nrm - 1.0)[:, None] * _unit(v, nrm))
        return np.abs(nrm - 1.0)

    return term


# ---------------------------------------------------------------------------
# one table per family: (variant, polarity) -> summed terms
# ---------------------------------------------------------------------------

_UNARY_BOT = ("GCI0_BOT", "GCI3_BOT")  # one concept column each

_ELEM: dict[tuple[str, str], list[Term]] = {
    ("GCI0", "positive"): [_ball(1, "c0 - c1", "r0 - r1", -1), _reg("c0"), _reg("c1")],
    ("GCI0", "negative"): [_ball(-1, "c0 - c1", "r0 + r1", 1), _reg("c0"), _reg("c1")],
    ("GCI1", "positive"): [
        _ball(1, "c0 - c1", "-r0 - r1", -1),
        _ball(1, "c0 - c2", "-r0", -1),
        _ball(1, "c1 - c2", "-r1", -1),
        _reg("c0"), _reg("c1"), _reg("c2"),
    ],
    # overlap demanded between A and B, with E's center pushed out
    ("GCI1", "negative"): [
        _ball(1, "c0 - c1", "-r0 - r1", -1),
        _ball(-1, "c0 - c2", "r0", 1),
        _ball(-1, "c1 - c2", "r1", 1),
        _reg("c0"), _reg("c1"), _reg("c2"),
    ],
    ("GCI2", "positive"): [_ball(1, "c0 + v - c1", "r0 - r1", -1), _reg("c0"), _reg("c1")],
    ("GCI2", "negative"): [_ball(-1, "c0 + v - c1", "r0 + r1", 1), _reg("c0"), _reg("c1")],
    ("GCI3", "positive"): [_ball(1, "c0 - v - c1", "-r0 - r1", -1), _reg("c0"), _reg("c1")],
    ("GCI3", "negative"): [_ball(-1, "c0 - v - c1", "r0 + r1", 1), _reg("c0"), _reg("c1")],
    ("GCI1_BOT", "positive"): [_ball(-1, "c0 - c1", "r0 + r1", 1), _reg("c0"), _reg("c1")],
    ("GCI1_BOT", "negative"): [_ball(1, "c0 - c1", "-r0 - r1", -1), _reg("c0"), _reg("c1")],
    # the radius floor carries no regularizer, as printed
    **{(tag, "positive"): [_extent("r0"), _reg("c0")] for tag in _UNARY_BOT},
    **{(tag, "negative"): [_extent("r0", floor=True)] for tag in _UNARY_BOT},
}

#: table rows the plain and the bumped box families share
_BOXES: dict[tuple[str, str], list[Term]] = {
    ("GCI0", "positive"): [_box(1, "c0 - c1", "o0 - o1", 1)],
    ("GCI1", "positive"): [_box(1, "ic - c2", "io - o2", 1)],
    # demand a genuinely non-empty intersection box
    ("GCI1_BOT", "negative"): [_extent("io", floor=True, clamp=True)],
    **{(tag, "positive"): [_extent("o0")] for tag in _UNARY_BOT},
    **{(tag, "negative"): [_extent("o0", floor=True)] for tag in _UNARY_BOT},
}

_ELBE: dict[tuple[str, str], list[Term]] = {
    **_BOXES,
    ("GCI0", "negative"): [_box(-1, "c0 - c1", "o0 + o1", 1)],
    ("GCI1", "negative"): [_box(-1, "ic - c2", "io + o2", 1)],
    ("GCI2", "positive"): [_box(1, "c0 + v - c1", "o0 - o1", 1)],
    ("GCI2", "negative"): [_box(-1, "c0 + v - c1", "o0 + o1", 1)],
    ("GCI3", "positive"): [_box(1, "c0 - v - c1", "o0 - o1", 1)],
    ("GCI3", "negative"): [_box(-1, "c0 - v - c1", "o0 + o1", 1)],
    ("GCI1_BOT", "positive"): [_box(-1, "c0 - c1", "o0 + o1", 1)],
}

_BOX2EL: dict[tuple[str, str], list[Term]] = {
    **_BOXES,
    # -(d + margin) elementwise, d the signed box gap: the margin enters
    # with the opposite sign to elbe's
    ("GCI0", "negative"): [_box(-1, "c0 - c1", "o0 + o1", -1)],
    ("GCI1", "negative"): [_box(-1, "ic - c2", "io + o2", -1)],
    ("GCI2", "positive"): [
        _box(1, "c0 + b1 - hc", "o0 - ho", 1),
        _box(1, "c1 + b0 - tc", "o1 - to", 1),
    ],
    ("GCI2", "negative"): [
        _box(1, "c0 + b1 - hc", "o0 - ho", 0, target=True),
        _box(1, "c1 + b0 - tc", "o1 - to", 0, target=True),
    ],
    ("GCI3", "positive"): [_box(1, "hc - b0 - c1", "ho - o1", 1)],
    ("GCI3", "negative"): [_box(1, "hc - b0 - c1", "ho - o1", 0, target=True)],
    # drive the intersection's extent to zero
    ("GCI1_BOT", "positive"): [_box(0, "", "io", 1)],
}

_TABLES = {"elem": _ELEM, "elbe": _ELBE, "box2el": _BOX2EL}


#: about the most entries (rows times ``dim``) one numpy call of the ranking
#: form of ``batch_losses`` runs over, so that its arrays stay cache-sized
_RANK_ENTRIES = 1 << 16


def batch_losses(
    model: GeometricModel,
    tag: str,
    polarity: str,
    axioms: Sequence[NormalizedAxiom],
    grad: Gradient | None = None,
    weight: float = 1.0,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Per-axiom losses for one (variant, polarity) group of axioms, an
    ``AxiomTable`` or a list of dataclasses; optionally adds ``weight`` times
    the gradient of their sum into ``grad``, settled before the call returns.

    With ``candidates`` (concept ids) this is the ranking form: row i of the
    result holds the losses of axiom i with its rightmost concept
    (``core.RIGHTMOST_COL``) set to each candidate in turn.  A pass
    scores about ``_RANK_ENTRIES`` entries: a chunk of candidates against one
    axiom, whose other columns are gathered once as rows repeated to the
    chunk's length and kept across its chunks, or, when the pool is smaller,
    several axioms written out against the whole pool.  The candidates' rows
    are gathered once per call (a view when the pool is a run of consecutive
    ids), and every operand of a pass has its full shape, so no numpy call
    broadcasts.  The values equal the losses of the axioms written out."""
    losses = _group_losses(model, tag, polarity, axioms, grad, weight, candidates)
    if grad is not None:
        grad.settle()
    return losses


def _group_losses(model, tag, polarity, axioms, grad, weight, candidates=None) -> np.ndarray:
    """``batch_losses`` with the gradient's pushes left pending."""
    if not len(axioms):
        return np.zeros(0 if candidates is None else (0, len(candidates)))
    table = AxiomTable.from_axioms(axioms)
    wrong = table.codes != (VARIANTS.index(tag) if tag in VARIANTS else -1)
    if wrong.any():
        raise ValueError(f"expected {tag} axioms, got {VARIANTS[table.codes[wrong][0]]}")
    if tag not in LOSS_VARIANTS:
        raise ValueError(f"no loss for variant {tag}")
    if polarity not in ("positive", "negative"):
        raise ValueError(f"unknown polarity {polarity!r}")
    # concept slots in `.nf` order, then the role
    kinds = _SLOT_KINDS[tag]
    cols = [table.cols[j] for kind in "cr" for j, k in enumerate(kinds) if k == kind]
    if "r" not in kinds:
        cols.append(None)
    if table.outside(model.n_concepts, model.n_roles).any():
        raise KeyError("axiom references an id outside the model")
    terms = _TABLES[model.tag][tag, polarity]
    if candidates is not None:
        if grad is not None:
            raise ValueError("the ranking form computes no gradient")
        if kinds.count("c") < 2:
            raise ValueError(f"the ranking form needs two concept slots, {tag} has one")
        # the rightmost concept's place among the concept columns
        ranked = kinds[: RIGHTMOST_COL[VARIANTS.index(tag)]].count("c")
        return _ranked_losses(model, terms, cols, ranked, np.asarray(candidates, dtype=np.int64))
    batch = _Batch(model, cols, grad, weight)
    total = _sum_terms(term(batch) for term in terms)
    if grad is not None:
        batch.flush()
    return total


def _sum_terms(values: Iterable[np.ndarray]) -> np.ndarray:
    total = None
    for value in values:
        total = value if total is None else total + value
    return total


def _ranked_losses(model, terms, cols, ranked: int, candidates: np.ndarray) -> np.ndarray:
    """The ranking form of ``batch_losses``: one row of losses per axiom, the
    candidates in concept column ``ranked`` of ``cols``."""
    if ((candidates < 0) | (candidates >= model.n_concepts)).any():
        raise KeyError("candidate id outside the model")
    n_pool = len(candidates)
    out = np.empty((len(cols[0]), n_pool))
    if not n_pool:
        return out
    chunk = max(1, _RANK_ENTRIES // model.dim)  # candidate rows per pass
    per = max(1, chunk // n_pool)  # axioms per pass
    width = min(chunk, n_pool)  # candidates per pass
    # the pool's rows, written out once per axiom of a pass; a run of
    # consecutive ids scored one axiom per pass is a view, not a copy
    index = np.tile(candidates, min(per, len(out)))
    if per == 1 and (np.diff(candidates) == 1).all():
        index = slice(candidates[0], candidates[-1] + 1)
    pool = _Rows(_read_only(model.params), index)
    scratch = np.empty((min(per, len(out)) * width, model.dim))
    for a in range(0, len(out), per):
        ids = slice(a, a + per)
        k = len(out[ids])
        # the other columns: each axiom's ids repeated `width` times
        fixed = [None if c is None else _Rows(model.params, np.repeat(c[ids], width)) for c in cols]
        for lo in range(0, n_pool, width):
            n = min(width, n_pool - lo)
            rows = [f if f is None or n == width else _Rows(f, slice(0, n)) for f in fixed]
            rows[ranked] = _Rows(pool, slice(lo, lo + k * n))
            batch = _Batch(model, None, None, 1.0, rows, scratch[: k * n])
            total = _sum_terms(term(batch) for term in terms)
            out[ids, lo : lo + n] = total.reshape(k, n)
    return out


def _read_only(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of the parameter arrays that raise on a write."""
    views = {name: arr.view() for name, arr in params.items()}
    for view in views.values():
        view.flags.writeable = False
    return views


def axiom_loss(model: GeometricModel, request: LossRequest) -> float:
    """Scalar loss of a one-axiom request."""
    ((tag, axioms),) = request.groups
    return float(batch_losses(model, tag, request.polarity, axioms)[0])


def _family_loss(family: str) -> Callable[[GeometricModel, LossRequest], float]:
    def loss(model: GeometricModel, request: LossRequest) -> float:
        if model.tag != family:
            raise ValueError(f"model tag is {model.tag!r}, expected {family!r}")
        return axiom_loss(model, request)

    return loss


#: ``axiom_loss`` for a model of one family; other families are rejected
elem_loss, elbe_loss, box2el_loss = (_family_loss(tag) for tag in MODEL_TAGS)


def bump_regularizer(model: GeometricModel, grad: Gradient | None = None) -> float:
    """reg_lambda times the mean bump norm (box2el only, else 0)."""
    if model.tag != "box2el" or model.reg_lambda == 0.0:
        return 0.0
    bumps = model.params["class_bump"]
    nrm = _norm(bumps)
    if grad is not None:
        d = _unit(bumps, nrm)
        d *= model.reg_lambda / len(bumps)
        grad.add_dense("class_bump", d)
    return float(model.reg_lambda * nrm.mean())


def total_loss(
    model: GeometricModel,
    requests: Iterable[LossRequest],
    grad: Gradient | None = None,
) -> float:
    """Sum over (variant, polarity) groups of the within-group mean loss, plus
    the bump regularizer for box2el.  Groups appear in the order of their
    first axiom; a group's rows concatenate in request order.  The gradient's
    pushes settle once, before the bump regularizer adds its own; a
    ``Gradient`` given as ``grad`` also receives the group means and active
    fractions."""
    groups: dict[tuple[str, str], list[AxiomTable]] = {}
    for req in requests:
        for tag, rows in req.groups:
            groups.setdefault((tag, req.polarity), []).append(rows)
    total = 0.0
    means: dict[str, float] = {}
    active: dict[str, float] = {}
    for (tag, polarity), parts in groups.items():
        axioms = parts[0] if len(parts) == 1 else AxiomTable(
            np.concatenate([p.codes for p in parts]), np.concatenate([p.cols for p in parts], 1)
        )
        losses = _group_losses(model, tag, polarity, axioms, grad, 1.0 / len(axioms))
        key = f"{tag}/{polarity}"
        mean = means[key] = float(losses.mean())
        active[key] = int(np.count_nonzero(losses)) / len(losses)
        total += mean
    if grad is not None:
        grad.settle()
        grad.group_means, grad.group_active = means, active
    total += bump_regularizer(model, grad)
    return total
