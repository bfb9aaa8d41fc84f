"""Loss evaluators: pinned numeric values for every formula, zero-loss
faithfulness, positive/negative antagonism, non-negativity, aggregation."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sequential_scatter

from elkbc import losses
from elkbc.core import (
    _SLOT_KINDS, AXIOM_TAGS, RIGHTMOST_COL, SLOT_NAMES, VARIANTS, GCI0, GCI0Bot, GCI1, GCI1Bot,
    GCI2, GCI3, GCI3Bot, RI0, RI1, AxiomTable,
)
from elkbc.geometry import AABox, box_intersection, containment_measure_mu
from elkbc.losses import (
    LOSS_VARIANTS,
    MODEL_TAGS,
    GeometricModel,
    Gradient,
    LossRequest,
    axiom_loss,
    batch_losses,
    box2el_loss,
    elbe_loss,
    elem_loss,
    param_shapes,
    total_loss,
    zero_gradient,
)

SQ2 = math.sqrt(2.0)


def make_model(tag, n_concepts=6, n_roles=2, dim=2, **hyper):
    params = {
        name: np.zeros(shape) for name, shape in param_shapes(tag, n_concepts, n_roles, dim).items()
    }
    return GeometricModel(
        tag=tag, dim=dim, n_concepts=n_concepts, n_roles=n_roles, params=params, **hyper
    )


def elem(centers, radii, roles=None, **hyper):
    m = make_model("elem", n_concepts=len(centers), n_roles=max(1, len(roles or [])), **hyper)
    m.params["class_center"] = np.asarray(centers, float)
    m.params["class_radius"] = np.asarray(radii, float)
    if roles:
        m.params["role_vector"] = np.asarray(roles, float)
    return m


def elbe(centers, offsets, roles=None, **hyper):
    m = make_model("elbe", n_concepts=len(centers), n_roles=max(1, len(roles or [])), **hyper)
    m.params["class_center"] = np.asarray(centers, float)
    m.params["class_offset"] = np.asarray(offsets, float)
    if roles:
        m.params["role_vector"] = np.asarray(roles, float)
    return m


def box2el(centers, offsets, bumps, heads, tails, **hyper):
    m = make_model("box2el", n_concepts=len(centers), n_roles=len(heads[0]), **hyper)
    m.params["class_center"] = np.asarray(centers, float)
    m.params["class_offset"] = np.asarray(offsets, float)
    m.params["class_bump"] = np.asarray(bumps, float)
    m.params["role_head_center"] = np.asarray(heads[0], float)
    m.params["role_head_offset"] = np.asarray(heads[1], float)
    m.params["role_tail_center"] = np.asarray(tails[0], float)
    m.params["role_tail_offset"] = np.asarray(tails[1], float)
    return m


def pos(ax):
    return LossRequest(ax, "positive")


def neg(ax):
    return LossRequest(ax, "negative")


# ---------------------------------------------------------------------------
# ball model, pinned values
# ---------------------------------------------------------------------------


class TestBallModel:
    def test_gci0_negative_overlapping(self):
        m = elem([[1, 0], [1, 0], [1, 0]], [0.1, 0.1, 0.1])
        assert elem_loss(m, neg(GCI0(0, 1))) == pytest.approx(0.2)

    def test_gci0_negative_separated(self):
        m = elem([[1, 0], [-1, 0], [1, 0]], [0.1, 0.1, 0.1])
        assert elem_loss(m, neg(GCI0(0, 1))) == pytest.approx(0.0)

    def test_gci0_positive(self):
        m = elem([[1, 0], [0, 1], [1, 0]], [0.2, 0.3, 0.1])
        assert elem_loss(m, pos(GCI0(0, 1))) == pytest.approx(SQ2 - 0.1)

    def test_gci1_negative(self):
        # coincident A, B overlapping; E center 0.2 away: two hinge terms fire
        m = elem([[1, 0], [1, 0], [1, 0.2]], [0.3, 0.3, 0.1])
        expected = 0.1 + 0.1 + (math.sqrt(1.04) - 1.0)
        assert elem_loss(m, neg(GCI1(0, 1, 2))) == pytest.approx(expected)

    def test_gci1_positive(self):
        m = elem([[1, 0], [0, 1], [0, -1]], [0.2, 0.3, 0.1])
        expected = (SQ2 - 0.5) + (SQ2 - 0.2) + (2.0 - 0.3)
        assert elem_loss(m, pos(GCI1(0, 1, 2))) == pytest.approx(expected)

    def test_gci2_positive(self):
        m = elem([[1, 0], [0, 1], [1, 0]], [0.2, 0.3, 0.1], roles=[[-0.5, 0.5]])
        assert elem_loss(m, pos(GCI2(0, 0, 1))) == pytest.approx(math.sqrt(0.5) - 0.1)

    def test_gci2_negative(self):
        m = elem([[1, 0], [0, 1], [1, 0]], [0.2, 0.3, 0.1], roles=[[-1.0, 1.0]])
        assert elem_loss(m, neg(GCI2(0, 0, 1))) == pytest.approx(0.5)

    def test_gci3_positive(self):
        # filler ball translated back must meet the superclass ball
        m = elem([[1, 0], [0, 1], [1, 0]], [0.2, 0.1, 0.1], roles=[[0.5, 0.0]])
        assert elem_loss(m, pos(GCI3(0, 0, 1))) == pytest.approx(math.sqrt(1.25) - 0.3)

    def test_gci3_negative(self):
        m = elem([[0, 1], [1, 0], [1, 0]], [0.6, 0.6, 0.1], roles=[[0.0, 1.0]])
        assert elem_loss(m, neg(GCI3(0, 0, 1))) == pytest.approx(0.2)

    def test_gci0_bot_positive_is_radius(self):
        m = elem([[0.6, 0.8], [1, 0], [1, 0]], [0.25, 0.1, 0.1])
        assert elem_loss(m, pos(GCI0Bot(0))) == pytest.approx(0.25)

    def test_gci0_bot_negative_radius_floor(self):
        m = elem([[1, 0], [1, 0], [1, 0]], [0.0, 0.1, 0.1], epsilon=0.01)
        assert elem_loss(m, neg(GCI0Bot(0))) == pytest.approx(0.01)

    def test_gci1_bot_positive(self):
        m = elem([[1, 0], [1, 0.1], [1, 0]], [0.2, 0.3, 0.1])
        expected = 0.4 + (math.sqrt(1.01) - 1.0)
        assert elem_loss(m, pos(GCI1Bot(0, 1))) == pytest.approx(expected)

    def test_gci1_bot_negative(self):
        m = elem([[1, 0], [-1, 0], [1, 0]], [0.2, 0.3, 0.1])
        assert elem_loss(m, neg(GCI1Bot(0, 1))) == pytest.approx(1.5)

    def test_gci3_bot_pair(self):
        m = elem([[1, 0], [1, 0], [1, 0]], [0.25, 0.005, 0.1], epsilon=0.01)
        assert elem_loss(m, pos(GCI3Bot(0, 0))) == pytest.approx(0.25)
        assert elem_loss(m, neg(GCI3Bot(0, 1))) == pytest.approx(0.005)

    def test_margin_shifts_hinge(self):
        m = elem([[1, 0], [1, 0], [1, 0]], [0.1, 0.1, 0.1], margin=-0.1)
        assert elem_loss(m, neg(GCI0(0, 1))) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# plain box model, pinned values
# ---------------------------------------------------------------------------


class TestPlainBoxModel:
    def test_gci0_negative_coincident(self):
        m = elbe([[0, 0], [0, 0], [0, 0]], [[0.1, 0.1]] * 3)
        assert elbe_loss(m, neg(GCI0(0, 1))) == pytest.approx(0.2 * SQ2)

    def test_gci0_negative_separated(self):
        m = elbe([[0, 0], [5, 5], [0, 0]], [[0.1, 0.1]] * 3)
        assert elbe_loss(m, neg(GCI0(0, 1))) == pytest.approx(0.0)

    def test_gci0_positive(self):
        m = elbe([[0, 0], [0.1, 0], [0, 0]], [[0.2, 0.2], [0.25, 0.35], [0.1, 0.1]])
        assert elbe_loss(m, pos(GCI0(0, 1))) == pytest.approx(0.05)

    def test_gci1_positive_uses_intersection(self):
        m = elbe(
            [[0, 0], [1, 0], [0.5, 0]],
            [[1, 1], [1, 1], [0.4, 0.9]],
        )
        assert elbe_loss(m, pos(GCI1(0, 1, 2))) == pytest.approx(0.1 * SQ2)

    def test_gci1_negative(self):
        m = elbe(
            [[0, 0], [1, 0], [0.5, 0]],
            [[1, 1], [1, 1], [0.1, 0.1]],
        )
        assert elbe_loss(m, neg(GCI1(0, 1, 2))) == pytest.approx(math.sqrt(0.36 + 1.21))

    def test_gci2_pair(self):
        m = elbe(
            [[0, 0], [1, 0], [0, 0]],
            [[0.1, 0.1], [0.05, 0.2], [0.1, 0.1]],
            roles=[[1.0, 0.0]],
        )
        assert elbe_loss(m, pos(GCI2(0, 0, 1))) == pytest.approx(0.05)
        assert elbe_loss(m, neg(GCI2(0, 0, 1))) == pytest.approx(math.sqrt(0.1125))

    def test_gci3_pair(self):
        m = elbe(
            [[1, 1], [0, 1], [0, 0]],
            [[0.1, 0.1], [0.05, 0.1], [0.1, 0.1]],
            roles=[[1.0, 0.0]],
        )
        assert elbe_loss(m, pos(GCI3(0, 0, 1))) == pytest.approx(0.05)
        assert elbe_loss(m, neg(GCI3(0, 0, 1))) == pytest.approx(0.25)

    def test_bot_forms(self):
        m = elbe([[0, 0], [0, 0], [0, 0]], [[0.3, 0.4], [0.06, 0.08], [0.1, 0.1]], epsilon=0.15)
        assert elbe_loss(m, pos(GCI0Bot(0))) == pytest.approx(0.5)
        assert elbe_loss(m, neg(GCI0Bot(1))) == pytest.approx(0.05)
        assert elbe_loss(m, pos(GCI3Bot(0, 0))) == pytest.approx(0.5)
        assert elbe_loss(m, neg(GCI3Bot(0, 1))) == pytest.approx(0.05)

    def test_gci1_bot_positive(self):
        m = elbe([[0, 0], [0.1, 0], [0, 0]], [[0.2, 0.2]] * 3)
        assert elbe_loss(m, pos(GCI1Bot(0, 1))) == pytest.approx(0.5)

    def test_gci1_bot_negative_overlapping(self):
        # intersection offsets (0.5, 0.5): well above the floor
        m = elbe([[0, 0], [1, 0], [0, 0]], [[1, 0.5], [1, 0.5], [1, 1]], epsilon=0.1)
        assert elbe_loss(m, neg(GCI1Bot(0, 1))) == pytest.approx(0.0)

    def test_gci1_bot_negative_empty_intersection_pays_full_floor(self):
        # far-apart boxes: the intersection box has no positive extent, so
        # the non-emptiness demand is maximally violated
        m = elbe([[0, 0], [5, 5], [0, 0]], [[0.1, 0.1]] * 3, epsilon=0.15)
        assert elbe_loss(m, neg(GCI1Bot(0, 1))) == pytest.approx(0.15)


# ---------------------------------------------------------------------------
# bumped box model, pinned values
# ---------------------------------------------------------------------------


def _toy_box2el(delta=1.0, epsilon=0.1):
    centers = [[0, 0], [1, 0], [0.5, 0], [0, 0]]
    offsets = [[0.1, 0.1], [0.1, 0.1], [0.2, 0.2], [0.1, 0.1]]
    bumps = [[-1, 0], [0.2, 0], [0, 0], [0, 0]]
    heads = ([[0.2, 0]], [[0.15, 0.15]])
    tails = ([[0, 0]], [[0.05, 0.2]])
    return box2el(centers, offsets, bumps, heads, tails, delta=delta, epsilon=epsilon)


class TestBumpedBoxModel:
    def test_gci0_negative_coincident(self):
        m = box2el(
            [[0, 0], [0, 0]], [[0.1, 0.1]] * 2, [[0, 0]] * 2,
            ([[0, 0]], [[0.1, 0.1]]), ([[0, 0]], [[0.1, 0.1]]),
        )
        assert box2el_loss(m, neg(GCI0(0, 1))) == pytest.approx(0.2 * SQ2)

    def test_gci2_positive_head_and_tail(self):
        # head side satisfied exactly; tail side violates by 0.05 on one axis
        m = _toy_box2el()
        assert box2el_loss(m, pos(GCI2(0, 0, 1))) == pytest.approx(0.05)

    def test_gci2_negative_squared_targets(self):
        m = _toy_box2el(delta=1.0)
        assert box2el_loss(m, neg(GCI2(0, 0, 1))) == pytest.approx(1.0 + 0.95**2)

    def test_gci3_negative_contained_head(self):
        # translated head box inside the filler's box: mu = 0, loss = delta^2
        centers = [[0, 0], [0, 0]]
        offsets = [[0.2, 0.2], [0.2, 0.2]]
        bumps = [[0.5, 0.5], [0, 0]]
        m = box2el(centers, offsets, bumps, ([[0.5, 0.5]], [[0.1, 0.1]]),
                   ([[0, 0]], [[0.1, 0.1]]), delta=1.0)
        assert box2el_loss(m, neg(GCI3(0, 0, 1))) == pytest.approx(1.0)

    def test_gci3_negative_at_target_distance(self):
        centers = [[0, 0], [0, 0]]
        offsets = [[0.1, 0.1], [0.1, 0.1]]
        bumps = [[-0.3, 0], [0, 0]]
        m = box2el(centers, offsets, bumps, ([[0, 0]], [[0.1, 0.1]]),
                   ([[0, 0]], [[0.1, 0.1]]), delta=0.3)
        assert box2el_loss(m, neg(GCI3(0, 0, 1))) == pytest.approx(0.0)
        assert box2el_loss(m, pos(GCI3(0, 0, 1))) == pytest.approx(0.3)

    def test_gci1_pair(self):
        m = box2el(
            [[0, 0], [1, 0], [0.5, 0]],
            [[1, 1], [1, 1], [0.4, 0.9]],
            [[0, 0]] * 3,
            ([[0, 0]], [[0.1, 0.1]]), ([[0, 0]], [[0.1, 0.1]]),
        )
        assert box2el_loss(m, pos(GCI1(0, 1, 2))) == pytest.approx(0.1 * SQ2)
        m.params["class_offset"][2] = [0.1, 0.1]
        assert box2el_loss(m, neg(GCI1(0, 1, 2))) == pytest.approx(math.sqrt(0.36 + 1.21))

    def test_bot_forms(self):
        m = box2el(
            [[0, 0], [0, 0]], [[0.06, 0.08], [0.3, 0.4]], [[0, 0]] * 2,
            ([[0, 0]], [[0.1, 0.1]]), ([[0, 0]], [[0.1, 0.1]]), epsilon=0.15,
        )
        assert box2el_loss(m, pos(GCI0Bot(0))) == pytest.approx(0.1)
        assert box2el_loss(m, neg(GCI0Bot(0))) == pytest.approx(0.05)
        assert box2el_loss(m, neg(GCI3Bot(0, 1))) == pytest.approx(0.0)

    def test_gci1_bot_pair(self):
        m = box2el(
            [[0, 0], [0.1, 0], [0, 0]],
            [[0.2, 0.2]] * 3, [[0, 0]] * 3,
            ([[0, 0]], [[0.1, 0.1]]), ([[0, 0]], [[0.1, 0.1]]), epsilon=0.1,
        )
        # intersection offsets (0.15, 0.2): positive extent both axes
        assert box2el_loss(m, pos(GCI1Bot(0, 1))) == pytest.approx(math.hypot(0.15, 0.2))
        assert box2el_loss(m, neg(GCI1Bot(0, 1))) == pytest.approx(0.0)
        m.params["class_center"][1] = [5, 5]
        assert box2el_loss(m, neg(GCI1Bot(0, 1))) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# shared contracts
# ---------------------------------------------------------------------------


def _random_model(tag, rng, n_concepts=5, n_roles=2, dim=3, unit_centers=False, **hyper):
    m = make_model(tag, n_concepts=n_concepts, n_roles=n_roles, dim=dim, **hyper)
    for name, arr in m.params.items():
        if name.endswith("_radius") or name.endswith("_offset"):
            m.params[name] = rng.uniform(hyper.get("epsilon", 0.01), 0.5, arr.shape)
        else:
            m.params[name] = rng.uniform(-1, 1, arr.shape)
    if unit_centers and tag == "elem":
        c = m.params["class_center"]
        m.params["class_center"] = c / np.linalg.norm(c, axis=1, keepdims=True)
    return m


ALL_REQUESTS = [
    GCI0(0, 1),
    GCI1(0, 1, 2),
    GCI2(0, 0, 1),
    GCI3(0, 0, 1),
    GCI0Bot(0),
    GCI1Bot(0, 1),
    GCI3Bot(0, 0),
]


def test_every_loss_is_non_negative():
    rng = np.random.default_rng(9)
    for tag in ("elem", "elbe", "box2el"):
        for _ in range(200):
            m = _random_model(tag, rng, epsilon=0.05, delta=float(rng.uniform(0.2, 2.0)))
            m.margin = float(rng.uniform(-0.1, 0.1))
            for ax in ALL_REQUESTS:
                for polarity in ("positive", "negative"):
                    assert axiom_loss(m, LossRequest(ax, polarity)) >= 0.0


def test_ri_axioms_carry_no_loss():
    m = _random_model("elem", np.random.default_rng(0))
    with pytest.raises(ValueError):
        LossRequest(RI0(0, 0), "positive")


def test_unknown_ids_rejected():
    m = _random_model("elem", np.random.default_rng(0))
    with pytest.raises(KeyError):
        axiom_loss(m, pos(GCI0(0, 77)))


def test_box_positives_equal_geometry_reference():
    """At margin 0 the box containment losses are ``elkbc.geometry``'s measure."""
    rng = np.random.default_rng(17)
    for tag in ("elbe", "box2el"):
        for _ in range(100):
            m = _random_model(tag, rng, dim=4)
            a, b, e = (AABox(m.params["class_center"][i], m.params["class_offset"][i])
                       for i in (0, 1, 2))
            assert axiom_loss(m, pos(GCI0(0, 1))) == pytest.approx(
                containment_measure_mu(a, b), abs=1e-12
            )
            assert axiom_loss(m, pos(GCI1(0, 1, 2))) == pytest.approx(
                containment_measure_mu(box_intersection(a, b), e), abs=1e-12
            )


def _check_faithful(loss: float, violation: float) -> None:
    """violation = condition left side minus right side (positive: violated).
    Unit-normalized centers still leave ~1e-16 regularizer residue, hence the
    guard bands."""
    if violation > 1e-9:
        assert loss > 1e-12
    if loss <= 1e-12:
        assert violation <= 1e-9


class TestZeroLossFaithfulness:
    """With margin 0 a vanished positive loss certifies the truth condition.
    Checked through the contrapositive on random configurations: a violated
    condition forces a strictly positive loss (and constructed satisfying
    configurations reach exactly zero, regularizers aside)."""

    def test_ball_gci0(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m = _random_model("elem", rng, unit_centers=True)
            c, r = m.params["class_center"], m.params["class_radius"]
            violation = np.linalg.norm(c[0] - c[1]) + r[0] - r[1]
            _check_faithful(axiom_loss(m, pos(GCI0(0, 1))), violation)

    def test_ball_gci2(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            m = _random_model("elem", rng, unit_centers=True)
            c, r = m.params["class_center"], m.params["class_radius"]
            v = m.params["role_vector"][0]
            violation = np.linalg.norm(c[0] + v - c[1]) + r[0] - r[1]
            _check_faithful(axiom_loss(m, pos(GCI2(0, 0, 1))), violation)

    def test_ball_gci3(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = _random_model("elem", rng, unit_centers=True)
            c, r = m.params["class_center"], m.params["class_radius"]
            v = m.params["role_vector"][0]
            violation = np.linalg.norm(c[0] - v - c[1]) - (r[0] + r[1])
            _check_faithful(axiom_loss(m, pos(GCI3(0, 0, 1))), violation)

    @pytest.mark.parametrize("tag", ["elbe", "box2el"])
    def test_box_gci0(self, tag):
        rng = np.random.default_rng(4)
        for _ in range(300):
            m = _random_model(tag, rng)
            c, o = m.params["class_center"], m.params["class_offset"]
            violation = float(np.max(np.abs(c[0] - c[1]) + o[0] - o[1]))
            _check_faithful(axiom_loss(m, pos(GCI0(0, 1))), violation)


class TestAntagonism:
    """No configuration with margin 0 and radii/offsets at least epsilon has
    both polarities of one axiom at zero: random search plus analytic cases."""

    def test_random_search_finds_no_double_zero(self):
        # Conjunction negatives only ever vary the superclass of an asserted
        # axiom, so their loss presumes a non-empty A n B; the search honors
        # that by skipping empty-intersection configurations for GCI1.
        rng = np.random.default_rng(5)
        for tag in ("elem", "elbe", "box2el"):
            for _ in range(400):
                m = _random_model(tag, rng, unit_centers=True, epsilon=0.05)
                m.epsilon = 0.05
                m.delta = 1.0
                for ax in ALL_REQUESTS:
                    if isinstance(ax, GCI1) and tag in ("elbe", "box2el"):
                        c, o = m.params["class_center"], m.params["class_offset"]
                        if np.any(np.abs(c[0] - c[1]) >= o[0] + o[1]):
                            continue
                    p = axiom_loss(m, pos(ax))
                    n = axiom_loss(m, neg(ax))
                    assert not (p <= 1e-12 and n <= 1e-12), (tag, ax)

    def test_ball_containment_forces_negative_loss(self):
        m = elem([[1, 0], [1, 0], [1, 0]], [0.1, 0.5, 0.1], epsilon=0.05)
        assert elem_loss(m, pos(GCI0(0, 1))) == 0.0
        assert elem_loss(m, neg(GCI0(0, 1))) > 0.0

    def test_ball_separation_forces_positive_loss(self):
        m = elem([[1, 0], [-1, 0], [1, 0]], [0.1, 0.5, 0.1], epsilon=0.05)
        assert elem_loss(m, neg(GCI0(0, 1))) == 0.0
        assert elem_loss(m, pos(GCI0(0, 1))) > 0.0

    def test_bot_floor_vs_collapse(self):
        m = elem([[1, 0], [1, 0], [1, 0]], [0.0, 0.1, 0.1], epsilon=0.05)
        assert elem_loss(m, pos(GCI0Bot(0))) == 0.0
        assert elem_loss(m, neg(GCI0Bot(0))) == pytest.approx(0.05)
        m2 = elem([[1, 0], [1, 0], [1, 0]], [0.2, 0.1, 0.1], epsilon=0.05)
        assert elem_loss(m2, neg(GCI0Bot(0))) == 0.0
        assert elem_loss(m2, pos(GCI0Bot(0))) > 0.0

    def test_box_disjointness_two_sided(self):
        apart = elbe([[0, 0], [9, 9], [0, 0]], [[0.2, 0.2]] * 3, epsilon=0.05)
        assert elbe_loss(apart, pos(GCI1Bot(0, 1))) == 0.0
        assert elbe_loss(apart, neg(GCI1Bot(0, 1))) == pytest.approx(0.05)
        together = elbe([[0, 0], [0, 0], [0, 0]], [[0.2, 0.2]] * 3, epsilon=0.05)
        assert elbe_loss(together, neg(GCI1Bot(0, 1))) == 0.0
        assert elbe_loss(together, pos(GCI1Bot(0, 1))) > 0.0

    def test_bumped_existential_two_sided(self):
        centers = [[0, 0], [0, 0]]
        offsets = [[0.1, 0.1], [0.2, 0.2]]
        bumps = [[0.5, 0.5], [0, 0]]
        m = box2el(centers, offsets, bumps, ([[0.5, 0.5]], [[0.1, 0.1]]),
                   ([[0, 0]], [[0.1, 0.1]]), delta=1.0, epsilon=0.05)
        assert box2el_loss(m, pos(GCI3(0, 0, 1))) == 0.0
        assert box2el_loss(m, neg(GCI3(0, 0, 1))) == pytest.approx(1.0)


class TestTotalLoss:
    def test_single_request_equals_axiom_loss(self):
        m = _random_model("elem", np.random.default_rng(6), unit_centers=True)
        req = pos(GCI0(0, 1))
        assert total_loss(m, [req]) == pytest.approx(axiom_loss(m, req))

    def test_group_means_then_sum(self):
        m = _random_model("elem", np.random.default_rng(7), unit_centers=True)
        reqs = [pos(GCI0(0, 1)), pos(GCI0(1, 2)), neg(GCI2(0, 0, 1))]
        expected = (
            (axiom_loss(m, reqs[0]) + axiom_loss(m, reqs[1])) / 2.0
            + axiom_loss(m, reqs[2])
        )
        assert total_loss(m, reqs) == pytest.approx(expected)

    def test_zero_loss_model_scores_zero(self):
        # nested balls on the unit sphere: containment holds, regs vanish
        m = elem([[1, 0], [1, 0], [1, 0]], [0.1, 0.2, 0.3])
        reqs = [pos(GCI0(0, 1)), pos(GCI0(1, 2))]
        assert total_loss(m, reqs) == pytest.approx(0.0)

    def test_bump_regularizer_gradient_matches_masked_unit_vectors(self):
        """The regularizer's gradient is reg_lambda / n times each bump's unit
        vector, zero for a zero bump: the same bytes as dividing the nonzero
        rows alone."""
        m = _random_model("box2el", np.random.default_rng(9), n_concepts=40, dim=16,
                          reg_lambda=0.3)
        bumps = m.params["class_bump"]
        bumps[::7] = 0.0
        grad = zero_gradient(m)
        losses.bump_regularizer(m, grad)
        nrm = np.sqrt(np.sum(bumps * bumps, axis=-1))
        unit = np.zeros_like(bumps)
        unit[nrm > 0] = bumps[nrm > 0] / nrm[nrm > 0, None]
        assert grad["class_bump"].tobytes() == ((0.3 / 40) * unit).tobytes()

    def test_bump_regularizer_added(self):
        m = _random_model("box2el", np.random.default_rng(8), reg_lambda=0.5)
        base = total_loss(m, [pos(GCI0(0, 1))])
        bump_norms = np.linalg.norm(m.params["class_bump"], axis=1).mean()
        m2 = m.copy()
        m2.reg_lambda = 0.0
        assert base == pytest.approx(total_loss(m2, [pos(GCI0(0, 1))]) + 0.5 * bump_norms)


@pytest.mark.parametrize("tag", ["elem", "elbe", "box2el"])
@pytest.mark.parametrize("variant", LOSS_VARIANTS)
@pytest.mark.parametrize("polarity", ["positive", "negative"])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_batch_equals_scalar(tag, variant, polarity, data):
    """A batch's losses equal its axioms' scalar losses exactly, on random
    models (signed offsets and radii, exact zeros, margins of both signs and
    signed zero margins) and batches that repeat ids; the batch computed with
    a gradient keeps every intermediate, the scalar one works in place."""
    n_concepts = data.draw(st.integers(2, 5))
    n_roles = data.draw(st.integers(1, 2))
    dim = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = make_model(
        tag, n_concepts=n_concepts, n_roles=n_roles, dim=dim,
        margin=float(rng.choice([-0.1, -0.01, -0.0, 0.0, 0.01, 0.1])),
        epsilon=float(rng.uniform(0.001, 0.2)), delta=float(rng.uniform(0.5, 4.0)),
    )
    for name, arr in m.params.items():
        m.params[name] = rng.normal(0.0, 0.5, arr.shape) * (rng.random(arr.shape) > 0.1)
    cls = AXIOM_TAGS[variant]
    bounds = [n_roles if f.name == "role" else n_concepts for f in dataclasses.fields(cls)]
    axioms = data.draw(st.lists(
        st.tuples(*(st.integers(0, b - 1) for b in bounds)).map(lambda ids: cls(*ids)),
        min_size=1, max_size=8,
    ))
    scalar = [axiom_loss(m, LossRequest(ax, polarity)) for ax in axioms]
    np.testing.assert_array_equal(batch_losses(m, variant, polarity, axioms), scalar)

    # the same axioms as a strided slice of a mixed-variant id table: same
    # losses, gradients and total loss as the dataclass list
    rows = AxiomTable.from_axioms([x for ax in axioms for x in (RI1(0, 0, 0), ax)])[1::2]
    grads = zero_gradient(m), zero_gradient(m)
    for given_axioms, grad in zip((axioms, rows), grads):
        losses = batch_losses(m, variant, polarity, given_axioms, grad=grad, weight=0.5)
        np.testing.assert_array_equal(losses, scalar)
    for name in m.params:
        np.testing.assert_array_equal(grads[0][name], grads[1][name])
    assert total_loss(m, [LossRequest(rows, polarity)]) == total_loss(
        m, [LossRequest(ax, polarity) for ax in axioms]
    )


#: variants the ranking form accepts: two concept slots or more
_TWO_CONCEPTS = [v for v in LOSS_VARIANTS if _SLOT_KINDS[v].count("c") >= 2]


def _ranking_model(tag, rng, n_concepts, n_roles, dim, margin):
    """A random model with exact +0.0 and -0.0 entries among its parameters."""
    m = make_model(
        tag, n_concepts=n_concepts, n_roles=n_roles, dim=dim, margin=margin, epsilon=0.05,
        delta=1.5,
    )
    for name, arr in m.params.items():
        values = rng.normal(0.0, 0.5, arr.shape) * (rng.random(arr.shape) > 0.1)
        m.params[name] = np.where(rng.random(arr.shape) < 0.1, -0.0, values)
    return m


def _assert_ranking_form_written_out(m, variant, polarity, axioms, pool, rows):
    """The ranking form, at ``rows`` candidate rows per pass, equals bit for
    bit the losses of each axiom written out against the pool, and leaves
    the parameters as they were."""
    before = {name: arr.tobytes() for name, arr in m.params.items()}
    with mock.patch.object(losses, "_RANK_ENTRIES", rows * m.dim):
        got = batch_losses(m, variant, polarity, axioms, candidates=pool)
    assert {name: arr.tobytes() for name, arr in m.params.items()} == before
    assert got.shape == (len(axioms), len(pool))
    ranked = SLOT_NAMES[variant][RIGHTMOST_COL[VARIANTS.index(variant)]]
    for ax, row in zip(axioms, got):
        written = [dataclasses.replace(ax, **{ranked: int(c)}) for c in pool]
        assert row.tobytes() == batch_losses(m, variant, polarity, written).tobytes()
    first = [dataclasses.replace(axioms[0], **{ranked: int(c)}) for c in pool]
    scalar = [axiom_loss(m, LossRequest(ax, polarity)) for ax in first]
    assert got[0].tobytes() == np.array(scalar).tobytes()


@pytest.mark.parametrize("tag", MODEL_TAGS)
@pytest.mark.parametrize("variant", _TWO_CONCEPTS)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_ranking_form_equals_written_out_axioms(tag, variant, data):
    """Row i of the ranking form equals, bit for bit, the losses of axiom i
    written out with its rightmost concept set to each candidate: pools of 1,
    2, chunk - 1, chunk, chunk + 1 and several chunks, so one or several
    axioms per pass with a partial last pass, contiguous and shuffled pools,
    dims below and above numpy's 8-way pairwise sum, signed zeros among the
    parameters, one shared or several subjects."""
    chunk = data.draw(st.sampled_from([2, 3, 5, 8]))
    n_pool = data.draw(st.sampled_from([1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk + 1]))
    n_concepts = n_pool + data.draw(st.integers(0, 3))
    n_roles = data.draw(st.integers(1, 2))
    dim = data.draw(st.sampled_from([1, 3, 8, 13]))
    polarity = data.draw(st.sampled_from(["positive", "negative"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = _ranking_model(tag, rng, n_concepts, n_roles, dim, float(rng.choice([0.0, -0.1, 0.1])))
    cls = AXIOM_TAGS[variant]
    bounds = [n_roles if f.name == "role" else n_concepts for f in dataclasses.fields(cls)]
    axioms = data.draw(st.lists(
        st.tuples(*(st.integers(0, b - 1) for b in bounds)).map(lambda ids: cls(*ids)),
        min_size=1, max_size=7,
    ))
    if data.draw(st.booleans()):
        axioms = [axioms[0]] * len(axioms)
    if data.draw(st.booleans()):
        start = int(rng.integers(n_concepts - n_pool + 1))
        pool = np.arange(start, start + n_pool)
    else:
        pool = rng.permutation(n_concepts)[:n_pool]
    _assert_ranking_form_written_out(m, variant, polarity, axioms, pool, chunk)


@pytest.mark.parametrize("tag", MODEL_TAGS)
@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize(
    "rows, n_pool, n_axioms",
    [
        (4, 9, 3),  # one axiom per pass, a partial last chunk
        (4, 2, 3),  # two axioms per pass, one in the last
        (12, 2, 7),  # six axioms per pass, one in the last
        (5, 1, 7),  # a pool of one: five axioms per pass, two in the last
    ],
)
def test_ranking_form_pass_shapes(tag, contiguous, rows, n_pool, n_axioms):
    """Each pass shape of the ranking form, on both pool kinds, for the
    variants evaluation ranks and the one that reads an intersection."""
    rng = np.random.default_rng(rows * 100 + n_pool)
    m = _ranking_model(tag, rng, n_pool + 4, 2, 9, 0.1)
    pool = np.arange(2, 2 + n_pool) if contiguous else rng.permutation(n_pool + 4)[:n_pool]
    for variant in ("GCI0", "GCI2", "GCI1"):
        cls = AXIOM_TAGS[variant]
        axioms = [
            cls(*(int(rng.integers(2 if f.name == "role" else n_pool + 4))
                  for f in dataclasses.fields(cls)))
            for _ in range(n_axioms)
        ]
        _assert_ranking_form_written_out(m, variant, "positive", axioms, pool, rows)


def test_ranking_form_rejects_bad_input():
    m = make_model("elbe", n_concepts=4, n_roles=1, dim=2)
    with pytest.raises(KeyError):
        batch_losses(m, "GCI0", "positive", [GCI0(0, 1)], candidates=[0, 4])
    with pytest.raises(KeyError):
        batch_losses(m, "GCI0", "positive", [GCI0(0, 1)], candidates=[-1, 2])
    with pytest.raises(KeyError):
        batch_losses(m, "GCI2", "positive", [GCI2(4, 0, 1)], candidates=[1, 2])
    with pytest.raises(ValueError, match="two concept slots, GCI0_BOT has one"):
        batch_losses(m, "GCI0_BOT", "positive", [GCI0Bot(1)], candidates=[1, 2])
    with pytest.raises(ValueError, match="gradient"):
        batch_losses(m, "GCI0", "positive", [GCI0(0, 1)], grad=zero_gradient(m), candidates=[1])
    assert batch_losses(m, "GCI0", "positive", [], candidates=[1, 2]).shape == (0, 2)


# ---------------------------------------------------------------------------
# the settled gradient scatter
# ---------------------------------------------------------------------------

#: signed zeros, cancelling pairs and magnitudes far apart make the float
#: order visible in the bytes
_SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e-300, 0.1, -0.3]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_settle_equals_sequential_add_at(data):
    """Pushes onto a 1-D and a 2-D block, with repeated rows, signed zeros and
    a nonzero start, settle to the bytes of one ``np.add.at`` per push in
    turn, whether they settle together or early in several parts; the
    touched masks mark exactly the pushed rows."""
    n_rows, dim = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))

    def array(shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(_SCATTER_VALUES, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    start = {"class_radius": array((n_rows,)), "class_center": array((n_rows, dim))}
    pushes = []
    for _ in range(data.draw(st.integers(0, 8))):
        block = data.draw(st.sampled_from(sorted(start)))
        rows = np.array(data.draw(st.lists(st.integers(0, n_rows - 1), max_size=6)), np.intp)
        factor = data.draw(st.sampled_from([1.0, -1.0, 0.5, -1 / 3]))
        pushes.append((block, rows, array((len(rows), *start[block].shape[1:])), factor))
    # floor 0: a push settles early once the pending entries exceed the gradient's size
    with mock.patch.object(losses, "_SETTLE_FLOOR", data.draw(st.sampled_from([0, 1 << 16]))):
        grad = Gradient({name: arr.copy() for name, arr in start.items()})
    for push in pushes:
        grad.push(*push)
    grad.settle()
    want = sequential_scatter(start, pushes)
    for name in start:
        assert grad[name].tobytes() == want[name].tobytes(), name
        pushed = np.zeros(n_rows, bool)
        for block, rows, _, _ in pushes:
            pushed[rows] |= block == name
        assert np.array_equal(grad.touched.get(name, np.zeros(n_rows, bool)), pushed), name


@pytest.mark.parametrize("tag", MODEL_TAGS)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_loss_pushes_settle_to_sequential_add_at(tag, data):
    """The pushes the loss terms make settle to the bytes of adding them one
    ``np.add.at`` at a time: a direct ``batch_losses`` call onto a start of
    signed zeros and nonzero values, and a ``total_loss`` over several
    (variant, polarity) groups with ids repeated, then the bump regularizer."""
    n_concepts, n_roles = 4, 2
    dim = data.draw(st.sampled_from([1, 3, 8]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = make_model(
        tag, n_concepts=n_concepts, n_roles=n_roles, dim=dim,
        margin=float(rng.choice([0.0, -0.1, 0.1])), epsilon=0.05, delta=1.5,
        reg_lambda=0.1 if tag == "box2el" else 0.0,
    )
    for name, arr in m.params.items():
        m.params[name] = rng.normal(0.0, 0.5, arr.shape) * (rng.random(arr.shape) > 0.2)
    requests = []
    for _ in range(data.draw(st.integers(1, 4))):
        cls = AXIOM_TAGS[data.draw(st.sampled_from(LOSS_VARIANTS))]
        bounds = [n_roles if f.name == "role" else n_concepts for f in dataclasses.fields(cls)]
        axioms = data.draw(st.lists(
            st.tuples(*(st.integers(0, b - 1) for b in bounds)).map(lambda ids: cls(*ids)),
            min_size=1, max_size=5,
        ))
        polarity = data.draw(st.sampled_from(["positive", "negative"]))
        requests.append(LossRequest(AxiomTable.from_axioms(axioms), polarity))

    recorded = []
    real_push, real_add_dense = Gradient.push, Gradient.add_dense

    def push(self, block, rows, d, factor):
        recorded.append((block, rows.copy(), d.copy(), factor))
        real_push(self, block, rows, d, factor)

    def add_dense(self, block, values):
        recorded.append((block, None, values.copy(), 1.0))
        real_add_dense(self, block, values)

    with mock.patch.object(Gradient, "push", push), \
            mock.patch.object(Gradient, "add_dense", add_dense):
        start = {name: rng.choice([0.0, -0.0, 1.0, -2.5], arr.shape)
                 for name, arr in m.params.items()}
        grad = Gradient({name: arr.copy() for name, arr in start.items()})
        ((variant, axioms),) = requests[0].groups
        batch_losses(m, variant, requests[0].polarity, axioms, grad=grad, weight=0.5)
        want = sequential_scatter(start, recorded)
        for name in start:
            assert grad[name].tobytes() == want[name].tobytes(), ("batch_losses", name)

        recorded.clear()
        grad = zero_gradient(m)
        total_loss(m, requests, grad=grad)
        want = sequential_scatter(zero_gradient(m), recorded)
        for name in start:
            assert grad[name].tobytes() == want[name].tobytes(), ("total_loss", name)


#: entries of ``_unit``'s rows: signed zeros, subnormals, NaN, infinities,
#: values whose squares overflow, and ordinary floats
_UNIT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, np.nan, np.inf, -np.inf, 1e300]),
    st.floats(-1e3, 1e3),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_unit_equals_masked_divide(data):
    """``_unit`` has the bytes of dividing only the rows whose norm is > 0
    into a +0 output, on rows that are all zero, all -0, subnormal, NaN,
    +-inf or mixed, with norms from ``_norm`` or set to 0, -0, NaN, +-inf
    or a negative value."""
    n_rows, dim = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    rows = []
    for _ in range(n_rows):
        fill = data.draw(st.one_of(st.none(), _UNIT_VALUES))
        rows.append([fill] * dim if fill is not None else
                    data.draw(st.lists(_UNIT_VALUES, min_size=dim, max_size=dim)))
    v = np.array(rows, dtype=float)
    with np.errstate(all="ignore"):
        nrm = losses._norm(v)
    for i in range(n_rows):
        nrm[i] = data.draw(st.sampled_from([nrm[i], 0.0, -0.0, np.nan, np.inf, -np.inf, -1.0]))
    with np.errstate(all="ignore"):
        want = np.divide(v, nrm[:, None], out=np.zeros_like(v), where=(nrm > 0)[:, None])
    assert losses._unit(v, nrm).tobytes() == want.tobytes()
