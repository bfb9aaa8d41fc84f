"""Trainer: gradient correctness, determinism, scheduler, checkpoints."""

import contextlib
import json
import math
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import DenseAdam, random_theory

from elkbc.core import (
    VARIANTS,
    GCI0,
    GCI0Bot,
    GCI1,
    GCI1Bot,
    GCI2,
    GCI3,
    GCI3Bot,
    parse_theory,
)
from elkbc.closure import compute_closure
from elkbc.losses import (
    LOSS_VARIANTS, MODEL_TAGS, LossRequest, batch_losses, total_loss, zero_gradient,
)
from elkbc import training
from elkbc.reasoner import classify
from elkbc.sampling import SamplerConfig
from elkbc.toy import toy_theory
from elkbc.training import (
    TrainConfig,
    TrainingError,
    gradient,
    init_model,
    load_checkpoint,
    save_checkpoint,
    signature_hash,
    train,
)

AXIOM_OF = {
    "GCI0": GCI0(0, 1),
    "GCI1": GCI1(0, 1, 2),
    "GCI2": GCI2(0, 0, 1),
    "GCI3": GCI3(0, 0, 1),
    "GCI0_BOT": GCI0Bot(0),
    "GCI1_BOT": GCI1Bot(0, 1),
    "GCI3_BOT": GCI3Bot(0, 0),
}


def _random_point(tag, rng):
    m = init_model(tag, 3, 1, 3, seed=int(rng.integers(0, 2**31)),
                   margin=float(rng.uniform(-0.1, 0.1)), epsilon=0.1,
                   delta=float(rng.uniform(0.3, 1.5)),
                   reg_lambda=0.1 if tag == "box2el" else 0.0)
    for name in m.params:
        m.params[name] = m.params[name] + rng.normal(0, 0.3, m.params[name].shape)
    return m


def _fd(model, requests, h):
    grad = {}
    for name, arr in model.params.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + h
            lp = total_loss(model, requests)
            arr[ix] = orig - h
            lm = total_loss(model, requests)
            arr[ix] = orig
            g[ix] = (lp - lm) / (2 * h)
        grad[name] = g
    return grad


#: three axioms per variant sharing concept and role ids, in mixed polarity;
#: an id repeated within a (variant, polarity) group makes the gradient
#: scatter accumulate several contributions onto one parameter row
SHARED_OF = {
    "GCI0": [(GCI0(0, 1), "positive"), (GCI0(0, 2), "positive"), (GCI0(1, 2), "negative")],
    "GCI1": [(GCI1(0, 1, 2), "positive"), (GCI1(1, 2, 0), "negative"),
             (GCI1(0, 2, 1), "negative")],
    "GCI2": [(GCI2(0, 0, 1), "positive"), (GCI2(1, 0, 1), "positive"),
             (GCI2(1, 0, 2), "negative")],
    "GCI3": [(GCI3(0, 0, 1), "negative"), (GCI3(0, 2, 1), "negative"),
             (GCI3(0, 1, 2), "positive")],
    "GCI0_BOT": [(GCI0Bot(0), "positive"), (GCI0Bot(1), "negative"), (GCI0Bot(1), "negative")],
    "GCI1_BOT": [(GCI1Bot(0, 1), "positive"), (GCI1Bot(0, 2), "positive"),
                 (GCI1Bot(1, 2), "negative")],
    "GCI3_BOT": [(GCI3Bot(0, 0), "positive"), (GCI3Bot(0, 1), "negative"),
                 (GCI3Bot(0, 1), "negative")],
}


@pytest.mark.parametrize("tag", ["elem", "elbe", "box2el"])
def test_gradients_match_central_differences(tag):
    """100 random smooth points per request list: one axiom per (variant,
    polarity), and per variant three axioms sharing ids; points within reach
    of a kink are detected by disagreeing step sizes and redrawn."""
    rng = np.random.default_rng(99)
    for variant in LOSS_VARIANTS:
        request_lists = [
            [LossRequest(AXIOM_OF[variant], "positive")],
            [LossRequest(AXIOM_OF[variant], "negative")],
            [LossRequest(ax, polarity) for ax, polarity in SHARED_OF[variant]],
        ]
        for requests in request_lists:
            checked = 0
            attempts = 0
            while checked < 100 and attempts < 300:
                attempts += 1
                m = _random_point(tag, rng)
                fd1 = _fd(m, requests, 1e-5)
                fd2 = _fd(m, requests, 5e-6)
                smooth = all(
                    np.allclose(fd1[k], fd2[k], rtol=1e-6, atol=1e-7) for k in fd1
                )
                if not smooth:
                    continue
                analytic = gradient(m, requests)
                for name in analytic:
                    err = np.abs(analytic[name] - fd1[name])
                    scale = np.maximum(1.0, np.abs(fd1[name]))
                    assert np.all(err / scale <= 1e-4), (tag, requests, name)
                checked += 1
            assert checked == 100, (tag, requests, attempts)


def test_radius_floor_gradient_is_minus_one():
    m = init_model("elem", 3, 1, 2, seed=0, epsilon=0.1)
    m.params["class_radius"][0] = 0.05  # below the floor
    grad = gradient(m, [LossRequest(GCI0Bot(0), "negative")])
    assert grad["class_radius"][0] == pytest.approx(-1.0)


def test_zero_loss_configuration_has_zero_hinge_gradient():
    m = init_model("elbe", 3, 1, 2, seed=1)
    m.params["class_center"][0] = m.params["class_center"][1]
    m.params["class_offset"][0] = np.array([0.05, 0.05])
    m.params["class_offset"][1] = np.array([0.3, 0.3])
    grad = gradient(m, [LossRequest(GCI0(0, 1), "positive")])
    for arr in grad.values():
        assert np.all(arr == 0.0)


class TestInit:
    def test_ball_centers_unit_norm(self):
        m = init_model("elem", 8, 1, 2, seed=0)
        np.testing.assert_allclose(
            np.linalg.norm(m.params["class_center"], axis=1), 1.0, atol=1e-12
        )

    def test_same_seed_same_init(self):
        a = init_model("box2el", 5, 2, 4, seed=3)
        b = init_model("box2el", 5, 2, 4, seed=3)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_parameter_count_layout(self):
        m = init_model("elem", 8, 1, 2, seed=0)
        assert m.n_parameters() == 8 * 3 + 1 * 2

    def test_offset_ranges(self):
        m = init_model("elbe", 50, 3, 4, seed=0)
        off = m.params["class_offset"]
        assert off.min() >= 0.05 and off.max() <= 0.3
        bumps = init_model("box2el", 50, 3, 4, seed=0).params["class_bump"]
        assert np.abs(bumps).max() <= 0.1


TOY = "GCI0 A B\nGCI2 A r E\nGCI1_BOT B E\n#concept F\n#concept G\n"


def _cfg(**kw):
    base = dict(
        model="elem", dim=2, learning_rate=0.05, epochs=30, batch_size=8, seed=1,
        negative_scope="all-forms", sampler=SamplerConfig(mode="random"),
        patience=100, early_stop=100,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_determinism_bitwise(self):
        theory = parse_theory(TOY)
        m1, log1 = train(theory, _cfg())
        m2, log2 = train(theory, _cfg())
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])
        assert log1 == log2

    def test_epochs_validated(self):
        with pytest.raises(ValueError, match="epochs >= 1"):
            _cfg(epochs=0)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="box2el"):
            _cfg(model="boxel")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("negatives_per_positive", 0),
            ("negatives_per_positive", -3),
            ("learning_rate", 0.0),
            ("learning_rate", -1.0),
            ("patience", -1),
            ("early_stop", 0),
            ("validation", []),
        ],
    )
    def test_out_of_range_settings_rejected(self, field, value):
        with pytest.raises(ValueError):
            _cfg(**{field: value})

    def test_radii_and_offsets_clamped(self):
        theory = parse_theory(TOY)
        for tag in ("elem", "elbe", "box2el"):
            model, _ = train(theory, _cfg(model=tag, learning_rate=0.3, epochs=40))
            for name, arr in model.params.items():
                if name.endswith("_radius") or name.endswith("_offset"):
                    assert arr.min() >= 0.0

    def test_loss_improves_and_best_is_monotone(self):
        theory = parse_theory(TOY)
        _, log = train(theory, _cfg(epochs=60))
        losses = [e["train_loss"] for e in log]
        best = np.minimum.accumulate(losses)
        assert np.all(np.diff(best) <= 0)
        assert best[-1] < losses[0]

    def test_early_stopping_cuts_run_short(self):
        theory = parse_theory("GCI0 A B\n")
        cfg = _cfg(epochs=300, early_stop=5, patience=2, learning_rate=0.5,
                   negative_scope="none")
        _, log = train(theory, cfg)
        assert len(log) < 300

    def test_plateau_reduces_learning_rate(self):
        theory = parse_theory("GCI0 A B\n")
        cfg = _cfg(epochs=120, patience=3, early_stop=1000, learning_rate=0.5,
                   negative_scope="none")
        _, log = train(theory, cfg)
        assert log[-1]["lr"] < 0.5
        assert log[-1]["lr"] >= 1e-6

    def test_plateau_decay_never_raises_the_rate(self):
        # F is in no axiom, so the validation loss of GCI0_BOT(F) is constant
        # and every epoch after the first is a plateau; 1e-7 lies below the floor
        theory = parse_theory(TOY)
        val = [GCI0Bot(theory.signature.concepts.id_of("F"))]
        cfg = _cfg(epochs=4, patience=0, learning_rate=1e-7, negative_scope="none",
                   validation=val)
        _, log = train(theory, cfg)
        assert len({e["val_loss"] for e in log}) == 1
        assert [e["lr"] for e in log] == [1e-7] * 4

    def test_epoch_log_reports_group_losses(self):
        theory = parse_theory(TOY)
        _, log = train(theory, _cfg(epochs=3))
        assert all(
            set(e["losses"]) == {f"{tag}/{polarity}" for tag in ("GCI0", "GCI2", "GCI1_BOT")
                                 for polarity in ("positive", "negative")}
            for e in log
        )
        # one group, one step per batch: its mean over the steps is the train loss
        _, log = train(parse_theory("GCI0 A B\nGCI0 B C\nGCI0 A C\n"),
                       _cfg(epochs=3, batch_size=1, negative_scope="none"))
        assert [e["losses"] for e in log] == [{"GCI0/positive": e["train_loss"]} for e in log]

    def test_epoch_log_reports_active_fractions(self, monkeypatch):
        """``active`` is, per group, the fraction of its axioms whose loss is
        nonzero at the step's parameters, averaged over the epoch's steps
        like ``losses``."""
        per_step = []  # one {group: fraction} per training step
        real_total_loss = training.total_loss

        def recording(model, requests, grad=None):
            if grad is not None:
                fractions = {}
                for req in requests:
                    for tag, rows in req.groups:
                        values = batch_losses(model, tag, req.polarity, rows)
                        fractions[f"{tag}/{req.polarity}"] = np.count_nonzero(values) / len(values)
                per_step.append(fractions)
            return real_total_loss(model, requests, grad=grad)

        monkeypatch.setattr(training, "total_loss", recording)
        _, log = train(toy_theory(), _cfg(epochs=3, batch_size=4))
        steps = len(per_step) // len(log)
        for i, entry in enumerate(log):
            groups: dict[str, list[float]] = {}
            for fractions in per_step[i * steps : (i + 1) * steps]:
                for key, fraction in fractions.items():
                    groups.setdefault(key, []).append(fraction)
            assert entry["active"] == {key: sum(f) / len(f) for key, f in groups.items()}
            assert set(entry["active"]) == set(entry["losses"])
        assert any(0 < f < 1 for entry in log for f in entry["active"].values())

    def test_validation_axioms_drive_the_schedule(self):
        theory = parse_theory(TOY)
        val = list(parse_theory(TOY).axioms)[:1]
        _, log = train(theory, _cfg(validation=val, epochs=10))
        assert all(math.isfinite(e["val_loss"]) for e in log)

    def test_empty_theory_rejected(self):
        with pytest.raises(TrainingError):
            train(parse_theory("RI0 r s\n"), _cfg())

    def test_non_finite_gradient_rejected(self):
        m = init_model("elem", 3, 1, 2, seed=0)
        m.params["class_center"][0, 0] = np.nan
        with pytest.raises(TrainingError):
            gradient(m, [LossRequest(GCI0(0, 1), "positive")])


    def test_epoch_log_reports_sampler_counters(self):
        # seeded counts: a change of the sampler's stream or rounds moves them
        theory = parse_theory(TOY)
        index, hierarchy, _ = classify(theory)
        dc = compute_closure(theory, index, hierarchy)
        cfg = _cfg(epochs=3, negatives_per_positive=3, sampler=SamplerConfig(mode="filtered"))
        _, log = train(theory, cfg, dc)
        assert [e["negatives_drawn"] for e in log] == [13, 13, 17]
        assert [e["negatives_entailed_rejected"] for e in log] == [1, 1, 4]
        assert [e["negatives_skipped"] for e in log] == [0, 0, 0]
        _, log = train(theory, replace(cfg, sampler=SamplerConfig(mode="random")))
        assert [e["negatives_drawn"] for e in log] == [12, 12, 10]
        assert [e["negatives_entailed_rejected"] for e in log] == [0, 0, 0]
        _, log = train(theory, replace(cfg, negative_scope="none"), dc)
        assert [(e["negatives_drawn"], e["negatives_entailed_rejected"]) for e in log] == [(0, 0)] * 3

    def test_epoch_log_reports_skipped_negatives(self, monkeypatch):
        # A is unsatisfiable, so every corruption of GCI0(A, B) is entailed
        # and its filtered draws exhaust; the other axioms' draws succeed
        theory = parse_theory("GCI0 A B\nGCI0_BOT A\nGCI0 C D\n")
        index, hierarchy, _ = classify(theory)
        dc = compute_closure(theory, index, hierarchy, mode="oracle")
        reported = []
        real_sample_batch = training.sample_batch

        def recording(*args, **kwargs):
            negatives, skipped = real_sample_batch(*args, **kwargs)
            reported.append(skipped)
            return negatives, skipped

        monkeypatch.setattr(training, "sample_batch", recording)
        cfg = _cfg(epochs=3, negatives_per_positive=2, sampler=SamplerConfig(mode="filtered"))
        _, log = train(theory, cfg, dc)
        per_epoch = len(reported) // len(log)
        assert [e["negatives_skipped"] for e in log] == [
            sum(reported[i : i + per_epoch]) for i in range(0, len(reported), per_epoch)
        ]
        assert all(e["negatives_skipped"] > 0 for e in log)

    def test_nan_gradient_with_finite_loss_stops_training(self, monkeypatch):
        real_total_loss = training.total_loss

        def poisoned(model, requests, grad=None):
            loss = real_total_loss(model, requests, grad=grad)
            if grad is not None:
                _send(grad, "class_center", 0, np.nan)
            return loss

        monkeypatch.setattr(training, "total_loss", poisoned)
        with pytest.raises(TrainingError, match="gradient"):
            train(parse_theory(TOY), _cfg(epochs=1))

    def test_direct_write_into_the_training_gradient_raises(self, monkeypatch):
        real_total_loss = training.total_loss

        def writing(model, requests, grad=None):
            loss = real_total_loss(model, requests, grad=grad)
            if grad is not None:
                grad["class_center"][0, 0] = 1.0
            return loss

        monkeypatch.setattr(training, "total_loss", writing)
        with pytest.raises(ValueError, match="read-only"):
            train(parse_theory(TOY), _cfg(epochs=1))


def _send(grad, block, row, value, dense=False):
    """Put ``value`` into the first entry of one row of the block through the
    gradient's own writers: a settled push, or a dense add of zeros
    elsewhere."""
    d = np.zeros((1, *grad[block].shape[1:]))
    d.reshape(-1)[0] = value
    if dense:
        values = np.zeros(grad[block].shape)
        values[row] = d[0]
        grad.add_dense(block, values)
    else:
        grad.push(block, np.array([row]), d, 1.0)
        grad.settle()


def _train_outcome(theory, cfg, dc=None, dense=False):
    """Trained parameter bytes and the repr of the epoch log (bitwise, -0.0
    apart from 0.0), or the error that stopped training."""
    with mock.patch.object(training, "_Adam", DenseAdam) if dense else contextlib.nullcontext():
        try:
            model, log = train(theory, cfg, dc)
        except TrainingError as exc:
            return f"TrainingError: {exc}"
    return {name: arr.tobytes() for name, arr in model.params.items()}, repr(log)


class TestRowSparseAdam:
    """The step updates only live rows; the dense step in ``oracles`` is the
    reference it must equal bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        theory_seed=st.integers(0, 2**32 - 1),
        model=st.sampled_from(MODEL_TAGS),
        reg_lambda=st.sampled_from([0.0, 0.1]),
        scope=st.sampled_from(["all-forms", "gci2-only", "none"]),
        mode=st.sampled_from(["random", "filtered"]),
        batch_size=st.integers(1, 4),
        epochs=st.integers(1, 4),
        patience=st.sampled_from([0, 100]),
        learning_rate=st.sampled_from([0.05, 0.5]),
    )
    def test_matches_dense_step(self, theory_seed, model, reg_lambda, scope, mode, batch_size,
                                epochs, patience, learning_rate):
        theory = random_theory(np.random.default_rng(theory_seed), max_concepts=10)
        assume(np.isin(theory.table.codes, [VARIANTS.index(t) for t in LOSS_VARIANTS]).any())
        dc = None
        if mode == "filtered":
            index, hierarchy, _ = classify(theory)
            dc = compute_closure(theory, index, hierarchy)
        cfg = _cfg(model=model, dim=3, reg_lambda=reg_lambda, negative_scope=scope,
                   sampler=SamplerConfig(mode=mode), batch_size=batch_size, epochs=epochs,
                   patience=patience, learning_rate=learning_rate, seed=theory_seed % 97)
        assert _train_outcome(theory, cfg, dc) == _train_outcome(theory, cfg, dc, dense=True)

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_matches_dense_step_across_a_plateau(self, tag):
        theory = parse_theory(TOY)
        val = [GCI0Bot(theory.signature.concepts.id_of("F"))]
        cfg = _cfg(model=tag, epochs=4, patience=0, negative_scope="none", validation=val)
        sparse = _train_outcome(theory, cfg)
        assert sparse == _train_outcome(theory, cfg, dense=True)
        assert "'lr': 0.005" in sparse[1]  # the rate fell after the first epoch

    @pytest.mark.parametrize("block, row", [("class_radius", "F"), ("role_vector", "s")])
    def test_nan_in_untouched_row_stops_training(self, monkeypatch, block, row):
        theory = parse_theory(TOY + "#role s\n")
        ids = theory.signature.roles if block.startswith("role") else theory.signature.concepts
        real_total_loss = training.total_loss

        def poisoned(model, requests, grad=None):
            loss = real_total_loss(model, requests, grad=grad)
            if grad is not None:
                _send(grad, block, ids.id_of(row), np.nan)
            return loss

        monkeypatch.setattr(training, "total_loss", poisoned)
        with pytest.raises(TrainingError, match=block):
            train(theory, _cfg(epochs=1, negative_scope="none"))

    @pytest.mark.parametrize("tag, reg_lambda", [("elem", 0.0), ("elbe", 0.0), ("box2el", 0.0),
                                                 ("box2el", 0.1)])
    def test_rows_of_unmentioned_concepts_stay_at_init(self, tag, reg_lambda):
        theory = parse_theory(TOY)
        concepts = theory.signature.concepts
        mentioned = [concepts.id_of(name) for name in "ABE"]
        cfg = _cfg(model=tag, reg_lambda=reg_lambda, epochs=5,
                   sampler=SamplerConfig(mode="random", pool=tuple(mentioned)))
        model, _ = train(theory, cfg)
        init = init_model(tag, theory.n_concepts, theory.n_roles, cfg.dim, cfg.seed,
                          reg_lambda=reg_lambda)
        unmentioned = [concepts.id_of("F"), concepts.id_of("G")]
        for name, arr in model.params.items():
            if name.startswith("class_"):
                # the bump regularizer moves every bump row
                same = arr[unmentioned].tobytes() == init.params[name][unmentioned].tobytes()
                assert same != (name == "class_bump" and reg_lambda > 0), name
                assert arr[mentioned].tobytes() != init.params[name][mentioned].tobytes()


def _adam_state(adam, params):
    """Bytes of every parameter and of the optimizer's live rows and moments."""
    state = {name: arr.tobytes() for name, arr in params.items()}
    for name, live in adam.live.items():
        state[name, "rows"] = live.rows.tobytes() + live.is_live.tobytes()
        state[name, "moments"] = [(m.tobytes(), v.tobytes()) for m, v in live.pages]
    return state, adam.t


#: a row the pushes reach, a concept no axiom mentions, the regularizer's
#: dense block, a role no axiom mentions
_GUARDED_ROWS = [("class_center", "A"), ("class_offset", "G"), ("class_bump", "F"),
                 ("role_head_center", "s")]


class TestAdamGuard:
    """A non-finite gradient entry in any row of any block, sent through a
    push or a dense add, stops the step before any parameter or moment
    moves; the fenced buffer takes no other writes."""

    def _stepped(self):
        """A box2el model, its optimizer after two steps (live rows with
        nonzero moments) and the gradient of a third, not yet applied."""
        theory = parse_theory(TOY + "#role s\n")
        model = init_model("box2el", theory.n_concepts, theory.n_roles, 3, seed=0,
                           reg_lambda=0.1)
        adam, grad = training._Adam(model), zero_gradient(model)
        requests = [LossRequest(theory.table, "positive")]
        for _ in range(2):
            total_loss(model, requests, grad=grad)
            adam.step(model.params, grad, 0.1)
        total_loss(model, requests, grad=grad)
        return theory, model, adam, grad

    def _assert_stops(self, block, row, value, dense):
        theory, model, adam, grad = self._stepped()
        ids = theory.signature.roles if block.startswith("role") else theory.signature.concepts
        _send(grad, block, ids.id_of(row), value, dense=dense)
        before = _adam_state(adam, model.params)
        with pytest.raises(TrainingError, match=f"block {block}"):
            adam.step(model.params, grad, 0.1)
        assert _adam_state(adam, model.params) == before

    @pytest.mark.parametrize("block, row", _GUARDED_ROWS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_stops_the_step(self, block, row, value):
        self._assert_stops(block, row, value, dense=False)

    @pytest.mark.parametrize("block, row", _GUARDED_ROWS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_dense_add_stops_the_step(self, block, row, value):
        self._assert_stops(block, row, value, dense=True)

    def test_direct_write_raises(self):
        _, model, adam, grad = self._stepped()
        for name, g in grad.items():
            with pytest.raises(ValueError, match="read-only"):
                g[0] = np.nan
            with pytest.raises(ValueError, match="read-only"):
                g += 1.0
        assert not any(g.flags.writeable for g in gradient(model, []).values())

    def test_step_leaves_the_buffer_all_positive_zero(self):
        _, model, adam, grad = self._stepped()
        adam.step(model.params, grad, 0.1)
        for name, g in grad.items():
            assert g.tobytes() == np.zeros_like(g).tobytes(), name
            assert not g.flags.writeable, name
            assert not grad.touched.get(name, np.zeros(1, bool)).any(), name


def _saved_checkpoint(tmp_path):
    model, _ = train(parse_theory(TOY), _cfg(epochs=1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    return path


def _with_header(blob: bytes, **changes) -> bytes:
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = json.loads(blob[8 : 8 + hlen])
    header.update(changes)
    new = json.dumps(header).encode("utf-8")
    return blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + hlen :]


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        theory = parse_theory(TOY)
        model, _ = train(theory, _cfg(epochs=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, sig_hash=signature_hash(theory), extra={"note": "t"})
        loaded, header = load_checkpoint(path)
        assert loaded.tag == model.tag and loaded.dim == model.dim
        assert header["signature_hash"] == signature_hash(theory)
        assert header["config"] == {"note": "t"}
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_signature_hash_tracks_names(self):
        a = parse_theory("GCI0 A B\n")
        b = parse_theory("GCI0 A C\n")
        assert signature_hash(a) != signature_hash(b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_data_rejected(self, tmp_path):
        path = _saved_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = _saved_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = _saved_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["n_concepts", "dim", "n_roles"])
    def test_blocks_must_match_header_sizes(self, tmp_path, field):
        path = _saved_checkpoint(tmp_path)
        header_value = load_checkpoint(path)[1][field]
        path.write_bytes(_with_header(path.read_bytes(), **{field: header_value + 1}))
        with pytest.raises(ValueError, match="disagree"):
            load_checkpoint(path)
