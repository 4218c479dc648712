"""Training-harness tests: loss oracle and closed-form gradient, Adam
behavior, rebalancing/splitting invariants, and end-to-end determinism."""

import copy
import gc
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from ptmfnet import autodiff as ad
from ptmfnet import training
from ptmfnet.autodiff import Tape, Tensor, collect_parameters
from ptmfnet.dataio import SynthSpec, load_manifest, synth_dataset
from ptmfnet.errors import ValidationError
from ptmfnet.metrics import compute_metrics
from ptmfnet.model import DepressionModel, ModelConfig, SampleFeatures, collate, load_sample_features
from ptmfnet.training import (Adam, Trainer, _resample_indices, cross_entropy, evaluate,
                              split_train_val, train)

SMALL = dict(audio_hidden=4, visual_hidden=4, coatt_lld_dim=4, coatt_mfcc_dim=4,
             coatt_w2v_dim=4, asp_attn_dim=4, d_model=8, tx_layers=1, tx_heads=2,
             tx_ffn=16, d_h=8, n_p=2, personality_dim=16, dropout=0.0)


@dataclass
class _Rec:
    """Minimal record stub exposing the label(task) accessor."""

    lab: int

    def label(self, task):
        return self.lab


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits_is_log_n():
    for n in (2, 3, 5):
        loss = cross_entropy(Tensor(np.zeros((1, n))), [0])
        assert loss.item() == pytest.approx(math.log(n), rel=1e-15)


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        logits = rng.standard_normal((1, n)) * 3
        label = int(rng.integers(n))
        p = np.exp(logits[0]) / np.exp(logits[0]).sum()
        loss = cross_entropy(Tensor(logits), [label])
        assert loss.item() == pytest.approx(-math.log(p[label]), rel=1e-12)


def test_cross_entropy_huge_logits_stay_finite():
    loss = cross_entropy(Tensor(np.array([[1000.0, -1000.0]])), [1])
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(2000.0, rel=1e-12)


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(1)
    logits_data = rng.standard_normal((1, 5))
    x = Tensor(logits_data, requires_grad=True)
    with Tape():
        loss = cross_entropy(x, [3])
        ad.backward(loss)
    p = np.exp(logits_data) / np.exp(logits_data).sum()
    expected = p.copy()
    expected[0, 3] -= 1.0
    np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValidationError, match="label"):
        cross_entropy(Tensor(np.zeros((1, 3))), [3])
    with pytest.raises(ValidationError, match="label"):
        cross_entropy(Tensor(np.zeros((1, 3))), [-1])
    with pytest.raises(ValidationError, match="label"):
        cross_entropy(Tensor(np.zeros((2, 3))), [1])  # one label for two rows


def test_cross_entropy_of_a_batch_is_the_mean_of_its_rows():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((6, 4)) * 3
    labels = [0, 3, 1, 1, 2, 0]
    x = Tensor(logits, requires_grad=True)
    with Tape():
        loss = cross_entropy(x, labels)
        ad.backward(loss)
    assert loss.shape == (1, 1)
    rows = [cross_entropy(Tensor(logits[i:i + 1]), [lab]).item() for i, lab in enumerate(labels)]
    assert loss.item() == pytest.approx(sum(rows) / 6, rel=1e-14)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    p[np.arange(6), labels] -= 1.0
    np.testing.assert_allclose(x.grad, p / 6, rtol=1e-12, atol=1e-17)


# ---------------------------------------------------------------------------
# Adam


class _PerTensorAdam:
    """The optimizer as it was before parameters were flattened: moments
    keyed by parameter name and one update per tensor. Oracle for `Adam`."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = {p.name: np.zeros_like(p.tensor.data) for p in params}
        self.v = {p.name: np.zeros_like(p.tensor.data) for p in params}

    def step(self):
        self.t += 1
        bc1 = 1.0 - 0.9 ** self.t
        bc2 = 1.0 - 0.999 ** self.t
        for name, tensor in self.params:
            g = tensor.grad
            m = self.m[name]
            v = self.v[name]
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * np.square(g)
            tensor.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


def _adam(values, lr):
    data = np.array(values, dtype=np.float64)
    grad = np.zeros_like(data)
    return data, grad, Adam(data, grad, lr)


def test_flatten_keeps_values_and_shares_memory():
    params = collect_parameters(DepressionModel(ModelConfig.compact(seed=0)))
    rng = np.random.default_rng(3)
    for p in params:
        p.tensor.grad[...] = rng.standard_normal(p.tensor.shape)
    values = [p.tensor.data.copy() for p in params]
    grads = [p.tensor.grad.copy() for p in params]
    data, grad = ad.flatten(params)
    np.testing.assert_array_equal(data, np.concatenate([v.ravel() for v in values]))
    np.testing.assert_array_equal(grad, np.concatenate([g.ravel() for g in grads]))
    for p, v, g in zip(params, values, grads):
        assert p.tensor.shape == v.shape
        np.testing.assert_array_equal(p.tensor.data, v)
        np.testing.assert_array_equal(p.tensor.grad, g)
        assert np.shares_memory(p.tensor.data, data) and np.shares_memory(p.tensor.grad, grad)
    data += 1.0
    grad[...] = 0.0
    for p, v in zip(params, values):
        np.testing.assert_array_equal(p.tensor.data, v + 1.0)
        assert not p.tensor.grad.any()


def test_flat_adam_matches_per_tensor_oracle_bitwise():
    cfg = ModelConfig.compact(seed=0)
    ref = collect_parameters(DepressionModel(cfg, np.random.default_rng(0)))
    flat = collect_parameters(DepressionModel(cfg, np.random.default_rng(0)))
    init = [p.tensor.data.copy() for p in flat]
    data, grad = ad.flatten(flat)
    oracle, opt = _PerTensorAdam(ref, lr=1e-2), Adam(data, grad, lr=1e-2)
    rng = np.random.default_rng(11)
    for _ in range(60):
        for p_ref, p_flat in zip(ref, flat):
            g = rng.standard_normal(p_ref.tensor.shape) * 10.0 ** rng.integers(-6, 4)
            p_ref.tensor.grad[...] = g
            p_flat.tensor.grad[...] = g
        oracle.step()
        opt.step()
    for p_ref, p_flat, p_init in zip(ref, flat, init):
        assert p_ref.name == p_flat.name
        assert np.all(p_flat.tensor.data != p_init)
        np.testing.assert_array_equal(p_flat.tensor.data, p_ref.tensor.data)


def test_adam_step_allocates_no_parameter_sized_array():
    data, grad, opt = _adam(np.linspace(-1.0, 1.0, 100_000), lr=1e-3)
    grad[...] = np.random.default_rng(12).standard_normal(grad.size)
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < data.nbytes // 8, (peak, data.nbytes)


def test_adam_zero_gradient_leaves_params_unchanged():
    data, grad, opt = _adam([1.5, -2.0, 0.25], lr=0.1)
    before = data.copy()
    for _ in range(5):
        opt.step()
    np.testing.assert_array_equal(data, before)


def test_adam_constant_gradient_step_approaches_lr():
    data, grad, opt = _adam([0.0], lr=1e-3)
    grad[...] = 0.37
    prev = data.copy()
    for t in range(1000):
        opt.step()
        if t == 999:
            step = prev - data
        prev = data.copy()
    # with m-hat == g and v-hat == g**2 the update magnitude converges to lr
    assert abs(step[0]) == pytest.approx(1e-3, rel=0.01)
    assert step[0] > 0  # moves against the gradient


def test_adam_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(7)
        data, grad, opt = _adam(rng.standard_normal(12), lr=0.01)
        for _ in range(20):
            grad[...] = rng.standard_normal(12)
            opt.step()
        return data

    np.testing.assert_array_equal(run(), run())


def test_adam_minimizes_quadratic():
    data, grad, opt = _adam([10.0], lr=0.1)
    for _ in range(800):
        grad[...] = 2.0 * (data - 3.0)
        opt.step()
    assert data[0] == pytest.approx(3.0, abs=1e-3)


# ---------------------------------------------------------------------------
# resampling


def _resample_epoch(records, task, n_classes, rng):
    """The records in the order `train` draws them for one epoch."""
    return [records[i] for i in _resample_indices([r.label(task) for r in records], n_classes, rng)]


def test_resample_balances_classes_and_keeps_everything():
    recs = [_Rec(0)] * 10 + [_Rec(1)] * 3 + [_Rec(2)] * 6
    out = _resample_epoch(recs, "ternary", 3, np.random.default_rng(0))
    counts = {c: sum(1 for r in out if r.lab == c) for c in range(3)}
    assert counts == {0: 10, 1: 10, 2: 10}
    # identity-level containment: every original object reappears
    ids = {id(r) for r in out}
    assert all(id(r) in ids for r in recs)


def test_resample_missing_class_raises():
    recs = [_Rec(0)] * 4 + [_Rec(2)] * 4
    with pytest.raises(ValidationError, match=r"class\(es\) \[1\]"):
        _resample_epoch(recs, "ternary", 3, np.random.default_rng(0))


def test_resample_deterministic_and_shuffled():
    recs = [_Rec(i % 2) for i in range(20)]
    a = _resample_epoch(recs, "binary", 2, np.random.default_rng(5))
    b = _resample_epoch(recs, "binary", 2, np.random.default_rng(5))
    assert [r.lab for r in a] == [r.lab for r in b]
    # a balanced-by-construction list would be grouped; shuffling breaks that
    labs = [r.lab for r in a]
    assert labs != sorted(labs)


def test_resample_already_balanced_is_a_permutation():
    recs = [_Rec(0)] * 5 + [_Rec(1)] * 5
    out = _resample_epoch(recs, "binary", 2, np.random.default_rng(1))
    assert len(out) == 10
    assert sorted(id(r) for r in out) == sorted(id(r) for r in recs)


# ---------------------------------------------------------------------------
# splitting


def test_split_is_a_partition_and_stratified():
    recs = [_Rec(0)] * 40 + [_Rec(1)] * 20
    train_r, val_r = split_train_val(recs, "binary", 0.2, np.random.default_rng(0))
    assert len(train_r) + len(val_r) == 60
    assert sorted(id(r) for r in train_r + val_r) == sorted(id(r) for r in recs)
    assert sum(1 for r in val_r if r.lab == 0) == 8
    assert sum(1 for r in val_r if r.lab == 1) == 4


def test_split_tiny_class_falls_back_with_warning():
    recs = [_Rec(0)] * 9 + [_Rec(1)]
    with pytest.warns(UserWarning, match="plain random split"):
        train_r, val_r = split_train_val(recs, "binary", 0.2, np.random.default_rng(0))
    assert len(train_r) + len(val_r) == 10
    assert len(val_r) >= 1 and len(train_r) >= 1


def test_split_never_returns_empty_sides():
    recs = [_Rec(0), _Rec(0), _Rec(1), _Rec(1)]
    train_r, val_r = split_train_val(recs, "binary", 0.2, np.random.default_rng(0))
    assert len(val_r) >= 1 and len(train_r) >= 1


def test_split_rejects_bad_fraction():
    recs = [_Rec(0)] * 4
    for frac in (0.0, 1.0, -0.3):
        with pytest.raises(ValidationError, match="val_fraction"):
            split_train_val(recs, "binary", frac, np.random.default_rng(0))


def test_split_deterministic():
    recs = [_Rec(i % 3) for i in range(30)]
    a = split_train_val(recs, "ternary", 0.25, np.random.default_rng(9))
    b = split_train_val(recs, "ternary", 0.25, np.random.default_rng(9))
    assert [id(r) for r in a[0]] == [id(r) for r in b[0]]
    assert [id(r) for r in a[1]] == [id(r) for r in b[1]]


# ---------------------------------------------------------------------------
# end-to-end training


def _tiny_cfg(**kw):
    merged = {**SMALL, "epochs": 2, "batch_size": 4, **kw}
    return ModelConfig(**merged)


@pytest.fixture(scope="module")
def synth_binary(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    manifest = synth_dataset(SynthSpec(n_samples=24, task="binary", class_sep=2.0),
                             np.random.default_rng(42), root)
    return load_manifest(manifest)


def test_train_produces_log_and_best_snapshot(synth_binary, tmp_path):
    cfg = _tiny_cfg(seed=1)
    log_path = tmp_path / "log.jsonl"
    state = train(cfg, synth_binary, log_path=log_path)
    assert isinstance(state, Trainer)
    assert len(state.log) == cfg.epochs
    for row in state.log:
        assert set(row) == {"epoch", "train_loss", "train_acc", "train_f1_task",
                            "val_acc_task", "val_f1_task"}
        assert np.isfinite(row["train_loss"])
    assert 0 <= state.best_epoch < cfg.epochs
    assert state.best_val_f1 == max(r["val_f1_task"] for r in state.log)
    lines = log_path.read_text().strip().splitlines()
    assert len(lines) == cfg.epochs
    parsed = [json.loads(line) for line in lines]
    assert parsed == [dict(sorted(r.items())) for r in state.log]


def test_train_restores_best_epoch_weights(synth_binary):
    cfg = _tiny_cfg(seed=3, epochs=3)
    state = train(cfg, synth_binary)
    # re-evaluating the returned model must reproduce the best epoch's
    # validation numbers exactly
    ss = np.random.SeedSequence(cfg.seed)
    _, split_ss, _, _ = ss.spawn(4)
    _, val_recs = split_train_val(synth_binary, cfg.task, cfg.val_fraction,
                                  np.random.default_rng(split_ss))
    val_feats = [load_sample_features(r, cfg) for r in val_recs]
    report = evaluate(state.model, val_feats)
    assert report.f1_task == state.best_val_f1
    assert report.to_dict() == state.val_metrics.to_dict()


def test_train_bitwise_deterministic(synth_binary, tmp_path):
    cfg = _tiny_cfg(seed=5)
    log_a = tmp_path / "a.jsonl"
    log_b = tmp_path / "b.jsonl"
    state_a = train(cfg, synth_binary, log_path=log_a)
    state_b = train(cfg, synth_binary, log_path=log_b)
    assert log_a.read_bytes() == log_b.read_bytes()
    for pa, pb in zip(collect_parameters(state_a.model),
                      collect_parameters(state_b.model)):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.tensor.data, pb.tensor.data)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_trainer_resumed_from_its_state_finishes_the_run_byte_for_byte(synth_binary, tmp_path, k):
    # a second Trainer re-runs the init and split draws in its constructor;
    # given only the optimizer's moments, step count and parameters, the
    # sample and dropout generators' states, the log and the best snapshot
    # of a run stopped after k epochs, it finishes that run exactly as an
    # uninterrupted train() does
    cfg = _tiny_cfg(seed=4, epochs=3, dropout=0.2)
    log = tmp_path / "log.jsonl"
    whole = train(cfg, synth_binary, log_path=log)
    stopped = Trainer(cfg, synth_binary)
    for _ in range(k):
        stopped.epoch()

    resumed = Trainer(cfg, synth_binary)
    for name in ("m", "v", "data"):
        getattr(resumed.optimizer, name)[...] = getattr(stopped.optimizer, name)
    resumed.optimizer.t = stopped.optimizer.t
    for name in ("rng_sample", "rng_drop"):
        getattr(resumed, name).bit_generator.state = getattr(stopped, name).bit_generator.state
    for name in ("log", "best", "best_epoch", "best_val_f1", "val_metrics", "train_metrics"):
        setattr(resumed, name, copy.deepcopy(getattr(stopped, name)))
    for _ in range(k, cfg.epochs):
        resumed.epoch()
    resumed.restore_best()

    assert "".join(json.dumps(row, sort_keys=True) + "\n" for row in resumed.log) == log.read_text()
    assert resumed.optimizer.data.tobytes() == whole.optimizer.data.tobytes()
    assert (resumed.best_epoch, resumed.best_val_f1) == (whole.best_epoch, whole.best_val_f1)
    assert resumed.val_metrics.to_dict() == whole.val_metrics.to_dict()


def test_divergence_in_a_later_epoch_names_that_epoch_and_logs_no_row(synth_binary, monkeypatch):
    # the trainer's own check, which PTMFNET_DEBUG=1's per-op check would pre-empt
    monkeypatch.setattr(ad, "DEBUG_CHECKS", False)
    trainer = Trainer(_tiny_cfg(seed=1), synth_binary)
    trainer.epoch()
    trainer.optimizer.lr = 1e300  # the first step of the next epoch blows the parameters up
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="diverged at epoch 1, step 1"):
        trainer.epoch()
    assert [row["epoch"] for row in trainer.log] == [0]


def test_train_frees_each_step_graph_without_the_cycle_collector(synth_binary):
    # each step's tape is emptied once backward has run, so no node or
    # tensor of a step waits for the cycle collector, and peak memory does
    # not depend on when that collector happens to run
    gc.collect()
    gc.disable()
    try:
        train(_tiny_cfg(seed=6, epochs=1), synth_binary)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leftover = [type(o).__name__ for o in gc.garbage if isinstance(o, (ad.Node, ad.Tape, Tensor))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leftover == []


def test_train_seed_changes_trajectory(synth_binary):
    a = train(_tiny_cfg(seed=1, epochs=1), synth_binary)
    b = train(_tiny_cfg(seed=2, epochs=1), synth_binary)
    assert a.log[0]["train_loss"] != b.log[0]["train_loss"]


def test_single_step_descends_on_repeated_batch(synth_binary):
    """With a small enough learning rate one Adam step on a fixed batch
    must reduce that batch's loss; checked over 10 independent inits."""
    feats_cfg = _tiny_cfg()
    feats = [load_sample_features(r, feats_cfg) for r in synth_binary[:4]]

    def batch_loss(model):
        batch = collate(feats)
        with Tape():
            loss = cross_entropy(model.forward(batch), batch.labels)
            params = collect_parameters(model)
            for p in params:
                p.tensor.zero_grad()
            ad.backward(loss)
        return loss.item()

    for trial in range(10):
        cfg = _tiny_cfg(seed=100 + trial, lr=1e-4)
        model = DepressionModel(cfg)
        opt = Adam(*ad.flatten(collect_parameters(model)), cfg.lr)
        before = batch_loss(model)
        opt.step()
        after = batch_loss(model)
        assert after < before, f"trial {trial}: {after} !< {before}"


def test_evaluate_matches_manual_predictions(synth_binary):
    cfg = _tiny_cfg(seed=8)
    feats = [load_sample_features(r, cfg) for r in synth_binary[:6]]
    model = DepressionModel(cfg)
    report = evaluate(model, feats)
    alone = [int(np.argmax(model.forward(collate([f])).data[0])) for f in feats]
    manual = compute_metrics([f.label for f in feats], alone, cfg.n_classes)
    assert report.to_dict() == manual.to_dict()


def test_evaluate_ignores_batch_size_and_dropout(synth_binary):
    # evaluation batches are cut by a frame budget, not by the batch size,
    # and draw no random numbers, so neither changes a report
    feats = [load_sample_features(r, _tiny_cfg()) for r in synth_binary[:7]]
    reports = []
    for batch_size, dropout in ((1, 0.0), (3, 0.0), (8, 0.5)):
        cfg = _tiny_cfg(seed=8, batch_size=batch_size, dropout=dropout)
        reports.append(evaluate(DepressionModel(cfg), feats).to_dict())
    assert reports[0] == reports[1] == reports[2]


def _oracle_predictions(model, samples, batch_size):
    """The predictions of `evaluate` as it ran before: batches of
    `batch_size` samples, in input order."""
    preds = []
    for start in range(0, len(samples), batch_size):
        preds.extend(np.argmax(model.forward(collate(samples[start:start + batch_size])).data, axis=1).tolist())
    return preds


@pytest.mark.parametrize("budget", [training.EVAL_FRAMES, 40])
def test_evaluate_predicts_what_input_order_batches_of_batch_size_predict(synth_binary, monkeypatch, budget):
    state = train(_tiny_cfg(seed=8, epochs=3), synth_binary)
    feats = [load_sample_features(r, state.config) for r in synth_binary]
    monkeypatch.setattr(training, "EVAL_FRAMES", budget)
    seen = []
    monkeypatch.setattr(training, "compute_metrics", lambda y, p, n: seen.append(p) or compute_metrics(y, p, n))
    report = evaluate(state.model, feats)
    for batch_size in (1, 3, 8):
        oracle = _oracle_predictions(state.model, feats, batch_size)
        assert seen[0] == oracle
        assert report.to_dict() == compute_metrics([f.label for f in feats], oracle, 2).to_dict()


def _frames(f):
    return max(len(f.audio["lld"]), len(f.visual))


def test_evaluate_batches_hold_two_samples_or_more_within_the_budget(synth_binary, monkeypatch):
    feats = [load_sample_features(r, _tiny_cfg()) for r in synth_binary]
    frames = [_frames(f) for f in feats]
    assert frames != sorted(frames) and frames != sorted(frames, reverse=True)
    # no sample is over a third of the budget, so no batch needs to exceed it
    monkeypatch.setattr(training, "EVAL_FRAMES", 3 * max(frames))
    batches = []
    monkeypatch.setattr(training, "collate", lambda chunk: batches.append(chunk) or collate(chunk))
    evaluate(DepressionModel(_tiny_cfg(seed=8)), feats)
    assert len(batches) > 2
    assert sorted(id(f) for chunk in batches for f in chunk) == sorted(id(f) for f in feats)
    for chunk in batches:
        assert 2 <= len(chunk) and len(chunk) * max(_frames(f) for f in chunk) <= training.EVAL_FRAMES


def _feats_of_length(frames):
    return [SampleFeatures(audio={"lld": np.zeros((t, 1))}, visual=np.zeros((1, 1)), personality=np.zeros(1),
                           label=0) for t in frames]


@pytest.mark.parametrize("frames,expected", [
    ([5], [[0]]),  # one sample is a batch of one
    ([30, 25], [[0, 1]]),  # over the budget, but never alone
    ([3, 9, 4, 8, 2], [[1, 3], [2, 0, 4]]),  # longest first, stable among equals
    ([10, 10, 10, 10, 10], [[0, 1], [2, 3, 4]]),  # three, not two and one
    ([4, 4, 4, 4, 4, 4, 12], [[6, 0], [1, 2, 3, 4, 5]]),
    ([5, 5, 5, 5, 5, 5, 5, 5, 5], [[0, 1, 2, 3], [4, 5, 6], [7, 8]]),  # 3 and 2, not 4 and 1
])
def test_eval_batches_sort_by_length_and_leave_no_sample_alone(monkeypatch, frames, expected):
    monkeypatch.setattr(training, "EVAL_FRAMES", 20)
    assert training._eval_batches(_feats_of_length(frames)) == expected


def test_train_zero_epochs_still_reports(synth_binary):
    state = train(_tiny_cfg(seed=4, epochs=0), synth_binary)
    assert state.log == []
    assert state.val_metrics is not None
    assert state.train_metrics is not None
