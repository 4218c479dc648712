"""Training harness: objective, optimizer, class rebalancing, stratified
splitting, the epoch loop with best-snapshot selection, and evaluation.

Each training step collates its mini-batch into one padded batch and
records one tape: one forward pass and one loss op, whatever the batch
size. Evaluation runs the same forward on batches of `batch_size` samples.

Runs are bitwise deterministic for a fixed config: every random choice
(init, split, resampling, dropout) draws from independent generators
spawned off the config seed, in a fixed order.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor, collect_parameters, cross_entropy
from .dataio import atomic_write
from .errors import ValidationError
from .metrics import MetricsReport, compute_metrics
from .model import DepressionModel, ModelConfig, SampleFeatures, collate, load_sample_features


# Adam's moment decay rates and denominator guard, as in Kingma & Ba (2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction over one flat parameter vector and
    its gradient (see `autodiff.flatten`), both updated in place."""

    def __init__(self, data: np.ndarray, grad: np.ndarray, lr: float):
        self.data, self.grad, self.lr = data, grad, lr
        self.t = 0
        self.m, self.v = np.zeros_like(data), np.zeros_like(data)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        self.m *= BETA1
        self.m += (1.0 - BETA1) * self.grad
        self.v *= BETA2
        self.v += (1.0 - BETA2) * np.square(self.grad)
        self.data -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + EPS)


# ---------------------------------------------------------------------------
# sampling and splitting


def _resample_indices(labels: list[int], n_classes: int, rng: np.random.Generator) -> list[int]:
    """One epoch's sample order: minority classes oversampled with replacement
    to a uniform class distribution, then shuffled. Every index appears at
    least once."""
    groups = [[] for _ in range(n_classes)]
    for i, lab in enumerate(labels):
        groups[lab].append(i)
    empty = [c for c, g in enumerate(groups) if not g]
    if empty:
        raise ValidationError(f"cannot rebalance: class(es) {empty} have zero training samples")
    target = max(len(g) for g in groups)
    epoch = []
    for g in groups:
        epoch.extend(g)  # every sample at least once
        deficit = target - len(g)
        if deficit:
            epoch.extend(g[k] for k in rng.integers(0, len(g), size=deficit))
    rng.shuffle(epoch)
    return epoch


def split_train_val(records, task: str, val_fraction: float, rng: np.random.Generator):
    """Stratified split by the task label; classes with fewer than 2 samples
    force a plain random split (with a warning)."""
    if not 0.0 < val_fraction < 1.0:
        raise ValidationError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if len(records) < 2:
        raise ValidationError("need at least 2 records to split")
    labels = [r.label(task) for r in records]
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)

    if min(len(g) for g in groups.values()) < 2:
        warnings.warn("some class has fewer than 2 samples; falling back to a plain random split")
        order = rng.permutation(len(records))
        n_val = min(len(records) - 1, max(1, round(len(records) * val_fraction)))
        val_idx = set(order[:n_val].tolist())
    else:
        val_idx = set()
        for lab in sorted(groups):
            g = groups[lab]
            order = rng.permutation(len(g))
            n_val = round(len(g) * val_fraction)
            val_idx.update(g[k] for k in order[:n_val])
        if not val_idx:  # every class rounded to zero; take one sample
            largest = max(sorted(groups), key=lambda c: len(groups[c]))
            val_idx.add(groups[largest][int(rng.integers(len(groups[largest])))])
        if len(val_idx) == len(records):
            val_idx.pop()

    train = [r for i, r in enumerate(records) if i not in val_idx]
    val = [r for i, r in enumerate(records) if i in val_idx]
    return train, val


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainState:
    model: DepressionModel
    config: ModelConfig
    log: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_f1: float = -1.0
    val_metrics: MetricsReport | None = None
    train_metrics: MetricsReport | None = None


def evaluate(model: DepressionModel, samples: list[SampleFeatures]) -> MetricsReport:
    """Deterministic inference (dropout off, no random draws) over a feature
    list, in batches of `batch_size` samples taken in input order."""
    preds = []
    for chunk in _batches(samples, model.cfg.batch_size):
        preds.extend(np.argmax(model.forward(collate(chunk, model.cfg)).data, axis=1).tolist())
    return compute_metrics([f.label for f in samples], preds, model.cfg.n_classes)


def _batches(seq: list, size: int):
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def _check_finite(loss: Tensor, grad: np.ndarray, params: list[Parameter], epoch: int, step: int) -> None:
    """Stop on a non-finite batch loss or global gradient norm, naming the
    step and the first parameter whose gradient is not finite."""
    norm = math.sqrt(float(np.vdot(grad, grad)))
    if math.isfinite(loss.item()) and math.isfinite(norm):
        return
    bad = next((p.name for p in params if not np.all(np.isfinite(p.tensor.grad))), None)
    where = f"; first non-finite gradient in {bad}" if bad else ""
    raise ValidationError(f"training diverged at epoch {epoch}, step {step}: loss {loss.item()}, "
                          f"gradient norm {norm}{where}")


def train(cfg: ModelConfig, records, log_path=None) -> TrainState:
    """Full training run over manifest records; returns the model rolled
    back to its best validation f1_task snapshot. A non-finite loss or
    gradient raises ValidationError before the optimizer step or any log
    is written."""
    ss = np.random.SeedSequence(cfg.seed)
    init_ss, split_ss, sample_ss, drop_ss = ss.spawn(4)

    model = DepressionModel(cfg, np.random.default_rng(init_ss))
    params = collect_parameters(model)
    data, grad = ad.flatten(params)
    optimizer = Adam(data, grad, cfg.lr)

    train_recs, val_recs = split_train_val(records, cfg.task, cfg.val_fraction,
                                           np.random.default_rng(split_ss))
    train_feats = [load_sample_features(r, cfg) for r in train_recs]
    val_feats = [load_sample_features(r, cfg) for r in val_recs]
    labels = [f.label for f in train_feats]

    rng_sample = np.random.default_rng(sample_ss)
    rng_drop = np.random.default_rng(drop_ss)

    state = TrainState(model=model, config=cfg)
    best_snapshot = data.copy()

    for epoch in range(cfg.epochs):
        order = _resample_indices(labels, cfg.n_classes, rng_sample)
        loss_sum = 0.0
        for step, indices in enumerate(_batches(order, cfg.batch_size)):
            batch = collate([train_feats[i] for i in indices], cfg)
            with Tape() as tape:
                batch_loss = cross_entropy(model.forward(batch, training=True, rng=rng_drop),
                                           batch.labels)
                grad[...] = 0.0
                ad.backward(batch_loss)
            # The tape and the tensors it recorded refer to each other. Emptying
            # it lets reference counting free the step's buffers now, rather
            # than whenever the cycle collector next runs.
            tape.nodes.clear()
            _check_finite(batch_loss, grad, params, epoch, step)
            optimizer.step()
            loss_sum += batch_loss.item() * len(batch)

        train_metrics = evaluate(model, train_feats)
        val_metrics = evaluate(model, val_feats)
        row = {
            "epoch": epoch,
            "train_loss": loss_sum / len(order),
            "train_acc": train_metrics.acc_weighted,
            "train_f1_task": train_metrics.f1_task,
            "val_acc_task": val_metrics.acc_task,
            "val_f1_task": val_metrics.f1_task,
        }
        state.log.append(row)
        if val_metrics.f1_task > state.best_val_f1:
            state.best_val_f1 = val_metrics.f1_task
            state.best_epoch = epoch
            state.val_metrics = val_metrics
            state.train_metrics = train_metrics
            best_snapshot = data.copy()

    data[...] = best_snapshot
    if cfg.epochs == 0:
        state.val_metrics = evaluate(model, val_feats)
        state.train_metrics = evaluate(model, train_feats)

    if log_path is not None:
        with atomic_write(log_path, encoding="utf-8") as fh:
            for row in state.log:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return state
