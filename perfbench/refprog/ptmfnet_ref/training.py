"""Training harness: objective, optimizer, class rebalancing, stratified
splitting, the epoch loop with best-snapshot selection, and evaluation.

Runs are bitwise deterministic for a fixed config: every random choice
(init, split, resampling, dropout) draws from independent generators
spawned off the config seed, in a fixed order.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor, collect_parameters
from .errors import ValidationError
from .metrics import MetricsReport, compute_metrics
from .model import DepressionModel, ModelConfig, SampleFeatures, load_sample_features


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log-likelihood of `label` under softmax(logits), computed
    via log-sum-exp so huge logits stay finite."""
    n = logits.shape[-1]
    if not 0 <= label < n:
        raise ValidationError(f"label {label} out of range for {n} classes")
    onehot = np.zeros(logits.shape)
    onehot[..., label] = 1.0
    logp = ad.log_softmax(logits, axis=-1)
    return ad.scale(ad.tsum(ad.mul(logp, ad.constant(onehot))), -1.0)


class Adam:
    """Standard Adam with bias correction; moments keyed by parameter name."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {p.name: np.zeros_like(p.tensor.data) for p in params}
        self.v = {p.name: np.zeros_like(p.tensor.data) for p in params}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, tensor in self.params:
            g = tensor.grad
            if self.weight_decay:
                g = g + self.weight_decay * tensor.data
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            tensor.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    @staticmethod
    def from_config(params: list[Parameter], cfg: ModelConfig) -> "Adam":
        return Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                    eps=cfg.adam_eps, weight_decay=cfg.weight_decay)


# ---------------------------------------------------------------------------
# sampling and splitting


def _resample_indices(labels: list[int], n_classes: int, rng: np.random.Generator) -> list[int]:
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


def resample_epoch(records, task: str, n_classes: int, rng: np.random.Generator) -> list:
    """Oversample minority classes with replacement to a uniform class
    distribution, then shuffle. Every original sample appears at least once."""
    labels = [r.label(task) for r in records]
    return [records[i] for i in _resample_indices(labels, n_classes, rng)]


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
    """Deterministic inference (dropout off) over a feature list."""
    preds = [model.predict(f) for f in samples]
    return compute_metrics([f.label for f in samples], preds, model.cfg.n_classes)


def _batches(seq: list, size: int):
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def train(cfg: ModelConfig, records, log_path=None) -> TrainState:
    """Full training run over manifest records; returns the model rolled
    back to its best validation f1_task snapshot."""
    ss = np.random.SeedSequence(cfg.seed)
    init_ss, split_ss, sample_ss, drop_ss = ss.spawn(4)

    model = DepressionModel(cfg, np.random.default_rng(init_ss))
    params = collect_parameters(model)
    optimizer = Adam.from_config(params, cfg)

    train_recs, val_recs = split_train_val(records, cfg.task, cfg.val_fraction,
                                           np.random.default_rng(split_ss))
    train_feats = [load_sample_features(r, cfg) for r in train_recs]
    val_feats = [load_sample_features(r, cfg) for r in val_recs]
    labels = [f.label for f in train_feats]

    rng_sample = np.random.default_rng(sample_ss)
    rng_drop = np.random.default_rng(drop_ss)

    state = TrainState(model=model, config=cfg)
    best_snapshot = {p.name: p.tensor.data.copy() for p in params}

    for epoch in range(cfg.epochs):
        order = _resample_indices(labels, cfg.n_classes, rng_sample)
        loss_sum = 0.0
        for batch in _batches(order, cfg.batch_size):
            with Tape():
                losses = [cross_entropy(
                    model.forward(train_feats[i], training=True, rng=rng_drop),
                    train_feats[i].label) for i in batch]
                total = losses[0]
                for extra in losses[1:]:
                    total = ad.add(total, extra)
                batch_loss = ad.scale(total, 1.0 / len(batch))
                for p in params:
                    p.tensor.zero_grad()
                ad.backward(batch_loss)
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
            best_snapshot = {p.name: p.tensor.data.copy() for p in params}

    for p in params:
        p.tensor.data[...] = best_snapshot[p.name]
    if cfg.epochs == 0:
        state.val_metrics = evaluate(model, val_feats)
        state.train_metrics = evaluate(model, train_feats)

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for row in state.log:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    return state
