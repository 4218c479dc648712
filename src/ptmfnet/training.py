"""Training harness: objective, optimizer, class rebalancing, stratified
splitting, the `Trainer` that runs epochs and keeps the best snapshot, and
evaluation.

Each training step collates its mini-batch into one padded batch and
records one tape: one forward pass and one loss op, whatever the batch
size. Evaluation runs the same forward, untaped, on batches it picks for
speed: samples sorted by length and cut by a padded-frame budget. The
forward is batch-invariant, so a sample's logits are bitwise the same in
any batch of two or more, and the batches change no prediction.

Runs are bitwise deterministic for a fixed config: every random choice
(init, split, resampling, dropout) draws from independent generators
spawned off the config seed, in a fixed order.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, collect_parameters, cross_entropy
from .dataio import atomic_write
from .errors import ValidationError
from .metrics import MetricsReport, compute_metrics
from .model import DepressionModel, ModelConfig, SampleFeatures, collate, load_sample_features


# Adam's moment decay rates and denominator guard, as in Kingma & Ba (2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias correction over one flat parameter vector and
    its gradient (see `autodiff.flatten`), both updated in place. A step
    works in two scratch vectors allocated here, in the operation order of
    `data -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)`, so it allocates no
    parameter-sized array."""

    def __init__(self, data: np.ndarray, grad: np.ndarray, lr: float):
        self.data, self.grad, self.lr = data, grad, lr
        self.t = 0
        self.m, self.v = np.zeros_like(data), np.zeros_like(data)
        self._a, self._b = np.empty_like(data), np.empty_like(data)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        a, b = self._a, self._b
        self.m *= BETA1
        self.m += np.multiply(self.grad, 1.0 - BETA1, out=a)
        self.v *= BETA2
        np.square(self.grad, out=a)
        self.v += np.multiply(a, 1.0 - BETA2, out=a)
        np.multiply(np.divide(self.m, bc1, out=a), self.lr, out=a)
        np.sqrt(np.divide(self.v, bc2, out=b), out=b)
        b += EPS
        self.data -= np.divide(a, b, out=a)


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


# Padded frames an evaluation batch may hold: its size times its longest
# sample. It bounds evaluation memory, and it keeps the frame-level matmuls
# below the size at which OpenBLAS changes kernel and a row's bits change.
EVAL_FRAMES = 1024


def evaluate(model: DepressionModel, samples: list[SampleFeatures]) -> MetricsReport:
    """Deterministic inference (dropout off, no random draws) over a feature
    list, in the batches `_eval_batches` cuts; predictions stay in input
    order. `batch_size` plays no part."""
    preds = np.empty(len(samples), dtype=np.int64)
    for chunk in _eval_batches(samples):
        preds[chunk] = np.argmax(model.forward(collate([samples[i] for i in chunk])).data, axis=1)
    return compute_metrics([f.label for f in samples], preds.tolist(), model.cfg.n_classes)


def _eval_batches(samples: list[SampleFeatures]) -> list[list[int]]:
    """Sample indices in batches, longest samples first. A batch starts at
    the longest sample left and takes as many as keep B x T within
    EVAL_FRAMES, T being a sample's padded length max(T_audio, T_visual).
    It holds at least two samples, and three rather than leave one behind,
    because a one-row matmul takes other kernels with other bits; so a
    batch exceeds the budget only when its longest sample is over a third
    of it. A single sample is a batch of one."""
    frames = [max(len(next(iter(f.audio.values()))), len(f.visual)) for f in samples]
    order = sorted(range(len(samples)), key=lambda i: -frames[i])
    batches, start = [], 0
    while start < len(order):
        size = max(2, EVAL_FRAMES // frames[order[start]])
        if len(order) - start - size == 1:  # leave two, or take the last one too
            size += 1 if size == 2 else -1
        batches.append(order[start:start + size])
        start += size
    return batches


class Trainer:
    """A training run's whole state: its config, the model and its flat
    parameters under `Adam`, the train and val features, the sample and
    dropout generators, the log rows, and the best snapshot with its epoch,
    F1 and metrics. Nothing else carries over from one `epoch()` to the next."""

    def __init__(self, cfg: ModelConfig, records):
        # the init and split generators are spent here; a resumed run re-runs them
        init_ss, split_ss, sample_ss, drop_ss = np.random.SeedSequence(cfg.seed).spawn(4)
        self.config = cfg
        self.model = DepressionModel(cfg, np.random.default_rng(init_ss))
        self.params = collect_parameters(self.model)
        self.optimizer = Adam(*ad.flatten(self.params), cfg.lr)
        train_recs, val_recs = split_train_val(records, cfg.task, cfg.val_fraction,
                                               np.random.default_rng(split_ss))
        self.train_feats = [load_sample_features(r, cfg) for r in train_recs]
        self.val_feats = [load_sample_features(r, cfg) for r in val_recs]
        self.rng_sample = np.random.default_rng(sample_ss)
        self.rng_drop = np.random.default_rng(drop_ss)
        self.log: list[dict] = []
        self.best = self.optimizer.data.copy()
        self.best_epoch, self.best_val_f1 = -1, -1.0
        self.val_metrics: MetricsReport | None = None
        self.train_metrics: MetricsReport | None = None

    def epoch(self) -> None:
        """One rebalanced pass over the train set, one tape per mini-batch,
        then both splits evaluated and one log row appended; the snapshot is
        kept when val f1_task improves. A non-finite loss or gradient raises
        ValidationError before the optimizer step, and no row is appended."""
        cfg, opt = self.config, self.optimizer
        order = _resample_indices([f.label for f in self.train_feats], cfg.n_classes, self.rng_sample)
        loss_sum = 0.0
        for step, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = collate([self.train_feats[i] for i in order[start:start + cfg.batch_size]])
            with Tape():
                loss = cross_entropy(self.model.forward(batch, training=True, rng=self.rng_drop),
                                     batch.labels)
                opt.grad[...] = 0.0
                ad.backward(loss)
            self._check_finite(loss, step)
            opt.step()
            loss_sum += loss.item() * len(batch)

        train_metrics = evaluate(self.model, self.train_feats)
        val_metrics = evaluate(self.model, self.val_feats)
        self.log.append({"epoch": len(self.log), "train_loss": loss_sum / len(order),
                         "train_acc": train_metrics.acc_weighted, "train_f1_task": train_metrics.f1_task,
                         "val_acc_task": val_metrics.acc_task, "val_f1_task": val_metrics.f1_task})
        if val_metrics.f1_task > self.best_val_f1:
            self.best_epoch, self.best_val_f1 = len(self.log) - 1, val_metrics.f1_task
            self.val_metrics, self.train_metrics = val_metrics, train_metrics
            self.best = opt.data.copy()

    def restore_best(self) -> None:
        """Roll back to the best snapshot: before any epoch, the initial weights, with their metrics."""
        self.optimizer.data[...] = self.best
        if not self.log:
            self.val_metrics = evaluate(self.model, self.val_feats)
            self.train_metrics = evaluate(self.model, self.train_feats)

    def _check_finite(self, loss: Tensor, step: int) -> None:
        """Stop on a non-finite batch loss or global gradient norm, naming the
        epoch, the step and the first parameter whose gradient is not finite."""
        grad = self.optimizer.grad
        norm = math.sqrt(float(np.vdot(grad, grad)))
        if math.isfinite(loss.item()) and math.isfinite(norm):
            return
        bad = next((p.name for p in self.params if not np.all(np.isfinite(p.tensor.grad))), None)
        where = f"; first non-finite gradient in {bad}" if bad else ""
        raise ValidationError(f"training diverged at epoch {len(self.log)}, step {step}: "
                              f"loss {loss.item()}, gradient norm {norm}{where}")


def train(cfg: ModelConfig, records, log_path=None) -> Trainer:
    """Full training run over manifest records: `cfg.epochs` epochs, then the
    model rolled back to its best validation f1_task snapshot. A non-finite
    loss or gradient raises ValidationError before any log is written."""
    trainer = Trainer(cfg, records)
    for _ in range(cfg.epochs):
        trainer.epoch()
    trainer.restore_best()
    if log_path is not None:
        with atomic_write(log_path, encoding="utf-8") as fh:
            fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in trainer.log)
    return trainer
