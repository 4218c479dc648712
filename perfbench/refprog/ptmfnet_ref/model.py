"""Full network assembly: per-stream encoders, fusion stages, the
personality interaction module, and the classifier head, wired according
to a ModelConfig whose ablation flags prune whole branches.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Container, Module, Tensor
from .dataio import (AUDIO_STREAMS, DEFAULT_PERSONALITY_DIM, DEFAULT_STREAM_DIMS,
                     TASK_CLASSES, TASKS, VISUAL_STREAMS, load_features_f64,
                     profile_to_embedding)
from .encoders import AspPooling, LstmEncoder
from .errors import ValidationError
from .fusion import CoAttentionFusion, TransformerFusion, align_streams, visual_concat
from .layers import Linear
from .ptmfim import Ptmfim


def _default_audio_dims():
    return {s: DEFAULT_STREAM_DIMS[s] for s in AUDIO_STREAMS}


def _default_visual_dims():
    return {s: DEFAULT_STREAM_DIMS[s] for s in VISUAL_STREAMS}


@dataclass(frozen=True)
class ModelConfig:
    task: str = "binary"
    audio_dims: dict = field(default_factory=_default_audio_dims)
    visual_dims: dict = field(default_factory=_default_visual_dims)
    personality_dim: int = DEFAULT_PERSONALITY_DIM

    audio_hidden: int = 8
    visual_hidden: int = 12
    coatt_lld_dim: int = 8
    coatt_mfcc_dim: int = 8
    coatt_w2v_dim: int = 12
    asp_attn_dim: int = 8
    asp_eps: float = 1e-6

    d_model: int = 16
    tx_layers: int = 2
    tx_heads: int = 4
    tx_ffn: int = 64

    d_h: int = 64
    n_p: int = 4
    bca_personality_query: bool = True
    coatt_sigmoid: bool = False

    dropout: float = 0.1

    # ablation switches
    multi_audio: bool = True
    co_att: bool = True
    multi_visual: bool = True
    ptmfim: bool = True

    seed: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    epochs: int = 20
    batch_size: int = 8
    val_fraction: float = 0.2

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}; choose from {TASKS}")
        dims = [self.personality_dim, self.audio_hidden, self.visual_hidden,
                self.coatt_lld_dim, self.coatt_mfcc_dim, self.coatt_w2v_dim,
                self.asp_attn_dim, self.d_model, self.tx_heads, self.tx_ffn,
                self.d_h, self.n_p, self.batch_size,
                *self.audio_dims.values(), *self.visual_dims.values()]
        if any(d < 1 for d in dims):
            raise ValidationError("all dims must be positive")
        if set(self.audio_dims) != set(AUDIO_STREAMS):
            raise ValidationError(f"audio_dims must have keys {AUDIO_STREAMS}")
        if set(self.visual_dims) != set(VISUAL_STREAMS):
            raise ValidationError(f"visual_dims must have keys {VISUAL_STREAMS}")
        if self.d_model % self.tx_heads:
            raise ValidationError(f"d_model={self.d_model} not divisible by tx_heads={self.tx_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must be in [0, 1)")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValidationError("val_fraction must be in (0, 1)")
        if self.tx_layers < 0 or self.epochs < 0:
            raise ValidationError("tx_layers and epochs must be non-negative")

    @property
    def n_classes(self) -> int:
        return TASK_CLASSES[self.task]

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ModelConfig":
        return ModelConfig(**data)

    def with_overrides(self, **kw) -> "ModelConfig":
        return replace(self, **kw)

    @staticmethod
    def compact(**overrides) -> "ModelConfig":
        """Small preset for experiments and quick runs: same wiring,
        narrow layers, dropout off."""
        base = dict(audio_hidden=4, visual_hidden=4, coatt_lld_dim=4,
                    coatt_mfcc_dim=4, coatt_w2v_dim=4, asp_attn_dim=4,
                    d_model=8, tx_layers=1, tx_heads=2, tx_ffn=16,
                    d_h=8, n_p=2, dropout=0.0)
        base.update(overrides)
        return ModelConfig(**base)


@dataclass
class SampleFeatures:
    """In-memory feature bundle for one sample, all f64."""

    audio: dict
    visual: dict
    personality: np.ndarray  # (d_p,)
    label: int


def load_sample_features(record, cfg: ModelConfig) -> SampleFeatures:
    audio = {s: load_features_f64(record.audio_paths[s]) for s in AUDIO_STREAMS}
    visual = {s: load_features_f64(record.visual_paths[s]) for s in VISUAL_STREAMS}
    if record.personality_embedding_path is not None:
        personality = load_features_f64(record.personality_embedding_path)[0]
    else:
        personality = profile_to_embedding(record.personality, cfg.personality_dim)
    return SampleFeatures(audio=audio, visual=visual, personality=personality,
                          label=record.label(cfg.task))


class ClassifierHead(Module):
    """Two-layer MLP producing class logits."""

    def __init__(self, d_in: int, d_hidden: int, n_classes: int, rng: np.random.Generator):
        self.fc1 = Linear(d_in, d_hidden, rng)
        self.fc2 = Linear(d_hidden, n_classes, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2.forward(ad.relu(self.fc1.forward(x)))


class DepressionModel(Module):
    """End-to-end network from per-stream feature matrices to class logits.

    Parameter name layout: enc.{lld,mfcc,wav2vec}.lstm.*, enc.audio.asp.*,
    enc.visual.{lstm,asp}.*, fuse.coatt.*, fuse.tx.*, ptmfim.*, head.*.
    Ablation flags drop branches and their parameters entirely.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        self.cfg = cfg

        enc = {}
        fuse = {}
        if cfg.multi_audio:
            for s in AUDIO_STREAMS:
                enc[s] = Container(lstm=LstmEncoder(cfg.audio_dims[s], cfg.audio_hidden, rng))
            # built even for the no-weighting ablation: the per-stream
            # transforms stay, only the elementwise gate is skipped
            fuse["coatt"] = CoAttentionFusion(
                cfg.audio_hidden, cfg.audio_hidden, cfg.audio_hidden,
                cfg.coatt_lld_dim, cfg.coatt_mfcc_dim, cfg.coatt_w2v_dim,
                cfg.dropout, rng, sigmoid_weighting=cfg.coatt_sigmoid)
            audio_seq_dim = fuse["coatt"].out_dim
        else:
            enc["wav2vec"] = Container(
                lstm=LstmEncoder(cfg.audio_dims["wav2vec"], cfg.audio_hidden, rng))
            audio_seq_dim = cfg.audio_hidden
        enc["audio"] = Container(asp=AspPooling(audio_seq_dim, cfg.asp_attn_dim, rng, cfg.asp_eps))

        visual_in = (sum(cfg.visual_dims.values()) if cfg.multi_visual
                     else cfg.visual_dims["openface"])
        enc["visual"] = Container(
            lstm=LstmEncoder(visual_in, cfg.visual_hidden, rng),
            asp=AspPooling(cfg.visual_hidden, cfg.asp_attn_dim, rng, cfg.asp_eps))

        fuse["tx"] = TransformerFusion(
            d_audio=2 * audio_seq_dim, d_visual=2 * cfg.visual_hidden,
            d_model=cfg.d_model, n_layers=cfg.tx_layers, n_heads=cfg.tx_heads,
            d_ffn=cfg.tx_ffn, dropout=cfg.dropout, rng=rng)

        self.enc = Container(**enc)
        self.fuse = Container(**fuse)

        if cfg.ptmfim:
            self.ptmfim = Ptmfim(cfg.personality_dim, cfg.d_model, cfg.d_h, cfg.n_p,
                                 rng, personality_query=cfg.bca_personality_query)
            head_in = cfg.d_h
        else:
            head_in = 2 * cfg.d_model + cfg.personality_dim
        self.head = ClassifierHead(head_in, cfg.d_h, cfg.n_classes, rng)

    # ------------------------------------------------------------------

    def _audio_branch(self, feats: SampleFeatures, training, rng, trace) -> Tensor:
        cfg = self.cfg
        if cfg.multi_audio:
            aligned = align_streams([feats.audio[s] for s in AUDIO_STREAMS])
            hidden = {s: getattr(self.enc, s).lstm.forward(Tensor(a))
                      for s, a in zip(AUDIO_STREAMS, aligned)}
            seq = self.fuse.coatt.forward(hidden["lld"], hidden["mfcc"], hidden["wav2vec"],
                                          training=training, rng=rng, weighting=cfg.co_att)
        else:
            seq = self.enc.wav2vec.lstm.forward(Tensor(feats.audio["wav2vec"]))
        return self.enc.audio.asp.forward(seq, trace)

    def _visual_branch(self, feats: SampleFeatures, trace) -> Tensor:
        if self.cfg.multi_visual:
            aligned = align_streams([feats.visual[s] for s in VISUAL_STREAMS])
            stacked = visual_concat(*aligned)
        else:
            stacked = feats.visual["openface"]
        hidden = self.enc.visual.lstm.forward(Tensor(stacked))
        return self.enc.visual.asp.forward(hidden, trace)

    def forward(self, feats: SampleFeatures, training: bool = False,
                rng: np.random.Generator | None = None, trace=None) -> Tensor:
        """Returns class logits of shape (1, n_classes)."""
        u_a = self._audio_branch(feats, training, rng, trace)
        u_v = self._visual_branch(feats, trace)
        fused = self.fuse.tx.forward(u_a, u_v, training=training, rng=rng, trace=trace)
        pers = Tensor(feats.personality[None, :])
        if self.cfg.ptmfim:
            head_in = self.ptmfim.forward(pers, fused, trace).out
        else:
            head_in = ad.concat([fused.f_star, pers], axis=1)
        return self.head.forward(head_in)

    def predict(self, feats: SampleFeatures) -> int:
        return int(np.argmax(self.forward(feats, training=False).data[0]))


def classify(logits: Tensor) -> Tensor:
    """Logits (1, C) -> probabilities (1, C)."""
    return ad.softmax(logits, axis=-1)
