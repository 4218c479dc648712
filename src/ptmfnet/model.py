"""Full network assembly: per-stream encoders, fusion stages, the
personality interaction module, and the classifier head, wired according
to a ModelConfig whose ablation flags prune whole branches. The network
runs on collated batches of samples; a single sample is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import dataio  # files are read through the module, so a wrapper of its reader sees them
from .autodiff import Module, Tensor
from .dataio import (AUDIO_STREAMS, DEFAULT_PERSONALITY_DIM, DEFAULT_STREAM_DIMS,
                     TASK_CLASSES, TASKS, VISUAL_STREAMS, profile_to_embedding)
from .encoders import AspPooling, LstmEncoder, run_lstms
from .errors import ValidationError
from .fusion import CoAttentionFusion, TransformerFusion, align_streams
from .layers import Linear
from .ptmfim import Ptmfim


def _default_audio_dims():
    return {s: DEFAULT_STREAM_DIMS[s] for s in AUDIO_STREAMS}


def _default_visual_dims():
    return {s: DEFAULT_STREAM_DIMS[s] for s in VISUAL_STREAMS}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# annotated field type -> (check, what the error message asks for)
_FIELD_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)), "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
}

# integer fields and their least value: every width and the batch size take
# at least 1, the layer count, the epochs and the seed at least 0
_FIELD_MINIMUMS = {**dict.fromkeys(("personality_dim", "audio_hidden", "visual_hidden", "coatt_lld_dim",
                                     "coatt_mfcc_dim", "coatt_w2v_dim", "asp_attn_dim", "d_model", "tx_heads",
                                     "tx_ffn", "d_h", "n_p", "batch_size"), 1),
                   "tx_layers": 0, "epochs": 0, "seed": 0}


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

    dropout: float = 0.1

    # ablation switches
    multi_audio: bool = True
    co_att: bool = True
    multi_visual: bool = True
    ptmfim: bool = True

    seed: int = 0
    lr: float = 1e-3
    epochs: int = 20
    batch_size: int = 8
    val_fraction: float = 0.2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            check, wanted = _FIELD_TYPES[f.type]
            if not check(value):
                raise ValidationError(f"{f.name} must be {wanted}, got {value!r}")
        for name, streams in (("audio_dims", AUDIO_STREAMS), ("visual_dims", VISUAL_STREAMS)):
            dims = getattr(self, name)
            if set(dims) != set(streams) or not all(_is_int(d) and d >= 1 for d in dims.values()):
                raise ValidationError(f"{name} must map exactly {streams} to positive integers, "
                                      f"got {dims!r}")
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}; choose from {TASKS}")
        for name, least in _FIELD_MINIMUMS.items():
            value = getattr(self, name)
            if value < least:
                raise ValidationError(f"{name} must be >= {least}, got {value}")
        if self.d_model % self.tx_heads:
            raise ValidationError(f"d_model={self.d_model} not divisible by tx_heads={self.tx_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must be in [0, 1)")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValidationError("val_fraction must be in (0, 1)")
        if self.lr <= 0:
            raise ValidationError(f"lr must be positive, got {self.lr!r}")

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
    """One sample laid out for `collate`: the streams the config reads,
    each modality aligned to its shortest stream, in the dtype they were
    read in (f32 from a feature file)."""

    audio: dict  # stream -> (T_a, D_s) rows
    visual: np.ndarray  # (T_v, sum of D_s) rows: the visual streams side by side
    personality: np.ndarray  # (d_p,)
    label: int


def _read_streams(record, streams: tuple, paths: dict, dims: dict) -> list:
    """The feature files of `streams`, each as wide as `dims` says."""
    feats = [dataio.read_feature_file(paths[s]) for s in streams]
    for s, m in zip(streams, feats):
        if m.shape[1] != dims[s]:
            raise ValidationError(f"sample {record.id!r}: {s} stream {paths[s]} has "
                                  f"{m.shape[1]} values a frame, the config expects {dims[s]}")
    return feats


def load_sample_features(record, cfg: ModelConfig) -> SampleFeatures:
    """Read the feature files of the streams `cfg` reads for one sample and
    lay them out once for the run: the audio streams aligned to their
    shortest, the visual streams aligned and concatenated frame by frame.
    Each stream must be as wide as `cfg` says, and an embedding file must
    be one row of `personality_dim` values; anything else is a
    ValidationError naming the sample, the stream and the file."""
    audio_streams = AUDIO_STREAMS if cfg.multi_audio else ("wav2vec",)
    visual_streams = VISUAL_STREAMS if cfg.multi_visual else ("openface",)
    audio = align_streams(_read_streams(record, audio_streams, record.audio_paths, cfg.audio_dims))
    visual = align_streams(_read_streams(record, visual_streams, record.visual_paths, cfg.visual_dims))
    if record.personality_embedding_path is not None:
        personality = dataio.read_feature_file(record.personality_embedding_path)
        if personality.shape != (1, cfg.personality_dim):
            raise ValidationError(f"sample {record.id!r}: personality embedding "
                                  f"{record.personality_embedding_path} has shape {personality.shape}, "
                                  f"the config expects (1, {cfg.personality_dim})")
        personality = personality[0]
    else:
        personality = profile_to_embedding(record.personality, cfg.personality_dim)
    return SampleFeatures(audio=dict(zip(audio_streams, audio)), visual=np.concatenate(visual, axis=1),
                          personality=personality, label=record.label(cfg.task))


@dataclass
class Batch:
    """B samples collated for one forward pass.

    Each frame stream is zero-padded to the batch's longest sample and
    stacked as (B*T, D) rows, batch-major: row b*T + t is frame t of sample
    b. The audio streams share one length per sample, and so do the visual
    streams, stacked frame-wise into one matrix.
    """

    audio: dict  # stream -> (B*T_a, D) rows, for the streams the config reads
    audio_lengths: np.ndarray  # (B,)
    visual: np.ndarray  # (B*T_v, D_v) rows
    visual_lengths: np.ndarray  # (B,)
    personality: np.ndarray  # (B, d_p)
    labels: np.ndarray  # (B,)

    def __len__(self) -> int:
        return len(self.labels)


def _pad_rows(seqs: list, name: str) -> np.ndarray:
    """Zero-pad (T_i, D) arrays to the longest and stack them as (B*T, D) rows."""
    widths = sorted({a.shape[1] for a in seqs})
    if len(widths) > 1:
        raise ValidationError(f"{name} frames have different widths across the batch: {widths}")
    out = np.zeros((len(seqs), max(len(a) for a in seqs), widths[0]))
    for row, a in zip(out, seqs):
        row[: len(a)] = a
    return out.reshape(-1, widths[0])


def collate(samples: Sequence[SampleFeatures]) -> Batch:
    """Zero-pad every stream of samples laid out by `load_sample_features`
    to the batch's longest sample, widened to f64."""
    if not samples:
        raise ValidationError("cannot collate an empty batch")
    streams = list(samples[0].audio)
    return Batch(audio={s: _pad_rows([f.audio[s] for f in samples], s) for s in streams},
                 audio_lengths=np.array([len(f.audio[streams[0]]) for f in samples]),
                 visual=_pad_rows([f.visual for f in samples], "visual"),
                 visual_lengths=np.array([len(f.visual) for f in samples]),
                 personality=_pad_rows([f.personality[None, :] for f in samples], "personality"),
                 labels=np.array([f.label for f in samples]))


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
                enc[s] = {"lstm": LstmEncoder(cfg.audio_dims[s], cfg.audio_hidden, rng)}
            # built even for the no-weighting ablation: the per-stream
            # transforms stay, only the elementwise gate is skipped
            fuse["coatt"] = CoAttentionFusion(
                cfg.audio_hidden, cfg.audio_hidden, cfg.audio_hidden,
                cfg.coatt_lld_dim, cfg.coatt_mfcc_dim, cfg.coatt_w2v_dim,
                cfg.dropout, rng)
            audio_seq_dim = fuse["coatt"].out_dim
        else:
            enc["wav2vec"] = {"lstm": LstmEncoder(cfg.audio_dims["wav2vec"], cfg.audio_hidden, rng)}
            audio_seq_dim = cfg.audio_hidden
        enc["audio"] = {"asp": AspPooling(audio_seq_dim, cfg.asp_attn_dim, rng, cfg.asp_eps)}

        visual_in = (sum(cfg.visual_dims.values()) if cfg.multi_visual
                     else cfg.visual_dims["openface"])
        enc["visual"] = {"lstm": LstmEncoder(visual_in, cfg.visual_hidden, rng),
                         "asp": AspPooling(cfg.visual_hidden, cfg.asp_attn_dim, rng, cfg.asp_eps)}

        fuse["tx"] = TransformerFusion(
            d_audio=2 * audio_seq_dim, d_visual=2 * cfg.visual_hidden,
            d_model=cfg.d_model, n_layers=cfg.tx_layers, n_heads=cfg.tx_heads,
            d_ffn=cfg.tx_ffn, dropout=cfg.dropout, rng=rng)

        self.enc = enc
        self.fuse = fuse

        if cfg.ptmfim:
            self.ptmfim = Ptmfim(cfg.personality_dim, cfg.d_model, cfg.d_h, cfg.n_p, rng)
            head_in = cfg.d_h
        else:
            head_in = 2 * cfg.d_model + cfg.personality_dim
        self.head = ClassifierHead(head_in, cfg.d_h, cfg.n_classes, rng)

    # ------------------------------------------------------------------

    def _encode(self, batch: Batch) -> tuple[dict, Tensor]:
        """Every stream's LSTM hidden rows: a dict of the audio streams by
        name, and the visual rows. LSTMs of one hidden width run as one op."""
        runs = [(self.enc[s]["lstm"], Tensor(a), batch.audio_lengths) for s, a in batch.audio.items()]
        runs.append((self.enc["visual"]["lstm"], Tensor(batch.visual), batch.visual_lengths))
        *audio, visual = run_lstms(runs)
        return dict(zip(batch.audio, audio)), visual

    def _audio_branch(self, batch: Batch, hidden: dict, rng, trace) -> Tensor:
        if self.cfg.multi_audio:
            seq = self.fuse["coatt"].forward(hidden["lld"], hidden["mfcc"], hidden["wav2vec"],
                                             rng=rng, weighting=self.cfg.co_att)
        else:
            seq = hidden["wav2vec"]
        return self.enc["audio"]["asp"].forward(seq, batch.audio_lengths, trace)

    def forward(self, batch: Batch, training: bool = False,
                rng: np.random.Generator | None = None, trace=None) -> Tensor:
        """Class logits (B, n_classes), one row per sample; a training forward draws dropout from `rng`."""
        if training and rng is None and self.cfg.dropout > 0:
            raise ValidationError(f"a training forward with dropout {self.cfg.dropout} needs a generator")
        rng = rng if training else None
        audio, visual = self._encode(batch)
        u_a = self._audio_branch(batch, audio, rng, trace)
        u_v = self.enc["visual"]["asp"].forward(visual, batch.visual_lengths, trace)
        tokens = self.fuse["tx"].forward(u_a, u_v, rng=rng, trace=trace)
        pers = Tensor(batch.personality)
        if self.cfg.ptmfim:
            head_in = self.ptmfim.forward(pers, tokens, trace)
        else:  # [audio row | visual row | personality] per sample
            head_in = ad.concat([ad.reshape(tokens, (len(batch), 2 * self.cfg.d_model)), pers], axis=1)
        return self.head.forward(head_in)
