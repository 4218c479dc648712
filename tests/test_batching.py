"""The batched forward path against the per-sample one it replaced, and
the load-time sample layout against the collate it replaced.

`per_sample_logits` is DepressionModel.forward as it ran one sample at a
time: it aligns the sample's own streams and calls every block on that
sample alone, with no collation and no padding. Batched logits and every
parameter gradient must match it over batches that mix one-frame samples
with the batch's longest. It runs batches of one, which take matrix-vector
kernels with other bits, so it matches to REL: B = 1 is the one exception
to batch invariance, and gradients, which sum over the batch, match to REL
too. In every batch of two or more, a sample's logits must be bitwise the
same whatever else shares its batch and in whatever order, up to the
padded-frame budget `evaluate` cuts its batches by. `oracle_collate` is
`collate` as it ran before samples were laid out at load: it selected,
aligned and concatenated each sample's streams at every call. `collate` of
loaded samples must match it bitwise.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from ptmfnet import autodiff as ad
from ptmfnet import training
from ptmfnet.ablation import VARIANTS
from ptmfnet.autodiff import Tape, Tensor, collect_parameters
from ptmfnet.dataio import (AUDIO_STREAMS, VISUAL_STREAMS, PersonalityProfile, SampleRecord,
                            labels_from_severity, profile_to_embedding, write_feature_file)
from ptmfnet.errors import ValidationError
from ptmfnet.fusion import align_streams
from ptmfnet.layers import ForwardTrace
from ptmfnet.model import (Batch, DepressionModel, ModelConfig, SampleFeatures, collate,
                           load_sample_features)
from ptmfnet.training import cross_entropy

REL = 1e-12


@dataclass
class RawSample:
    """One sample as per-stream arrays of every stream, unaligned."""

    audio: dict
    visual: dict
    personality: np.ndarray
    label: int


def streams_read(cfg):
    return (AUDIO_STREAMS if cfg.multi_audio else ("wav2vec",),
            VISUAL_STREAMS if cfg.multi_visual else ("openface",))


def sample_features(cfg, raw: RawSample) -> SampleFeatures:
    """`raw` laid out as `load_sample_features` lays out a sample's files:
    the streams `cfg` reads, each modality aligned to its shortest stream,
    the visual streams side by side."""
    audio_streams, visual_streams = streams_read(cfg)
    return SampleFeatures(audio=dict(zip(audio_streams, align_streams([raw.audio[s] for s in audio_streams]))),
                          visual=np.concatenate(align_streams([raw.visual[s] for s in visual_streams]), axis=1),
                          personality=raw.personality, label=raw.label)


def _linspace_align(arrays):
    t_min = min(len(a) for a in arrays)
    return [a if len(a) == t_min else a[np.round(np.linspace(0.0, len(a) - 1, t_min)).astype(int)]
            for a in arrays]


def _oracle_pad(seqs):
    out = np.zeros((len(seqs), max(len(a) for a in seqs), seqs[0].shape[1]))
    for row, a in zip(out, seqs):
        row[: len(a)] = a
    return out.reshape(-1, seqs[0].shape[1])


def oracle_collate(samples: list, cfg) -> Batch:
    """A Batch of RawSamples: select the streams `cfg` reads, align each
    modality, concatenate the visual streams, then zero-pad."""
    audio_streams, visual_streams = streams_read(cfg)
    audio = [_linspace_align([f.audio[s] for s in audio_streams]) for f in samples]
    visual = [np.concatenate(_linspace_align([f.visual[s] for s in visual_streams]), axis=1) for f in samples]
    return Batch(audio={s: _oracle_pad([a[j] for a in audio]) for j, s in enumerate(audio_streams)},
                 audio_lengths=np.array([len(a[0]) for a in audio]),
                 visual=_oracle_pad(visual),
                 visual_lengths=np.array([len(v) for v in visual]),
                 personality=_oracle_pad([f.personality[None, :] for f in samples]),
                 labels=np.array([f.label for f in samples]))


def per_sample_logits(model, feats: RawSample, trace=None):
    """(1, n_classes) logits of one sample, through the per-sample wiring."""
    cfg = model.cfg
    if cfg.multi_audio:
        aligned = align_streams([feats.audio[s] for s in AUDIO_STREAMS])
        hidden = {s: model.enc[s]["lstm"].forward(Tensor(a), [len(a)])
                  for s, a in zip(AUDIO_STREAMS, aligned)}
        seq = model.fuse["coatt"].forward(hidden["lld"], hidden["mfcc"], hidden["wav2vec"],
                                          weighting=cfg.co_att)
    else:
        w2v = feats.audio["wav2vec"]
        seq = model.enc["wav2vec"]["lstm"].forward(Tensor(w2v), [len(w2v)])
    u_a = model.enc["audio"]["asp"].forward(seq, [seq.shape[0]], trace)
    if cfg.multi_visual:
        stacked = np.concatenate(align_streams([feats.visual[s] for s in VISUAL_STREAMS]), axis=1)
    else:
        stacked = feats.visual["openface"]
    hidden = model.enc["visual"]["lstm"].forward(Tensor(stacked), [len(stacked)])
    u_v = model.enc["visual"]["asp"].forward(hidden, [len(stacked)], trace)
    tokens = model.fuse["tx"].forward(u_a, u_v, trace=trace)
    pers = Tensor(feats.personality[None, :])
    if cfg.ptmfim:
        head_in = model.ptmfim.forward(pers, tokens, trace)
    else:
        head_in = ad.concat([ad.reshape(tokens, (1, tokens.size)), pers], axis=1)
    return model.head.forward(head_in)


def _sample(cfg, rng, t_audio, t_visual, label):
    # the streams of a modality differ in length, so alignment has work to do
    audio = {s: rng.standard_normal((t_audio + k, d)) for k, (s, d) in enumerate(cfg.audio_dims.items())}
    visual = {s: rng.standard_normal((t_visual + 2 * k, d))
              for k, (s, d) in enumerate(cfg.visual_dims.items())}
    return RawSample(audio=audio, visual=visual, personality=rng.standard_normal(cfg.personality_dim),
                     label=label)


def _mixed_raw(cfg, seed, lengths=((1, 9), (13, 1), (5, 4), (1, 1), (8, 12))):
    rng = np.random.default_rng(seed)
    return [_sample(cfg, rng, t_a, t_v, i % cfg.n_classes) for i, (t_a, t_v) in enumerate(lengths)]


def _mixed_batch(cfg, seed, **kw):
    return [sample_features(cfg, raw) for raw in _mixed_raw(cfg, seed, **kw)]


def _grads(model, loss_fn):
    params = collect_parameters(model)
    for p in params:
        p.tensor.zero_grad()
    with Tape():
        loss = loss_fn()
        ad.backward(loss)
    return loss.item(), {p.name: p.tensor.grad.copy() for p in params}


def _per_sample_loss(model, samples):
    """The loss as the trainer summed it per sample: an add chain, then the mean."""
    losses = [cross_entropy(per_sample_logits(model, f), [f.label]) for f in samples]
    total = losses[0]
    for extra in losses[1:]:
        total = ad.add(total, extra)
    return ad.mul(total, Tensor([[1.0 / len(samples)]]))


CONFIGS = {
    "compact": ModelConfig.compact(),
    "paper_width": ModelConfig(dropout=0.0),
    "wo_multi_audio": ModelConfig.compact(multi_audio=False),
    "wo_co_att": ModelConfig.compact(co_att=False),
    "wo_multi_visual": ModelConfig.compact(multi_visual=False),
    "wo_ptmfim": ModelConfig.compact(ptmfim=False, task="ternary"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batched_logits_and_gradients_match_per_sample_oracle(name):
    cfg = CONFIGS[name]
    model = DepressionModel(cfg, np.random.default_rng(70))
    samples = _mixed_raw(cfg, 71)
    batch = collate([sample_features(cfg, raw) for raw in samples])

    logits = model.forward(batch).data
    oracle = np.concatenate([per_sample_logits(model, f).data for f in samples])
    assert logits.shape == oracle.shape == (len(samples), cfg.n_classes)
    assert np.max(np.abs(logits - oracle)) <= REL * np.max(np.abs(oracle))

    loss, grads = _grads(model, lambda: cross_entropy(model.forward(batch), batch.labels))
    ref_loss, ref = _grads(model, lambda: _per_sample_loss(model, samples))
    assert abs(loss - ref_loss) <= REL * abs(ref_loss)
    for pname, g in ref.items():
        assert np.max(np.abs(grads[pname] - g)) <= REL * np.max(np.abs(g)) + 1e-15, pname


def test_row_logits_do_not_move_when_a_longer_sample_joins():
    cfg = ModelConfig.compact()
    model = DepressionModel(cfg, np.random.default_rng(72))
    short = _mixed_batch(cfg, 73, lengths=((1, 2), (3, 1)))
    longer = _mixed_batch(cfg, 74, lengths=((40, 35),))
    alone = model.forward(collate(short)).data
    joined = model.forward(collate(short + longer)).data[:2]
    assert np.array_equal(joined, alone)


def _logits_in(model, samples, groups):
    """Each sample's logit row, from one forward per group of indices."""
    out = np.empty((len(samples), model.cfg.n_classes))
    for idx in groups:
        out[idx] = model.forward(collate([samples[i] for i in idx])).data
    return out


def _in_order(n, size):
    return [list(range(start, min(start + size, n))) for start in range(0, n, size)]


def _random_groups(rng, n):
    """A random order of n indices cut into groups of 2 to 16, none of one."""
    order, groups, start = rng.permutation(n), [], 0
    while start < n:
        size = int(rng.integers(2, 17))
        if n - start - size == 1:
            size += 1
        groups.append(order[start:start + size])
        start += size
    return groups


@pytest.mark.parametrize("task", ["binary", "ternary", "quinary"])
@pytest.mark.parametrize("width", ["compact", "paper_width"])
def test_logits_are_bitwise_the_same_in_every_batch_of_two_or_more(width, task):
    cfg = (ModelConfig.compact if width == "compact" else ModelConfig)(task=task, dropout=0.0)
    model = DepressionModel(cfg, np.random.default_rng(84))
    lengths = np.random.default_rng(85).integers(1, 41, size=(42, 2))
    samples = _mixed_batch(cfg, 86, lengths=[tuple(map(int, pair)) for pair in lengths])
    n = len(samples)
    ref = _logits_in(model, samples, _in_order(n, 8))  # 5 batches of 8, then one of 2
    rng = np.random.default_rng(87)
    # odd sizes leave every M % 4 tail in the row-level matmuls
    groupings = [[order[start:start + size] for start in range(0, n, size)]
                 for size, order in ((3, rng.permutation(n)), (5, rng.permutation(n)),
                                     (13, rng.permutation(n)), (n, rng.permutation(n)))]
    groupings += [_random_groups(rng, n) for _ in range(3)]
    for groups in groupings:
        assert min(len(g) for g in groups) >= 2
        assert np.array_equal(_logits_in(model, samples, groups), ref), [len(g) for g in groups]


def test_logits_at_the_full_evaluation_frame_budget_are_bitwise_those_of_batches_of_8():
    # the first of `evaluate`'s batches fills the budget exactly in both
    # branches, so every frame-level matmul has EVAL_FRAMES rows, at paper
    # width: above some size OpenBLAS changes kernel and rows change bits
    cfg = ModelConfig(dropout=0.0)
    model = DepressionModel(cfg, np.random.default_rng(88))
    t_max = 32
    lengths = [(1 + i % t_max, t_max - i % t_max) for i in range(2 * training.EVAL_FRAMES // t_max)]
    samples = _mixed_batch(cfg, 89, lengths=lengths)
    groups = training._eval_batches(samples)
    first = [samples[i] for i in groups[0]]
    for frames in ([len(f.audio["lld"]) for f in first], [len(f.visual) for f in first]):
        assert len(first) * max(frames) == training.EVAL_FRAMES
    ref = _logits_in(model, samples, _in_order(len(samples), 8))
    assert np.array_equal(_logits_in(model, samples, groups), ref)


def test_padded_frames_carry_no_pooling_weight_and_trace_invariants_hold():
    cfg = ModelConfig.compact()
    model = DepressionModel(cfg, np.random.default_rng(75))
    batch = collate(_mixed_batch(cfg, 76))
    trace = ForwardTrace()
    model.forward(batch, trace=trace)
    audio_alpha, visual_alpha = trace.attention_rows[:2]
    for alpha, lengths in ((audio_alpha, batch.audio_lengths), (visual_alpha, batch.visual_lengths)):
        assert alpha.shape == (len(batch), lengths.max())
        for row, n in zip(alpha, lengths):
            assert np.all(row[n:] == 0.0) and np.all(row[:n] > 0.0)
    for rows in trace.attention_rows:
        assert np.max(np.abs(rows.sum(axis=-1) - 1.0)) <= 1e-9
    assert len(trace.gates) == len(batch) and len(trace.asp_std) == 2 * len(batch)
    for gate in trace.gates:
        assert np.all(gate > 0.0) and np.all(gate < 1.0)
    for std in trace.asp_std:
        assert np.all(std >= np.sqrt(cfg.asp_eps) * (1 - 1e-12))


def test_editing_trace_entries_in_place_leaves_gradients_unchanged():
    cfg = ModelConfig.compact()
    model = DepressionModel(cfg, np.random.default_rng(81))
    batch = collate(_mixed_batch(cfg, 82))
    _, ref = _grads(model, lambda: cross_entropy(model.forward(batch), batch.labels))

    def loss_then_spoil_trace():
        trace = ForwardTrace()
        loss = cross_entropy(model.forward(batch, trace=trace), batch.labels)
        for entry in trace.attention_rows + trace.gates + trace.asp_std:
            entry[...] = np.nan
        return loss

    _, grads = _grads(model, loss_then_spoil_trace)
    for pname, g in ref.items():
        np.testing.assert_array_equal(grads[pname], g, err_msg=pname)


def test_collate_pads_rows_and_keeps_lengths():
    cfg = ModelConfig.compact()
    samples = _mixed_batch(cfg, 77, lengths=((2, 3), (4, 1)))
    batch = collate(samples)
    # audio aligns to each sample's shortest stream, visual likewise
    np.testing.assert_array_equal(batch.audio_lengths, [2, 4])
    np.testing.assert_array_equal(batch.visual_lengths, [3, 1])
    lld = batch.audio["lld"].reshape(2, 4, -1)
    np.testing.assert_array_equal(lld[0, :2], samples[0].audio["lld"])
    assert np.all(lld[0, 2:] == 0.0)
    assert batch.visual.shape == (2 * 3, sum(cfg.visual_dims.values()))
    np.testing.assert_array_equal(batch.labels, [0, 1])
    assert batch.personality.shape == (2, cfg.personality_dim)


@pytest.mark.parametrize("field,stream", [("audio", "mfcc"), ("visual", "resnet"), ("personality", None)])
def test_collate_rejects_widths_that_differ_across_the_batch(field, stream):
    cfg = ModelConfig.compact()
    raws = _mixed_raw(cfg, 80, lengths=((3, 3), (4, 4)))
    if stream is None:
        raws[1].personality = np.zeros(cfg.personality_dim + 1)
    else:
        getattr(raws[1], field)[stream] = np.zeros((4, 1))  # every stream is wider than 1
    with pytest.raises(ValidationError, match="widths"):
        collate([sample_features(cfg, raw) for raw in raws])
    with pytest.raises(ValidationError, match="empty"):
        collate([])


@pytest.mark.parametrize("cfg", [ModelConfig.compact(), ModelConfig(dropout=0.0)],
                         ids=["compact", "default_dropout_off"])
def test_a_training_step_records_the_same_tape_for_any_batch_size(cfg):
    model = DepressionModel(cfg, np.random.default_rng(78))
    samples = _mixed_batch(cfg, 79, lengths=((1, 1), (30, 2), (3, 25), (7, 7), (2, 9), (12, 4),
                                             (1, 14), (20, 1)))
    counts = []
    for size in (1, 8):
        batch = collate(samples[:size])
        with Tape() as tape:
            cross_entropy(model.forward(batch, training=True, rng=np.random.default_rng(0)), batch.labels)
        counts.append(len(tape.nodes))
    assert counts[0] == counts[1] <= 100


# (lld, mfcc, wav2vec) and (openface, resnet, densenet) frame counts: each
# modality's shortest stream varies, either one can be a single frame, and
# some nearest frames fall between two rows, one of them halfway
_T_AUDIO = ((1, 5, 3), (7, 2, 1), (4, 4, 4), (9, 1, 6), (3, 8, 12))
_T_VISUAL = ((6, 1, 3), (1, 1, 1), (3, 8, 6), (5, 3, 1), (4, 7, 9))


def _write_samples(cfg, tmp_path):
    """Feature files of samples whose streams differ in length, as records
    and as the RawSamples `oracle_collate` takes; the last sample has no
    embedding file, so its personality comes from the profile."""
    rng = np.random.default_rng(83)
    profile = PersonalityProfile(extraversion=3, agreeableness=4, openness=2, neuroticism=5,
                                 conscientiousness=1, age=71, gender="female", origin="Chengdu")
    records, raws = [], []
    for i, (t_audio, t_visual) in enumerate(zip(_T_AUDIO, _T_VISUAL)):
        paths, arrays = {}, {}
        for s, t in zip(AUDIO_STREAMS + VISUAL_STREAMS, t_audio + t_visual):
            arrays[s] = rng.standard_normal((t, {**cfg.audio_dims, **cfg.visual_dims}[s])).astype(np.float32)
            paths[s] = tmp_path / f"s{i}_{s}.mpft"
            write_feature_file(arrays[s], paths[s])
        emb_path = None
        personality = profile_to_embedding(profile, cfg.personality_dim)
        if i < len(_T_AUDIO) - 1:
            emb_path = tmp_path / f"s{i}_personality.mpft"
            personality = rng.standard_normal(cfg.personality_dim).astype(np.float32)
            write_feature_file(personality[None, :], emb_path)
        labels = labels_from_severity(i % 5)
        records.append(SampleRecord(id=f"s{i}", audio_paths={s: paths[s] for s in AUDIO_STREAMS},
                                    visual_paths={s: paths[s] for s in VISUAL_STREAMS}, personality=profile,
                                    labels=labels, personality_embedding_path=emb_path))
        wide = {s: a.astype(np.float64) for s, a in arrays.items()}
        raws.append(RawSample(audio={s: wide[s] for s in AUDIO_STREAMS},
                              visual={s: wide[s] for s in VISUAL_STREAMS},
                              personality=personality.astype(np.float64), label=labels[cfg.task]))
    return records, raws


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_collate_of_loaded_samples_is_bitwise_the_oracle(variant, tmp_path):
    cfg = ModelConfig.compact(task="ternary", **VARIANTS[variant])
    records, raws = _write_samples(cfg, tmp_path)
    loaded = [load_sample_features(r, cfg) for r in records]
    assert all(a.dtype == np.float32 for f in loaded[:-1] for a in (*f.audio.values(), f.visual, f.personality))
    for size in (1, 2, len(records)):
        batch, oracle = collate(loaded[:size]), oracle_collate(raws[:size], cfg)
        assert list(batch.audio) == list(oracle.audio)
        for s in oracle.audio:
            assert batch.audio[s].dtype == np.float64 and np.array_equal(batch.audio[s], oracle.audio[s]), s
        for name in ("audio_lengths", "visual", "visual_lengths", "personality", "labels"):
            got, want = getattr(batch, name), getattr(oracle, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert batch.visual.dtype == batch.personality.dtype == np.float64
