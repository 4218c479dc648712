"""The batched forward path against the per-sample one it replaced.

`per_sample_logits` is DepressionModel.forward as it ran one sample at a
time: it aligns the sample's own streams and calls every block on that
sample alone, with no collation and no padding. Batched logits and every
parameter gradient must match it over batches that mix one-frame samples
with the batch's longest.
"""

import numpy as np
import pytest

from ptmfnet import autodiff as ad
from ptmfnet.autodiff import Tape, Tensor, collect_parameters
from ptmfnet.dataio import AUDIO_STREAMS, VISUAL_STREAMS
from ptmfnet.errors import ValidationError
from ptmfnet.fusion import align_streams, visual_concat
from ptmfnet.layers import ForwardTrace
from ptmfnet.model import DepressionModel, ModelConfig, SampleFeatures, collate
from ptmfnet.training import cross_entropy

REL = 1e-12


def per_sample_logits(model, feats, trace=None):
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
        stacked = visual_concat(*align_streams([feats.visual[s] for s in VISUAL_STREAMS]))
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
    return SampleFeatures(audio=audio, visual=visual,
                          personality=rng.standard_normal(cfg.personality_dim), label=label)


def _mixed_batch(cfg, seed, lengths=((1, 9), (13, 1), (5, 4), (1, 1), (8, 12))):
    rng = np.random.default_rng(seed)
    return [_sample(cfg, rng, t_a, t_v, i % cfg.n_classes) for i, (t_a, t_v) in enumerate(lengths)]


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
    return ad.scale(total, 1.0 / len(samples))


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
    samples = _mixed_batch(cfg, 71)
    batch = collate(samples, cfg)

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
    alone = model.forward(collate(short, cfg)).data
    joined = model.forward(collate(short + longer, cfg)).data[:2]
    assert np.max(np.abs(joined - alone)) <= REL * np.max(np.abs(alone))


def test_padded_frames_carry_no_pooling_weight_and_trace_invariants_hold():
    cfg = ModelConfig.compact()
    model = DepressionModel(cfg, np.random.default_rng(75))
    samples = _mixed_batch(cfg, 76)
    batch = collate(samples, cfg)
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
    batch = collate(_mixed_batch(cfg, 82), cfg)
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
    batch = collate(samples, cfg)
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
    samples = _mixed_batch(cfg, 80, lengths=((3, 3), (4, 4)))
    if stream is None:
        samples[1].personality = np.zeros(cfg.personality_dim + 1)
    else:
        getattr(samples[1], field)[stream] = np.zeros((4, 1))  # every stream is wider than 1
    with pytest.raises(ValidationError, match="widths"):
        collate(samples, cfg)
    with pytest.raises(ValidationError, match="empty"):
        collate([], cfg)


@pytest.mark.parametrize("cfg", [ModelConfig.compact(), ModelConfig(dropout=0.0)],
                         ids=["compact", "default_dropout_off"])
def test_a_training_step_records_the_same_tape_for_any_batch_size(cfg):
    model = DepressionModel(cfg, np.random.default_rng(78))
    samples = _mixed_batch(cfg, 79, lengths=((1, 1), (30, 2), (3, 25), (7, 7), (2, 9), (12, 4),
                                             (1, 14), (20, 1)))
    counts = []
    for size in (1, 8):
        batch = collate(samples[:size], cfg)
        with Tape() as tape:
            cross_entropy(model.forward(batch, training=True, rng=np.random.default_rng(0)), batch.labels)
        counts.append(len(tape.nodes))
    assert counts[0] == counts[1] <= 100
