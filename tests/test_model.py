"""Full-model assembly tests: logit shapes per task, the parameter
namespace contract, ablation wiring, and feature loading."""

import numpy as np
import pytest

from ptmfnet import autodiff as ad
from ptmfnet.autodiff import collect_parameters
from ptmfnet.dataio import (AUDIO_STREAMS, VISUAL_STREAMS, PersonalityProfile,
                            SampleRecord, load_manifest, profile_to_embedding,
                            synth_dataset, SynthSpec)
from ptmfnet.errors import ValidationError
from ptmfnet.layers import ForwardTrace
from ptmfnet.model import (ClassifierHead, DepressionModel, ModelConfig,
                           SampleFeatures, collate, load_sample_features)
from ptmfnet.training import cross_entropy
from test_batching import RawSample, sample_features

SMALL = dict(audio_hidden=4, visual_hidden=4, coatt_lld_dim=4, coatt_mfcc_dim=4,
             coatt_w2v_dim=4, asp_attn_dim=4, d_model=8, tx_layers=1, tx_heads=2,
             tx_ffn=16, d_h=8, n_p=2, personality_dim=6)


def make_cfg(**kw):
    merged = {**SMALL, **kw}
    return ModelConfig(**merged)


def make_feats(cfg: ModelConfig, rng: np.random.Generator, label: int = 0,
               t_audio: int = 7, t_visual: int = 5) -> SampleFeatures:
    audio = {s: rng.standard_normal((t_audio, d)) for s, d in cfg.audio_dims.items()}
    visual = {s: rng.standard_normal((t_visual, d)) for s, d in cfg.visual_dims.items()}
    return sample_features(cfg, RawSample(audio=audio, visual=visual,
                                          personality=rng.standard_normal(cfg.personality_dim),
                                          label=label))


def logits_of(model, feats, **kw):
    """Forward one sample as a batch of one."""
    return model.forward(collate([feats]), **kw)


def step_loss(model, feats, rng):
    """Training forward and loss of one sample as a batch of one."""
    batch = collate([feats])
    return cross_entropy(model.forward(batch, training=True, rng=rng), batch.labels)


# ---------------------------------------------------------------------------
# forward shapes and probabilities


@pytest.mark.parametrize("task,n_cls", [("binary", 2), ("ternary", 3), ("quinary", 5)])
def test_forward_logit_shape_per_task(task, n_cls):
    cfg = make_cfg(task=task)
    rng = np.random.default_rng(1)
    model = DepressionModel(cfg, rng)
    logits = logits_of(model, make_feats(cfg, rng))
    assert logits.shape == (1, n_cls)
    assert np.all(np.isfinite(logits.data))
    assert cfg.n_classes == n_cls


def test_forward_deterministic_across_constructions():
    cfg = make_cfg(seed=11)
    feats = make_feats(cfg, np.random.default_rng(4))
    out1 = logits_of(DepressionModel(cfg), feats).data
    out2 = logits_of(DepressionModel(cfg), feats).data
    assert np.array_equal(out1, out2)


def test_training_dropout_changes_output_inference_ignores_rng():
    cfg = make_cfg(dropout=0.5)
    rng = np.random.default_rng(5)
    model = DepressionModel(cfg, rng)
    feats = make_feats(cfg, rng)
    a = logits_of(model, feats, training=True, rng=np.random.default_rng(0)).data
    b = logits_of(model, feats, training=True, rng=np.random.default_rng(1)).data
    assert not np.array_equal(a, b)
    c = logits_of(model, feats, training=False).data
    d = logits_of(model, feats, training=False).data
    assert np.array_equal(c, d)


def test_training_forward_with_dropout_needs_a_generator():
    cfg = make_cfg(dropout=0.1)
    model = DepressionModel(cfg, np.random.default_rng(5))
    feats = make_feats(cfg, np.random.default_rng(6))
    with pytest.raises(ValidationError, match="generator"):
        logits_of(model, feats, training=True)
    # an inference forward draws nothing from a generator it is given
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(logits_of(model, feats, rng=rng).data, logits_of(model, feats).data)
    assert rng.random() == np.random.default_rng(0).random()
    # with dropout off, a training forward needs none and equals inference
    model = DepressionModel(make_cfg(dropout=0.0), np.random.default_rng(5))
    np.testing.assert_array_equal(logits_of(model, feats, training=True).data, logits_of(model, feats).data)


# ---------------------------------------------------------------------------
# parameter namespace


def _names(model) -> set:
    return {p.name for p in collect_parameters(model)}


def test_parameter_names_follow_contract():
    cfg = make_cfg()
    names = _names(DepressionModel(cfg, np.random.default_rng(6)))
    expected_members = {
        "enc.lld.lstm.W", "enc.mfcc.lstm.U", "enc.wav2vec.lstm.b",
        "enc.audio.asp.W", "enc.audio.asp.v",
        "enc.visual.lstm.W", "enc.visual.asp.b",
        "fuse.coatt.P", "fuse.coatt.lld.weight", "fuse.coatt.w2v.bias",
        "fuse.tx.proj_a.weight", "fuse.tx.m_v",
        "fuse.tx.layers.0.q.weight", "fuse.tx.layers.0.ln2_gain",
        "fuse.tx.layers.0.ffn1.bias",
        "ptmfim.Q_b", "ptmfim.K_t", "ptmfim.W_g", "ptmfim.pers_proj.weight",
        "head.fc1.weight", "head.fc2.bias",
    }
    missing = expected_members - names
    assert not missing, f"missing parameter names: {sorted(missing)}"
    prefixes = ("enc.lld.lstm.", "enc.mfcc.lstm.", "enc.wav2vec.lstm.",
                "enc.audio.asp.", "enc.visual.lstm.", "enc.visual.asp.",
                "fuse.coatt.", "fuse.tx.", "ptmfim.", "head.")
    stray = [n for n in names if not n.startswith(prefixes)]
    assert not stray, f"parameters outside the contracted namespace: {stray}"


def _op_name(vjp) -> str:
    """Op type of a tape node, from the qualname of its VJP closure; binary
    ops share one closure and are named by the `vjp_pair` it captured."""
    name = vjp.__qualname__.split(".")[0]
    if name == "_binary":
        cells = dict(zip(vjp.__code__.co_freevars, vjp.__closure__))
        name = cells["vjp_pair"].cell_contents.__qualname__.split(".")[0]
    return name


def test_parameters_feed_no_glue_op():
    # parameters are stored in the layout their forward reads, so a training
    # forward records no reshape or concat of a parameter; the LSTM and ASP
    # weights go straight into their fused ops
    cfg = ModelConfig.compact()
    model = DepressionModel(cfg, np.random.default_rng(30))
    params = {id(p.tensor): p.name for p in collect_parameters(model)}
    feats = make_feats(cfg, np.random.default_rng(31))
    with ad.Tape() as tape:
        step_loss(model, feats, np.random.default_rng(32))
    uses = {}
    for node in tape.nodes:
        for t in node.inputs:
            if id(t) in params:
                uses.setdefault(params[id(t)], set()).add(_op_name(node.vjp))
    assert set(uses) == set(params.values())
    allowed = {"matmul", "add", "layer_norm", "lstm", "attentive_stats"}
    bad = {name: ops for name, ops in uses.items() if not ops <= allowed}
    assert not bad, bad


@pytest.mark.parametrize("cfg,limit", [(ModelConfig.compact(), 54), (ModelConfig(dropout=0.0), 67)],
                         ids=["compact", "default_dropout_off"])
def test_training_forward_and_loss_record_at_most_100_tape_nodes(cfg, limit):
    # one node per LSTM, ASP, attention call and affine map, whatever T and the head count;
    # dropout is off because each active dropout site records one more node
    model = DepressionModel(cfg, np.random.default_rng(36))
    for t_audio in (1, 40):
        feats = make_feats(cfg, np.random.default_rng(t_audio), t_audio=t_audio, t_visual=t_audio + 3)
        with ad.Tape() as tape:
            step_loss(model, feats, np.random.default_rng(37))
        assert len(tape.nodes) <= limit


@pytest.mark.parametrize("cfg,total,outputs", [(ModelConfig.compact(), 54, [4]),
                                               (ModelConfig(dropout=0.0), 67, [3, 1]),
                                               (ModelConfig(), 74, [3, 1])],
                         ids=["compact", "default_dropout_off", "default"])
def test_training_step_records_one_lstm_node_per_hidden_width(cfg, total, outputs):
    # LSTMs of one hidden width share a node: all four in the compact config
    # (audio_hidden = visual_hidden), the three audio streams and the visual
    # stream apart in the default one (8 and 12); dropout adds a node at
    # each of its seven sites
    model = DepressionModel(cfg, np.random.default_rng(38))
    samples = [make_feats(cfg, np.random.default_rng(k), label=k % 2, t_audio=3 + k) for k in range(3)]
    batch = collate(samples)
    with ad.Tape() as tape:
        cross_entropy(model.forward(batch, training=True, rng=np.random.default_rng(39)), batch.labels)
    ops = [_op_name(node.vjp) for node in tape.nodes]
    assert len(ops) == total
    assert [len(node.out) for node in tape.nodes if _op_name(node.vjp) == "lstm"] == outputs


def _two_node_encode(model):
    """The encoders as they ran before LSTMs were grouped by hidden width:
    the audio streams in one lstm node, the visual stream in its own."""
    def encode(batch):
        encs = [model.enc[s]["lstm"] for s in batch.audio]
        audio = ad.lstm([ad.Tensor(a) for a in batch.audio.values()], [batch.audio_lengths] * len(encs),
                        [e.W for e in encs], [e.U for e in encs], [e.b for e in encs])
        visual = model.enc["visual"]["lstm"].forward(ad.Tensor(batch.visual), batch.visual_lengths)
        return dict(zip(batch.audio, audio)), visual
    return encode


def _logits_and_grads(model, batch):
    params = collect_parameters(model)
    for p in params:
        p.tensor.zero_grad()
    with ad.Tape():
        logits = model.forward(batch, training=True, rng=np.random.default_rng(41))
        ad.backward(cross_entropy(logits, batch.labels))
    return logits.data, {p.name: p.tensor.grad.copy() for p in params}


@pytest.mark.parametrize("n_seq", [1, 3, 8])
@pytest.mark.parametrize("overrides", [{}, {"multi_audio": False, "multi_visual": False}],
                         ids=["full", "single_streams"])
def test_grouped_lstm_node_matches_the_two_node_path_bitwise(overrides, n_seq):
    # padded visual T runs past the audio T for B = 1 and 8 and stops short of it for B = 3;
    # per sample, the visual stream is sometimes the longer one and sometimes the shorter
    cfg = ModelConfig.compact(**overrides)
    model = DepressionModel(cfg, np.random.default_rng(40))
    t_pairs = {1: [(5, 9)], 3: [(2, 4), (1, 1), (7, 3)],
               8: [(5, 9), (1, 1), (7, 2), (3, 4), (6, 1), (2, 8), (4, 4), (1, 3)]}[n_seq]
    samples = [make_feats(cfg, np.random.default_rng(k), label=k % 2, t_audio=t_a, t_visual=t_v)
               for k, (t_a, t_v) in enumerate(t_pairs)]
    batch = collate(samples)
    t_audio, t_visual = (len(rows) // n_seq for rows in (next(iter(batch.audio.values())), batch.visual))
    assert t_audio != t_visual
    logits, grads = _logits_and_grads(model, batch)
    model._encode = _two_node_encode(model)
    ref_logits, ref_grads = _logits_and_grads(model, batch)
    assert np.array_equal(logits, ref_logits)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert np.array_equal(g, ref_grads[name]), name


def _capture_tokens(model) -> dict:
    """Wrap this model's transformer fusion so its output lands in the dict."""
    seen = {}
    tx_forward = model.fuse["tx"].forward
    model.fuse["tx"].forward = lambda *a, **kw: seen.setdefault("tokens", tx_forward(*a, **kw))
    return seen


def test_transformer_tokens_reach_ptmfim_without_glue_ops():
    # the (2, d_model) token matrix goes straight into PTMFIM's projection:
    # no node slices it into rows or joins it back together
    cfg = ModelConfig.compact()
    model = DepressionModel(cfg, np.random.default_rng(33))
    seen = _capture_tokens(model)
    feats = make_feats(cfg, np.random.default_rng(34))
    with ad.Tape() as tape:
        step_loss(model, feats, np.random.default_rng(35))
    tokens = seen["tokens"]
    assert tokens.shape == (2, cfg.d_model)
    consumers = [_op_name(node.vjp) for node in tape.nodes
                 if any(t is tokens for t in node.inputs)]
    assert consumers == ["matmul"]


def test_parameter_names_unique_and_stable():
    cfg = make_cfg()
    a = [p.name for p in collect_parameters(DepressionModel(cfg, np.random.default_rng(0)))]
    b = [p.name for p in collect_parameters(DepressionModel(cfg, np.random.default_rng(9)))]
    assert a == b
    assert len(a) == len(set(a))


# ---------------------------------------------------------------------------
# ablation wiring


def test_wo_ptmfim_has_zero_ptmfim_parameters():
    cfg = make_cfg(ptmfim=False)
    model = DepressionModel(cfg, np.random.default_rng(7))
    names = _names(model)
    assert not [n for n in names if n.startswith("ptmfim.")]
    # head consumes the fused vector concatenated with the raw embedding
    fc1 = dict(collect_parameters(model))["head.fc1.weight"]
    assert fc1.data.shape[0] == 2 * cfg.d_model + cfg.personality_dim
    logits = logits_of(model, make_feats(cfg, np.random.default_rng(8)))
    assert logits.shape == (1, cfg.n_classes)


def test_wo_ptmfim_head_input_is_token_rows_then_personality():
    cfg = make_cfg(ptmfim=False)
    model = DepressionModel(cfg, np.random.default_rng(36))
    seen = _capture_tokens(model)
    head_forward = model.head.forward
    model.head.forward = lambda x: head_forward(seen.setdefault("head_in", x))
    feats = make_feats(cfg, np.random.default_rng(37))
    logits_of(model, feats)
    tokens = seen["tokens"].data
    expected = np.concatenate([tokens[0], tokens[1], feats.personality])[None, :]
    np.testing.assert_array_equal(seen["head_in"].data, expected)


def test_full_model_head_consumes_interaction_vector():
    cfg = make_cfg()
    fc1 = dict(collect_parameters(DepressionModel(cfg, np.random.default_rng(0))))["head.fc1.weight"]
    assert fc1.data.shape[0] == cfg.d_h


def test_wo_multi_audio_keeps_only_wav2vec_audio():
    cfg = make_cfg(multi_audio=False)
    model = DepressionModel(cfg, np.random.default_rng(9))
    names = _names(model)
    assert not [n for n in names if n.startswith(("enc.lld.", "enc.mfcc.", "fuse.coatt."))]
    assert "enc.wav2vec.lstm.W" in names
    # ASP then attends over the single-stream hidden width
    asp_w = dict(collect_parameters(model))["enc.audio.asp.W"]
    assert asp_w.data.shape == (cfg.audio_hidden, cfg.asp_attn_dim)
    assert logits_of(model, make_feats(cfg, np.random.default_rng(10))).shape == (1, 2)


def test_wo_co_att_keeps_transforms_but_skips_weighting():
    seed = 21
    full = DepressionModel(make_cfg(seed=seed))
    plain = DepressionModel(make_cfg(seed=seed, co_att=False))
    assert _names(full) == _names(plain)
    feats = make_feats(full.cfg, np.random.default_rng(11))
    out_full = logits_of(full, feats).data
    out_plain = logits_of(plain, feats).data
    assert out_full.shape == out_plain.shape
    assert not np.array_equal(out_full, out_plain)


def test_wo_multi_visual_uses_only_openface():
    cfg = make_cfg(multi_visual=False)
    model = DepressionModel(cfg, np.random.default_rng(12))
    w = dict(collect_parameters(model))["enc.visual.lstm.W"]
    assert w.data.shape == (cfg.visual_dims["openface"], 4 * cfg.visual_hidden)
    assert logits_of(model, make_feats(cfg, np.random.default_rng(13))).shape == (1, 2)


def test_all_ablations_off_still_runs():
    cfg = make_cfg(multi_audio=False, co_att=False, multi_visual=False, ptmfim=False)
    model = DepressionModel(cfg, np.random.default_rng(14))
    logits = logits_of(model, make_feats(cfg, np.random.default_rng(15)))
    assert logits.shape == (1, 2)
    assert np.all(np.isfinite(logits.data))


# ---------------------------------------------------------------------------
# trace plumbing


def test_trace_collects_attention_rows_and_std_floors():
    cfg = make_cfg(tx_layers=2)
    rng = np.random.default_rng(16)
    model = DepressionModel(cfg, rng)
    trace = ForwardTrace()
    logits_of(model, make_feats(cfg, rng), trace=trace)
    # 2 ASP rows + 2 layers * 2 heads + PTMFIM's BCA and TIA maps
    assert len(trace.attention_rows) >= 6
    for rows in trace.attention_rows:
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, rtol=1e-12)
    assert len(trace.asp_std) == 2
    for std in trace.asp_std:
        assert np.all(std >= np.sqrt(cfg.asp_eps) * (1 - 1e-12))


# ---------------------------------------------------------------------------
# config plumbing


def test_config_rejects_bad_values():
    with pytest.raises(ValidationError, match="task"):
        make_cfg(task="senary")
    with pytest.raises(ValidationError, match="divisible"):
        make_cfg(d_model=6, tx_heads=4)
    with pytest.raises(ValidationError, match="dropout"):
        make_cfg(dropout=1.0)
    with pytest.raises(ValidationError, match="d_h must be >= 1, got 0"):
        make_cfg(d_h=0)
    with pytest.raises(ValidationError, match="audio_dims"):
        make_cfg(audio_dims={"lld": 3})


@pytest.mark.parametrize("name, least", [
    *((name, 1) for name in ("personality_dim", "audio_hidden", "visual_hidden", "coatt_lld_dim", "coatt_mfcc_dim",
                             "coatt_w2v_dim", "asp_attn_dim", "d_model", "tx_heads", "tx_ffn", "d_h", "n_p",
                             "batch_size")),
    ("tx_layers", 0), ("epochs", 0), ("seed", 0),
])
def test_config_range_error_names_the_field_and_the_value(name, least):
    for bad in (least - 1, least - 5):
        with pytest.raises(ValidationError) as err:
            make_cfg(**{name: bad})
        assert str(err.value) == f"{name} must be >= {least}, got {bad}"
    make_cfg(**{name: least, **({"tx_heads": 1} if name == "d_model" else {})})


def test_config_dict_round_trip():
    cfg = make_cfg(task="ternary", seed=77, dropout=0.2)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_with_overrides_changes_only_named_fields():
    cfg = make_cfg()
    other = cfg.with_overrides(task="quinary", ptmfim=False)
    assert other.task == "quinary" and not other.ptmfim
    assert other.audio_dims == cfg.audio_dims and other.seed == cfg.seed
    assert cfg.task == "binary"  # original untouched


# ---------------------------------------------------------------------------
# feature loading


def test_load_sample_features_from_synth_dir(tmp_path):
    manifest = synth_dataset(SynthSpec(n_samples=6, task="ternary"),
                             np.random.default_rng(3), tmp_path / "d")
    records = load_manifest(manifest)
    # embedding files carry their own width, so the config must agree
    cfg = make_cfg(task="ternary", personality_dim=16)
    feats = load_sample_features(records[0], cfg)
    for s in AUDIO_STREAMS:
        assert feats.audio[s].shape[1] == cfg.audio_dims[s]
        assert feats.audio[s].dtype == np.float32
    assert feats.visual.shape[1] == sum(cfg.visual_dims.values())
    assert feats.visual.dtype == np.float32
    assert feats.personality.shape == (cfg.personality_dim,)
    assert feats.label == records[0].label("ternary")


@pytest.mark.parametrize("overrides, audio, visual", [
    ({}, AUDIO_STREAMS, VISUAL_STREAMS),
    ({"multi_audio": False}, ("wav2vec",), VISUAL_STREAMS),
    ({"multi_visual": False}, AUDIO_STREAMS, ("openface",)),
])
def test_load_sample_features_opens_only_the_streams_the_config_reads(tmp_path, monkeypatch,
                                                                      overrides, audio, visual):
    import ptmfnet.dataio as dataio_mod

    manifest = synth_dataset(SynthSpec(n_samples=2, task="binary"),
                             np.random.default_rng(4), tmp_path / "d")
    rec = load_manifest(manifest)[0]
    opened = []
    real = dataio_mod.read_feature_file
    monkeypatch.setattr(dataio_mod, "read_feature_file", lambda p: opened.append(str(p)) or real(p))
    feats = load_sample_features(rec, make_cfg(personality_dim=16, **overrides))
    expected = ([str(rec.audio_paths[s]) for s in audio] + [str(rec.visual_paths[s]) for s in visual]
                + [str(rec.personality_embedding_path)])
    assert opened == expected
    assert tuple(feats.audio) == audio
    assert feats.visual.shape[1] == sum(make_cfg().visual_dims[s] for s in visual)


def test_load_sample_features_profile_fallback(tmp_path):
    manifest = synth_dataset(SynthSpec(n_samples=2, task="binary"),
                             np.random.default_rng(4), tmp_path / "d")
    rec = load_manifest(manifest)[0]
    bare = SampleRecord(id=rec.id, audio_paths=rec.audio_paths,
                        visual_paths=rec.visual_paths, personality=rec.personality,
                        labels=rec.labels, personality_embedding_path=None)
    cfg = make_cfg()
    feats = load_sample_features(bare, cfg)
    expected = profile_to_embedding(rec.personality, cfg.personality_dim)
    np.testing.assert_array_equal(feats.personality, expected)


def test_classifier_head_is_a_two_layer_mlp():
    rng = np.random.default_rng(17)
    head = ClassifierHead(6, 5, 3, rng)
    x = ad.Tensor(rng.standard_normal((1, 6)))
    out = head.forward(x)
    assert out.shape == (1, 3)
    w1 = dict(collect_parameters(head))
    assert set(w1) == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}
