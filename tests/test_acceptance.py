"""Acceptance gate: nine end-to-end criteria, each one test. The conftest
hook prints a [PASS]/[FAIL] line per criterion after the run.

Oracles here are independent of the implementations under test: metrics are
recomputed with plain Python loops, MFCC against the scipy-based reference
pipeline from test_dsp, gradients against central finite differences.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from test_batching import RawSample, sample_features
from test_dsp import FCFG, MCFG, _ref_mfcc

from ptmfnet.autodiff import collect_parameters
from ptmfnet.checkpoint import load_checkpoint, load_into, save_checkpoint
from ptmfnet.cli import main as cli_main
from ptmfnet.dataio import (PersonalityProfile, SynthSpec, build_prompt,
                            load_manifest, read_feature_file, synth_dataset,
                            write_feature_file)
from ptmfnet.dsp import Waveform, short_term_energy, zero_crossing_rate
from ptmfnet.gradcheck import run_battery, worst
from ptmfnet.layers import ForwardTrace
from ptmfnet.metrics import compute_metrics
from ptmfnet.model import DepressionModel, ModelConfig, collate, load_sample_features
from ptmfnet.training import evaluate, train


# ---------------------------------------------------------------------------
# 1. gradient integrity


def test_criterion_1_gradient_integrity():
    start = time.perf_counter()
    for seed in (0, 1, 2):
        blocks = run_battery(seed)
        assert set(blocks) == {"lstm", "lstm_grouped", "asp", "co_attention", "transformer_fusion",
                               "ptmfim", "classifier_head", "loss"}
        for block, errors in blocks.items():  # relative and block-scaled errors alike
            assert worst(errors) <= 1e-4, (seed, block, errors)
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 2. attention/gate invariants


def test_criterion_2_attention_gate_invariants():
    rng = np.random.default_rng(2024)
    passes_per_model = 100
    for model_idx in range(10):
        cfg = ModelConfig.compact(task=("binary", "ternary", "quinary")[model_idx % 3],
                                  seed=model_idx)
        model = DepressionModel(cfg)
        for _ in range(passes_per_model):
            t_a = int(rng.integers(2, 11))
            t_v = int(rng.integers(2, 11))
            feats = sample_features(cfg, RawSample(
                audio={s: rng.standard_normal((t_a, d)) * 3
                       for s, d in cfg.audio_dims.items()},
                visual={s: rng.standard_normal((t_v, d)) * 3
                        for s, d in cfg.visual_dims.items()},
                personality=rng.standard_normal(cfg.personality_dim) * 3,
                label=0))
            trace = ForwardTrace()
            model.forward(collate([feats]), trace=trace)
            assert trace.attention_rows and trace.gates and trace.asp_std
            for rows in trace.attention_rows:
                assert np.max(np.abs(rows.sum(axis=-1) - 1.0)) <= 1e-9
            for gate in trace.gates:
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            for std in trace.asp_std:
                assert np.all(std >= math.sqrt(cfg.asp_eps) * (1 - 1e-12))


# ---------------------------------------------------------------------------
# 3. metric oracle equivalence


def _metrics_oracle(y_true, y_pred, n):
    """Loop-based recomputation of every reported metric."""
    total = len(y_true)
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    acc_w = correct / total
    recalls, f1s, supports = [], [], []
    for c in range(n):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        support = tp + fn
        if support:
            recalls.append(tp / support)
            denom = 2 * tp + fp + fn
            f1s.append(2 * tp / denom if denom else 0.0)
            supports.append(support)
    acc_u = sum(recalls) / len(recalls)
    f1_u = sum(f1s) / len(f1s)
    f1_w = sum(f * s for f, s in zip(f1s, supports)) / sum(supports)
    return {"acc_weighted": acc_w, "acc_unweighted": acc_u,
            "f1_weighted": f1_w, "f1_unweighted": f1_u,
            "acc_task": (acc_w + acc_u) / 2, "f1_task": (f1_w + f1_u) / 2}


def test_criterion_3_metric_oracle_equivalence():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        for _ in range(1000):
            size = int(rng.integers(1, 50))
            y_true = rng.integers(0, n, size=size).tolist()
            y_pred = rng.integers(0, n, size=size).tolist()
            got = compute_metrics(y_true, y_pred, n).to_dict()
            want = _metrics_oracle(y_true, y_pred, n)
            for key, val in want.items():
                assert abs(got[key] - val) <= 1e-12, (key, y_true, y_pred)

    worked = compute_metrics([0, 0, 0, 1], [0, 0, 0, 0], 2)
    assert worked.acc_task == 0.625
    assert abs(worked.f1_task - float(Fraction(15, 28))) <= 1e-12
    assert round(worked.f1_task, 6) == 0.535714


# ---------------------------------------------------------------------------
# 4. DSP oracles


def test_criterion_4_dsp_oracles():
    from ptmfnet.dsp import mfcc as mfcc_impl

    rng = np.random.default_rng(4)
    sr = 16000
    for _ in range(20):
        samples = rng.uniform(-1.0, 1.0, size=sr)  # one second
        got = mfcc_impl(Waveform(samples, sr), FCFG, MCFG)
        want = _ref_mfcc(samples, sr, FCFG.frame_len, FCFG.hop_len, MCFG.n_fft,
                         MCFG.n_mels, MCFG.n_mfcc, MCFG.fmin, MCFG.fmax, MCFG.log_floor)
        assert np.max(np.abs(got - want)) <= 1e-5

    frames = np.zeros((1, 8))
    assert np.all(short_term_energy(frames) == 0.0)
    assert np.all(zero_crossing_rate(frames) == 0.0)
    alternating = np.array([[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]])
    assert zero_crossing_rate(alternating)[0, 0] == 1.0
    t = np.arange(sr) / sr
    sine = 0.5 * np.sin(2 * np.pi * 440 * t)
    energy = short_term_energy(sine[None, :])
    assert abs(energy[0, 0] - 0.125) <= 0.125 * 0.01


# ---------------------------------------------------------------------------
# 5. learnability + null control


def test_criterion_5_learnability_and_null_control(tmp_path):
    start = time.perf_counter()
    manifest = synth_dataset(SynthSpec(n_samples=200, task="binary", class_sep=3.0),
                             np.random.default_rng(314), tmp_path / "sep")
    records = load_manifest(manifest)
    state = train(ModelConfig.compact(task="binary", epochs=15, seed=0), records)
    best_train_acc = max(row["train_acc"] for row in state.log)
    elapsed = time.perf_counter() - start
    assert best_train_acc >= 0.95, f"only reached {best_train_acc:.3f}"
    assert elapsed < 300.0

    null_manifest = synth_dataset(SynthSpec(n_samples=200, task="binary", class_sep=0.0),
                                  np.random.default_rng(314), tmp_path / "null")
    null_records = load_manifest(null_manifest)
    sigma = math.sqrt(0.25 / 40)  # binomial sd of accuracy on the 40-sample val split
    for seed in range(5):
        cfg = ModelConfig.compact(task="binary", epochs=8, seed=seed)
        # last epoch, not the best-f1 snapshot: model selection would bias up
        final = train(cfg, null_records).log[-1]["val_acc_task"]
        assert abs(final - 0.5) <= 3 * sigma, f"seed {seed} leaked: {final:.3f}"


# ---------------------------------------------------------------------------
# 6. ablation direction


def test_criterion_6_ablation_direction(tmp_path):
    spec = SynthSpec(n_samples=50, task="binary", class_sep=0.3, personality_sep=6.0)
    records = load_manifest(synth_dataset(spec, np.random.default_rng(99), tmp_path / "d"))
    wins = 0
    for seed in range(5):
        scores = {}
        for variant, flags in (("full", {}), ("wo_ptmfim", {"ptmfim": False})):
            cfg = ModelConfig.compact(task="binary", epochs=15, seed=seed,
                                      lr=3e-3, val_fraction=0.25, **flags)
            scores[variant] = train(cfg, records).best_val_f1
        wins += scores["full"] >= scores["wo_ptmfim"]
    assert wins >= 4, f"full won only {wins}/5 paired seeds"


# ---------------------------------------------------------------------------
# 7. serialization


def test_criterion_7_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((9, 5)).astype(np.float32).astype(np.float64)
    f_path = tmp_path / "m.mpft"
    write_feature_file(matrix, f_path)
    back = read_feature_file(f_path)
    assert np.array_equal(back.astype(np.float64), matrix)
    again = tmp_path / "m2.mpft"
    write_feature_file(back, again)
    assert f_path.read_bytes() == again.read_bytes()

    cfg = ModelConfig.compact(task="binary", epochs=2, seed=1)
    model = DepressionModel(cfg)
    c_path = tmp_path / "w.ptmf"
    save_checkpoint(c_path, collect_parameters(model))
    loaded = load_checkpoint(c_path)
    for name, tensor in collect_parameters(model):
        assert np.array_equal(loaded[name], tensor.data)

    manifest = synth_dataset(SynthSpec(n_samples=16, task="binary", class_sep=2.0),
                             np.random.default_rng(5), tmp_path / "data")
    records = load_manifest(manifest)
    state = train(cfg, records)
    feats = [load_sample_features(r, cfg) for r in records]
    before = evaluate(state.model, feats).to_dict()
    t_path = tmp_path / "trained.ptmf"
    save_checkpoint(t_path, collect_parameters(state.model))
    fresh = DepressionModel(cfg.with_overrides(seed=999))
    load_into(collect_parameters(fresh), t_path)
    after = evaluate(fresh, feats).to_dict()
    assert before == after


# ---------------------------------------------------------------------------
# 8. determinism


def test_criterion_8_training_determinism(tmp_path):
    code = cli_main(["synth", "--n", "16", "--task", "binary", "--class-sep", "2.0",
                     "--seed", "7", "--out-dir", str(tmp_path / "d")])
    assert code == 0
    artifacts = []
    for run in ("r1", "r2"):
        (tmp_path / run).mkdir()
        log = tmp_path / run / "log.jsonl"
        ckpt = tmp_path / run / "model.ptmf"
        code = cli_main(["train", "--manifest", str(tmp_path / "d" / "manifest.jsonl"),
                         "--task", "binary", "--epochs", "2", "--seed", "3",
                         "--log-out", str(log), "--checkpoint-out", str(ckpt)])
        assert code == 0
        artifacts.append((log.read_bytes(), ckpt.read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "per-epoch logs differ"
    assert artifacts[0][1] == artifacts[1][1], "checkpoints differ"


# ---------------------------------------------------------------------------
# 9. prompt fidelity


def test_criterion_9_prompt_fidelity():
    profile = PersonalityProfile(extraversion=41, agreeableness=38, openness=45,
                                 neuroticism=52, conscientiousness=36,
                                 age=50, gender="male", origin="Beijing")
    prompt = build_prompt(profile)
    assert prompt.startswith("The patient is a 50 male from Beijing. ")
    for sentence in (
        "The patient's Extraversion score is 41.",
        "The Agreeableness score is 38.",
        "The Openness score is 45.",
        "The Neuroticism score is 52.",
        "The Conscientiousness score is 36.",
        "Please generate a concise, fluent English description summarizing the "
        "patient's key personality traits, family environment, and other notable "
        "characteristics.",
        "Avoid mentioning depression or related terminology.",
        "Output the response as a single paragraph.",
    ):
        assert sentence in prompt, f"missing: {sentence!r}"
