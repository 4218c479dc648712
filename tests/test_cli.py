"""End-to-end command-line tests: exit codes, determinism, artifact
formats, and the config-resolution order (defaults < file < flags)."""

import argparse
import errno
import json
import shutil
import subprocess
import sys
import wave

import numpy as np
import pytest

from ptmfnet import autodiff, cli, dsp
from ptmfnet.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, _build_parser, main
from ptmfnet.dataio import read_feature_file, write_feature_file


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_synth")
    code = main(["synth", "--n", "16", "--task", "binary", "--class-sep", "2.0",
                 "--seed", "7", "--out-dir", str(root / "d")])
    assert code == EXIT_OK
    return root / "d"


def _write_tone(path, rate, n):
    """n samples of a 440 Hz tone as a 16-bit mono WAV."""
    sig = (0.4 * np.sin(2 * np.pi * 440 * np.arange(n) / rate) * 32767).astype(np.int16)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(sig.tobytes())
    return path


@pytest.fixture()
def tone_wav(tmp_path):
    return _write_tone(tmp_path / "tone.wav", 16000, 8000)


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_manifest_and_echoes_config(tmp_path, capsys):
    code = main(["synth", "--n", "4", "--task", "ternary", "--seed", "1",
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    manifest = tmp_path / "out" / "manifest.jsonl"
    assert manifest.exists()
    assert str(manifest) in captured.out
    assert "config[synth]" in captured.err
    assert '"seed": 1' in captured.err


def test_synth_bitwise_reproducible(tmp_path):
    for sub in ("a", "b"):
        assert main(["synth", "--n", "6", "--seed", "9",
                     "--out-dir", str(tmp_path / sub)]) == EXIT_OK
    ma = (tmp_path / "a" / "manifest.jsonl").read_text()
    mb = (tmp_path / "b" / "manifest.jsonl").read_text()
    assert ma.replace(str(tmp_path / "a"), "X") == mb.replace(str(tmp_path / "b"), "X")
    files_a = sorted((tmp_path / "a" / "features").iterdir())
    files_b = sorted((tmp_path / "b" / "features").iterdir())
    assert [f.name for f in files_a] == [f.name for f in files_b]
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()


@pytest.mark.parametrize("flag,value", [("--class-sep", "nan"), ("--personality-sep", "inf"),
                                        ("--personality-sep", "-1")])
def test_synth_bad_separation_exits_1_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = main(["synth", "--n", "2", flag, value, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag[2:].replace("-", "_") in err
    assert not out.exists()


def test_synth_negative_seed_exits_1_with_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["synth", "--n", "2", "--seed", "-1", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1 and "--seed" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# extract


def test_extract_writes_requested_features(tone_wav, tmp_path, capsys):
    out = tmp_path / "feats"
    code = main(["extract", str(tone_wav), "--features", "both", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    mfcc = read_feature_file(out / "tone_mfcc.mpft")
    lld = read_feature_file(out / "tone_lld.mpft")
    assert mfcc.shape[1] == 13
    assert lld.shape[1] == 2
    assert mfcc.shape[0] == lld.shape[0]
    assert str(out / "tone_mfcc.mpft") in captured.out


def test_extract_mfcc_only_and_custom_framing(tone_wav, tmp_path):
    out = tmp_path / "feats"
    code = main(["extract", str(tone_wav), "--features", "mfcc", "--frame-ms", "32",
                 "--hop-ms", "16", "--n-mfcc", "7", "--out-dir", str(out)])
    assert code == EXIT_OK
    assert read_feature_file(out / "tone_mfcc.mpft").shape[1] == 7
    assert not (out / "tone_lld.mpft").exists()


def test_extract_missing_wav_is_io_error(tmp_path, capsys):
    code = main(["extract", str(tmp_path / "nope.wav")])
    assert code == EXIT_IO
    assert "nope.wav" in capsys.readouterr().err


def test_extract_stereo_is_io_error(tmp_path, capsys):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(b"\x00\x00\x00\x00" * 64)
    assert main(["extract", str(path)]) == EXIT_IO


@pytest.mark.parametrize("flag,value", [("--frame-ms", "nan"), ("--hop-ms", "inf"),
                                        ("--frame-ms", "1e+308"), ("--hop-ms", "1e+308")])
def test_extract_non_finite_duration_exits_1_with_one_line(tone_wav, tmp_path, capsys, flag, value):
    # 1e+308 ms is finite, but not its count of samples
    code = main(["extract", str(tone_wav), flag, value, "--out-dir", str(tmp_path / "feats")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag[2:].replace("-", "_") in err and value in err


def test_extract_wav_cut_mid_sample_is_io_error(tone_wav, capsys):
    tone_wav.write_bytes(tone_wav.read_bytes()[:-1])
    assert main(["extract", str(tone_wav)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "tone.wav" in err


def test_extract_wav_cut_in_samples_no_frame_reads_fails_before_writing(tone_wav, tmp_path, capsys):
    # 8000 samples make 48 frames over samples 0..7919: the cut takes 40 of the 80 after them
    tone_wav.write_bytes(tone_wav.read_bytes()[:-80])
    out = tmp_path / "feats"
    assert main(["extract", str(tone_wav), "--out-dir", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tone.wav: truncated sample data (15920 of 16000 bytes)" in err
    assert not list(out.glob("*.mpft"))


def test_extract_wav_that_fails_a_block_read_exits_2_with_one_line(tone_wav, tmp_path, capsys, monkeypatch):
    # the file is damaged after its header was checked, so only a block read sees it
    def read_then_damage(path):
        w = dsp.read_wav(path)
        path.write_bytes(b"not a wav" * 8)
        return w

    monkeypatch.setattr(cli, "read_wav", read_then_damage)
    out = tmp_path / "feats"
    assert main(["extract", str(tone_wav), "--out-dir", str(out)]) == EXIT_IO
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "tone.wav: not a readable WAV file" in errors[0]
    assert not list(out.glob("*.mpft"))


def test_extract_writes_the_in_memory_analysis_byte_for_byte(tone_wav, tmp_path):
    # the defaults, then 40 ms frames (n_fft 512, 1024 and 1024) over clips with trailing samples
    framed = ["--frame-ms", "40", "--hop-ms", "20", "--n-mfcc", "8"]
    cases = [(tone_wav, [], (25.0, 10.0), 13)] + [
        (_write_tone(tmp_path / f"tone{rate}.wav", rate, rate // 2 + 37), framed, (40.0, 20.0), 8)
        for rate in (8000, 16000, 22050)]
    for wav, flags, (frame_ms, hop_ms), n_mfcc in cases:
        out = tmp_path / f"feats_{wav.stem}"
        assert main(["extract", str(wav), "--out-dir", str(out), *flags]) == EXIT_OK
        with wave.open(str(wav), "rb") as fh:
            w = dsp.Waveform(np.frombuffer(fh.readframes(fh.getnframes()), "<i2") / 32768.0, fh.getframerate())
        fcfg = dsp.default_frame_config(w.sample_rate, frame_ms, hop_ms)
        for name, feats in (("mfcc", dsp.mfcc(w, fcfg, n_mfcc)), ("lld", dsp.extract_lld_bundle(w, fcfg))):
            write_feature_file(feats, tmp_path / f"{name}.mpft")
            assert (out / f"{wav.stem}_{name}.mpft").read_bytes() == (tmp_path / f"{name}.mpft").read_bytes()


def test_extract_one_sample_frames_exit_1_with_one_line_and_write_nothing(tmp_path, capsys):
    # 0.125 ms at 8 kHz is one sample, whose zero-crossing rate would be 0/0
    wav = _write_tone(tmp_path / "tone.wav", 8000, 800)
    out = tmp_path / "feats"
    assert main(["extract", str(wav), "--frame-ms", "0.125", "--hop-ms", "0.125",
                 "--out-dir", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: frame_len must be at least 2 samples, got frame_len=1\n"
    assert [f.name for f in tmp_path.rglob("*")] == ["tone.wav"]


@pytest.mark.parametrize("features", ["mfcc", "lld", "both"])
def test_extract_n_mfcc_out_of_range_exits_1_before_reading_or_writing(features, tone_wav, tmp_path,
                                                                       capsys, monkeypatch):
    monkeypatch.setattr(cli, "read_wav", lambda path: pytest.fail("read the WAV"))
    assert main(["extract", str(tone_wav), "--features", features, "--n-mfcc", "27",
                 "--out-dir", str(tmp_path / "feats")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: need 1 <= n_mfcc <= n_mels, got n_mfcc=27 n_mels=26\n"
    assert [f.name for f in tmp_path.rglob("*")] == ["tone.wav"]


# ---------------------------------------------------------------------------
# train / eval


def test_train_writes_log_checkpoint_and_sidecar(synth_dir, tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    ckpt = tmp_path / "model.ptmf"
    code = main(["train", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--task", "binary", "--epochs", "2", "--seed", "3",
                 "--log-out", str(log), "--checkpoint-out", str(ckpt)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [0, 1]
    summary = json.loads(captured.out.strip().splitlines()[-1])
    assert set(summary) == {"best_epoch", "best_val_f1_task", "final_train_acc", "val_metrics"}
    assert ckpt.read_bytes()[:4] == b"PTMF"
    sidecar = json.loads((tmp_path / "model.ptmf.json").read_text())
    assert sidecar["task"] == "binary" and sidecar["seed"] == 3


def test_train_missing_manifest_exits_2_with_path(capsys):
    code = main(["train", "--manifest", "does/not/exist.jsonl"])
    assert code == EXIT_IO
    assert "does/not/exist.jsonl" in capsys.readouterr().err


def _set_first_audio_path(record, value):
    record["audio_paths"][next(iter(record["audio_paths"]))] = value
    return record


@pytest.mark.parametrize("edit,code", [
    (lambda rec: [1, 2], EXIT_VALIDATION),
    (lambda rec: 3, EXIT_VALIDATION),
    (lambda rec: {**rec, "audio_paths": list(rec["audio_paths"])}, EXIT_VALIDATION),
    (lambda rec: _set_first_audio_path(rec, 7), EXIT_VALIDATION),
    (lambda rec: {**rec, "labels": "binary"}, EXIT_VALIDATION),
    (lambda rec: {**rec, "labels": {**rec["labels"], "binary": True}}, EXIT_VALIDATION),
    (None, EXIT_IO),
], ids=["list_line", "number_line", "audio_paths_list", "int_path", "labels_string", "bool_label",
        "not_utf8"])
def test_train_malformed_manifest_exits_with_one_error_line(synth_dir, tmp_path, capsys, edit, code):
    first, second = (json.loads(line) for line in
                     (synth_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()[:2])
    for record in (first, second):  # the copy lives in another directory
        for key in ("audio_paths", "visual_paths"):
            record[key] = {s: str(synth_dir / p) for s, p in record[key].items()}
        if record.get("personality_embedding_path"):
            record["personality_embedding_path"] = str(synth_dir / record["personality_embedding_path"])
    manifest = tmp_path / "m.jsonl"
    bad = b"\xff" if edit is None else json.dumps(edit(second)).encode("utf-8")
    manifest.write_bytes(json.dumps(first).encode("utf-8") + b"\n" + bad + b"\n")
    assert main(["train", "--manifest", str(manifest), "--epochs", "1"]) == code
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "m.jsonl" in errors[0]
    assert "line 2" in err and "line 1" not in err


@pytest.mark.parametrize("name,shape,what", [
    ("mfcc", (5, 12), "mfcc stream"),
    ("densenet", (5, 11), "densenet stream"),
    ("personality", (3, 16), "personality embedding"),
    ("personality", (1, 9), "personality embedding"),
], ids=["mfcc_12_wide", "densenet_11_wide", "embedding_3_rows", "embedding_9_wide"])
def test_train_feature_file_that_does_not_fit_the_config_exits_1(synth_dir, tmp_path, capsys, name, shape,
                                                                  what):
    corpus = tmp_path / "d"
    shutil.copytree(synth_dir, corpus)
    bad = corpus / "features" / f"synth_00003_{name}.mpft"
    write_feature_file(np.ones(shape), bad)
    assert main(["train", "--manifest", str(corpus / "manifest.jsonl"), "--epochs", "1"]) == EXIT_VALIDATION
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "'synth_00003'" in errors[0] and what in errors[0] and str(bad) in errors[0]


def test_train_does_not_check_a_stream_the_config_does_not_read(synth_dir, tmp_path):
    corpus = tmp_path / "d"
    shutil.copytree(synth_dir, corpus)
    write_feature_file(np.ones((5, 12)), corpus / "features" / "synth_00003_mfcc.mpft")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"multi_audio": False}), encoding="utf-8")
    assert main(["train", "--manifest", str(corpus / "manifest.jsonl"), "--config", str(config),
                 "--epochs", "1"]) == EXIT_OK


def test_train_bitwise_deterministic_artifacts(synth_dir, tmp_path):
    outs = []
    for sub in ("r1", "r2"):
        log = tmp_path / sub / "log.jsonl"
        ckpt = tmp_path / sub / "m.ptmf"
        log.parent.mkdir()
        assert main(["train", "--manifest", str(synth_dir / "manifest.jsonl"),
                     "--epochs", "1", "--seed", "11", "--log-out", str(log),
                     "--checkpoint-out", str(ckpt)]) == EXIT_OK
        outs.append((log.read_bytes(), ckpt.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_train")
    ckpt = root / "m.ptmf"
    code = main(["train", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--task", "binary", "--epochs", "2", "--seed", "5",
                 "--checkpoint-out", str(ckpt)])
    assert code == EXIT_OK
    return ckpt


def test_eval_emits_metrics_json_deterministically(trained, synth_dir, capsys):
    argv = ["eval", "--checkpoint", str(trained),
            "--manifest", str(synth_dir / "manifest.jsonl")]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert set(report) == {"confusion", "acc_weighted", "acc_unweighted",
                           "f1_weighted", "f1_unweighted", "acc_task", "f1_task"}
    assert np.asarray(report["confusion"]).sum() == 16


def test_eval_task_mismatch_exits_1(trained, synth_dir, capsys):
    code = main(["eval", "--checkpoint", str(trained),
                 "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--task", "quinary"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "binary" in err and "quinary" in err


def test_eval_manifest_without_records_exits_1_naming_it(trained, tmp_path, capsys):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(trained), "--manifest", str(manifest)]) == EXIT_VALIDATION
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(manifest) in errors[0] and "no records" in errors[0]


def test_eval_missing_checkpoint_exits_2(synth_dir):
    assert main(["eval", "--checkpoint", "gone.ptmf",
                 "--manifest", str(synth_dir / "manifest.jsonl")]) == EXIT_IO


def _with_v1_keys(text):
    # the two config fields format-v1 sidecars carried and ModelConfig dropped
    return json.dumps({**json.loads(text), "bca_personality_query": True, "coatt_sigmoid": False})


@pytest.mark.parametrize("make_sidecar,code", [
    (lambda text: "{not json", EXIT_IO),
    (lambda text: "[1, 2]", EXIT_VALIDATION),
    (_with_v1_keys, EXIT_VALIDATION),
], ids=["invalid_json", "not_an_object", "unknown_keys"])
def test_eval_malformed_sidecar_exits_with_one_line(trained, synth_dir, tmp_path, capsys,
                                                   make_sidecar, code):
    ckpt = tmp_path / "m.ptmf"
    ckpt.write_bytes(trained.read_bytes())
    good = (trained.parent / (trained.name + ".json")).read_text()
    (tmp_path / "m.ptmf.json").write_text(make_sidecar(good))
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--manifest", str(synth_dir / "manifest.jsonl")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "m.ptmf.json" in err


def test_eval_v1_checkpoint_exits_2_naming_version(trained, synth_dir, tmp_path, capsys):
    raw = bytearray(trained.read_bytes())
    raw[4:8] = (1).to_bytes(4, "little")
    ckpt = tmp_path / "old.ptmf"
    ckpt.write_bytes(bytes(raw))
    (tmp_path / "old.ptmf.json").write_text((trained.parent / (trained.name + ".json")).read_text())
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--manifest", str(synth_dir / "manifest.jsonl")]) == EXIT_IO
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and "version 1" in last


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_eval_non_finite_checkpoint_exits_2_naming_the_parameter(trained, synth_dir, tmp_path, capsys,
                                                                 bad):
    raw = bytearray(trained.read_bytes())
    raw[-8:] = np.array([bad], dtype="<f8").tobytes()  # the last payload value of the last parameter
    ckpt = tmp_path / "bad.ptmf"
    ckpt.write_bytes(bytes(raw))
    (tmp_path / "bad.ptmf.json").write_text((trained.parent / (trained.name + ".json")).read_text())
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--manifest", str(synth_dir / "manifest.jsonl")]) == EXIT_IO
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and "head.fc2.bias" in errors[0] and "non-finite" in errors[0]
    assert captured.out == ""


# ---------------------------------------------------------------------------
# config file resolution


def test_config_file_overrides_defaults_and_flags_override_file(synth_dir, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 1, "seed": 42, "d_h": 16}))
    log = tmp_path / "log.jsonl"
    code = main(["train", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--config", str(cfg_file), "--epochs", "2", "--log-out", str(log)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert len(log.read_text().splitlines()) == 2  # flag beat the file
    assert '"seed": 42' in captured.err  # file beat the default
    assert '"d_h": 16' in captured.err


def test_config_file_unknown_key_exits_1(synth_dir, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epoochs": 1}))
    code = main(["train", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--config", str(cfg_file)])
    assert code == EXIT_VALIDATION
    assert "epoochs" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"d_h": "8"}, {"lr": "0.1"}, {"seed": -1}, {"epochs": 1.5}, {"audio_dims": [1]},
    {"lr": -1.0}, {"batch_size": True}, {"weight_decay": 0.1},
], ids=["str_dim", "str_lr", "negative_seed", "float_epochs", "list_dims", "negative_lr",
        "bool_batch_size", "removed_adam_key"])
def test_config_file_wrong_type_or_range_exits_1_with_one_line(synth_dir, tmp_path, capsys, bad):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 1, **bad}))
    code = main(["train", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--config", str(cfg_file), "--checkpoint-out", str(tmp_path / "m.ptmf")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(bad)) in err
    assert not (tmp_path / "m.ptmf").exists()


def test_diverging_training_exits_1_and_writes_nothing(tmp_path, capsys):
    # lr 1e300 passes every config check; the second step's loss is NaN
    assert main(["synth", "--n", "20", "--task", "binary", "--seed", "7",
                 "--out-dir", str(tmp_path / "d")]) == EXIT_OK
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lr": 1e300}))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = main(["train", "--manifest", str(tmp_path / "d" / "manifest.jsonl"),
                     "--config", str(cfg_file), "--epochs", "2",
                     "--checkpoint-out", str(tmp_path / "m.ptmf"), "--log-out", str(tmp_path / "log.jsonl")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "epoch 0, step 1" in errors[0] and "first non-finite gradient in " in errors[0]
    assert not (tmp_path / "m.ptmf").exists()
    assert not (tmp_path / "m.ptmf.json").exists()
    assert not (tmp_path / "log.jsonl").exists()


def test_diverging_training_with_per_op_checks_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # PTMFNET_DEBUG=1 checks every op's output; the first non-finite one names its op
    assert main(["synth", "--n", "20", "--task", "binary", "--seed", "7",
                 "--out-dir", str(tmp_path / "d")]) == EXIT_OK
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lr": 1e300}))
    capsys.readouterr()
    monkeypatch.setattr(autodiff, "DEBUG_CHECKS", True)
    with np.errstate(all="ignore"):
        code = main(["train", "--manifest", str(tmp_path / "d" / "manifest.jsonl"),
                     "--config", str(cfg_file), "--epochs", "2",
                     "--checkpoint-out", str(tmp_path / "m.ptmf"), "--log-out", str(tmp_path / "log.jsonl")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: op ") and errors[0].endswith(" produced non-finite values")
    assert not any(name in errors[0] for name in ("op _", "op <"))  # an op, not a helper
    assert not (tmp_path / "m.ptmf").exists()
    assert not (tmp_path / "log.jsonl").exists()


def test_failed_checkpoint_write_keeps_the_old_checkpoint_and_its_sidecar(synth_dir, tmp_path, monkeypatch,
                                                                          capsys):
    ckpt = tmp_path / "m.ptmf"
    sidecar = tmp_path / "m.ptmf.json"
    argv = ["train", "--manifest", str(synth_dir / "manifest.jsonl"), "--epochs", "1",
            "--checkpoint-out", str(ckpt)]
    assert main(argv) == EXIT_OK
    first = (ckpt.read_bytes(), sidecar.read_bytes())

    def no_space(path, params):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(cli, "save_checkpoint", no_space)
    assert main(argv + ["--task", "ternary"]) == EXIT_IO
    assert (ckpt.read_bytes(), sidecar.read_bytes()) == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ptmf", "m.ptmf.json"]
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(synth_dir / "manifest.jsonl")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["confusion"]


def test_outputs_under_missing_directories_are_written(synth_dir, tmp_path):
    # train and ablate make the parent directories of their outputs
    manifest = str(synth_dir / "manifest.jsonl")
    log, ck, table = tmp_path / "logs" / "a" / "log.jsonl", tmp_path / "ck" / "m.ptmf", tmp_path / "t" / "ab.csv"
    assert main(["train", "--manifest", manifest, "--epochs", "1", "--log-out", str(log),
                 "--checkpoint-out", str(ck)]) == EXIT_OK
    assert main(["ablate", "--manifest", manifest, "--tasks", "binary", "--variants", "full",
                 "--epochs", "1", "--out", str(table)]) == EXIT_OK
    assert len(log.read_text().splitlines()) == 1 and ck.read_bytes()[:4] == b"PTMF"
    assert table.read_text().startswith("variant,task,")


@pytest.mark.parametrize("flag", ["--log-out", "--checkpoint-out"])
def test_output_directory_that_cannot_be_made_exits_2_before_training(synth_dir, tmp_path, monkeypatch,
                                                                     capsys, flag):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("trained before making its directories"))
    assert main(["train", "--manifest", str(synth_dir / "manifest.jsonl"),
                 flag, str(tmp_path / "file" / "out")]) == EXIT_IO
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


def test_config_file_invalid_json_exits_2(synth_dir, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("{not json")
    assert main(["train", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--config", str(cfg_file)]) == EXIT_IO


# ---------------------------------------------------------------------------
# ablate / gradcheck


def test_ablate_writes_csv_matrix(synth_dir, tmp_path):
    out = tmp_path / "ab.csv"
    code = main(["ablate", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--tasks", "binary", "--variants", "full,wo_ptmfim",
                 "--epochs", "1", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "variant,task,acc_task,f1_task,acc_w,acc_u,f1_w,f1_u"
    assert len(lines) == 3
    assert lines[1].startswith("full,binary,")
    assert lines[2].startswith("wo_ptmfim,binary,")


def test_ablate_unknown_variant_exits_1(synth_dir, capsys):
    code = main(["ablate", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--variants", "wo_everything"])
    assert code == EXIT_VALIDATION
    assert "wo_everything" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--tasks", ","], ["--variants", ""]])
def test_ablate_empty_list_exits_1_with_one_line(synth_dir, tmp_path, capsys, argv):
    out = tmp_path / "ab.csv"
    code = main(["ablate", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--epochs", "1", "--out", str(out), *argv])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert argv[0] in captured.err
    assert not out.exists()


def test_gradcheck_reports_per_parameter_and_passes(capsys):
    code = main(["gradcheck", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    lines = captured.out.strip().splitlines()
    assert all("max_rel_err=" in line and "block_scaled_err=" in line and line.endswith("ok")
               for line in lines)
    assert any(line.startswith("lstm.W ") for line in lines)
    assert any(line.startswith("lstm_grouped.lstm.3.U ") for line in lines)
    assert any(line.startswith("ptmfim.Q_b") for line in lines)


def test_gradcheck_impossible_tol_exits_1(capsys):
    # finite differences never agree with the tape to the last bit, and the
    # block-scaled error has no floor that hides the difference
    code = main(["gradcheck", "--seed", "0", "--tol", "1e-300"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert any(line.endswith("FAIL") for line in captured.out.splitlines())
    assert captured.err.splitlines()[-1].startswith("gradcheck failed: ")


def test_gradcheck_failing_block_exits_1(monkeypatch, capsys):
    # either error above tol fails its parameter; stderr names the worst one
    monkeypatch.setattr(cli, "run_battery", lambda seed: {"asp": {"W": (0.0, 0.0), "b": (0.0, 2e-4)},
                                                          "ptmfim": {"Q_b": (3e-3, 1e-5)}})
    code = main(["gradcheck", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out.splitlines() == ["asp.W max_rel_err=0.000e+00 block_scaled_err=0.000e+00 ok",
                                         "asp.b max_rel_err=0.000e+00 block_scaled_err=2.000e-04 FAIL",
                                         "ptmfim.Q_b max_rel_err=3.000e-03 block_scaled_err=1.000e-05 FAIL"]
    assert captured.err.splitlines()[-1] == \
        "gradcheck failed: ptmfim (seed 2) max_rel_err=3.000e-03 block_scaled_err=1.000e-05"


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--tol", "nan"], ["--tol", "inf"],
                                  ["--tol", "-0.5"], ["--tol", "0"]])
def test_gradcheck_bad_seed_or_tol_exits_1_with_one_line(capsys, argv):
    code = main(["gradcheck", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert argv[0] in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# parser behavior


def _float_flags():
    """(subcommand, flag) for every flag of the CLI that takes a float."""
    (sub,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0]) for name, p in sub.choices.items()
            for a in p._actions if a.type is float]


@pytest.mark.parametrize("command,flag", _float_flags(), ids=lambda v: v.lstrip("-"))
def test_negative_float_in_exponent_form_gets_the_range_message(command, flag, synth_dir, tone_wav,
                                                                 tmp_path, capsys):
    # argparse reads -1e-3 as an unknown option unless told otherwise; it
    # must reach the same range check as -0.001
    required = {"extract": [str(tone_wav), "--out-dir", str(tmp_path / "feats")],
                "synth": ["--n", "2", "--out-dir", str(tmp_path / "corpus")],
                "train": ["--manifest", str(synth_dir / "manifest.jsonl")],
                "ablate": ["--manifest", str(synth_dir / "manifest.jsonl"), "--out", str(tmp_path / "a.csv")],
                "gradcheck": []}[command]
    errors = []
    for value in ("-1e-3", "-0.001"):
        assert main([command, *required, flag, value]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert [f.name for f in tmp_path.rglob("*") if f.is_file()] == ["tone.wav"]  # nothing written


def test_unknown_flag_exits_1(synth_dir):
    assert main(["train", "--manifest", str(synth_dir / "manifest.jsonl"),
                 "--bogus"]) == EXIT_VALIDATION


def test_one_parser_serves_many_calls_with_no_state_between_them(tone_wav, synth_dir, tmp_path, capsys):
    # main builds its parser once per process: no call may see another's flags
    def extract(out, *flags):
        return main(["extract", str(tone_wav), "--out-dir", str(tmp_path / out), *flags])

    assert extract("a", "--n-mfcc", "8") == EXIT_OK
    assert read_feature_file(tmp_path / "a" / "tone_mfcc.mpft").shape[1] == 8
    assert extract("b") == EXIT_OK
    assert read_feature_file(tmp_path / "b" / "tone_mfcc.mpft").shape[1] == 13
    assert extract("c", "--n-mfcc", "8", "--bogus") == EXIT_VALIDATION
    assert not (tmp_path / "c").exists()
    assert extract("d") == EXIT_OK
    for name in ("mfcc", "lld"):
        assert ((tmp_path / "d" / f"tone_{name}.mpft").read_bytes()
                == (tmp_path / "b" / f"tone_{name}.mpft").read_bytes())

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 3}))
    for out, flags in (("one", ["--epochs", "1"]), ("file", [])):
        capsys.readouterr()
        assert main(["train", "--manifest", str(synth_dir / "manifest.jsonl"), "--config", str(cfg_file),
                     "--log-out", str(tmp_path / f"{out}.jsonl"), *flags]) == EXIT_OK
        echoed = json.loads(capsys.readouterr().err.splitlines()[0].split(": ", 1)[1])
        assert echoed["epochs"] == len((tmp_path / f"{out}.jsonl").read_text().splitlines())
    assert echoed["epochs"] == 3  # the second run took its epochs from the file, not the first run's flag


def test_unknown_subcommand_exits_1():
    assert main(["transmogrify"]) == EXIT_VALIDATION


def test_help_exits_0_and_lists_flags(capsys):
    assert main(["--help"]) == EXIT_OK
    top = capsys.readouterr().out
    for name in ("extract", "synth", "train", "eval", "ablate", "gradcheck"):
        assert name in top
    assert main(["train", "--help"]) == EXIT_OK
    train_help = capsys.readouterr().out
    for flag in ("--manifest", "--task", "--epochs", "--seed", "--lr",
                 "--batch-size", "--val-fraction", "--log-out", "--checkpoint-out",
                 "--config", "--dropout"):
        assert flag in train_help
    assert "default" in train_help  # defaults shown per flag


def test_module_entry_point_runs_as_subprocess(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "ptmfnet.cli", "synth", "--n", "2",
                           "--out-dir", str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "manifest.jsonl" in proc.stdout
