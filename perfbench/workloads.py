"""Workloads: seeded inputs, the timed stages, and the output checks.

Every workload runs the same three user commands through the in-process CLI
entry point (`ptmfnet.cli.main`): `train`, `eval` and `extract`. So every
end-to-end metric exists on every workload. The workloads differ in the shape
of the data each command sees, which decides where its time goes:

- train_short: the 200-sample, T in [4, 12] corpus with the compact config.
  Python overhead per recorded tape op dominates.
- train_long: 4 samples with T in [800, 1600] (8-16 s of audio at a 10 ms
  hop) with the compact config, half of them held out for validation so a
  `train` call is one step of 2 samples. LSTM recurrence and the O(T^2)
  `narrow` traffic in `backward` dominate.
- infer: one 10-minute WAV through `extract`, and `eval` of a paper-width
  checkpoint over 1000 short samples. Its `train` is a short paper-width run
  on 60 short samples.

Inputs are written under the run's work directory before any timing starts;
the program only ever sees files. The speed reference (reference.py) runs the
same code on its own copy of the inputs, through package `Inputs.pkg`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import shutil
import sys
import time
import wave
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
FRAME_LEN = 400  # 25 ms at 16 kHz, the `extract` default
HOP_LEN = 160  # 10 ms
N_MFCC = 13
LLD_COLS = 2

# `train_acc` after LEARN_EPOCHS epochs on the class_sep=3.0 corpus; chance is
# 0.5. Across data seeds 1-17 and 314 the lowest value seen was 0.675.
LEARN_EPOCHS = 4
LEARN_FLOOR = 0.6


STAGES = ("train", "eval", "extract")  # in this order when their shares tie: eval may read train's output


@dataclass(frozen=True)
class Spec:
    n_samples: int
    t_range: tuple
    equal_lengths: bool  # fixed lengths, no class signal (else the SynthSpec corpus)
    compact: bool  # ModelConfig.compact() rather than the paper-width default
    epochs: int
    batch_size: int
    val_fraction: float
    train_n: int | None  # `train` reads its own fixed-length corpus of this size
    clip_frames: tuple | None  # frame range of the extract clips
    n_clips: int
    wav_seconds: float | None  # one long WAV instead of clips
    eval_trained: bool  # eval the checkpoint `train` wrote, else a prepared one
    learn_check: bool
    eval_parts: int  # eval reads the corpus in this many manifests, one per call, in turn
    shares: tuple  # weights of STAGES in the time budget
    # what the speed reference reached on the tuning machine (see reference.py):
    # "setup" in seconds, the stages in work units per second
    ref_rates: dict


SPECS = {
    "train_short": Spec(n_samples=200, t_range=(4, 12), equal_lengths=False, compact=True,
                        epochs=1, batch_size=8, val_fraction=0.2, train_n=None, clip_frames=(4, 12),
                        n_clips=100,
                        wav_seconds=None, eval_trained=True, learn_check=True, eval_parts=1,
                        shares=(2, 1, 1), ref_rates={"setup": 0.107, "train": 76.0, "eval": 340.0,
                                                     "extract": 30.0}),
    "train_long": Spec(n_samples=4, t_range=(800, 1600), equal_lengths=True, compact=True,
                       epochs=1, batch_size=4, val_fraction=0.5, train_n=None, clip_frames=(800, 1600),
                       n_clips=8,
                       wav_seconds=None, eval_trained=True, learn_check=False, eval_parts=2,
                       shares=(2, 1, 1), ref_rates={"setup": 0.061, "train": 0.39, "eval": 3.9,
                                                    "extract": 630.0}),
    "infer": Spec(n_samples=1000, t_range=(4, 12), equal_lengths=False, compact=False,
                  epochs=1, batch_size=8, val_fraction=0.2, train_n=60, clip_frames=None, n_clips=1,
                  wav_seconds=600.0, eval_trained=False, learn_check=False, eval_parts=4,
                  shares=(1, 1, 1), ref_rates={"setup": 0.33, "train": 51.0, "eval": 300.0,
                                               "extract": 420.0}),
}

# The same wiring at a size the benchmark's own smoke test can afford. Not a timing gate.
TOY = {
    "train_short": replace(SPECS["train_short"], n_samples=24, t_range=(4, 6), epochs=1,
                           clip_frames=(4, 6), n_clips=4, learn_check=False),
    "train_long": replace(SPECS["train_long"], n_samples=6, t_range=(20, 40), clip_frames=(20, 40),
                          n_clips=2),
    "infer": replace(SPECS["infer"], n_samples=40, t_range=(4, 6), epochs=1, train_n=12, wav_seconds=2.0),
}


def spread_lengths(lo: int, hi: int, n: int) -> list:
    """n lengths evenly spread over [lo, hi]. Fixed rather than drawn, so
    every seed does the same amount of work and only the values change."""
    return [int(t) for t in np.linspace(lo, hi, n).round()]


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    pkg: str  # the package that wrote them and runs on them
    work: Path
    manifest: Path
    train_manifest: Path
    config: Path
    eval_checkpoint: Path
    train_checkpoint: Path
    clips: list  # (wav path, n_samples)
    eval_manifests: list  # the eval corpus split into `Spec.eval_parts` manifests
    setup_records: int  # records set-up reads: eval's and, if separate, train's
    samples_per_epoch: int
    model_kwargs: dict


def _write_wav(path: Path, n: int, rng: np.random.Generator) -> None:
    """Speech-like 16-bit mono signal: a harmonic stack on a wandering f0 under
    a syllable-rate envelope, plus noise. Written in 10 s chunks."""
    f0_rate, f0_phase, env_phase = rng.uniform(0.1, 0.5), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
    chunk = 10 * SAMPLE_RATE
    phase = 0.0
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        for start in range(0, n, chunk):
            t = (start + np.arange(min(chunk, n - start))) / SAMPLE_RATE
            f0 = 140.0 + 40.0 * np.sin(2 * np.pi * f0_rate * t + f0_phase)
            ph = phase + np.cumsum(2 * np.pi * f0 / SAMPLE_RATE)
            phase = float(ph[-1])
            voiced = sum(np.sin(k * ph) / k for k in range(1, 6))
            env = 0.5 + 0.5 * np.sin(2 * np.pi * 3.0 * t + env_phase)
            x = 0.25 * env * voiced + 0.02 * rng.standard_normal(t.size)
            fh.writeframes((np.clip(x, -1.0, 1.0) * 32767).astype("<i2").tobytes())


def _equal_length_corpus(pkg: str, n: int, t_range: tuple, rng: np.random.Generator, out: Path) -> Path:
    """Unit-normal features with no class signal, balanced binary labels, one
    length per sample shared by all its streams, and one personality profile
    for all samples (the model embeds it with `profile_to_embedding`).

    Training on it measures cost, not learning: with no class signal and no
    per-sample personality the early loss barely moves between seeds, and
    with fixed lengths every seed trains on the same number of frames."""
    dio = importlib.import_module(f"{pkg}.dataio")

    (out / "features").mkdir(parents=True)
    rows = []
    for i, t in enumerate(spread_lengths(*t_range, n)):
        sid = f"fixed_{i:03d}"
        paths = {}
        for stream, dim in dio.DEFAULT_STREAM_DIMS.items():
            paths[stream] = f"features/{sid}_{stream}.mpft"
            dio.write_feature_file(rng.standard_normal((t, dim)), out / paths[stream])
        rows.append({"id": sid,
                     "audio_paths": {k: v for k, v in paths.items() if k in dio.AUDIO_STREAMS},
                     "visual_paths": {k: v for k, v in paths.items() if k not in dio.AUDIO_STREAMS},
                     "labels": dio.labels_from_severity(2 * (i % 2)),
                     "personality": {"age": 40, "gender": "female", "origin": "Chengdu", "extraversion": 3,
                                     "agreeableness": 3, "openness": 3, "neuroticism": 3,
                                     "conscientiousness": 3}})
    manifest = out / "manifest.jsonl"
    dio.write_manifest(rows, manifest)
    return manifest


def make_inputs(spec: Spec, seed: int, work: Path, pkg: str = "ptmfnet") -> Inputs:
    """Everything the run feeds the program, drawn from `seed` alone and
    written with the writers of package `pkg`, the program or the reference."""
    ad, ckpt, dio, mdl, trn = (importlib.import_module(f"{pkg}.{m}")
                               for m in ("autodiff", "checkpoint", "dataio", "model", "training"))

    rng = np.random.default_rng(seed)
    corpus = work / "corpus"
    if spec.equal_lengths:
        manifest = _equal_length_corpus(pkg, spec.n_samples, spec.t_range, rng, corpus)
    else:
        manifest = dio.synth_dataset(dio.SynthSpec(n_samples=spec.n_samples, task="binary", class_sep=3.0,
                                                   t_range=spec.t_range), rng, corpus)
    train_manifest = manifest
    if spec.train_n:
        train_manifest = _equal_length_corpus(pkg, spec.train_n, spec.t_range, rng, work / "train_corpus")

    overrides = dict(epochs=spec.epochs, batch_size=spec.batch_size, val_fraction=spec.val_fraction,
                     seed=0)
    cfg = mdl.ModelConfig.compact(**overrides) if spec.compact else mdl.ModelConfig(**overrides)
    config = work / "config.json"
    config.write_text(json.dumps(cfg.to_dict(), sort_keys=True), encoding="utf-8")

    # the epoch length of `train`: every class oversampled to the largest one
    split_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[1])
    train_recs, _ = trn.split_train_val(dio.load_manifest(train_manifest), cfg.task, cfg.val_fraction,
                                        split_rng)
    counts = np.bincount([r.label(cfg.task) for r in train_recs], minlength=cfg.n_classes)
    samples_per_epoch = cfg.n_classes * int(counts.max())

    eval_checkpoint = work / "prepared.ptmf"
    if not spec.eval_trained:
        # seeded initial weights: eval cost does not depend on their values
        model = mdl.DepressionModel(cfg, np.random.default_rng(seed))
        ckpt.save_checkpoint(eval_checkpoint, ad.collect_parameters(model))
        Path(str(eval_checkpoint) + ".json").write_text(json.dumps(cfg.to_dict(), sort_keys=True),
                                                        encoding="utf-8")

    clips = []
    (work / "wav").mkdir()
    if spec.wav_seconds:
        sizes = [int(spec.wav_seconds * SAMPLE_RATE)]
    else:
        sizes = [FRAME_LEN + (t - 1) * HOP_LEN + int(rng.integers(HOP_LEN))
                 for t in spread_lengths(*spec.clip_frames, spec.n_clips)]
    for i, n in enumerate(sizes):
        path = work / "wav" / f"clip{i:03d}.wav"
        _write_wav(path, n, rng)
        clips.append((path, n))

    # a manifest is JSONL, one sample a line; the parts take every k-th line
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    eval_manifests = []
    for k in range(spec.eval_parts):
        part = manifest.with_name(f"eval_part{k}.jsonl")
        part.write_text("".join(lines[k::spec.eval_parts]), encoding="utf-8")
        eval_manifests.append((part, len(lines[k::spec.eval_parts])))

    return Inputs(pkg=pkg, work=work, manifest=manifest, train_manifest=train_manifest, config=config,
                  eval_manifests=eval_manifests,
                  eval_checkpoint=eval_checkpoint, train_checkpoint=work / "trained.ptmf",
                  clips=clips, setup_records=spec.n_samples + (spec.train_n or 0),
                  samples_per_epoch=samples_per_epoch,
                  model_kwargs=cfg.to_dict())


# ---------------------------------------------------------------------------
# set-up


def _purge_modules(pkg: str) -> None:
    for name in [m for m in sys.modules if m == pkg or m.startswith(pkg + ".")]:
        del sys.modules[name]


def setup_once(spec: Spec, inp: Inputs) -> tuple[float, int]:
    """Import the program afresh, then read the manifests, every feature file
    and (when eval uses a prepared one) the checkpoint through the public
    readers. Returns (seconds, records loaded)."""
    _purge_modules(inp.pkg)
    t0 = time.perf_counter()
    importlib.import_module(f"{inp.pkg}.cli")
    ckpt, dio, mdl = (importlib.import_module(f"{inp.pkg}.{m}") for m in ("checkpoint", "dataio", "model"))

    cfg = mdl.ModelConfig.from_dict(inp.model_kwargs)
    loaded = 0
    for manifest in dict.fromkeys((inp.manifest, inp.train_manifest)):
        for r in dio.load_manifest(manifest):
            mdl.load_sample_features(r, cfg)
            loaded += 1
    if not spec.eval_trained:
        ckpt.load_checkpoint(inp.eval_checkpoint)
    return time.perf_counter() - t0, loaded


# ---------------------------------------------------------------------------
# stages and checks


@dataclass
class Ledger:
    """Operations attempted, operations failed, and why they failed."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def _cli(pkg: str, argv: list) -> tuple[int, str]:
    """Run one CLI command in process; returns (exit code, stdout)."""
    main = sys.modules[f"{pkg}.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if code != 0:
        sys.stderr.write(err.getvalue()[-2000:])
    return code, out.getvalue()


def _exit_problems(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}"]


class Session:
    """Runs the stages of one workload and checks what each one wrote.

    Each stage call is one operation. It fails when it raises, exits non-zero
    or writes output that fails a check; a failed call is counted and returns
    None, so its time is left out of the metrics. A call that passes returns
    (seconds, work units)."""

    def __init__(self, spec: Spec, inp: Inputs, ledger: Ledger):
        self.spec, self.inp, self.ledger = spec, inp, ledger
        self.first_log: bytes | None = None
        self.first_reports: dict = {}  # eval part -> its first report
        self.eval_calls = 0
        self.final_train_loss: float | None = None
        self.audio_seconds = sum(n for _, n in inp.clips) / SAMPLE_RATE

    def _stage(self, stage: str, units: float, run, check) -> tuple | None:
        t0 = time.perf_counter()
        try:
            problems = run()
        except Exception as exc:  # counted as a failed operation, never a silent abort
            problems = [f"raised {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if not problems:
            try:
                problems = check()
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        return (dt, units) if self.ledger.op(stage, problems) else None

    def train(self) -> tuple | None:
        inp = self.inp
        log = inp.work / "train_log.jsonl"
        return self._stage("train", self.spec.epochs * inp.samples_per_epoch,
                    lambda: _exit_problems(_cli(inp.pkg, ["train", "--manifest", inp.train_manifest,
                                                 "--config", inp.config, "--log-out", log,
                                                 "--checkpoint-out", inp.train_checkpoint])[0]),
                    lambda: self._check_log(log.read_bytes()))

    def _check_log(self, raw: bytes) -> list:
        rows = [json.loads(line) for line in raw.splitlines()]
        problems = []
        if len(rows) != self.spec.epochs:
            problems.append(f"{len(rows)} epoch rows, expected {self.spec.epochs}")
        if not all(math.isfinite(r["train_loss"]) for r in rows):
            problems.append("non-finite train_loss")
        if self.first_log is None:
            self.first_log = raw
            self.final_train_loss = rows[-1]["train_loss"] if rows else None
        elif raw != self.first_log:
            problems.append("epoch log differs from the first repeat of this seed")
        return problems

    def learn_check(self) -> None:
        """Untimed longer run: train_acc must clear the learnability floor, and
        its leading epochs must repeat the timed run's log byte for byte."""
        inp = self.inp
        log = inp.work / "learn_log.jsonl"

        def check():
            lines = log.read_bytes().splitlines(keepends=True)
            acc = json.loads(lines[-1])["train_acc"]
            problems = []
            if acc < LEARN_FLOOR:
                problems.append(f"train_acc {acc:.3f} after {LEARN_EPOCHS} epochs is below {LEARN_FLOOR}")
            if self.first_log is not None and b"".join(lines[: self.spec.epochs]) != self.first_log:
                problems.append("leading epochs differ from the timed run's log")
            return problems

        code = _cli(inp.pkg, ["train", "--manifest", inp.train_manifest, "--config", inp.config,
                     "--epochs", LEARN_EPOCHS, "--log-out", log])[0]
        problems = _exit_problems(code)
        self.ledger.op("learnability", problems or check())

    def eval(self) -> tuple | None:
        inp = self.inp
        ckpt = inp.train_checkpoint if self.spec.eval_trained else inp.eval_checkpoint
        part = self.eval_calls % len(inp.eval_manifests)
        manifest, n_records = inp.eval_manifests[part]
        self.eval_calls += 1
        box = {}

        def run():
            code, box["out"] = _cli(inp.pkg, ["eval", "--checkpoint", ckpt, "--manifest", manifest])
            return _exit_problems(code)

        def check():
            report = box["out"].strip().splitlines()[-1]
            problems = []
            total = int(np.sum(json.loads(report)["confusion"]))
            if total != n_records:
                problems.append(f"{manifest.name}: confusion matrix sums to {total}, expected {n_records}")
            if self.first_reports.setdefault(part, report) != report:
                problems.append(f"{manifest.name}: eval report differs from the first repeat")
            return problems

        return self._stage("eval", n_records, run, check)

    def extract(self) -> tuple | None:
        inp = self.inp
        out_dir = inp.work / "extract"

        def run():
            return [f"{wav.name}: exit code {code}" for wav, _ in inp.clips
                    if (code := _cli(inp.pkg, ["extract", wav, "--out-dir", out_dir])[0]) != 0]

        def check():
            read_feature_file = sys.modules[f"{inp.pkg}.dataio"].read_feature_file
            problems = []
            for wav, n in inp.clips:
                expected = (1 + (n - FRAME_LEN) // HOP_LEN,)
                for kind, cols in (("mfcc", N_MFCC), ("lld", LLD_COLS)):
                    m = read_feature_file(out_dir / f"{wav.stem}_{kind}.mpft")
                    if m.shape != expected + (cols,):
                        problems.append(f"{wav.name} {kind} shape {m.shape}, expected {expected + (cols,)}")
                    elif not np.all(np.isfinite(m)):
                        problems.append(f"{wav.name} {kind} has non-finite values")
            shutil.rmtree(out_dir)  # so the next call has to write every file again
            return problems

        return self._stage("extract", self.audio_seconds, run, check)

    def round(self) -> None:
        """One call of each command; eval reads what train wrote."""
        for stage in STAGES:
            getattr(self, stage)()
