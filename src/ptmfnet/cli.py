"""Single command-line entry point for the whole pipeline.

Subcommands: extract (WAV -> feature files), synth (synthetic corpus),
train, eval, ablate, gradcheck. Exit codes: 0 success, 1 validation error
(including bad flags), 2 I/O error. Diagnostics go to stderr; results go to
stdout or --out paths. Every run echoes its fully resolved configuration to
stderr first, so logged runs are self-describing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .ablation import VARIANTS, run_ablation, write_ablation_csv
from .autodiff import collect_parameters
from .checkpoint import load_into, save_checkpoint
from .dataio import (TASKS, SynthSpec, atomic_write, load_manifest, synth_dataset,
                     write_feature_file)
from .dsp import MelConfig, default_frame_config, extract_lld_bundle, mfcc, read_wav
from .errors import DataFormatError, ValidationError
from .gradcheck import run_battery
from .model import DepressionModel, ModelConfig, load_sample_features
from .training import evaluate, train

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ModelConfig)}


class _Parser(argparse.ArgumentParser):
    """Flag mistakes are validation errors (exit 1), not the argparse
    default of 2, which this tool reserves for I/O failures. A negative
    number in any form float() reads (-1e-4, -.5E3, -inf) is a flag's
    value, so its range check can reject it; argparse itself only knows
    -12 and -1.5 and takes the rest for an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _echo_config(command: str, resolved: dict) -> None:
    sys.stderr.write(f"config[{command}]: {json.dumps(resolved, sort_keys=True, default=str)}\n")


def _require_file(path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _read_config_file(path, what: str) -> dict:
    """A JSON object of ModelConfig fields; anything else is rejected."""
    cfg_path = _require_file(path, what)
    try:
        loaded = json.loads(cfg_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{what} {cfg_path} is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ValidationError(f"{what} {cfg_path} must hold a key-value object")
    unknown = sorted(set(loaded) - _CONFIG_FIELDS)
    if unknown:
        raise ValidationError(f"unknown keys {unknown} in {what} {cfg_path}; "
                              f"valid keys: {sorted(_CONFIG_FIELDS)}")
    return loaded


def _require_seed(seed: int) -> int:
    if seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {seed}")
    return seed


# (ModelConfig field, type, help) for the override flags of both train and ablate
_CONFIG_FLAGS = (
    ("epochs", int, "training epochs"),
    ("seed", int, "run seed"),
    ("lr", float, "Adam learning rate"),
    ("batch_size", int, "samples per step"),
    ("val_fraction", float, "validation share"),
    ("dropout", float, "dropout rate"),
)


def _add_config_flags(p, *own) -> None:
    """--config, then the subcommand's own (flag, kwargs) pairs, then one
    override flag per _CONFIG_FLAGS field, in that help order."""
    p.add_argument("--config", default=None, help="JSON file of config overrides")
    for flag, kwargs in own:
        p.add_argument(flag, **kwargs)
    for name, type_, help_text in _CONFIG_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), type=type_, default=None, help=help_text)


def _model_config_from(args, *own_fields: str) -> ModelConfig:
    """Built-in defaults <- config file <- command-line flags."""
    data: dict = {}
    if args.config:
        data.update(_read_config_file(args.config, "config file"))
    for name in (*own_fields, *(field for field, _, _ in _CONFIG_FLAGS)):
        value = getattr(args, name)
        if value is not None:
            data[name] = value
    return ModelConfig.from_dict(data)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_extract(args) -> int:
    wav_path = _require_file(args.wav, "wav file")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    w = read_wav(wav_path)
    fcfg = default_frame_config(w.sample_rate, args.frame_ms, args.hop_ms)
    n_fft = 1 << (fcfg.frame_len - 1).bit_length()  # the least power of two >= frame_len
    mcfg = MelConfig(n_fft=n_fft, n_mels=26, n_mfcc=args.n_mfcc,
                     fmin=0.0, fmax=w.sample_rate / 2.0)
    _echo_config("extract", {"wav": str(wav_path), "features": args.features,
                             "frame_ms": args.frame_ms, "hop_ms": args.hop_ms,
                             "n_mfcc": args.n_mfcc, "sample_rate": w.sample_rate,
                             "frame_len": fcfg.frame_len, "hop_len": fcfg.hop_len,
                             "n_fft": n_fft, "out_dir": str(out_dir)})
    written = []
    if args.features in ("mfcc", "both"):
        path = out_dir / f"{wav_path.stem}_mfcc.mpft"
        write_feature_file(mfcc(w, fcfg, mcfg), path)
        written.append(path)
    if args.features in ("lld", "both"):
        path = out_dir / f"{wav_path.stem}_lld.mpft"
        write_feature_file(extract_lld_bundle(w, fcfg), path)
        written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_synth(args) -> int:
    rng = np.random.default_rng(_require_seed(args.seed))
    spec = SynthSpec(n_samples=args.n, task=args.task, class_sep=args.class_sep,
                     personality_sep=args.personality_sep)
    _echo_config("synth", {"n": args.n, "task": args.task, "class_sep": args.class_sep,
                           "personality_sep": args.personality_sep, "seed": args.seed,
                           "out_dir": args.out_dir})
    manifest = synth_dataset(spec, rng, Path(args.out_dir))
    print(manifest)
    return EXIT_OK


def _cmd_train(args) -> int:
    manifest = _require_file(args.manifest, "manifest")
    cfg = _model_config_from(args, "task")
    _echo_config("train", {"manifest": str(manifest), **cfg.to_dict()})
    records = load_manifest(manifest)
    for out in filter(None, (args.log_out, args.checkpoint_out)):  # made before training, not after
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    state = train(cfg, records, log_path=args.log_out)
    for row in state.log:
        sys.stderr.write(json.dumps(row, sort_keys=True) + "\n")
    if args.checkpoint_out:
        ckpt = Path(args.checkpoint_out)
        # the new sidecar replaces the old one only once the checkpoint is written
        with atomic_write(str(ckpt) + ".json", encoding="utf-8") as fh:
            fh.write(json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n")
            save_checkpoint(ckpt, collect_parameters(state.model))
    summary = {
        "best_epoch": state.best_epoch,
        "best_val_f1_task": state.best_val_f1,
        "final_train_acc": state.log[-1]["train_acc"] if state.log else None,
        "val_metrics": state.val_metrics.to_dict() if state.val_metrics else None,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_eval(args) -> int:
    ckpt = _require_file(args.checkpoint, "checkpoint")
    manifest = _require_file(args.manifest, "manifest")
    cfg = ModelConfig.from_dict(_read_config_file(str(ckpt) + ".json", "checkpoint config sidecar"))
    if args.task is not None and args.task != cfg.task:
        raise ValidationError(
            f"task mismatch: checkpoint was trained for {cfg.task!r}, requested {args.task!r}")
    _echo_config("eval", {"checkpoint": str(ckpt), "manifest": str(manifest), **cfg.to_dict()})
    model = DepressionModel(cfg)
    load_into(collect_parameters(model), ckpt)
    records = load_manifest(manifest)
    if not records:
        raise ValidationError(f"manifest {manifest} holds no records to evaluate")
    feats = [load_sample_features(r, cfg) for r in records]
    report = evaluate(model, feats)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def _names(text: str, what: str, choices) -> tuple:
    """A comma-separated flag value as a non-empty tuple of known names."""
    choices = tuple(choices)
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise ValidationError(f"--{what}s names no {what}; choose from {choices}")
    for n in names:
        if n not in choices:
            raise ValidationError(f"unknown {what} {n!r}; choose from {choices}")
    return names


def _cmd_ablate(args) -> int:
    manifest = _require_file(args.manifest, "manifest")
    cfg = _model_config_from(args)
    tasks = _names(args.tasks, "task", TASKS)
    variants = _names(args.variants, "variant", VARIANTS)
    _echo_config("ablate", {"manifest": str(manifest), "tasks": list(tasks),
                            "variants": list(variants), "out": args.out, **cfg.to_dict()})
    records = load_manifest(manifest)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)  # made before training, not after
    rows = run_ablation(cfg, records, tasks=tasks, variants=variants,
                        progress=lambda line: sys.stderr.write(line + "\n"))
    write_ablation_csv(rows, args.out)
    print(args.out)
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    _require_seed(args.seed)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValidationError(f"--tol must be a positive, finite number, got {args.tol!r}")
    _echo_config("gradcheck", {"seed": args.seed, "tol": args.tol})
    worst = None  # (larger error, block, both errors) of the worst parameter above tol
    for block, errors in run_battery(args.seed).items():
        for name, (rel, scaled) in errors.items():
            err = max(rel, scaled)
            print(f"{block}.{name} max_rel_err={rel:.3e} block_scaled_err={scaled:.3e} "
                  f"{'ok' if err <= args.tol else 'FAIL'}")
            if err > args.tol and (worst is None or err > worst[0]):
                worst = (err, block, rel, scaled)
    if worst is not None:
        _, block, rel, scaled = worst
        sys.stderr.write(f"gradcheck failed: {block} (seed {args.seed}) "
                         f"max_rel_err={rel:.3e} block_scaled_err={scaled:.3e}\n")
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="ptmfnet",
                     description="Multimodal depression-detection pipeline tools",
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        return p

    p = add("extract", "extract MFCC/LLD features from a 16-bit mono WAV", _cmd_extract)
    p.add_argument("wav", help="input RIFF WAV path")
    p.add_argument("--features", choices=("mfcc", "lld", "both"), default="both",
                   help="which feature matrices to write")
    p.add_argument("--frame-ms", type=float, default=25.0, help="frame length in ms")
    p.add_argument("--hop-ms", type=float, default=10.0, help="hop length in ms")
    p.add_argument("--n-mfcc", type=int, default=13, help="number of cepstral coefficients")
    p.add_argument("--out-dir", default=".", help="directory for the output files")

    p = add("synth", "generate a labeled synthetic corpus with a manifest", _cmd_synth)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--task", choices=TASKS, default="binary", help="label granularity")
    p.add_argument("--class-sep", type=float, default=1.0,
                   help="feature-mean separation per class index")
    p.add_argument("--personality-sep", type=float, default=None,
                   help="personality-embedding separation (defaults to --class-sep)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out-dir", required=True, help="output directory")

    p = add("train", "train a model from a manifest", _cmd_train)
    p.add_argument("--manifest", required=True, help="manifest.jsonl path")
    _add_config_flags(p, ("--task", dict(choices=TASKS, default=None, help="label granularity")))
    p.add_argument("--log-out", default=None, help="JSONL epoch log path")
    p.add_argument("--checkpoint-out", default=None, help="checkpoint path (.json sidecar added)")

    p = add("eval", "evaluate a checkpoint on a manifest", _cmd_eval)
    p.add_argument("--checkpoint", required=True, help="checkpoint path from train")
    p.add_argument("--manifest", required=True, help="manifest.jsonl path")
    p.add_argument("--task", choices=TASKS, default=None,
                   help="assert the checkpoint was trained for this task")

    p = add("ablate", "train all branch-ablation variants and tabulate metrics", _cmd_ablate)
    p.add_argument("--manifest", required=True, help="manifest.jsonl path")
    _add_config_flags(p,
                      ("--tasks", dict(default=",".join(TASKS), help="comma-separated task list")),
                      ("--variants", dict(default=",".join(VARIANTS), help="comma-separated variant list")),
                      ("--out", dict(default="ablation.csv", help="CSV output path")))

    p = add("gradcheck", "finite-difference check of every differentiable block", _cmd_gradcheck)
    p.add_argument("--seed", type=int, default=0, help="weight/input seed")
    p.add_argument("--tol", type=float, default=1e-4, help="max relative error allowed")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits for --help and flag errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (DataFormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
