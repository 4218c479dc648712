"""Ablation study: retrain the model with single branches disabled and
tabulate validation metrics per task into a CSV."""

from __future__ import annotations

import csv
from pathlib import Path

from .dataio import TASKS, atomic_write
from .model import ModelConfig
from .training import train

# variant name -> config overrides; "full" keeps every branch on
VARIANTS: dict[str, dict] = {
    "full": {},
    "wo_multi_audio": {"multi_audio": False},
    "wo_co_att": {"co_att": False},
    "wo_multi_visual": {"multi_visual": False},
    "wo_ptmfim": {"ptmfim": False},
}

CSV_COLUMNS = ["variant", "task", "acc_task", "f1_task", "acc_w", "acc_u", "f1_w", "f1_u"]


def run_variant(base_cfg: ModelConfig, records, variant: str, task: str) -> dict:
    cfg = base_cfg.with_overrides(task=task, **VARIANTS[variant])
    state = train(cfg, records)
    m = state.val_metrics
    return {
        "variant": variant,
        "task": task,
        "acc_task": m.acc_task,
        "f1_task": m.f1_task,
        "acc_w": m.acc_weighted,
        "acc_u": m.acc_unweighted,
        "f1_w": m.f1_weighted,
        "f1_u": m.f1_unweighted,
    }


def run_ablation(base_cfg: ModelConfig, records, tasks=TASKS,
                 variants=tuple(VARIANTS), progress=None) -> list[dict]:
    """Train every (variant, task) pair from scratch on the same records.

    Rows come back in variant-major order within each task, matching
    CSV_COLUMNS. `progress` is an optional callable fed one line per run.
    """
    rows = []
    for task in tasks:
        for variant in variants:
            if progress is not None:
                progress(f"training variant={variant} task={task}")
            rows.append(run_variant(base_cfg, records, variant, task))
    return rows


def write_ablation_csv(rows: list[dict], path) -> Path:
    path = Path(path)
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in CSV_COLUMNS})
    return path
